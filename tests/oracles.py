"""Closed forms the tests compare the models against.

Plain-float formulas written from the circuit equations, apart from
memlab.models: they share no code with the package, so a test that checks a
model against them checks it against the physics, not against itself.
"""

import math


def thermistor_resistance(params, temperature):
    """R(T) = r0 * exp(beta * (1/T - 1/t0)) of an NTC thermistor."""
    return params.r0 * math.exp(params.beta * (1.0 / temperature - 1.0 / params.t0))


def thermistor_equilibrium_temperature(params, i_dc):
    """The settled temperature under a constant current: the root of the DC
    heat balance delta * (T - t0) = R(T) * i^2, by bisection on
    [t0, t0 + 500 K] until the power residual is below 1e-12 W."""
    i_sq = i_dc * i_dc
    if i_sq == 0.0:
        return params.t0

    def residual(temp):
        return params.delta * (temp - params.t0) - thermistor_resistance(params, temp) * i_sq

    lo, hi = params.t0, params.t0 + 500.0
    assert residual(hi) > 0.0, f"no equilibrium below {hi} K at {i_dc} A"
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        r = residual(mid)
        if abs(r) < 1e-12:
            return mid
        if r > 0.0:
            hi = mid
        else:
            lo = mid
    raise AssertionError(f"bisection did not settle at {i_dc} A")


def closed_switch_count(q, q0, n):
    """Switches closed at charge q: switch k closes at q >= k*q0, so the
    count is clamp(floor(q/q0), 0, n)."""
    return min(max(math.floor(q / q0), 0), n)


def r1_of_t(t, high, low, period):
    """The toggling series resistor: high on [0, period/2], low on
    (period/2, period), repeating in both directions of t."""
    s = t % period
    return high if s <= 0.5 * period else low


def switch_times(amplitude, frequency, q0, n):
    """The times in the first period at which the switched chain's charge
    crosses k*q0, k = 1..n, under i = A*sin(wt) from q = 0, sorted. The
    charge is q(t) = (A/w)(1 - cos wt), so k*q0 is reached rising at
    acos(1 - k*q0*w/A)/w and falling at (2*pi - acos(1 - k*q0*w/A))/w; a
    threshold above the peak charge 2A/w is never crossed."""
    w = 2.0 * math.pi * frequency
    times = []
    for k in range(1, n + 1):
        c = 1.0 - k * q0 * w / amplitude
        if c > -1.0:
            rising = math.acos(c)
            times += [rising / w, (2.0 * math.pi - rising) / w]
    return sorted(times)
