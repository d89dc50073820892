import dataclasses
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import memlab
from memlab import (
    ConfigError,
    Drive,
    OnePort,
    SignalKind,
    Sinusoid,
    SquareWave,
    Trajectory,
    memristive,
)
from memlab.core import Rate, accumulate_integrals, terminal_pair
from memlab.models import PiecewiseR1

from oracles import r1_of_t
from test_models import _recorded_y


def test_sinusoid_values():
    w = Sinusoid(amplitude=2.0, frequency=0.5)
    assert w.value(0.0) == 0.0
    assert w.value(0.5) == pytest.approx(2.0)
    assert w.value(1.5) == pytest.approx(-2.0)


def test_sinusoid_phase():
    w = Sinusoid(amplitude=1.0, frequency=1.0, phase=math.pi / 2)
    assert w.value(0.0) == pytest.approx(1.0)


def test_waveform_validation():
    with pytest.raises(ConfigError):
        Sinusoid(amplitude=-1.0, frequency=1.0)
    with pytest.raises(ConfigError):
        Sinusoid(amplitude=1.0, frequency=0.0)
    with pytest.raises(ConfigError):
        SquareWave(amplitude=1.0, frequency=1.0, duty=0.0)
    with pytest.raises(ConfigError):
        SquareWave(amplitude=1.0, frequency=1.0, duty=1.5)
    # zero amplitude is a legal null drive (free relaxation runs)
    Sinusoid(amplitude=0.0, frequency=1.0)


def _square_level(amplitude, frequency, duty, t):
    # the level rule of a square wave written out: the high part of each
    # period is [0, duty * period) of t reduced into [0, period) by fmod
    period = 1.0 / frequency
    s = math.fmod(t, period)
    if s < 0.0:
        s += period
    return amplitude if s < duty * period else -amplitude


def _hexes(values):
    return [float(v).hex() for v in values]


@given(
    amplitude=st.floats(0.0, 1e6),
    frequency=st.floats(1e-9, 1e6),
    phase=st.floats(-10.0, 10.0),
    duty=st.floats(0.0, 1.0, exclude_min=True),
    high=st.floats(1e-3, 1e6),
    low=st.floats(1e-3, 1e6),
    r1_period=st.floats(1e-6, 1e6),
    times=st.lists(st.floats(0.0, 1e9), max_size=8),
    cycles=st.lists(st.integers(0, 10**6), max_size=4),
)
def test_a_sampler_gives_the_waveform_values_bit_for_bit(
    amplitude, frequency, phase, duty, high, low, r1_period, times, cycles
):
    # each periodic signal's value against its closed form, and its columns
    # against its value, hex for hex: at drawn times, at its break times
    # k*period and k*period + (duty or 1/2)*period, cycle 0 always among
    # them, and one float either side of each
    def at_breaks(period, fraction):
        breaks = [tb for k in (0, *cycles) for tb in (k * period, k * period + fraction * period)]
        return times + breaks + [
            math.nextafter(tb, to) for tb in breaks for to in (-math.inf, math.inf)
        ]

    T, R = at_breaks(1.0 / frequency, duty), at_breaks(r1_period, 0.5)
    cases = [
        (Sinusoid(amplitude, frequency, phase), T,
         [amplitude * math.sin(2.0 * math.pi * frequency * t + phase) for t in T]),
        (SquareWave(amplitude, frequency, duty), T,
         [_square_level(amplitude, frequency, duty, t) for t in T]),
        (PiecewiseR1(high, low, r1_period), R, [r1_of_t(t, high, low, r1_period) for t in R]),
    ]
    for signal, at, want in cases:
        assert _hexes(map(signal.value, at)) == _hexes(want), signal
        assert _hexes(signal.columns(np.array(at)).tolist()) == _hexes(want), signal


def test_square_wave_is_right_continuous():
    w = SquareWave(amplitude=3.0, frequency=0.1)  # period 10, duty 0.5
    assert w.value(0.0) == 3.0
    assert w.value(4.999) == 3.0
    assert w.value(5.0) == -3.0  # switch sample belongs to the low side
    assert w.value(9.999) == -3.0
    assert w.value(10.0) == 3.0


def test_square_wave_full_duty_is_dc():
    w = SquareWave(amplitude=1e-3, frequency=0.01, duty=1.0)
    for t in (0.0, 13.7, 99.999, 100.0, 1234.5):
        assert w.value(t) == 1e-3
    assert w.breaks == ((100.0, (0.0,)),)


def test_square_wave_breakpoints():
    w = SquareWave(amplitude=1.0, frequency=0.5, duty=0.25)
    assert w.breaks == ((2.0, (0.0, 0.5)),)
    assert Sinusoid(amplitude=1.0, frequency=2.0).breaks == ()


def test_drive_properties():
    d = Drive(SignalKind.CURRENT, Sinusoid(amplitude=0.5, frequency=0.25))
    assert d.period == pytest.approx(4.0)
    assert d.frequency == 0.25
    assert d.amplitude == 0.5
    d2 = d.with_frequency(2.0)
    assert d2.period == pytest.approx(0.5)
    assert d2.amplitude == 0.5
    assert d2.kind is SignalKind.CURRENT
    assert d.frequency == 0.25  # original untouched


def test_a_sinusoid_whose_angular_frequency_overflows_is_refused():
    # value takes sin(2*pi*frequency*t + phase); past sys.float_info.max /
    # (2*pi), about 2.86e307 Hz, 2*pi*frequency is inf and every sample NaN.
    # A square wave takes no 2*pi*frequency, and builds
    big = sys.float_info.max / 4.0
    message = f"sinusoid frequency {big!r} Hz overflows 2*pi*frequency"
    for build in (
        lambda: Sinusoid(amplitude=1.0, frequency=big),
        lambda: Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=1.0)).with_frequency(big),
    ):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message
    ok = Sinusoid(amplitude=1.0, frequency=sys.float_info.max / 8.0)
    assert math.isfinite(ok.value(0.0))
    assert SquareWave(amplitude=1.0, frequency=big).value(0.0) == 1.0


@pytest.mark.parametrize("wave, name", [(Sinusoid, "sinusoid"), (SquareWave, "square wave")])
def test_a_frequency_without_a_finite_period_is_refused(wave, name):
    # 1/1e-310 overflows to inf; with_frequency builds its waveform anew, so
    # a drive retuned there is refused as well
    message = f"{name} frequency 1e-310 Hz has no finite period"
    for build in (
        lambda: wave(amplitude=1.0, frequency=1e-310),
        lambda: Drive(SignalKind.CURRENT, wave(amplitude=1.0, frequency=1.0)).with_frequency(1e-310),
    ):
        with pytest.raises(ConfigError) as exc:
            build()
        assert str(exc.value) == message
    # a bound before it in field order is reported first, and duty after it
    with pytest.raises(ConfigError) as exc:
        wave(amplitude=-1.0, frequency=1e-310)
    assert str(exc.value) == f"{name} amplitude must be >= 0"
    if wave is SquareWave:
        with pytest.raises(ConfigError) as exc:
            SquareWave(amplitude=1.0, frequency=1e-310, duty=0.0)
        assert str(exc.value) == message


def test_terminal_pair_orientation():
    u = np.array([1.0, 2.0])
    y = np.array([10.0, 20.0])
    v, i = terminal_pair(SignalKind.CURRENT, u, y)
    assert v is y and i is u
    v, i = terminal_pair(SignalKind.VOLTAGE, u, y)
    assert v is u and i is y


def _resistor(r=2.0):
    return memristive(
        input_kind=SignalKind.CURRENT,
        f=lambda x, u, t: (0.0,),
        g=lambda x, u, t: r,
        initial_state=(0.0,),
        name="resistor",
    )


def test_memristive_output_is_g_times_u():
    m = _resistor(r=7.0)
    assert _recorded_y(m, [((0.0,), 3.0, 0.0)])[0] == pytest.approx(21.0)


def test_output_calls_a_replaced_output_fn():
    m = dataclasses.replace(_resistor(r=7.0), output_fn=lambda x, u, t: 42.0)
    assert _recorded_y(m, [((0.0,), 3.0, 0.0)])[0] == 42.0


def test_the_state_size_is_the_initial_state_length():
    assert _resistor().state_dim == 1
    with pytest.raises(ConfigError, match="empty initial state"):
        dataclasses.replace(_resistor(), initial_state=())


def test_a_rate_evaluates_its_expression_on_its_bound_names():
    # names bind constants and helpers, even one called rate; a builtin
    # needs no binding
    rate = Rate("k * (u - x) + abs(t) + rate", {"k": 2.0, "rate": 0.25})
    assert rate(1.0, 4.0, -0.5) == 6.75


@pytest.mark.parametrize(
    "source, names, message",
    [
        ("x +", {}, "rate 'x \\+' is not an expression"),
        ("x = u", {}, "is not an expression"),
        ("k * (u - x)", {}, "reads unbound names k$"),
        ("k * (u - x) + g(t) + h", {"k": 2.0}, "reads unbound names g, h$"),
    ],
    ids=["incomplete", "statement", "unbound", "two-unbound"],
)
def test_a_bad_rate_is_a_config_error_when_built(source, names, message):
    # refused as it is built, not left to fail with a NameError at the
    # first step of a run
    with pytest.raises(ConfigError, match=message):
        Rate(source, names)


def test_generic_one_port_output():
    p = OnePort(
        input_kind=SignalKind.CURRENT,
        f=lambda x, u, t: (0.0, 0.0),
        output_fn=lambda X, U, T: X[:, 0] + 2.0 * U,
        initial_state=(1.0, 0.0),
        name="affine",
    )
    assert _recorded_y(p, [((1.0, 0.0), 3.0, 0.0)])[0] == pytest.approx(7.0)


def _toy_traj(n=400, cycles=2, freq=1.0):
    dt = 1.0 / (freq * n)
    t = np.arange(cycles * n + 1) * dt
    u = np.sin(2.0 * math.pi * freq * t)
    y = 2.0 * u
    v, i = terminal_pair(SignalKind.CURRENT, u, y)
    return Trajectory(
        dt=dt, t=t, u=u, y=y, v=v, i=i,
        state=np.zeros((len(t), 1)), steps_per_cycle=n,
    )


def test_accumulate_integrals_against_closed_form():
    traj = accumulate_integrals(_toy_traj(n=2000))
    assert traj.q[0] == 0.0 and traj.phi[0] == 0.0
    w = 2.0 * math.pi
    exact_q = (1.0 - np.cos(w * traj.t)) / w
    assert np.max(np.abs(traj.q - exact_q)) < 1e-6
    # phi of a linear resistor is just 2*q
    assert np.max(np.abs(traj.phi - 2.0 * exact_q)) < 2e-6


def test_accumulate_integrals_rejects_nonuniform_grid():
    traj = _toy_traj(n=200)
    traj.t[5] += 1e-3
    with pytest.raises(ValueError):
        accumulate_integrals(traj)


@pytest.mark.parametrize("dt", [1e-3, 0.25e-3, 1 / 3, 7.0013, 5e-5])
def test_accumulate_integrals_takes_a_long_run_grid(dt):
    # t = k*dt rounds by up to half its spacing, ~k * 1.1e-16 of dt: near the
    # 2e7-step budget that is over 1e-9 of dt, and the grid is still uniform
    k0 = 1.9e7
    t = np.arange(k0, k0 + 4001) * dt
    u = np.sin(t)
    traj = Trajectory(
        dt=dt, t=t, u=u, y=u, v=u, i=u, state=np.zeros((len(t), 1)), steps_per_cycle=2000
    )
    assert len(accumulate_integrals(traj).q) == 4001
    bent = t.copy()
    bent[2000] += 1e-6 * dt
    with pytest.raises(ValueError, match="non-uniform"):
        accumulate_integrals(dataclasses.replace(traj, t=bent))


def test_trajectory_cycle_slicing():
    traj = accumulate_integrals(_toy_traj(n=100, cycles=3))
    assert traj.n_cycles == 3
    c1 = traj.cycle(1)
    assert len(c1) == 101
    assert c1.t[0] == pytest.approx(1.0)
    assert c1.t[-1] == pytest.approx(2.0)
    # integrals are carried over, not re-zeroed
    assert c1.phi[0] == traj.phi[100]
    with pytest.raises(IndexError):
        traj.cycle(3)


def test_trajectory_window_plain_slice():
    traj = _toy_traj(n=100)
    w = traj.window(10, 20)
    assert len(w) == 10
    assert w.t[0] == traj.t[10]


def test_the_package_exports_exactly_what_readme_lists():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listed = readme.split("The package exports exactly these names:\n\n", 1)[1].split("\n\n", 1)[0]
    assert set(memlab.__all__) == set(re.findall(r"`(\w+)`", listed))
