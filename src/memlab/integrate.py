"""Fixed-step RK4 integration of driven one-ports with event localization.

Steps are split at resistance discontinuities so no RK4 stage ever straddles a
jump: periodic time breakpoints are split analytically, state-threshold
crossings are bisected to within the event tolerance. The sample grid itself is
untouched; all splitting is internal to a grid step.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigError,
    Drive,
    MemlabError,
    ModelEvaluationError,
    SignalKind,
    Trajectory,
    accumulate_integrals,
    check_finite,
    terminal_pair,
)


# the most grid steps one run may take: about 30 s of stepping at 1.5 us a
# step, and a record of at most 1 GB
MAX_GRID_STEPS = 20_000_000

# grid intervals per recorded chunk: march gathers a chunk's samples in lists
# and stores each column of it with one slice assignment
CHUNK = 1024


class SimulationError(MemlabError):
    """Runtime failure while integrating (as opposed to a bad configuration)."""


class BlowUpError(SimulationError):
    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class SteadyStateError(SimulationError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class EventLocalizationError(SimulationError):
    pass


@dataclass(frozen=True)
class SimControls:
    """Integration controls.

    dt=None picks period/2000. The step is always adjusted downward so that an
    even number of steps divides the drive period exactly; dt must not exceed
    period/200. event_tolerance (seconds, default dt/1000) bounds how precisely
    threshold crossings are localized.
    """

    dt: float | None = None
    transient_cycles: int = 2
    record_cycles: int = 2
    event_tolerance: float | None = None
    steady_state_rel_tol: float = 1e-6

    def __post_init__(self):
        check_finite(self)
        if self.dt is not None and self.dt <= 0.0:
            raise ConfigError("dt must be > 0")
        if self.transient_cycles < 0:
            raise ConfigError("transient_cycles must be >= 0")
        if self.record_cycles < 1:
            raise ConfigError("record_cycles must be >= 1")
        if self.event_tolerance is not None and self.event_tolerance <= 0.0:
            raise ConfigError("event_tolerance must be > 0")
        if self.steady_state_rel_tol <= 0.0:
            raise ConfigError("steady_state_rel_tol must be > 0")


def resolve_step(controls: SimControls, period: float) -> tuple[float, int]:
    """Effective (dt, steps_per_cycle): dt divides the period, step count even."""
    if period <= 0.0:
        raise ConfigError("drive period must be > 0")
    if controls.dt is None:
        n = 2000
    else:
        limit = period / 200.0
        if controls.dt > limit * (1.0 + 1e-12):
            raise ConfigError(
                f"dt = {controls.dt} violates dt <= period/200 = {limit} for this drive"
            )
        if period / controls.dt > MAX_GRID_STEPS:
            raise ConfigError(
                f"dt = {controls.dt} takes {period / controls.dt:.3g} grid steps per "
                f"cycle, over the budget of {MAX_GRID_STEPS}"
            )
        n = math.ceil(period / controls.dt - 1e-9)
        if n % 2:
            n += 1
    return period / n, n


def _resolve_event_tol(controls: SimControls, dt: float) -> float:
    if controls.event_tolerance is None:
        return dt * 1e-3
    if controls.event_tolerance >= dt:
        raise ConfigError("event_tolerance must be smaller than dt")
    return controls.event_tolerance


def check_compatible(model, drive: Drive) -> None:
    """Reject current-controlled models on voltage sources and vice versa."""
    if model.input_kind is not drive.kind:
        raise ConfigError(
            f"model {model.name!r} is {model.input_kind.value}-controlled "
            f"but the drive imposes a {drive.kind.value}"
        )


def locate_events(
    step,
    x0: tuple,
    t0: float,
    h: float,
    *,
    monitor: int | None = None,
    thresholds=(),
    time_breaks=(),
    event_tol: float,
    max_bisect: int = 64,
    trial: tuple | None = None,
):
    """Advance x over [t0, t0+h], splitting at events; returns [(t, x), ...].

    step(x, a, b) must integrate the smooth dynamics over [a, b]. time_breaks
    are known discontinuity times strictly inside the interval (split exactly).
    thresholds are sorted ascending: a step crosses one when the count of
    thresholds at or below the monitored state component changes, and the
    crossing is bisected on the step size until the bracket is below
    event_tol, the step landing on the crossed side. trial, when given, is
    step(x0, t0, t0 + h) already taken; it stands for the first step of an
    interval without time_breaks.
    """
    watched = monitor is not None and len(thresholds) > 0
    bounds = [t0, *time_breaks, t0 + h]
    out: list[tuple[float, tuple]] = []
    x = x0
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        while b - a > 0.0:
            x1 = step(x, a, b) if trial is None else trial
            trial = None
            if not watched or (side := bisect_right(thresholds, x[monitor])) == bisect_right(
                thresholds, x1[monitor]
            ):
                out.append((b, x1))
                x = x1
                break
            lo, hi = 0.0, b - a
            x_hi = x1
            iters = 0
            while hi - lo > event_tol:
                iters += 1
                if iters > max_bisect:
                    raise EventLocalizationError(
                        f"threshold crossing near t = {a} not localized in {max_bisect} bisections"
                    )
                mid = 0.5 * (lo + hi)
                probe = step(x, a, a + mid)
                if bisect_right(thresholds, probe[monitor]) != side:
                    hi = mid
                    x_hi = probe
                else:
                    lo = mid
            x = x_hi
            a = a + hi
            out.append((a, x))
    if not out:
        out.append((t0 + h, x0))
    return out


def _scalar_rk4(rate):
    """One classical RK4 step of a one-state model on its float derivative
    rate(x0, u, t), taking and returning a 1-tuple; the stages and inputs
    are given, so the caller decides where they sit."""

    def rk4(x, u1, um, u4, ta, tm, tb, h):
        x0 = x[0]
        c1 = rate(x0, u1, ta)
        h2 = 0.5 * h
        c2 = rate(x0 + h2 * c1, um, tm)
        c3 = rate(x0 + h2 * c2, um, tm)
        c4 = rate(x0 + h * c3, u4, tb)
        h6 = h / 6.0
        return (x0 + h6 * (c1 + 2.0 * (c2 + c3) + c4),)

    return rk4


def _tuple_rk4(f):
    """The same step on a state tuple and f(x, u, t) -> tuple; each component
    takes the same operations in the same order as the float step."""

    def rk4(x, u1, um, u4, ta, tm, tb, h):
        k1 = f(x, u1, ta)
        h2 = 0.5 * h
        k2 = f(tuple([xi + h2 * ki for xi, ki in zip(x, k1)]), um, tm)
        k3 = f(tuple([xi + h2 * ki for xi, ki in zip(x, k2)]), um, tm)
        k4 = f(tuple([xi + h * ki for xi, ki in zip(x, k3)]), u4, tb)
        h6 = h / 6.0
        return tuple(
            [
                xi + h6 * (c1 + 2.0 * (c2 + c3) + c4)
                for xi, c1, c2, c3, c4 in zip(x, k1, k2, k3, k4)
            ]
        )

    return rk4


class _Engine:
    """Shared stepping machinery for simulate and detect_steady_state."""

    def __init__(self, model, drive: Drive, dt: float, event_tol: float):
        self.model = model
        self.dt = dt
        self.event_tol = event_tol
        self.value = drive.waveform.sampler()
        specs = []
        if model.breakpoint_period is not None:
            specs.append((model.breakpoint_period, tuple(model.breakpoint_offsets)))
        drive_offsets = drive.breakpoint_offsets()
        if drive_offsets:
            specs.append((drive.period, drive_offsets))
        self.specs = specs
        # which thresholds the monitored component lies between is the count
        # of them at or below it; nothing compares below NaN, so a NaN
        # threshold is never crossed
        monitored = model.thresholds if model.threshold_component is not None else ()
        self.sorted_thresholds = tuple(sorted(th for th in monitored if not math.isnan(th)))
        # one RK4 kernel per state kind: a one-state model steps a float on its
        # float derivative, a larger state steps a tuple on f
        self.rate = None
        if model.state_dim == 1:
            f = model.f
            self.rate = getattr(f, "scalar", None)
            if self.rate is None:  # a tuple-only f, or one that replaced a model's f

                def rate(x0, u, t):
                    return f((x0,), u, t)[0]

                self.rate = rate
        self.rk4 = _tuple_rk4(model.f) if self.rate is None else _scalar_rk4(self.rate)

    def breaks(self, t0: float, t1: float) -> list[float]:
        """The break times in [t0, t1], sorted: off + m*period for integer m,
        each spec and offset. A break within 1e-9 of its period of an end is
        returned as that end: step evaluates a stage there a hair inside the
        interval, and grid_step splits only at the breaks between the ends.
        A time within 1e-12 of the step after the one before it is dropped,
        unless it is t1: each end found is returned."""
        found: list[float] = []
        for period, offsets in self.specs:
            tol = 1e-9 * period
            for off in offsets:
                m = math.floor((t0 - off) / period)
                while (tb := off + m * period) < t1 + tol:
                    at_t0 = abs(tb - t0) < tol
                    if at_t0:
                        found.append(t0)
                    if abs(tb - t1) < tol:
                        found.append(t1)
                    elif not at_t0 and tb > t0:
                        found.append(tb)
                    m += 1
        if len(found) < 2:
            return found
        found.sort()
        merged = found[:1]
        for tb in found[1:]:
            if tb - merged[-1] > 1e-12 * self.dt or (tb == t1 and merged[-1] < t1):
                merged.append(tb)
        return merged

    def step(self, x: tuple, a: float, b: float) -> tuple:
        # One classical RK4 step over a smooth sub-interval. A stage at an end
        # that lies on a break is evaluated a hair inside the interval so
        # piecewise coefficients resolve on this sub-step's side.
        h = b - a
        ta, tb = a, b
        ends = self.breaks(a, b) if self.specs else ()
        if ends:
            nudge = 1e-9 * h
            if ends[0] == a:
                ta = a + nudge
            if ends[-1] == b:
                tb = b - nudge
        tm = a + 0.5 * h
        value = self.value
        return self.rk4(x, value(ta), value(tm), value(tb), ta, tm, tb, h)

    def grid_step(self, x: tuple, t0: float, t1: float, trial: tuple | None = None) -> tuple:
        """x after the grid interval [t0, t1]; trial, when given, is
        step(x, t0, t1) already taken over an interval without breaks."""
        subs = locate_events(
            self.step,
            x,
            t0,
            t1 - t0,
            monitor=self.model.threshold_component,
            thresholds=self.sorted_thresholds,
            time_breaks=[tb for tb in self.breaks(t0, t1) if t0 < tb < t1],
            event_tol=self.event_tol,
            trial=trial,
        )
        return subs[-1][1]

    def march(self, x: tuple, k0: int, k1: int, rec: _Record | None = None) -> tuple:
        """Step x across grid intervals k0..k1-1 and return the final state.

        With rec, the state after interval k is recorded in row k + 1 - k0.
        Raises BlowUpError when the state overflows or stops being finite.
        """
        # grid_step, inlined where the interval provably has no event: in the
        # window that ends short of the next break (at hi), breaks(a, t1) is
        # empty, so step takes its stages at the interval ends without a nudge
        # and locate_events makes one step over [a, a + (t1 - a)], and a trial
        # between the same two thresholds as x crosses none of them.
        # a + (t1 - a) is t1 exactly (Sterbenz), so the same operations run in
        # the same order on the state and the samples are bit-identical to
        # grid_step's; the last stage's input is the input at t1, recorded and
        # reused as the next step's first. A trial that crosses a threshold is
        # handed to grid_step as its first step. Every other interval, the
        # first one included, goes to grid_step. A one-state model carries its
        # state as a float and steps it inline on its float derivative; a
        # larger state goes through the tuple kernel.
        dt = self.dt
        value = self.value
        grid_step = self.grid_step
        breaks = self.breaks
        specs = self.specs
        if specs:
            # every spec has a break within its period of any t; hi stays
            # short of the next one by twice the distance at which breaks
            # takes it for an end, and by the rounding of t
            reach = min(period for period, _ in specs)
            slack = 2e-9 * max(period for period, _ in specs)
        thresholds = self.sorted_thresholds
        monitor = self.model.threshold_component or 0
        isfinite = math.isfinite
        rate = self.rate
        scalar = rate is not None
        if scalar:
            finite = isfinite
            x = x[0]
        else:
            rk4 = self.rk4

            def finite(x):
                return all(map(isfinite, x))

        if rec is not None:
            states = rec.state[:, 0] if scalar else rec.state
            us: list = []
            xs: list = []
        hi = -math.inf
        side = bisect_right(thresholds, x if scalar else x[monitor])
        for c0 in range(k0, k1, CHUNK):
            ce = min(c0 + CHUNK, k1)
            try:
                for k in range(c0, ce):
                    a = k * dt
                    t1 = (k + 1) * dt
                    if t1 <= hi:
                        h = t1 - a
                        tm = a + 0.5 * h
                        um = value(tm)
                        u4 = value(t1)
                        if not scalar:
                            x1 = rk4(x, u1, um, u4, a, tm, t1, h)
                        else:  # the float kernel, inline
                            c1 = rate(x, u1, a)
                            h2 = 0.5 * h
                            c2 = rate(x + h2 * c1, um, tm)
                            c3 = rate(x + h2 * c2, um, tm)
                            c4 = rate(x + h * c3, u4, t1)
                            h6 = h / 6.0
                            x1 = x + h6 * (c1 + 2.0 * (c2 + c3) + c4)
                        if thresholds and bisect_right(
                            thresholds, x1 if scalar else x1[monitor]
                        ) != side:
                            if scalar:
                                x = grid_step((x,), a, t1, (x1,))[0]
                            else:
                                x = grid_step(x, a, t1, x1)
                            side = bisect_right(thresholds, x if scalar else x[monitor])
                        else:
                            x = x1
                    else:
                        x = grid_step((x,), a, t1)[0] if scalar else grid_step(x, a, t1)
                        u4 = value(t1)
                        hi = math.inf
                        if specs:
                            ahead = breaks(t1, t1 + reach)
                            nb = ahead[0] if ahead else t1
                            hi = nb - (slack + 1e-15 * nb) if nb > t1 else -math.inf
                        side = bisect_right(thresholds, x if scalar else x[monitor])
                    if not finite(x):
                        raise BlowUpError(f"state became non-finite at t = {t1}", t1)
                    if rec is not None:
                        us.append(u4)
                        xs.append(x)
                    u1 = u4
            except OverflowError:
                raise BlowUpError(f"state overflow at t = {t1}", t1) from None
            finally:
                # the rows stepped so far, also when the stepping raised: an
                # output failure among them came first, and is raised instead
                if rec is not None and us:
                    # (k + 1) * dt for each k of the chunk: k + 1 < 2**53 is
                    # an exact float, so the product rounds as the loop's t1
                    e = c0 + len(us)
                    rows = slice(c0 + 1 - k0, e + 1 - k0)
                    rec.t[rows] = np.arange(c0 + 1, e + 1, dtype=float) * dt
                    rec.u[rows] = us
                    states[rows] = xs
                    us.clear()
                    xs.clear()
                    rec.fill(rows)
        return (x,) if scalar else x


class _Record:
    """Sample columns of one recorded stretch: row 0 by put, the rest by
    march and fill, one chunk at a time."""

    def __init__(self, model, rows: int):
        self.model = model
        self.output_fn = model.output_fn
        self.columns = getattr(model.output_fn, "columns", None)
        self.t = np.empty(rows)
        self.u = np.empty(rows)
        self.y = np.empty(rows)
        self.state = np.empty((rows, model.state_dim))

    def output(self, x: tuple, u: float, t: float) -> float:
        """The model's output at (x, u, t); a failure there is a blow-up."""
        try:
            return self.output_fn(x, u, t)
        except (OverflowError, ModelEvaluationError) as exc:
            raise BlowUpError(f"output not finite at t = {t}: {exc}", t) from None

    def put(self, row: int, t: float, x: tuple, u: float) -> None:
        self.y[row] = self.output(x, u, t)
        self.t[row] = t
        self.u[row] = u
        self.state[row] = x

    def fill(self, rows: slice) -> None:
        """y over rows from the t, u and state stored there: one call to
        output_fn.columns, or one output call a row when output_fn has no
        column form or the column call fails, so that a failure is raised at
        the first row that fails, as output raises it."""
        X, U, T = self.state[rows], self.u[rows], self.t[rows]
        if self.columns is not None:
            try:
                with np.errstate(all="raise", under="ignore"):
                    self.y[rows] = self.columns(X, U, T)
                return
            except (ArithmeticError, ValueError, MemlabError):
                pass
        output = self.output
        self.y[rows] = [
            output(tuple(x), u, t) for x, u, t in zip(X.tolist(), U.tolist(), T.tolist())
        ]

    def trajectory(self, dt: float, n: int) -> Trajectory:
        v, i = terminal_pair(self.model.input_kind, self.u, self.y)
        traj = Trajectory(
            dt=dt, t=self.t, u=self.u, y=self.y, v=v, i=i, state=self.state, steps_per_cycle=n
        )
        return accumulate_integrals(traj)


def _start(model, drive: Drive, controls: SimControls, x0, cycles: int):
    """The engine, the steps per cycle and the initial state of a run of at
    most the given number of drive cycles."""
    check_compatible(model, drive)
    dt, n = resolve_step(controls, drive.period)
    engine = _Engine(model, drive, dt, _resolve_event_tol(controls, dt))
    x = tuple(model.initial_state) if x0 is None else tuple(float(v) for v in x0)
    if len(x) != model.state_dim:
        raise ConfigError(
            f"initial state has {len(x)} components, model expects {model.state_dim}"
        )
    if cycles * n > MAX_GRID_STEPS:
        raise ConfigError(
            f"the run takes {cycles * n} grid steps, over the budget of {MAX_GRID_STEPS}; "
            "raise dt or run fewer cycles"
        )
    if model.breakpoint_period is not None:
        # the steps split at each model breakpoint: a period far below dt
        # would list and step millions of breaks in one grid interval
        splits = cycles * drive.period / model.breakpoint_period * len(model.breakpoint_offsets)
        if splits > MAX_GRID_STEPS:
            raise ConfigError(
                f"a breakpoint period of {model.breakpoint_period} s splits the run "
                f"{splits:.3g} times, over the budget of {MAX_GRID_STEPS}; "
                "raise the period or run fewer cycles"
            )
    return engine, n, x


def simulate(model, drive: Drive, controls: SimControls, x0=None) -> Trajectory:
    """Integrate through the transient and return the recorded cycles.

    The trajectory holds record_cycles full drive periods (first sample on a
    period boundary, both endpoint samples included) with phi and q zeroed at
    the first retained sample. Raises BlowUpError if the state leaves the
    finite range.
    """
    cycles = controls.transient_cycles + controls.record_cycles
    engine, n, x = _start(model, drive, controls, x0, cycles)
    dt = engine.dt
    first_kept = n * controls.transient_cycles
    total_steps = n * cycles
    x = engine.march(x, 0, first_kept)
    rec = _Record(model, total_steps - first_kept + 1)
    t0 = first_kept * dt
    rec.put(0, t0, x, engine.value(t0))
    engine.march(x, first_kept, total_steps, rec)
    return rec.trajectory(dt, n)


def _cycle_residual(prev: np.ndarray, cur: np.ndarray) -> float:
    worst = 0.0
    for j in range(prev.shape[1]):
        scale = max(np.max(np.abs(prev[:, j])), np.max(np.abs(cur[:, j])))
        if scale == 0.0:
            continue
        worst = max(worst, np.max(np.abs(cur[:, j] - prev[:, j])) / scale)
    return float(worst)


def detect_steady_state(model, drive: Drive, controls: SimControls, x0=None) -> Trajectory:
    """March cycle by cycle until consecutive cycles agree on the state.

    Convergence is judged on the state vector only (not on the integrals):
    max relative difference between corresponding samples of consecutive
    cycles below steady_state_rel_tol. Returns the first steady cycle (the
    earlier cycle of the first matching pair). Gives up with SteadyStateError
    after max(2, 10 * transient_cycles) cycles.
    """
    budget = max(2, 10 * controls.transient_cycles)
    engine, n, x = _start(model, drive, controls, x0, budget)
    dt = engine.dt
    prev: _Record | None = None
    last_residual = math.inf
    for c in range(budget):
        base = c * n
        rec = _Record(model, n + 1)
        t0 = base * dt
        rec.put(0, t0, x, engine.value(t0))
        x = engine.march(x, base, base + n, rec)
        if prev is not None:
            last_residual = _cycle_residual(prev.state, rec.state)
            if last_residual < controls.steady_state_rel_tol:
                return prev.trajectory(dt, n)
        prev = rec
    raise SteadyStateError(
        f"no steady state within {budget} cycles; last residual {last_residual:.3e}",
        last_residual,
    )
