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
from functools import partial

import numpy as np

from .core import (
    ConfigError,
    Drive,
    MemlabError,
    SignalKind,
    Trajectory,
    accumulate_integrals,
    check_finite,
    terminal_pair,
)


# the most grid steps one run may take: about 42 s at 2.1 us a one-state step
# (fig6_7 on a 2-vCPU Xeon, CPython 3.11), and a record of at most 1 GB
MAX_GRID_STEPS = 20_000_000

# grid intervals per chunk: march takes a chunk's grid times and drive samples
# as columns, and stores each recorded column with one slice assignment
CHUNK = 1024

# bisections of one threshold crossing: each halves a bracket no wider than
# dt, so more than this means event_tol is below the float spacing there
MAX_BISECT = 64


class SimulationError(MemlabError):
    """Runtime failure while integrating (as opposed to a bad configuration)."""


class BlowUpError(SimulationError):
    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


class EventLocalizationError(SimulationError):
    pass


@dataclass(frozen=True)
class SimControls:
    """Integration controls.

    dt=None picks period/2000. The step is always adjusted downward so that an
    even number of steps divides the drive period exactly; dt must not exceed
    period/200. event_tolerance (seconds, default dt/1000, at least ulp(dt)
    and below dt) bounds how precisely threshold crossings are localized.
    """

    dt: float | None = None
    transient_cycles: int = 2
    record_cycles: int = 2
    event_tolerance: float | None = None

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
    # bisection offsets lie in [0, dt], so no bracket gets narrower than ulp(dt)
    if controls.event_tolerance < math.ulp(dt):
        raise ConfigError(
            f"event_tolerance = {controls.event_tolerance!r} is below the float spacing "
            f"ulp(dt) = {math.ulp(dt)!r} at dt = {dt!r}; bisection cannot reach it"
        )
    return controls.event_tolerance


def check_compatible(model, drive: Drive) -> None:
    """Reject current-controlled models on voltage sources and vice versa."""
    if model.input_kind is not drive.kind:
        raise ConfigError(
            f"model {model.name!r} is {model.input_kind.value}-controlled "
            f"but the drive imposes a {drive.kind.value}"
        )


def _scalar_rk4(f):
    """One classical RK4 step of a one-state model on its float derivative
    f(x, u, t), taking and returning a float; the stages and inputs are
    given, so the caller decides where they sit."""

    def rk4(x, u1, um, u4, ta, tm, tb, h):
        c1 = f(x, u1, ta)
        h2 = 0.5 * h
        c2 = f(x + h2 * c1, um, tm)
        c3 = f(x + h2 * c2, um, tm)
        c4 = f(x + h * c3, u4, tb)
        h6 = h / 6.0
        return x + h6 * (c1 + 2.0 * (c2 + c3) + c4)

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
    """The stepping machinery of one simulate run."""

    def __init__(self, model, drive: Drive, dt: float, event_tol: float):
        self.model = model
        self.dt = dt
        self.event_tol = event_tol
        self.waveform, self.value = drive.waveform, drive.waveform.value
        self.specs = (*model.breaks, *drive.waveform.breaks)
        # which thresholds the monitored component lies between is the count
        # of them at or below it; nothing compares below NaN, so a NaN
        # threshold is never crossed
        thresholds = tuple(sorted(th for th in model.thresholds if not math.isnan(th)))
        self.sorted_thresholds = thresholds
        # one RK4 kernel per state kind: a one-state model steps a float on its
        # float f, a larger state steps a tuple on its tuple f. side(x) is the
        # count of thresholds at or below x's monitored component
        if model.state_dim == 1:
            self.rk4 = _scalar_rk4(model.f)
            self.side = partial(bisect_right, thresholds)
        else:
            self.rk4 = _tuple_rk4(model.f)
            monitor = model.threshold_component
            self.side = lambda x: bisect_right(thresholds, x[monitor])

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

    def step(self, x: float | tuple, a: float, b: float, at_a: bool = False, at_b: bool = False):
        # One classical RK4 step of x (a float for one state, else a tuple)
        # over a smooth sub-interval. A stage at an end that is a break (at_a,
        # at_b) is taken 1e-9 of the step inside, and at least 1e-15 of t, past
        # the rounding by which a waveform's own switch can miss the break
        # time: it resolves on this sub-step's side.
        h = b - a
        ta = a + max(1e-9 * h, 1e-15 * abs(a)) if at_a else a
        tb = b - max(1e-9 * h, 1e-15 * abs(b)) if at_b else b
        tm = a + 0.5 * h
        value = self.value
        return self.rk4(x, value(ta), value(tm), value(tb), ta, tm, tb, h)

    def grid_step(self, x: float | tuple, t0: float, t1: float, trial=None) -> list:
        """Advance x over the grid interval [t0, t1], split at events; returns
        the sub-step ends [(t, x), ...], the last at t1.

        The breaks strictly inside are split exactly. A step crosses a
        threshold when the count of thresholds at or below the monitored
        state component changes, and the crossing is bisected on the step
        size until the bracket is below event_tol, the step landing on the
        crossed side. trial, when given, is step(x, t0, t1) already taken
        over an interval without breaks.
        """
        ends = self.breaks(t0, t1)
        bounds = [t0, *[tb for tb in ends if t0 < tb < t1], t1]
        thresholds, side_of = self.sorted_thresholds, self.side
        step = self.step
        out: list = []
        for a, b in zip(bounds, bounds[1:]):
            # a bound is a break when breaks returned it; the start of the
            # sub-step after a crossing and the far end of a probe are not
            at_a, at_b = a in ends, b in ends
            while b - a > 0.0:
                x1 = step(x, a, b, at_a, at_b) if trial is None else trial
                trial = None
                if not thresholds or (side := side_of(x)) == side_of(x1):
                    out.append((b, x1))
                    x = x1
                    break
                lo, hi, x_hi = 0.0, b - a, x1
                iters = 0
                while hi - lo > self.event_tol:
                    iters += 1
                    if iters > MAX_BISECT:
                        raise EventLocalizationError(
                            f"threshold crossing near t = {a} not localized in {MAX_BISECT} bisections"
                        )
                    mid = 0.5 * (lo + hi)
                    probe = step(x, a, a + mid, at_a)
                    if side_of(probe) != side:
                        hi = mid
                        x_hi = probe
                    else:
                        lo = mid
                x = x_hi
                a = a + hi
                at_a = False
                out.append((a, x))
        return out

    def march(self, x: float | tuple, k0: int, k1: int, rec: _Record | None = None):
        """Step x across grid intervals k0..k1-1 and return the final state.

        With rec, the state after interval k is recorded in row k + 1 - k0.
        Raises BlowUpError when the state stops being finite or its stepping
        raises an ArithmeticError.
        """
        # grid_step, inlined where the interval provably has no event: in the
        # window that ends short of the next break (at hi), breaks(a, t1) is
        # empty, so grid_step makes one step over [a, t1] with its stages at
        # the interval ends, and a trial between the same two thresholds as x
        # crosses none of them. The same operations run in the same order on
        # the state, so the samples are bit-identical to grid_step's; the last
        # stage's input is the input at t1, recorded and reused as the next
        # step's first. A trial that crosses a threshold is handed to
        # grid_step as its first step. Every other interval, the first one
        # included, goes to grid_step. A one-state model's float state steps
        # inline on its float f; a larger state goes through the tuple kernel.
        dt = self.dt
        columns = self.waveform.columns
        grid_step = self.grid_step
        breaks = self.breaks
        specs = self.specs
        if specs:
            # every spec has a break within its period of any t; hi stays
            # short of the next one by twice the distance at which breaks
            # takes it for an end, and by the rounding of t
            reach = min(period for period, _ in specs)
            slack = 2e-9 * max(period for period, _ in specs)
        thresholds, side_of = self.sorted_thresholds, self.side
        isfinite = math.isfinite
        scalar = self.model.state_dim == 1
        if scalar:
            f, finite = self.model.f, isfinite
        else:
            rk4 = self.rk4

            def finite(x):
                return all(map(isfinite, x))

        if rec is not None:
            states = rec.state[:, 0] if scalar else rec.state
            xs: list = []
        hi = -math.inf
        side = side_of(x)
        for c0 in range(k0, k1, CHUNK):
            ce = min(c0 + CHUNK, k1)
            # the grid times k * dt (k < 2**53 is exact, so each rounds as the
            # scalar product), the midpoints a + 0.5 * h and the drive at both
            g = np.arange(c0, ce + 1, dtype=float) * dt
            A, T1 = g[:-1], g[1:]
            TM, U4 = A + 0.5 * (T1 - A), columns(T1)
            grid = zip(A.tolist(), T1.tolist(), TM.tolist(), columns(TM).tolist(), U4.tolist())
            try:
                for a, t1, tm, um, u4 in grid:
                    if t1 <= hi:
                        h = t1 - a
                        if not scalar:
                            x1 = rk4(x, u1, um, u4, a, tm, t1, h)
                        else:  # the float kernel, inline
                            c1 = f(x, u1, a)
                            h2 = 0.5 * h
                            c2 = f(x + h2 * c1, um, tm)
                            c3 = f(x + h2 * c2, um, tm)
                            c4 = f(x + h * c3, u4, t1)
                            h6 = h / 6.0
                            x1 = x + h6 * (c1 + 2.0 * (c2 + c3) + c4)
                        if thresholds and side_of(x1) != side:
                            x = grid_step(x, a, t1, x1)[-1][1]
                            side = side_of(x)
                        else:
                            x = x1
                    else:
                        x = grid_step(x, a, t1)[-1][1]
                        hi = math.inf
                        if specs:
                            ahead = breaks(t1, t1 + reach)
                            nb = ahead[0] if ahead else t1
                            hi = nb - (slack + 1e-15 * nb) if nb > t1 else -math.inf
                        side = side_of(x)
                    if not finite(x):
                        raise BlowUpError(f"state became non-finite at t = {t1}", t1)
                    if rec is not None:
                        xs.append(x)
                    u1 = u4
            except ArithmeticError as exc:
                raise BlowUpError(f"state derivative failed at t = {t1}: {exc}", t1) from None
            finally:
                # the rows stepped so far, also when the stepping raised: an
                # output failure among them came first, and is raised instead
                if rec is not None and xs:
                    rows = slice(c0 + 1 - k0, c0 + 1 - k0 + len(xs))
                    rec.t[rows] = T1[: len(xs)]
                    rec.u[rows] = U4[: len(xs)]
                    states[rows] = xs
                    xs.clear()
                    rec.fill(rows)
        return x


class _Record:
    """Sample columns of one recorded stretch: row 0 by put, the rest by
    march and fill, one chunk at a time."""

    def __init__(self, model, rows: int):
        self.model = model
        self.t = np.empty(rows)
        self.u = np.empty(rows)
        self.y = np.empty(rows)
        self.state = np.empty((rows, model.state_dim))

    def put(self, row: int, t: float, x: float | tuple, u: float) -> None:
        self.t[row] = t
        self.u[row] = u
        self.state[row] = x
        self.fill(slice(row, row + 1))

    def fill(self, rows: slice) -> None:
        """y over rows from the t, u and state stored there, with one call to
        the model's output_fn under IEEE arithmetic; the first row whose y is
        not finite is a blow-up at its time. Only a call that raises (a Python
        ArithmeticError) is walked, one row at a time on one-row slices, to
        find the first row that raises or is not finite."""
        X, U, T = self.state[rows], self.u[rows], self.t[rows]
        y, output_fn = self.y[rows], self.model.output_fn
        with np.errstate(all="ignore"):
            try:
                y[:] = output_fn(X, U, T)
            except ArithmeticError:
                for k, t in enumerate(T.tolist()):
                    try:
                        y[k : k + 1] = output_fn(X[k : k + 1], U[k : k + 1], T[k : k + 1])
                    except ArithmeticError as exc:
                        raise BlowUpError(f"output not finite at t = {t}: {exc}", t) from None
                    if not math.isfinite(y[k]):
                        break
        if not (finite := np.isfinite(y)).all():
            k = int(np.argmax(~finite))
            raise BlowUpError(f"output not finite at t = {T[k]}: y = {y[k]}", float(T[k]))

    def trajectory(self, dt: float, n: int) -> Trajectory:
        v, i = terminal_pair(self.model.input_kind, self.u, self.y)
        traj = Trajectory(
            dt=dt, t=self.t, u=self.u, y=self.y, v=v, i=i, state=self.state, steps_per_cycle=n
        )
        return accumulate_integrals(traj)


def simulate(model, drive: Drive, controls: SimControls, x0=None) -> Trajectory:
    """Integrate through the transient and return the recorded cycles.

    The trajectory holds record_cycles full drive periods (first sample on a
    period boundary, both endpoint samples included) with phi and q zeroed at
    the first retained sample. Raises BlowUpError if the state leaves the
    finite range.
    """
    check_compatible(model, drive)
    dt, n = resolve_step(controls, drive.period)
    engine = _Engine(model, drive, dt, _resolve_event_tol(controls, dt))
    start = tuple(float(v) for v in (model.initial_state if x0 is None else x0))
    if len(start) != model.state_dim:
        raise ConfigError(f"x0 has {len(start)} components, model expects {model.state_dim}")
    for k, v in enumerate(start):
        if not math.isfinite(v):
            raise ConfigError(
                f"initial state component {k} of model {model.name!r} must be finite, got {v!r}"
            )
    # the engine carries a one-state model's state as a float
    x = start[0] if model.state_dim == 1 else start
    cycles = controls.transient_cycles + controls.record_cycles
    if cycles * n > MAX_GRID_STEPS:
        raise ConfigError(
            f"the run takes {cycles * n} grid steps, over the budget of {MAX_GRID_STEPS}; "
            "raise dt or run fewer cycles"
        )
    # the steps split at each model break: a period far below dt would list
    # and step millions of breaks in one grid interval
    splits = sum(cycles * drive.period / period * len(offsets) for period, offsets in model.breaks)
    if splits > MAX_GRID_STEPS:
        periods = " and ".join(f"{period} s" for period, _ in model.breaks)
        raise ConfigError(
            f"breaking every {periods} splits the run {splits:.3g} times, "
            f"over the budget of {MAX_GRID_STEPS}; "
            "raise the period or run fewer cycles"
        )
    first_kept = n * controls.transient_cycles
    total_steps = n * cycles
    x = engine.march(x, 0, first_kept)
    rec = _Record(model, total_steps - first_kept + 1)
    t0 = first_kept * dt
    rec.put(0, t0, x, engine.value(t0))
    engine.march(x, first_kept, total_steps, rec)
    return rec.trajectory(dt, n)
