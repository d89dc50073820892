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


def _any_crossed(before: float, after: float, thresholds) -> bool:
    for th in thresholds:
        if (before < th) != (after < th):
            return True
    return False


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
):
    """Advance x over [t0, t0+h], splitting at events; returns [(t, x), ...].

    step(x, a, b) must integrate the smooth dynamics over [a, b]. time_breaks
    are known discontinuity times strictly inside the interval (split exactly);
    crossings of the monitored state component through any threshold are
    bisected on the step size until the bracket is below event_tol, and the
    step lands on the crossed side of the threshold.
    """
    bounds = [t0, *time_breaks, t0 + h]
    out: list[tuple[float, tuple]] = []
    x = x0
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        while b - a > 0.0:
            trial = step(x, a, b)
            if monitor is None or not thresholds or not _any_crossed(
                x[monitor], trial[monitor], thresholds
            ):
                out.append((b, trial))
                x = trial
                break
            before = x[monitor]
            lo, hi = 0.0, b - a
            x_hi = trial
            iters = 0
            while hi - lo > event_tol:
                iters += 1
                if iters > max_bisect:
                    raise EventLocalizationError(
                        f"threshold crossing near t = {a} not localized in {max_bisect} bisections"
                    )
                mid = 0.5 * (lo + hi)
                probe = step(x, a, a + mid)
                if _any_crossed(before, probe[monitor], thresholds):
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
        # one state: a loop specialised for it steps every grid interval that
        # has no event and hands the others to grid_step
        self.plain = model.state_dim == 1

    def _hits_break(self, t: float) -> bool:
        for period, offsets in self.specs:
            tol = 1e-9 * period
            for off in offsets:
                s = math.fmod(t - off, period)
                if s < 0.0:
                    s += period
                if s < tol or period - s < tol:
                    return True
        return False

    def _interior_breaks(self, t0: float, t1: float):
        if not self.specs:
            return ()
        found: list[float] = []
        for period, offsets in self.specs:
            tol = 1e-9 * period
            for off in offsets:
                m = math.floor((t0 - off) / period)
                while True:
                    tb = off + m * period
                    if tb >= t1 - tol:
                        break
                    if tb > t0 + tol:
                        found.append(tb)
                    m += 1
        if not found:
            return ()
        found.sort()
        merged = [found[0]]
        for tb in found[1:]:
            if tb - merged[-1] > 1e-12 * self.dt:
                merged.append(tb)
        return tuple(merged)

    def _clear_window(self, t: float) -> tuple[float, float]:
        # (lo, hi) between the breaks on either side of t, less a margin that
        # covers _hits_break's tolerance and the rounding of t - off and of the
        # break times: a step inside it has no break at either end or within,
        # so grid_step neither nudges nor splits it. When floor rounds m off by
        # one the window misses t, which only sends the step to grid_step.
        lo, hi = -math.inf, math.inf
        for period, offsets in self.specs:
            for off in offsets:
                m = math.floor((t - off) / period)
                margin = 4e-9 * period + 1e-14 * (abs(t) + abs(off) + period)
                lo = max(lo, off + m * period + margin)
                hi = min(hi, off + (m + 1) * period - margin)
        return lo, hi

    def step(self, x: tuple, a: float, b: float) -> tuple:
        # One classical RK4 step over a smooth sub-interval. Stages that land
        # exactly on a discontinuity boundary are evaluated a hair inside the
        # interval so piecewise coefficients resolve on this sub-step's side.
        h = b - a
        nudge = 1e-9 * h
        ta = a + nudge if self._hits_break(a) else a
        tb = b - nudge if self._hits_break(b) else b
        tm = a + 0.5 * h
        value = self.value
        f = self.model.f
        u1 = value(ta)
        um = value(tm)
        u4 = value(tb)
        k1 = f(x, u1, ta)
        h2 = 0.5 * h
        x2 = tuple(xi + h2 * ki for xi, ki in zip(x, k1))
        k2 = f(x2, um, tm)
        x3 = tuple(xi + h2 * ki for xi, ki in zip(x, k2))
        k3 = f(x3, um, tm)
        x4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
        k4 = f(x4, u4, tb)
        h6 = h / 6.0
        return tuple(
            xi + h6 * (c1 + 2.0 * (c2 + c3) + c4)
            for xi, c1, c2, c3, c4 in zip(x, k1, k2, k3, k4)
        )

    def grid_step(self, x: tuple, t0: float, t1: float) -> tuple:
        subs = locate_events(
            self.step,
            x,
            t0,
            t1 - t0,
            monitor=self.model.threshold_component,
            thresholds=self.model.thresholds,
            time_breaks=self._interior_breaks(t0, t1),
            event_tol=self.event_tol,
        )
        return subs[-1][1]

    def march(self, x: tuple, k0: int, k1: int, rec: _Record | None = None) -> tuple:
        """Step x across grid intervals k0..k1-1 and return the final state.

        With rec, the state after interval k is recorded in row k + 1 - k0.
        Raises BlowUpError when the state overflows or stops being finite.
        """
        if self.plain:
            return self._march_plain(x, k0, k1, rec)
        dt = self.dt
        value = self.value
        for k in range(k0, k1):
            t1 = (k + 1) * dt
            try:
                x = self.grid_step(x, k * dt, t1)
            except OverflowError:
                raise BlowUpError(f"state overflow at t = {t1}", t1) from None
            for xi in x:
                if not math.isfinite(xi):
                    raise BlowUpError(f"state became non-finite at t = {t1}", t1)
            if rec is not None:
                rec.put(k + 1 - k0, t1, x, value(t1))
        return x

    def _march_plain(self, x: tuple, k0: int, k1: int, rec: _Record | None) -> tuple:
        # grid_step for a one-state model, inlined where the interval provably
        # has no event: inside the window (lo, hi) step takes its stages at the
        # interval ends without a nudge and locate_events makes one step over
        # [t0, t0 + (t1 - t0)], and a trial between the same two thresholds as
        # x crosses none of them. The same operations run in the same order on
        # the state as a float, so the samples are bit-identical to
        # grid_step's. Every other interval, the first one included, goes to
        # grid_step, which also recomputes the trial of a crossing step.
        # b = a + (t1 - a) is t1 exactly (Sterbenz), so the last stage's input
        # is the input at t1: it is recorded and reused as the next step's
        # first.
        dt = self.dt
        value = self.value
        f = self.model.f
        rate = getattr(f, "scalar", None)
        if rate is None:  # a tuple-only f, or one that replaced a model's f

            def rate(x0, u, t):
                return f((x0,), u, t)[0]

        if rec is not None:
            t_col, u_col, y_col, x_col, output = rec.t, rec.u, rec.y, rec.state[:, 0], rec.output
        grid_step = self.grid_step
        thresholds = self.sorted_thresholds
        isfinite = math.isfinite
        lo, hi = math.inf, -math.inf
        x0 = x[0]
        side = bisect_right(thresholds, x0)
        for k in range(k0, k1):
            a = k * dt
            t1 = (k + 1) * dt
            b = a + (t1 - a)
            try:
                if lo <= a and b <= hi:
                    h = b - a
                    tm = a + 0.5 * h
                    um = value(tm)
                    u4 = value(b)
                    c1 = rate(x0, u1, a)
                    h2 = 0.5 * h
                    c2 = rate(x0 + h2 * c1, um, tm)
                    c3 = rate(x0 + h2 * c2, um, tm)
                    c4 = rate(x0 + h * c3, u4, b)
                    h6 = h / 6.0
                    x1 = x0 + h6 * (c1 + 2.0 * (c2 + c3) + c4)
                    if thresholds and bisect_right(thresholds, x1) != side:
                        x0 = grid_step((x0,), a, t1)[0]
                        side = bisect_right(thresholds, x0)
                    else:
                        x0 = x1
                else:
                    x0 = grid_step((x0,), a, t1)[0]
                    u4 = value(t1)
                    lo, hi = self._clear_window(t1)
                    side = bisect_right(thresholds, x0)
            except OverflowError:
                raise BlowUpError(f"state overflow at t = {t1}", t1) from None
            if not isfinite(x0):
                raise BlowUpError(f"state became non-finite at t = {t1}", t1)
            if rec is not None:
                row = k + 1 - k0
                y_col[row] = output((x0,), u4, t1)
                t_col[row] = t1
                u_col[row] = u4
                x_col[row] = x0
            u1 = u4
        return (x0,)


class _Record:
    """Sample columns of one recorded stretch, filled row by row."""

    def __init__(self, model, rows: int):
        self.model = model
        self.output_fn = model.output_fn
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

    def trajectory(self, dt: float, n: int) -> Trajectory:
        v, i = terminal_pair(self.model.input_kind, self.u, self.y)
        traj = Trajectory(
            dt=dt, t=self.t, u=self.u, y=self.y, v=v, i=i, state=self.state, steps_per_cycle=n
        )
        return accumulate_integrals(traj)


def _initial_state(model, x0) -> tuple:
    x = tuple(model.initial_state) if x0 is None else tuple(float(v) for v in x0)
    if len(x) != model.state_dim:
        raise ConfigError(
            f"initial state has {len(x)} components, model expects {model.state_dim}"
        )
    return x


def simulate(model, drive: Drive, controls: SimControls, x0=None) -> Trajectory:
    """Integrate through the transient and return the recorded cycles.

    The trajectory holds record_cycles full drive periods (first sample on a
    period boundary, both endpoint samples included) with phi and q zeroed at
    the first retained sample. Raises BlowUpError if the state leaves the
    finite range.
    """
    check_compatible(model, drive)
    period = drive.period
    dt, n = resolve_step(controls, period)
    event_tol = _resolve_event_tol(controls, dt)
    engine = _Engine(model, drive, dt, event_tol)

    x = _initial_state(model, x0)
    first_kept = n * controls.transient_cycles
    total_steps = first_kept + n * controls.record_cycles
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
    check_compatible(model, drive)
    period = drive.period
    dt, n = resolve_step(controls, period)
    event_tol = _resolve_event_tol(controls, dt)
    engine = _Engine(model, drive, dt, event_tol)
    budget = max(2, 10 * controls.transient_cycles)

    x = _initial_state(model, x0)
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
