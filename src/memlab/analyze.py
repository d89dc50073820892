"""Trajectory analytics: pinch test, loop areas, flux-charge classification,
linearity fits, frequency sweeps, and the check that a run can feed them.

The analyses follow IEEE arithmetic: on a run whose values overflow they give
inf or nan measures, without numpy's overflow or invalid-value warning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Drive, MemlabError, SquareWave, Trajectory, check_period
from .integrate import SimControls, SimulationError, resolve_step, simulate

ORIGIN_TOL_REL = 0.01  # loop_area's origin passage, a share of max|v|
PHI_Q_TOL_REL = 1e-3  # phi_q_classify's drift and spread, shares of a range


def _zero_crossings(a: np.ndarray, b: np.ndarray) -> list[tuple[int, float, float]]:
    """Sign changes of a, with b linearly interpolated at each crossing.

    Returns [(index, fraction, b_star), ...] in index order. A sample exactly
    at zero counts as a crossing at fraction 0.
    """
    a = np.asarray(a)
    a0, a1 = a[:-1], a[1:]
    # signs compared, not multiplied: a product underflows to -0.0 or overflows
    reverses = ((a0 < 0.0) & (a1 > 0.0)) | ((a0 > 0.0) & (a1 < 0.0))
    out = []
    for k in np.flatnonzero((a0 == 0.0) | reverses).tolist():
        ak = a[k]
        if ak == 0.0:
            out.append((k, 0.0, float(b[k])))
        else:
            frac = ak / (ak - a[k + 1])
            out.append((k, float(frac), float(b[k] + frac * (b[k + 1] - b[k]))))
    if len(a) and a[-1] == 0.0:
        out.append((len(a) - 1, 0.0, float(b[-1])))
    return out


# ---------------------------------------------------------------------------
# pinch test


@dataclass(frozen=True)
class PinchReport:
    pinched: bool
    worst_v_at_zero_i: float
    worst_i_at_zero_v: float
    crossing_count: int
    eps_i: float
    eps_v: float


@np.errstate(over="ignore", invalid="ignore")
def pinch_test(traj: Trajectory, eps_i: float | None = None, eps_v: float | None = None) -> PinchReport:
    """Does the v-i orbit pass through the origin at every current reversal?

    At each sign change of i the voltage is linearly interpolated (and vice
    versa); the loop is pinched when the worst interpolated |v| and |i| stay
    below the thresholds. Defaults: 1e-6 of the respective max magnitude.
    Raises ValueError when i has fewer than 2 sign changes (drive not bipolar).
    """
    i = traj.i
    v = traj.v
    i_max = float(np.max(np.abs(i))) if len(i) else 0.0
    v_max = float(np.max(np.abs(v))) if len(v) else 0.0
    if eps_i is None:
        eps_i = 1e-6 * i_max
    if eps_v is None:
        eps_v = 1e-6 * v_max

    v_at_zero_i = [b for _, _, b in _zero_crossings(i, v)]
    i_at_zero_v = [b for _, _, b in _zero_crossings(v, i)]
    if len(v_at_zero_i) < 2:
        raise ValueError(
            f"only {len(v_at_zero_i)} current sign change(s); need a bipolar drive"
        )
    worst_v = max(abs(x) for x in v_at_zero_i)
    worst_i = max(abs(x) for x in i_at_zero_v) if i_at_zero_v else 0.0
    return PinchReport(
        pinched=(worst_v <= eps_v and worst_i <= eps_i),
        worst_v_at_zero_i=worst_v,
        worst_i_at_zero_v=worst_i,
        crossing_count=len(v_at_zero_i) + len(i_at_zero_v),
        eps_i=eps_i,
        eps_v=eps_v,
    )


# ---------------------------------------------------------------------------
# loop area


@dataclass(frozen=True)
class LoopArea:
    """Signed area of the v-i orbit. For pinched figure-eight loops the lobes
    are split at the origin and |lobe| areas are summed; the sign follows the
    dominant lobe's orientation. normalized_area divides by the v and i spans.
    """

    area: float
    normalized_area: float
    lobe_areas: tuple[float, ...]


def _shoelace(x: np.ndarray, y: np.ndarray) -> float:
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


@np.errstate(over="ignore", invalid="ignore")
def loop_area(traj: Trajectory) -> LoopArea:
    """Shoelace area of one cycle's (i, v) polygon.

    Current sign changes whose interpolated |v| is below ORIGIN_TOL_REL times
    max|v| are treated as origin passages; with two or more of them the polygon
    is split there and lobe magnitudes are summed (a raw signed shoelace would
    cancel the figure-eight lobes against each other).
    """
    if len(traj) < 100:
        raise ValueError("need at least 100 samples covering one cycle")
    i = np.asarray(traj.i, dtype=float)
    v = np.asarray(traj.v, dtype=float)
    v_range = float(np.ptp(v))
    i_range = float(np.ptp(i))
    v_max = float(np.max(np.abs(v))) if len(v) else 0.0

    cuts = []
    for k, frac, v_star in _zero_crossings(i, v):
        if v_max == 0.0 or abs(v_star) <= ORIGIN_TOL_REL * v_max:
            cuts.append((k + frac, v_star))

    if len(cuts) >= 2:
        lobes = []
        for j in range(len(cuts)):
            pos0, v0 = cuts[j]
            pos1, v1 = cuts[(j + 1) % len(cuts)]
            k0 = math.floor(pos0) + 1
            k1 = math.floor(pos1) + 1
            if j + 1 < len(cuts):
                xs = i[k0:k1]
                ys = v[k0:k1]
            else:  # wrap around the cycle boundary
                xs = np.concatenate([i[k0:], i[:k1]])
                ys = np.concatenate([v[k0:], v[:k1]])
            px = np.concatenate([[0.0], xs, [0.0]])
            py = np.concatenate([[v0], ys, [v1]])
            lobes.append(_shoelace(px, py))
        total = sum(abs(a) for a in lobes)
        dominant = max(lobes, key=abs)
        signed = math.copysign(total, dominant) if dominant != 0.0 else 0.0
        lobe_areas = tuple(lobes)
    else:
        signed = _shoelace(i, v)
        total = abs(signed)
        lobe_areas = (signed,)

    denom = v_range * i_range
    normalized = total / denom if denom > 0.0 else 0.0
    return LoopArea(area=signed, normalized_area=normalized, lobe_areas=lobe_areas)


# ---------------------------------------------------------------------------
# flux-charge classification


class PhiQKind(enum.Enum):
    SINGLE_VALUED = "single_valued"
    CLOSED_MULTIVALUED = "closed_multivalued"
    OPEN = "open"


@dataclass(frozen=True)
class PhiQClassification:
    kind: PhiQKind
    dq_per_cycle: float
    dphi_per_cycle: float
    max_phi_spread_at_equal_q: float


def per_cycle_drifts(traj: Trajectory) -> list[tuple[float, float]]:
    """(dq, dphi) between corresponding samples of each consecutive cycle pair."""
    n = traj.steps_per_cycle
    if n is None:
        raise ValueError("trajectory has no cycle metadata")
    cycles = traj.n_cycles
    if cycles < 2:
        raise ValueError(f"need at least 2 recorded cycles, have {cycles}")
    if traj.q is None or traj.phi is None:
        raise ValueError("trajectory integrals not accumulated")
    out = []
    for c in range(cycles - 1):
        s0 = slice(c * n, (c + 1) * n)
        s1 = slice((c + 1) * n, (c + 2) * n)
        out.append(
            (
                float(np.mean(traj.q[s1] - traj.q[s0])),
                float(np.mean(traj.phi[s1] - traj.phi[s0])),
            )
        )
    return out


def _monotone_runs(q: np.ndarray) -> list[tuple[int, int]]:
    """Maximal index ranges over which q never reverses; flat steps join the
    run around them."""
    d = np.sign(np.diff(q))
    moving = np.flatnonzero(d != 0.0)
    signs = d[moving]
    cuts = moving[1:][signs[1:] != signs[:-1]].tolist()
    runs = list(zip([0, *cuts], [*cuts, len(q) - 1]))
    return [r for r in runs if r[1] > r[0]]


def _branch_separation(q, phi, run_a, run_b) -> float:
    qa = q[run_a[0] : run_a[1] + 1]
    pa = phi[run_a[0] : run_a[1] + 1]
    qb = q[run_b[0] : run_b[1] + 1]
    pb = phi[run_b[0] : run_b[1] + 1]
    if qb[0] > qb[-1]:
        qb = qb[::-1]
        pb = pb[::-1]
    lo = max(float(np.min(qa)), float(qb[0]))
    hi = min(float(np.max(qa)), float(qb[-1]))
    if hi <= lo:
        return 0.0
    mask = (qa >= lo) & (qa <= hi)
    if not np.any(mask):
        return 0.0
    interp = np.interp(qa[mask], qb, pb)
    return float(np.max(np.abs(pa[mask] - interp)))


def phi_spread_at_equal_q(traj: Trajectory, cycle_index: int = -1) -> float:
    """Worst |phi| disagreement at equal charge between the monotone-in-q
    branches of one cycle. Measures how far the flux-charge curve is from
    single-valued; resolution is limited by the sample grid, not by binning.
    """
    if traj.q is None or traj.phi is None:
        raise ValueError("trajectory integrals not accumulated")
    cyc = traj.cycle(cycle_index % traj.n_cycles)
    q = np.asarray(cyc.q)
    phi = np.asarray(cyc.phi)
    runs = _monotone_runs(q)
    if len(runs) < 2:
        return 0.0
    spread = 0.0
    for a in range(len(runs)):
        for b in range(a + 1, len(runs)):
            spread = max(spread, _branch_separation(q, phi, runs[a], runs[b]))
    return spread


@np.errstate(over="ignore", invalid="ignore")
def phi_q_classify(traj: Trajectory) -> PhiQClassification:
    """Classify the flux-charge orbit of a multi-cycle trajectory.

    Open when either integral drifts per cycle by more than PHI_Q_TOL_REL of
    its range; otherwise closed, and single-valued when the phi spread at
    equal q stays within PHI_Q_TOL_REL of the phi range.
    """
    drifts = per_cycle_drifts(traj)
    dq = float(np.mean([d[0] for d in drifts]))
    dphi = float(np.mean([d[1] for d in drifts]))
    q_range = float(np.ptp(traj.q))
    phi_range = float(np.ptp(traj.phi))
    spread = phi_spread_at_equal_q(traj)

    open_q = abs(dq) > PHI_Q_TOL_REL * q_range if q_range > 0.0 else abs(dq) > 0.0
    open_phi = abs(dphi) > PHI_Q_TOL_REL * phi_range if phi_range > 0.0 else abs(dphi) > 0.0
    if open_q or open_phi:
        kind = PhiQKind.OPEN
    elif phi_range > 0.0 and spread > PHI_Q_TOL_REL * phi_range:
        kind = PhiQKind.CLOSED_MULTIVALUED
    else:
        kind = PhiQKind.SINGLE_VALUED
    return PhiQClassification(
        kind=kind,
        dq_per_cycle=dq,
        dphi_per_cycle=dphi,
        max_phi_spread_at_equal_q=spread,
    )


# ---------------------------------------------------------------------------
# linearity


@dataclass(frozen=True)
class LinearityFit:
    slope: float
    relative_rms_residual: float


@np.errstate(over="ignore", invalid="ignore")
def linearity_fit(traj: Trajectory) -> LinearityFit:
    """Least-squares v = R*i through the origin with rms residual relative to rms(v)."""
    i = traj.i
    v = traj.v
    ss = float(np.dot(i, i))
    if ss == 0.0:
        raise ValueError("current is identically zero; no slope to fit")
    slope = float(np.dot(v, i)) / ss
    v_rms = math.sqrt(float(np.mean(v * v)))
    if v_rms == 0.0:
        return LinearityFit(slope=slope, relative_rms_residual=0.0)
    resid = math.sqrt(float(np.mean((v - slope * i) ** 2)))
    return LinearityFit(slope=slope, relative_rms_residual=resid / v_rms)


# ---------------------------------------------------------------------------
# analyses a run can feed


def check_analyses(analyses, drive: Drive, controls: SimControls) -> None:
    """Raise ConfigError for the first analysis the run could not feed:
    phi_q and a sweep compare consecutive recorded cycles, linearity fits a
    slope to a current that a zero-amplitude drive holds at zero, and pinch
    needs current reversals, which the grid samples of a square wave show
    only when each level lasts at least one grid step (at full duty, never)."""
    for name in analyses:
        if name in ("phi_q", "sweep") and controls.record_cycles < 2:
            raise ConfigError(f"{name} needs record_cycles >= 2, got {controls.record_cycles}")
        if name == "linearity" and drive.amplitude == 0.0:
            raise ConfigError(f"{name} needs a drive amplitude > 0")
        if name == "pinch" and isinstance(drive.waveform, SquareWave) and drive.amplitude > 0.0:
            try:
                n = resolve_step(controls, drive.period)[1]
            except ConfigError:
                continue  # the run reports the step itself
            duty = drive.waveform.duty
            if min(duty, 1.0 - duty) * n < 1.0 - 1e-9:
                raise ConfigError(
                    f"{name} needs a bipolar drive; at {n} steps a cycle, a square wave "
                    f"with duty = {duty!r} holds one level for less than a grid step"
                )


def check_sweep_frequencies(freqs) -> None:
    """Raise ConfigError unless the sweep list is non-empty, positive, of
    finite periods and strictly increasing."""
    if not freqs:
        raise ConfigError("sweep needs at least one frequency")
    if any(f <= 0.0 for f in freqs):
        raise ConfigError("sweep frequencies must be > 0")
    for f in freqs:
        check_period(f, "sweep frequency")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ConfigError("sweep frequencies must be strictly increasing")


# ---------------------------------------------------------------------------
# frequency sweep


@dataclass(frozen=True)
class SweepPoint:
    frequency: float
    loop: LoopArea
    classification: PhiQClassification


def frequency_sweep(model, drive: Drive, frequencies, controls: SimControls) -> list[SweepPoint]:
    """Steady-state loop area and flux-charge classification per frequency.

    The model (including any stored reference charge q0) is held fixed; only
    the drive frequency changes. Frequencies must be strictly increasing.
    Failures are re-raised tagged with the frequency they occurred at.
    """
    freqs = [float(f) for f in frequencies]
    check_sweep_frequencies(freqs)
    check_analyses(("sweep",), drive, controls)

    points = []
    for f in freqs:
        try:
            traj = simulate(model, drive.with_frequency(f), controls)
            last = traj.cycle(traj.n_cycles - 1)
            points.append(
                SweepPoint(
                    frequency=f,
                    loop=loop_area(last),
                    classification=phi_q_classify(traj),
                )
            )
        except ConfigError as exc:
            raise ConfigError(f"sweep at {f} Hz: {exc}") from exc
        except MemlabError as exc:
            raise SimulationError(f"sweep at {f} Hz: {exc}") from exc
    return points


def sweep_monotonicity(points: list[SweepPoint]) -> str:
    """Verdict on normalized areas: strictly decreasing, or not; one row is
    trivially true."""
    if len(points) < 2:
        return "trivially true"
    areas = [p.loop.normalized_area for p in points]
    if all(b < a for a, b in zip(areas, areas[1:])):
        return "strictly decreasing"
    return "not strictly decreasing"
