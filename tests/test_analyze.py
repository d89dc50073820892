import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memlab import (
    ConfigError,
    Drive,
    SignalKind,
    SimControls,
    Sinusoid,
    Trajectory,
    frequency_sweep,
    linearity_fit,
    loop_area,
    phi_q_classify,
    pinch_test,
)
from memlab import analyze
from memlab.analyze import (
    LoopArea,
    PhiQKind,
    SweepPoint,
    _monotone_runs,
    _zero_crossings,
    check_sweep_frequencies,
    per_cycle_drifts,
    phi_spread_at_equal_q,
    sweep_monotonicity,
)
from memlab.core import Rate, memristive, terminal_pair
from memlab.integrate import BlowUpError, SimulationError
from memlab.models import SwitchedNetworkParams, switched_network


def _traj_from_vi(v, i, dt=1e-3, steps_per_cycle=None, phi=None, q=None):
    v = np.asarray(v, dtype=float)
    i = np.asarray(i, dtype=float)
    t = np.arange(len(v)) * dt
    return Trajectory(
        dt=dt, t=t, u=i, y=v, v=v, i=i,
        state=np.zeros((len(v), 1)),
        phi=phi, q=q, steps_per_cycle=steps_per_cycle,
    )


# ---------------------------------------------------------------------------
# pinch


def test_pinch_passes_for_resistor_like_orbit():
    th = np.linspace(0.0, 4.0 * math.pi, 4001)
    i = np.sin(th)
    v = (2.0 + np.cos(th) ** 2) * i  # v = R(t)*i vanishes with i
    rep = pinch_test(_traj_from_vi(v, i))
    assert rep.pinched
    assert rep.worst_v_at_zero_i < 1e-6 * np.max(np.abs(v))
    assert rep.crossing_count >= 4


def test_pinch_fails_with_offset():
    th = np.linspace(0.0, 4.0 * math.pi, 4001)
    i = np.sin(th)
    v = 2.0 * i + 0.5
    rep = pinch_test(_traj_from_vi(v, i))
    assert not rep.pinched
    assert rep.worst_v_at_zero_i == pytest.approx(0.5, rel=1e-6)


def test_pinch_handles_exact_zero_samples():
    i = np.array([-1.0, 0.0, 1.0, 0.0, -1.0])
    v = np.array([-2.0, 0.0, 2.0, 0.0, -2.0])
    rep = pinch_test(_traj_from_vi(v, i))
    assert rep.pinched


def test_pinch_needs_bipolar_drive():
    i = np.linspace(1.0, 2.0, 300)
    with pytest.raises(ValueError):
        pinch_test(_traj_from_vi(2.0 * i, i))


def test_pinch_custom_thresholds():
    th = np.linspace(0.0, 4.0 * math.pi, 4001)
    i = np.sin(th)
    v = 2.0 * i + 0.01
    assert not pinch_test(_traj_from_vi(v, i)).pinched


# ---------------------------------------------------------------------------
# loop area


def test_loop_area_circle():
    th = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    la = loop_area(_traj_from_vi(np.sin(th), np.cos(th)))
    assert la.area == pytest.approx(math.pi, abs=1e-4)
    assert len(la.lobe_areas) == 1
    assert la.normalized_area == pytest.approx(math.pi / 4.0, abs=1e-4)


def test_loop_area_clockwise_is_negative():
    th = np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
    la = loop_area(_traj_from_vi(-np.sin(th), np.cos(th)))
    assert la.area == pytest.approx(-math.pi, abs=1e-4)
    assert la.normalized_area == pytest.approx(math.pi / 4.0, abs=1e-4)


def test_loop_area_figure_eight_sums_lobes():
    # lissajous through the origin: raw shoelace cancels, lobes must not
    th = np.linspace(0.0, 2.0 * math.pi, 2000, endpoint=False)
    i = np.sin(th)
    v = np.sin(2.0 * th)
    la = loop_area(_traj_from_vi(v, i))
    assert len(la.lobe_areas) == 2
    assert abs(la.area) == pytest.approx(8.0 / 3.0, abs=1e-3)
    assert la.normalized_area == pytest.approx((8.0 / 3.0) / 4.0, abs=1e-3)


def test_loop_area_needs_samples():
    th = np.linspace(0.0, 2.0 * math.pi, 50)
    with pytest.raises(ValueError):
        loop_area(_traj_from_vi(np.sin(th), np.cos(th)))


# ---------------------------------------------------------------------------
# flux-charge classification


def _closed_loop_traj(n=1000, cycles=2, r=1.0, drift_phi=0.0):
    # q runs around a circle-ish closed path; phi optionally ratchets
    th = np.linspace(0.0, 2.0 * math.pi * cycles, n * cycles + 1)
    q = np.sin(th)
    phi = r * (1.0 - np.cos(th)) + drift_phi * th / (2.0 * math.pi)
    v = np.gradient(phi, th)
    i = np.gradient(q, th)
    t = np.arange(len(th)) * 1e-3
    return Trajectory(
        dt=1e-3, t=t, u=i, y=v, v=v, i=i,
        state=np.zeros((len(th), 1)), phi=phi, q=q, steps_per_cycle=n,
    )


def test_per_cycle_drifts_measures_ratchet():
    traj = _closed_loop_traj(drift_phi=0.25)
    drifts = per_cycle_drifts(traj)
    assert len(drifts) == 1
    dq, dphi = drifts[0]
    assert dq == pytest.approx(0.0, abs=1e-12)
    assert dphi == pytest.approx(0.25, rel=1e-9)


def test_per_cycle_drifts_needs_two_cycles():
    with pytest.raises(ValueError):
        per_cycle_drifts(_closed_loop_traj(cycles=1))


def test_phi_spread_multivalued_loop():
    # phi traces a circle against q: branches disagree by 2r at q = 0
    traj = _closed_loop_traj(r=1.0)
    spread = phi_spread_at_equal_q(traj)
    assert spread == pytest.approx(2.0, rel=1e-3)


def test_phi_spread_single_valued_curve():
    th = np.linspace(0.0, 2.0 * math.pi, 2001)
    q = np.sin(th)
    phi = q * q  # same value on both sweeps of q
    traj = _traj_from_vi(np.zeros_like(q), q, steps_per_cycle=1000, phi=phi, q=q)
    assert phi_spread_at_equal_q(traj) < 1e-9


@pytest.mark.parametrize("measure", [per_cycle_drifts, phi_spread_at_equal_q])
def test_flux_charge_measures_need_cycles_and_integrals(measure):
    traj = _closed_loop_traj()
    for missing, message in (
        ({"steps_per_cycle": None}, "trajectory has no cycle metadata"),
        ({"q": None}, "trajectory integrals not accumulated"),
        ({"phi": None}, "trajectory integrals not accumulated"),
    ):
        with pytest.raises(ValueError) as exc:
            measure(dataclasses.replace(traj, **missing))
        assert str(exc.value) == message


def test_branches_without_a_sample_in_their_overlap_are_not_separated():
    # the branch q = [0, 1] has no sample inside its overlap [0.4, 0.6] with
    # the branch q = [0.4, 0.6]
    q = np.array([0.0, 1.0, 0.4, 0.6])
    assert analyze._branch_separation(q, np.array([0.0, 5.0, -3.0, 7.0]), (0, 1), (2, 3)) == 0.0


def test_phi_spread_is_zero_when_q_never_reverses():
    q = np.linspace(0.0, 1.0, 201)
    traj = _traj_from_vi(np.ones_like(q), np.ones_like(q), steps_per_cycle=100, phi=q * q, q=q)
    assert phi_spread_at_equal_q(traj) == 0.0


def test_phi_q_classify_three_kinds():
    closed = phi_q_classify(_closed_loop_traj(r=1.0))
    assert closed.kind is PhiQKind.CLOSED_MULTIVALUED

    th = np.linspace(0.0, 4.0 * math.pi, 2001)
    q = np.sin(th)
    traj = Trajectory(
        dt=1e-3, t=np.arange(len(th)) * 1e-3, u=q, y=q, v=q, i=q,
        state=np.zeros((len(th), 1)), phi=3.0 * q, q=q, steps_per_cycle=1000,
    )
    assert phi_q_classify(traj).kind is PhiQKind.SINGLE_VALUED

    drifting = phi_q_classify(_closed_loop_traj(drift_phi=0.5))
    assert drifting.kind is PhiQKind.OPEN
    assert drifting.dphi_per_cycle == pytest.approx(0.5, rel=1e-9)


# ---------------------------------------------------------------------------
# linearity


def test_linearity_fit_exact_resistor():
    th = np.linspace(0.0, 2.0 * math.pi, 500)
    i = np.sin(th)
    fit = linearity_fit(_traj_from_vi(5.0 * i, i))
    assert fit.slope == pytest.approx(5.0, rel=1e-12)
    assert fit.relative_rms_residual < 1e-12


def test_linearity_fit_reports_curvature():
    th = np.linspace(0.0, 2.0 * math.pi, 500)
    i = np.sin(th)
    fit = linearity_fit(_traj_from_vi(5.0 * i + 0.5 * i**3, i))
    assert fit.relative_rms_residual > 1e-3


def test_linearity_fit_of_zero_voltage_has_no_residual():
    i = np.sin(np.linspace(0.0, 2.0 * math.pi, 300))
    fit = linearity_fit(_traj_from_vi(np.zeros(300), i))
    assert fit.slope == 0.0
    assert fit.relative_rms_residual == 0.0


def test_linearity_fit_rejects_zero_current():
    with pytest.raises(ValueError):
        linearity_fit(_traj_from_vi(np.ones(300), np.zeros(300)))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_validates_frequencies():
    m = switched_network(SwitchedNetworkParams(q0=0.29))
    d = Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=0.1))
    c = SimControls(transient_cycles=1)
    with pytest.raises(ConfigError):
        frequency_sweep(m, d, [], c)
    with pytest.raises(ConfigError):
        frequency_sweep(m, d, [0.2, 0.1], c)
    with pytest.raises(ConfigError):
        frequency_sweep(m, d, [-0.1, 0.2], c)


def test_a_sweep_over_one_recorded_cycle_is_refused_before_it_runs(monkeypatch):
    # each point's phi_q compares consecutive recorded cycles
    calls = []
    monkeypatch.setattr(analyze, "simulate", lambda *args: calls.append(args))
    m = switched_network(SwitchedNetworkParams(q0=0.29))
    d = Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=0.1))
    with pytest.raises(ConfigError, match="sweep needs record_cycles >= 2, got 1"):
        frequency_sweep(m, d, [0.1, 0.2], SimControls(transient_cycles=0, record_cycles=1))
    assert calls == []


def test_sweep_runs_each_frequency():
    m = switched_network(SwitchedNetworkParams(q0=0.2893726238034461))
    d = Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=0.1))
    pts = frequency_sweep(m, d, [0.1, 0.4], SimControls(transient_cycles=1))
    assert [p.frequency for p in pts] == [0.1, 0.4]
    assert pts[0].loop.normalized_area > pts[1].loop.normalized_area
    assert all(p.classification.kind is PhiQKind.SINGLE_VALUED for p in pts)


def test_sweep_tags_failing_frequency():
    m = switched_network(SwitchedNetworkParams(q0=0.29))
    d = Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=0.1))
    # dt legal at 0.1 Hz but violates the period/200 cap at 10 Hz
    with pytest.raises(ConfigError, match="10.0"):
        frequency_sweep(m, d, [0.1, 10.0], SimControls(dt=0.05, transient_cycles=1))


def test_sweep_tags_a_failed_run_with_its_frequency():
    # dx/dt = x * x from x = 1 leaves the finite range near t = 1 s, inside
    # the first cycle at 0.1 Hz
    m = memristive(SignalKind.CURRENT, Rate("x * x"), g=lambda X, U, T: 1.0 + 0.0 * X[:, 0],
                   initial_state=(1.0,))
    d = Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=0.1))
    with pytest.raises(SimulationError) as exc:
        frequency_sweep(m, d, [0.1], SimControls(transient_cycles=1))
    assert type(exc.value) is SimulationError
    assert isinstance(exc.value.__cause__, BlowUpError)
    assert str(exc.value) == f"sweep at 0.1 Hz: {exc.value.__cause__}"


def _point(f, norm):
    la = LoopArea(area=norm, normalized_area=norm, lobe_areas=(norm,))
    cl = phi_q_classify(_closed_loop_traj(r=1.0))
    return SweepPoint(frequency=f, loop=la, classification=cl)


def test_sweep_monotonicity_verdicts():
    falling = [_point(0.1, 0.5), _point(0.2, 0.4), _point(0.4, 0.1)]
    assert sweep_monotonicity(falling) == "strictly decreasing"
    flat = [_point(0.1, 0.5), _point(0.2, 0.5)]
    assert sweep_monotonicity(flat) == "not strictly decreasing"
    assert sweep_monotonicity([_point(0.1, 0.5)]) == "trivially true"


# ---------------------------------------------------------------------------
# crossing and monotone-run scans against plain per-sample loops


def _zero_crossings_loop(a, b):
    for k in range(len(a) - 1):
        a0, a1 = a[k], a[k + 1]
        if a0 == 0.0:
            yield k, 0.0, float(b[k])
        elif (a0 < 0.0 < a1) or (a1 < 0.0 < a0):
            frac = a0 / (a0 - a1)
            yield k, float(frac), float(b[k] + frac * (b[k + 1] - b[k]))
    if len(a) and a[-1] == 0.0:
        yield len(a) - 1, 0.0, float(b[-1])


def _monotone_runs_loop(q):
    d = np.sign(np.diff(q))
    runs = []
    start = 0
    cur = 0.0
    for k in range(len(d)):
        dk = d[k]
        if dk == 0.0:
            continue
        if cur == 0.0:
            cur = dk
        elif dk != cur:
            runs.append((start, k))
            start = k
            cur = dk
    runs.append((start, len(q) - 1))
    return [r for r in runs if r[1] > r[0]]


# exact and signed zeros, repeats, and magnitudes whose products underflow to
# zero (1e-200 * -1e-200) or stay subnormal (5e-324 * -1.0)
_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-200, -1e-200, 5e-324, -5e-324]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


def _with_zero_ends(values, ends):
    a = np.array(values, dtype=float)
    if len(a):
        if ends[0]:
            a[0] = 0.0
        if ends[1]:
            a[-1] = 0.0
    return a


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(_SAMPLES, _SAMPLES), max_size=40), st.tuples(st.booleans(), st.booleans()))
def test_zero_crossings_match_the_loop(pairs, ends):
    a = _with_zero_ends([p[0] for p in pairs], ends)
    b = np.array([p[1] for p in pairs], dtype=float)
    # repr tells -0.0 from 0.0 and keeps int and float apart
    assert repr(_zero_crossings(a, b)) == repr(list(_zero_crossings_loop(a, b)))


# nonzero magnitudes in [2**-20, 2**20]: scaled by 2**k, |k| <= 1000, each
# stays nonzero and finite with its sign
_SCALABLE = st.one_of(
    st.just(0.0),
    st.floats(min_value=2.0**-20, max_value=2.0**20),
    st.floats(min_value=-(2.0**20), max_value=-(2.0**-20)),
)


@settings(deadline=None, max_examples=300)
@given(st.lists(_SCALABLE, max_size=40), st.integers(-1000, 1000))
def test_zero_crossings_do_not_move_when_the_samples_are_scaled(values, k):
    # a crossing depends on signs alone; the product a0 * a1 of two scaled
    # samples underflows to -0.0 at 2**-1000 and overflows at 2**1000
    a = np.array(values, dtype=float)
    b = np.arange(len(a), dtype=float)
    crossings = [c[0] for c in _zero_crossings(a, b)]
    assert [c[0] for c in _zero_crossings(np.ldexp(a, k), b)] == crossings


def test_a_current_of_1e_170_amperes_reverses():
    # 1e-170 * -1e-170 underflows to -0.0, which a product test misses
    t = np.linspace(0.0, 2.0, 401)
    a = 1e-170 * np.sin(2.0 * np.pi * t + 0.1)
    assert len(_zero_crossings(a, t)) == 4


@settings(deadline=None, max_examples=300)
@given(st.lists(_SAMPLES, max_size=40), st.tuples(st.booleans(), st.booleans()))
def test_monotone_runs_match_the_loop(values, ends):
    q = _with_zero_ends(values, ends)
    assert _monotone_runs(q) == _monotone_runs_loop(q)


@pytest.mark.parametrize(
    "freqs, message",
    [
        ([1e-310, 0.1], "sweep frequency 1e-310 Hz has no finite period"),
        ([1e-310, 0.0], "sweep frequencies must be > 0"),
        ([0.2, 1e-310], "sweep frequency 1e-310 Hz has no finite period"),
    ],
    ids=["alone", "after-a-zero", "before-a-decrease"],
)
def test_a_sweep_frequency_without_a_finite_period_is_refused(freqs, message):
    # the list checks run in order: positive, finite periods, increasing
    with pytest.raises(ConfigError) as exc:
        check_sweep_frequencies(freqs)
    assert str(exc.value) == message
