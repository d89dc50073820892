"""The paper's verdicts as properties over random devices.

The acceptance criteria check the paper's claims on fixed presets; the claims
are about every device of a kind. An ideal charge-controlled memristor (the
switched chain with a constant r1) pinches; a capacitor across r1 breaks the
pinch; an r1 that toggles with the drive's period opens the flux-charge curve.

A device is drawn as follows: amplitude A from 1e-2 to 10 A and frequency f
from 1e-2 to 10 Hz, both log-uniform, and a uniform phase; 1 to 20 switches,
with q0 at 0.3 to 1.5 times the charge step that sweeps the whole chain
(2A/w over n); r1 from 0.1 to 5 Ohm and r_branch from 0.05 to 2 Ohm. The
capacitor takes r1*cap*w from 0.1 to 10 and a transient of at least ten of
its time constants; the toggling r1 is three times as high as low, and
toggles with the drive's period, which opens the curve unless the drive's
phase leaves each level as much charge forward as back. Every draw runs at the default controls (the
capacitor at its longer transient), its switch crossings bisected and its r1
toggles split in the stepping.

The three properties (100, 50 and 80 draws) take about 2.5 s together on a
2-vCPU Xeon (CPython 3.11).
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from memlab import Drive, SignalKind, SimControls, Sinusoid, phi_q_classify, pinch_test, simulate
from memlab.analyze import PhiQKind
from memlab.models import (
    CapacitorCircuitParams,
    PiecewiseR1,
    SwitchedNetworkParams,
    capacitor_circuit,
    switched_network,
)


def _log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


@st.composite
def _devices(draw):
    """A sinusoidal current drive and the switched chain's parameters."""
    amplitude = draw(_log_uniform(1e-2, 10.0))
    frequency = draw(_log_uniform(1e-2, 10.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    n = draw(st.integers(1, 20))
    omega = 2.0 * math.pi * frequency
    params = dict(
        q0=draw(st.floats(0.3, 1.5)) * 2.0 * amplitude / omega / n,
        n_switches=n,
        r1=draw(st.floats(0.1, 5.0)),
        r_branch=draw(st.floats(0.05, 2.0)),
    )
    return Drive(SignalKind.CURRENT, Sinusoid(amplitude, frequency, phase)), params


@settings(max_examples=100, deadline=None)
@given(device=_devices())
def test_an_ideal_memristor_pinches(device):
    drive, params = device
    traj = simulate(switched_network(SwitchedNetworkParams(**params)), drive, SimControls())
    assert pinch_test(traj).pinched


@settings(max_examples=50, deadline=None)
@given(device=_devices(), r1_cap_omega=st.floats(0.1, 10.0))
def test_a_capacitor_across_r1_breaks_the_pinch(device, r1_cap_omega):
    drive, params = device
    omega = 2.0 * math.pi * drive.frequency
    cap = r1_cap_omega / (params["r1"] * omega)
    # ten time constants r1*cap, r1_cap_omega / (2*pi) periods each
    transient = max(2, math.ceil(10.0 * r1_cap_omega / (2.0 * math.pi)))
    model = capacitor_circuit(CapacitorCircuitParams(**params, cap=cap))
    traj = simulate(model, drive, SimControls(transient_cycles=transient))
    assert not pinch_test(traj).pinched


@settings(max_examples=80, deadline=None)
@given(device=_devices())
@example(
    device=(
        Drive(SignalKind.CURRENT, Sinusoid(amplitude=1.0, frequency=1.0, phase=4.7109375)),
        dict(q0=0.3183098861837907, n_switches=1, r1=1.0, r_branch=1.0),
    )
)
def test_an_r1_toggling_with_the_drive_opens_the_flux_charge_curve(device):
    # per cycle the flux gains the integral of r1(t) * i: the high half-period
    # carries the charge 2A*cos(phase)/w and the low one returns it, so the
    # drift is (high - low) * 2A*cos(phase)/w; the chain's R(q) dq adds none
    # over a closed charge loop. At a phase near pi/2 the drift vanishes and
    # the curve closes (the example, at 3*pi/2 - 0.0014, is classified
    # single-valued). The measured drift is checked on every draw, within a
    # bound set by the grid trapezoid, first order across the jumps; the
    # verdict where the drift is at least twice that bound
    drive, params = device
    low = params["r1"]
    high = 3.0 * low
    r1 = PiecewiseR1(high=high, low=low, period=drive.period)
    traj = simulate(switched_network(SwitchedNetworkParams(**{**params, "r1": r1})), drive, SimControls())
    omega = 2.0 * math.pi * drive.frequency
    drift = (high - low) * 2.0 * drive.amplitude * math.cos(drive.waveform.phase) / omega
    scale = drive.amplitude / omega * (high + params["n_switches"] * params["r_branch"])
    classification = phi_q_classify(traj)
    assert abs(classification.dphi_per_cycle - drift) <= 1e-2 * scale
    if abs(drift) > 2e-2 * scale:
        assert classification.kind is PhiQKind.OPEN
