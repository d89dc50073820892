"""Domain types for driven one-ports: drives, models, trajectories, integrals.

A memristive one-port produces y = g(x, u, t) * u, so the output is forced to
zero whenever the input is zero. The capacitor-augmented circuit breaks that
factorization and gives OnePort an output map of its own.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np


class MemlabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(MemlabError):
    """Invalid experiment configuration: bad parameters, kind mismatch, bad dt."""


class ModelEvaluationError(MemlabError):
    """A model produced a non-finite output factor at some evaluation point."""

    def __init__(self, message: str, state, u: float, t: float):
        super().__init__(message)
        self.state = tuple(state)
        self.u = u
        self.t = t


class SignalKind(enum.Enum):
    """Terminal quantity a source imposes or a model takes as input."""

    CURRENT = "current"
    VOLTAGE = "voltage"


def check_finite(obj) -> None:
    """Raise ConfigError if a float field of the dataclass obj is NaN or infinite."""
    for field in fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(obj).__name__}.{field.name} must be finite, got {value!r}")


# ---------------------------------------------------------------------------
# drives


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        check_finite(self)
        if self.amplitude < 0.0:
            raise ConfigError("sinusoid amplitude must be >= 0")
        if self.frequency <= 0.0:
            raise ConfigError("sinusoid frequency must be > 0")

    def sampler(self) -> Callable[[float], float]:
        """value as a closure; 2*pi*frequency*t evaluates left to right, so
        binding omega = 2*pi*frequency once leaves every sample unchanged."""
        amplitude, phase, sin = self.amplitude, self.phase, math.sin
        omega = 2.0 * math.pi * self.frequency

        def value(t: float) -> float:
            return amplitude * sin(omega * t + phase)

        return value

    def value(self, t: float) -> float:
        return self.sampler()(t)

    def breakpoint_offsets(self) -> tuple[float, ...]:
        return ()


@dataclass(frozen=True)
class SquareWave:
    """Bipolar square pulse train: +amplitude for the duty fraction, then -amplitude."""

    amplitude: float
    frequency: float
    duty: float = 0.5

    def __post_init__(self):
        check_finite(self)
        if self.amplitude < 0.0:
            raise ConfigError("square wave amplitude must be >= 0")
        if self.frequency <= 0.0:
            raise ConfigError("square wave frequency must be > 0")
        if not 0.0 < self.duty <= 1.0:
            raise ConfigError("square wave duty must be in (0, 1]")

    def value(self, t: float) -> float:
        period = 1.0 / self.frequency
        s = math.fmod(t, period)
        if s < 0.0:
            s += period
        return self.amplitude if s < self.duty * period else -self.amplitude

    def sampler(self) -> Callable[[float], float]:
        return self.value

    def breakpoint_offsets(self) -> tuple[float, ...]:
        # level switches at k*T and (k+duty)*T; duty=1 has only period boundaries
        if self.duty >= 1.0:
            return (0.0,)
        return (0.0, self.duty / self.frequency)


Waveform = Sinusoid | SquareWave


@dataclass(frozen=True)
class Drive:
    """A periodic one-port source: what it imposes (current or voltage) and how."""

    kind: SignalKind
    waveform: Waveform

    @property
    def period(self) -> float:
        return 1.0 / self.waveform.frequency

    @property
    def frequency(self) -> float:
        return self.waveform.frequency

    @property
    def amplitude(self) -> float:
        return self.waveform.amplitude

    def value(self, t: float) -> float:
        return self.waveform.value(t)

    def with_frequency(self, frequency: float) -> "Drive":
        return Drive(self.kind, replace(self.waveform, frequency=frequency))

    def breakpoint_offsets(self) -> tuple[float, ...]:
        return self.waveform.breakpoint_offsets()


# ---------------------------------------------------------------------------
# one-port models

StateFn = Callable[[tuple, float, float], tuple]
ScalarFn = Callable[[tuple, float, float], float]
RateFn = Callable[[float, float, float], float]
ColumnFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def scalar_rate(rate: RateFn) -> StateFn:
    """A one-state model's f from its derivative rate(x0, u, t) -> float.

    f takes and returns a 1-tuple like any StateFn and carries rate as
    f.scalar, which the one-state stepping loop calls with a float state. A
    function that replaces f has no f.scalar, so the loop calls it instead.
    """

    def f(x, u, t):
        return (rate(x[0], u, t),)

    f.scalar = rate
    return f


def from_columns(columns: ColumnFn) -> ScalarFn:
    """A per-sample fn(x, u, t) -> float from its column form
    columns(X, U, T), which takes one state per row of X, with its input and
    time in U and T, and returns one value per row.

    fn evaluates a single row and carries columns as fn.columns, which the
    recording loop calls once per chunk of samples. numpy's basic float
    operations round as Python's do, and fn lets them overflow or go invalid
    silently and raise on a division by zero, as Python's do.
    """

    @np.errstate(divide="raise", over="ignore", invalid="ignore", under="ignore")
    def fn(x, u, t):
        X, U, T = np.array([x], dtype=float), np.array([u], dtype=float), np.array([t], dtype=float)
        return float(columns(X, U, T)[0])

    fn.columns = columns
    return fn


@dataclass(frozen=True, eq=False)
class OnePort:
    """State equation dx/dt = f(x, u, t) with output y = output_fn(x, u, t).

    memristive() builds the resistive output y = g(x, u, t) * u; a one-port
    whose output does not factor that way (the capacitor chain) passes its own
    output_fn. threshold_component/thresholds and
    breakpoint_period/breakpoint_offsets are event metadata for the
    integrator: crossings of a monitored state component and periodic time
    discontinuities where step splitting is required.
    """

    input_kind: SignalKind
    state_dim: int
    f: StateFn
    output_fn: ScalarFn
    initial_state: tuple[float, ...]
    name: str = "one-port"
    threshold_component: int | None = None
    thresholds: tuple[float, ...] = ()
    breakpoint_period: float | None = None
    breakpoint_offsets: tuple[float, ...] = ()

    def __post_init__(self):
        component = self.threshold_component
        if component is not None and component not in range(self.state_dim):
            raise ConfigError(
                f"threshold_component {component!r} is not a state index "
                f"of model {self.name!r} ({self.state_dim} components)"
            )

    def output(self, x, u: float, t: float) -> float:
        return self.output_fn(x, u, t)


def memristive(
    input_kind: SignalKind,
    state_dim: int,
    f: StateFn,
    g: ScalarFn,
    initial_state: tuple[float, ...],
    name: str = "one-port",
    **events,
) -> OnePort:
    """A one-port with resistive output y = g(x, u, t) * u; exactly 0 whenever u = 0.

    events are OnePort's event fields. The output raises ValueError on a state
    of the wrong length or a non-finite input or time, and
    ModelEvaluationError if the output factor is not finite at (x, u, t).
    A g built by from_columns gives the output a column form too,
    output_fn.columns(X, U, T), which raises ValueError if any row's input,
    time or factor is not finite.
    """

    def output_fn(x, u: float, t: float) -> float:
        if len(x) != state_dim:
            raise ValueError(
                f"state has {len(x)} components, model {name!r} expects {state_dim}"
            )
        if not (math.isfinite(u) and math.isfinite(t)):
            raise ValueError("input and time must be finite")
        factor = g(x, u, t)
        if not math.isfinite(factor):
            raise ModelEvaluationError(
                f"model {name!r}: non-finite output factor at t={t!r}", x, u, t
            )
        return factor * u

    factor_columns = getattr(g, "columns", None)
    if factor_columns is not None:

        def columns(X, U, T):
            factor = factor_columns(X, U, T)
            if not (np.isfinite(U).all() and np.isfinite(T).all() and np.isfinite(factor).all()):
                raise ValueError(f"model {name!r}: non-finite input, time or output factor")
            return factor * U

        output_fn.columns = columns
    return OnePort(input_kind, state_dim, f, output_fn, initial_state, name, **events)


# ---------------------------------------------------------------------------
# trajectories


@dataclass(eq=False)
class Trajectory:
    """Uniformly sampled simulation record.

    Columns share one time grid: u is the applied input, y the model output,
    (v, i) the same two signals mapped to terminal voltage and current. phi and
    q are running trapezoid integrals of v and i, zeroed at the first sample.
    steps_per_cycle is the number of grid steps per drive period.
    """

    dt: float
    t: np.ndarray
    u: np.ndarray
    y: np.ndarray
    v: np.ndarray
    i: np.ndarray
    state: np.ndarray
    phi: np.ndarray | None = None
    q: np.ndarray | None = None
    steps_per_cycle: int | None = None

    def __post_init__(self):
        n = len(self.t)
        for name in ("u", "y", "v", "i"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"column {name} length differs from t")
        if self.state.shape[0] != n:
            raise ValueError("state row count differs from t")

    def __len__(self) -> int:
        return len(self.t)

    @property
    def n_cycles(self) -> int:
        if self.steps_per_cycle is None:
            raise ValueError("trajectory has no cycle metadata")
        return (len(self.t) - 1) // self.steps_per_cycle

    def window(self, start: int, stop: int) -> "Trajectory":
        """Slice samples [start:stop]; integrals are kept, not re-zeroed."""
        sl = slice(start, stop)
        return Trajectory(
            dt=self.dt,
            t=self.t[sl],
            u=self.u[sl],
            y=self.y[sl],
            v=self.v[sl],
            i=self.i[sl],
            state=self.state[sl],
            phi=None if self.phi is None else self.phi[sl],
            q=None if self.q is None else self.q[sl],
            steps_per_cycle=self.steps_per_cycle,
        )

    def cycle(self, k: int) -> "Trajectory":
        """One full cycle (both endpoints included): samples [k*n, (k+1)*n]."""
        n = self.steps_per_cycle
        if n is None:
            raise ValueError("trajectory has no cycle metadata")
        if not 0 <= k < self.n_cycles:
            raise IndexError(f"cycle {k} out of range (have {self.n_cycles})")
        return self.window(k * n, (k + 1) * n + 1)


def _cumtrapz(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty(len(values))
    out[0] = 0.0
    np.cumsum(0.5 * dt * (values[1:] + values[:-1]), out=out[1:])
    return out


@np.errstate(over="ignore", invalid="ignore")
def accumulate_integrals(traj: Trajectory) -> Trajectory:
    """Fill phi and q with running trapezoid integrals of v and i from sample 0;
    an integral that overflows is inf or nan, without numpy's warning."""
    if len(traj) < 2:
        raise ValueError("need at least two samples to integrate")
    steps = np.diff(traj.t)
    if np.max(np.abs(steps - traj.dt)) > 1e-9 * traj.dt:
        raise ValueError("non-uniform timestamps; trajectory grid must be uniform")
    return replace(traj, phi=_cumtrapz(traj.v, traj.dt), q=_cumtrapz(traj.i, traj.dt))


def terminal_pair(kind: SignalKind, u: np.ndarray, y: np.ndarray):
    """Map (input, output) arrays to (v, i) for the given input kind."""
    if kind is SignalKind.CURRENT:
        return y, u
    return u, y
