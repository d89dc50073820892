"""Domain types for driven one-ports: drives, models, trajectories, integrals.

A memristive one-port produces y = g(x, u, t) * u, so the output is forced to
zero whenever the input is zero. The capacitor-augmented circuit breaks that
factorization and gives OnePort an output map of its own.
"""

from __future__ import annotations

import ast
import builtins
import enum
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Callable, Mapping

import numpy as np


class MemlabError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(MemlabError):
    """Invalid experiment configuration: bad parameters, kind mismatch, bad dt."""


class SignalKind(enum.Enum):
    """Terminal quantity a source imposes or a model takes as input."""

    CURRENT = "current"
    VOLTAGE = "voltage"


def check_finite(obj, prefix: str = "") -> None:
    """Raise ConfigError if a float field of the dataclass obj is NaN or
    infinite; then, in field order, at a number outside the bound (op, limit)
    its field's metadata declares, op ">" or ">=", as "{prefix}{name} must be
    {op} {limit}", or at a value refused by the function the metadata names
    as "check". None and non-numbers are not compared."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(obj).__name__}.{f.name} must be finite, got {value!r}")
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "bound" in f.metadata and isinstance(value, (int, float)):
            op, limit = f.metadata["bound"]
            if not (value > limit if op == ">" else value >= limit):
                raise ConfigError(f"{prefix}{f.name} must be {op} {limit}")
        if "check" in f.metadata:
            f.metadata["check"](value)


def check_period(frequency: float, what: str) -> None:
    """Raise ConfigError unless the period 1/frequency is finite: a frequency
    below 1/sys.float_info.max, about 5.6e-309 Hz, has none."""
    if not math.isfinite(1.0 / frequency):
        raise ConfigError(f"{what} {frequency!r} Hz has no finite period")


# ---------------------------------------------------------------------------
# drives


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float = field(metadata={"bound": (">=", 0)})
    frequency: float = field(metadata={"bound": (">", 0)})
    phase: float = 0.0

    def __post_init__(self):
        check_finite(self, "sinusoid ")
        check_period(self.frequency, "sinusoid frequency")
        # value's phase argument starts with 2*pi*frequency
        if not math.isfinite(2.0 * math.pi * self.frequency):
            raise ConfigError(f"sinusoid frequency {self.frequency!r} Hz overflows 2*pi*frequency")

    def value(self, t: float) -> float:
        # 2*pi*frequency*t evaluates left to right, as in columns
        return self.amplitude * math.sin(2.0 * math.pi * self.frequency * t + self.phase)

    def columns(self, T: np.ndarray) -> np.ndarray:
        """value at each time of T, bit for bit where numpy's float64 sin
        rounds as the C library's sin, which math.sin calls."""
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * T + self.phase)

    # the (period, offsets) of its discontinuities: none
    breaks = ()


@dataclass(frozen=True)
class SquareWave:
    """Bipolar square pulse train: +amplitude for the duty fraction, then -amplitude."""

    amplitude: float = field(metadata={"bound": (">=", 0)})
    frequency: float = field(metadata={"bound": (">", 0)})
    duty: float = 0.5

    def __post_init__(self):
        check_finite(self, "square wave ")
        check_period(self.frequency, "square wave frequency")
        if not 0.0 < self.duty <= 1.0:
            raise ConfigError("square wave duty must be in (0, 1]")

    def value(self, t: float) -> float:
        period = 1.0 / self.frequency
        s = math.fmod(t, period)
        if s < 0.0:
            s += period
        return self.amplitude if s < self.duty * period else -self.amplitude

    def columns(self, T: np.ndarray) -> np.ndarray:
        """value at each time of T; fmod is exact, so both give the same level."""
        period = 1.0 / self.frequency
        s = np.fmod(T, period)
        s = np.where(s < 0.0, s + period, s)
        return np.where(s < self.duty * period, self.amplitude, -self.amplitude)

    @property
    def breaks(self) -> tuple[tuple[float, tuple[float, ...]], ...]:
        """The level switches at k*T and (k+duty)*T; duty 1 has only the period boundaries."""
        offsets = (0.0,) if self.duty >= 1.0 else (0.0, self.duty / self.frequency)
        return ((1.0 / self.frequency, offsets),)


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

    def with_frequency(self, frequency: float) -> "Drive":
        return Drive(self.kind, replace(self.waveform, frequency=frequency))


# ---------------------------------------------------------------------------
# one-port models

StateFn = Callable[[tuple, float, float], tuple]
RateFn = Callable[[float, float, float], float]
ColumnFn = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class Rate:
    """A derivative as one Python expression in x, u and t; names binds what
    else it reads, builtins aside. Calling it runs it, compiled on first call;
    the RK4 kernel writes it into each stage instead. A source that is not one
    expression, or reads a name neither bound nor builtin, is a ConfigError."""

    source: str
    names: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        try:
            tree = ast.parse(self.source, mode="eval")
        except SyntaxError as exc:
            raise ConfigError(f"rate {self.source!r} is not an expression: {exc.msg}") from None
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if unbound := sorted(read - {"x", "u", "t", *self.names, *vars(builtins)}):
            raise ConfigError(f"rate {self.source!r} reads unbound names {', '.join(unbound)}")

    @cached_property
    def fn(self) -> RateFn:
        tree = ast.parse(self.source, mode="eval")
        return eval(compile(f"lambda x, u, t: {ast.unparse(tree)}", "<rate>", "eval"), dict(self.names))

    def __call__(self, x, u, t):
        return self.fn(x, u, t)


@dataclass(frozen=True, eq=False)
class OnePort:
    """State equation dx/dt = f(x, u, t) with output Y = output_fn(X, U, T).

    For one state, f takes and returns a float, f(x0, u, t) -> dx0/dt; for
    more, f takes the state tuple and returns the tuple of its derivatives.
    Either may be a Rate, whose expression the RK4 kernel steps inline.
    initial_state is a tuple either way, and its length is the state size.

    output_fn works on columns of samples: it takes one state per row of the
    2-D array X, with that row's input in U and time in T, and returns one
    output per row. memristive() builds the resistive output Y = g(X, U, T) * U;
    a one-port whose output does not factor that way (the capacitor chain)
    passes its own output_fn. threshold_component/thresholds and breaks are
    event metadata for the integrator: crossings of a monitored state
    component (the first unless set), and periodic time discontinuities as
    (period, offsets) pairs, where step splitting is required.
    """

    input_kind: SignalKind
    f: StateFn | RateFn | Rate
    output_fn: ColumnFn
    initial_state: tuple[float, ...]
    name: str = "one-port"
    threshold_component: int = 0
    thresholds: tuple[float, ...] = ()
    breaks: tuple[tuple[float, tuple[float, ...]], ...] = ()

    def __post_init__(self):
        if not self.initial_state:
            raise ConfigError(f"model {self.name!r} has an empty initial state")
        component = self.threshold_component
        if self.thresholds and component not in range(self.state_dim):
            raise ConfigError(
                f"threshold_component {component!r} is not a state index "
                f"of model {self.name!r} ({self.state_dim} components)"
            )

    @property
    def state_dim(self) -> int:
        return len(self.initial_state)


def memristive(
    input_kind: SignalKind,
    f: StateFn | RateFn | Rate,
    g: ColumnFn,
    initial_state: tuple[float, ...],
    name: str = "one-port",
    **events,
) -> OnePort:
    """A one-port with resistive output Y = g(X, U, T) * U; exactly 0 wherever
    U = 0 and g is finite.

    g takes columns as output_fn does. events are OnePort's event fields. A
    factor that is not finite gives a y that is not finite (inf * 0 is nan),
    which the recording raises as a blow-up at that row's time.
    """

    def output_fn(X, U, T):
        return g(X, U, T) * U

    return OnePort(input_kind, f, output_fn, initial_state, name, **events)


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
    # the trapezoids 0.5 * dt * (v[k+1] + v[k]) in one temporary, scaled in place
    areas = values[1:] + values[:-1]
    areas *= 0.5 * dt
    np.cumsum(areas, out=out[1:])
    return out


@np.errstate(over="ignore", invalid="ignore")
def accumulate_integrals(traj: Trajectory) -> Trajectory:
    """Fill phi and q with running trapezoid integrals of v and i from sample 0;
    an integral that overflows is inf or nan, without numpy's warning."""
    if len(traj) < 2:
        raise ValueError("need at least two samples to integrate")
    # a recorded t = k*dt rounds to its float spacing, which outgrows 1e-9*dt past k ~ 4.5e6
    bound = 1e-9 * traj.dt + np.spacing(np.abs(traj.t).max())
    if np.max(np.abs(np.diff(traj.t) - traj.dt)) > bound:
        raise ValueError("non-uniform timestamps; trajectory grid must be uniform")
    return replace(traj, phi=_cumtrapz(traj.v, traj.dt), q=_cumtrapz(traj.i, traj.dt))


def terminal_pair(kind: SignalKind, u: np.ndarray, y: np.ndarray):
    """Map (input, output) arrays to (v, i) for the given input kind."""
    if kind is SignalKind.CURRENT:
        return y, u
    return u, y
