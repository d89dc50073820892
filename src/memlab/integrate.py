"""Fixed-step RK4 integration of driven one-ports with event localization.

Steps are split at resistance discontinuities so no RK4 stage ever straddles a
jump: periodic time breakpoints are split analytically, state-threshold
crossings are bisected to within the event tolerance. The sample grid itself is
untouched; all splitting is internal to a grid step.

One template of the RK4 stage arithmetic, written out for the state size and
for the state components the rate reads, is compiled once per process into
two functions: advance, the splitter's sub-step, which steps to the end of a
break-free piece or to the bisected threshold crossing before it, and a
stepping loop, which steps a chunk's break-free grid intervals in compiled
code and hands back to the splitter each trial that leaves its threshold side
or is not finite, as advance's trial. A rate that reads no state and is
column-safe (the switched chain's u) gets a third function, which evaluates
the same stages on a chunk's columns with numpy into one increment column per
component, and its stepping loop only adds each increment to the state. Each
run binds its own values to the cached code. The loop records straight into
the Trajectory that simulate returns, its start state in row 0.
"""

from __future__ import annotations

import ast
import math
import sys
import textwrap
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .core import (
    ConfigError,
    Drive,
    MemlabError,
    Rate,
    Trajectory,
    accumulate_integrals,
    check_finite,
    terminal_pair,
)


# the most grid steps one run may take: about 15 to 17 s at the 0.76 to 0.85
# us of a one-state row-loop step (fig6_7's thermistor on a 2-vCPU Xeon,
# CPython 3.11), and a record of at most 1 GB
MAX_GRID_STEPS = 20_000_000

# grid intervals per chunk: march takes a chunk's grid times and drive samples
# as columns, and stores each recorded column with one slice assignment
CHUNK = 1024

# bisections of one threshold crossing, a guard against a loop that never
# ends: a bracket is no wider than the power of two at or above dt, where
# floats lie at most ulp(dt) apart, so a tolerance of at least ulp(dt) is
# reached within about 54
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

    dt: float | None = field(default=None, metadata={"bound": (">", 0)})
    transient_cycles: int = field(default=2, metadata={"bound": (">=", 0)})
    record_cycles: int = field(default=2, metadata={"bound": (">=", 1)})
    event_tolerance: float | None = field(default=None, metadata={"bound": (">", 0)})

    def __post_init__(self):
        check_finite(self)


def resolve_step(controls: SimControls, period: float) -> tuple[float, int]:
    """Effective (dt, steps_per_cycle): dt divides the period, step count even."""
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
    # a bracket rounds past dt, never past the power of two above, where floats lie ulp(dt) apart
    if controls.event_tolerance < math.ulp(dt):
        raise ConfigError(
            f"event_tolerance = {controls.event_tolerance!r} is below the float spacing "
            f"ulp(dt) = {math.ulp(dt)!r} at dt = {dt!r}; bisection cannot reach it"
        )
    return controls.event_tolerance


class _Stage(ast.NodeTransformer):
    """A rate's expression as one RK4 stage of an n-state model reads it, each
    name renamed by names: x[i] with a constant int 0 <= i < n, n > 1, is the
    stage local names["x"] + str(i), and any other x the tuple of all n stage
    locals, for one state the one. read holds the components read."""

    def __init__(self, names: dict, n: int):
        self.names, self.n, self.read = names, n, set()

    def local(self, i: int):
        self.read.add(i)
        return ast.Name(self.names["x"] + str(i))

    def visit_Name(self, node):
        if node.id == "x":
            return ast.Tuple([*map(self.local, range(self.n))]) if self.n > 1 else self.local(0)
        node.id = self.names.get(node.id, node.id)
        return node

    def visit_Subscript(self, node):
        i = node.slice.value if isinstance(node.slice, ast.Constant) and self.n > 1 else None
        if isinstance(node.value, ast.Name) and node.value.id == "x" and type(i) is int and 0 <= i < self.n:
            return self.local(i)
        return self.generic_visit(node)


def _column_kind(node, names: dict):
    """int for a column-safe node (see _column_safe) that is an int, float for
    any other column-safe node, None for a node that is not."""
    if isinstance(node, ast.Name) and node.id in ("u", "t"):
        return float
    if isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id != "x":
        value = node.value if isinstance(node, ast.Constant) else names.get(node.id)
        if type(value) is float or type(value) is int and abs(value) <= 2**53:
            return type(value)
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        return _column_kind(node.operand, names)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
        sides = {_column_kind(node.left, names), _column_kind(node.right, names)}
        divisor = node.right.value if isinstance(node.right, ast.Constant) else 0
        if sides <= {int, float} and sides != {int} and (divisor or not isinstance(node.op, ast.Div)):
            return float
    return None


def _column_safe(source: str, names: dict, n: int) -> bool:
    """Whether a rate can be stepped from increment columns: it reads no x,
    and each of its n components (a tuple of n when n > 1) is built only
    from u, t, float constants and bound floats, and ints of at most 2**53
    in magnitude, never two of them paired, with binary + - * / and unary
    + and -, every divisor a nonzero literal. Such a rate cannot raise, and
    numpy's elementwise operations round each of its operations as the
    scalar operation does."""
    body = ast.parse(source, mode="eval").body
    parts = body.elts if n > 1 and isinstance(body, ast.Tuple) else [body]
    return len(parts) == n and all(_column_kind(part, names) for part in parts)


@lru_cache(maxsize=64)
def _kernel_code(source: str, names: tuple[str, ...], n: int, monitor: int, columns: bool):
    """The code of the RK4 kernels of an n-state model whose rate is the
    expression source on the bound names, monitoring component monitor, and
    whether the rate reads t; columns says the rate is column-safe (see
    _column_safe) and is part of the key, so cached code serves only the
    rates it was written for. A run execs the code with its own values, so
    the cache keeps no value of a run.

    One template of the stage arithmetic, written out component by component
    (# stands for the component's index), is compiled into two functions.
    advance(x, trial, a, b, at_a, at_b, side) takes one classical RK4 step y
    over [a, b], or the trial already taken, and returns (b, y) while y's
    side (the count of thresholds at or below the monitored component) is
    side. Otherwise it bisects the crossing: each probe steps over [a, a +
    mid], mid halving [lo, hi] from [0, b - a], until hi - lo <= tol, and it
    returns (a + hi, x_hi), x_hi the probe at a + hi; a bracket still wider
    after MAX_BISECT probes raises EventLocalizationError. run(x, u1, grid,
    lo, up, push) takes the step over each grid row (um, u4, h, 0.5*h,
    h/6.0, then ta, tm, tb if the rate reads t), u1 being the row before's
    u4, and pushes each new state y; it returns (x, None) when the rows end,
    and (x, y), not pushed, at a y whose monitored component fails lo <= y <
    up or whose others are not finite. With columns a third function,
    increments(u1, um, u4, h6[, ta, tm, tb]), evaluates the same stages on
    columns and returns the tuple of each component's increment h6 * (a +
    2.0 * (b + c) + d), and run's grid rows are those increments (for one
    state the floats themselves), each step y = x + inc, the row form's last
    sum; u1 goes unread.

    One state steps a float, a larger state a tuple, each rate unpacked into
    exactly n components, so a derivative of another length raises
    ValueError. A stage writes in the rate's expression with x, u and t
    renamed to the stage's state, input and time, and each bound name to "_"
    + name, which no template name starts with, a default argument of each
    kernel, so a stage reads it as a local, and the state as the locals of
    the components it reads (see _Stage), the only ones a stage computes.
    Every component takes the same operations in the same order."""
    tree = ast.parse(source, mode="eval")
    reads_t = any(isinstance(node, ast.Name) and node.id == "t" for node in ast.walk(tree))
    bound = "".join(f", _{name}=_{name}" for name in names)
    t_args = ", ta, tm, tb" if reads_t else ""

    def each(term):
        return ", ".join(term.replace("#", str(i)) for i in range(n))

    def components(term):
        return each(term) if n == 1 else f"({each(term)})"

    def derivative(x, u, t):
        stage = _Stage({**{name: "_" + name for name in names}, "x": x, "u": u, "t": t}, n)
        return ast.unparse(stage.visit(ast.parse(source, mode="eval"))), sorted(stage.read)

    rate, read = derivative("x", "u1", "ta")

    def state(name, term):
        return "".join(f"{name}{i} = {term.replace('#', str(i))}\n" for i in read)

    rates = f"""{components('a#')} = {rate}
{state('xb', 'x# + h2 * a#')}{components('b#')} = {derivative('xb', 'um', 'tm')[0]}
{state('xc', 'x# + h2 * b#')}{components('c#')} = {derivative('xc', 'um', 'tm')[0]}
{state('xd', 'x# + h * c#')}{components('d#')} = {derivative('xd', 'u4', 'tb')[0]}
"""
    increment = "h6 * (a# + 2.0 * (b# + c#) + d#)"
    stages = f"{components('x#')} = x\n{rates}y = {components('x# + ' + increment)}\n"
    # a stage at an end that is a break (at_a, at_b) is taken 1e-9 of the
    # step inside, and at least 1e-15 of t, past the rounding by which a
    # waveform's own switch can miss the break time: it resolves on this
    # step's side
    times = """h = b - a
ta = a + max(1e-9 * h, 1e-15 * abs(a)) if at_a else a
tb = b - max(1e-9 * h, 1e-15 * abs(b)) if at_b else b
tm = a + 0.5 * h
h2 = 0.5 * h
h6 = h / 6.0
"""
    top = repr(sys.float_info.max)
    stays = "lo <= y < up" if n == 1 else " and ".join(
        f"lo <= y[{i}] < up" if i == monitor else f"-{top} <= y[{i}] <= {top}" for i in range(n)
    )
    y_monitor = "y" if n == 1 else f"y[{monitor}]"
    if columns:
        rows, step, carry = each("inc#"), f"{components('x#')} = x\ny = {components('x# + inc#')}\n", ""
    else:
        rows, step, carry = f"um, u4, h, h2, h6{t_args}", stages, "u1 = u4\n"
    src = f"""def advance(x, trial, a, b, at_a, at_b, side, value=value, thresholds=thresholds, tol=tol,
            bisect_right=bisect_right, EventLocalizationError=EventLocalizationError{bound}):
    if trial is None:
{textwrap.indent(times, "        ")}        u1 = value(ta)
        um = value(tm)
        u4 = value(tb)
{textwrap.indent(stages, "        ")}    else:
        y = trial
        u1 = value(a)
    if bisect_right(thresholds, {y_monitor}) == side:
        return b, y
    lo, hi, x_hi, at_b = 0.0, b - a, y, False
    probes = 0
    while hi - lo > tol and probes < {MAX_BISECT}:
        probes += 1
        mid = 0.5 * (lo + hi)
        b = a + mid
{textwrap.indent(times, "        ")}        if at_a:
            u1 = value(ta)
        um = value(tm)
        u4 = value(tb)
{textwrap.indent(stages, "        ")}        if bisect_right(thresholds, {y_monitor}) != side:
            hi = mid
            x_hi = y
        else:
            lo = mid
    if hi - lo > tol:
        raise EventLocalizationError(f"threshold crossing near t = {{a}} not localized in "
                                     f"{MAX_BISECT} bisections")
    return a + hi, x_hi

def run(x, u1, grid, lo, up, push{bound}):
    for {rows} in grid:
{textwrap.indent(step, "        ")}        if not ({stays}):
            return x, y
        x = y
        push(y)
{textwrap.indent(carry, "        ")}    return x, None
"""
    if columns:
        src += f"""
def increments(u1, um, u4, h6{t_args}{bound}):
{textwrap.indent(rates, "    ")}    return {each(increment)},
"""
    return compile(src, f"<rk4 on {n} states>", "exec"), reads_t


class _Engine:
    """The stepping machinery of one simulate run."""

    def __init__(self, model, drive: Drive, dt: float, event_tol: float):
        self.model = model
        self.dt = dt
        self.waveform, self.value = drive.waveform, drive.waveform.value
        self.specs = (*model.breaks, *drive.waveform.breaks)
        # which thresholds the monitored component lies between is the count
        # of them at or below it; nothing compares below NaN, so a NaN
        # threshold is never crossed
        thresholds = tuple(sorted(th for th in model.thresholds if not math.isnan(th)))
        monitor, f = model.threshold_component, model.f
        source, names = (f.source, f.names) if isinstance(f, Rate) else ("f(x, u, t)", {"f": f})
        columns = isinstance(f, Rate) and _column_safe(source, names, model.state_dim)
        code, self.reads_t = _kernel_code(source, tuple(names), model.state_dim, monitor, columns)
        scope = {"_" + name: bound for name, bound in names.items()}
        scope.update(value=self.value, thresholds=thresholds, tol=event_tol, bisect_right=bisect_right,
                     EventLocalizationError=EventLocalizationError)
        # the kernels of _kernel_code, defined apart from the scope they read,
        # so that no reference cycle holds them past the run
        kernels: dict = {}
        exec(code, scope, kernels)
        self.advance, self.run = kernels["advance"], kernels["run"]
        self.increments = kernels.get("increments")
        # side(x) is the count of thresholds at or below x's monitored component,
        # and bounds[side(x)] the (lo, up) that run keeps a state between: lo <= x
        # < up holds for a finite x on that side, and for nothing else
        top = sys.float_info.max
        cuts = (-top, *(max(th, -top) for th in thresholds), math.inf)
        self.bounds = list(zip(cuts, cuts[1:]))
        if model.state_dim == 1:
            self.side = partial(bisect_right, thresholds)
            self.finite = math.isfinite
        else:
            self.side = lambda x: bisect_right(thresholds, x[monitor])
            self.finite = lambda x: all(map(math.isfinite, x))

    def breaks(self, t0: float, t1: float) -> list[float]:
        """The break times in [t0, t1], sorted: off + m*period for integer m,
        each spec and offset. A break within 1e-9 of its period of an end is
        returned as that end: advance evaluates a stage there a hair inside the
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

    def grid_step(self, x: float | tuple, t0: float, t1: float, trial=None) -> list:
        """Advance x over the grid interval [t0, t1], split at its breaks;
        returns the sub-step ends [(t, x), ...], the last at t1.

        The breaks strictly inside split it exactly, and advance takes each
        piece from x's threshold side, a sub-step at a time: a step that
        crosses a threshold ends at the bisected crossing, on the crossed
        side. trial, when given, is the step over [t0, t1], which has no
        breaks, already taken.
        """
        ends = self.breaks(t0, t1)
        bounds = [t0, *[tb for tb in ends if t0 < tb < t1], t1]
        out: list = []
        for a, b in zip(bounds, bounds[1:]):
            # a bound is a break when breaks returned it; the start of the
            # sub-step after a crossing is not
            at_a, at_b = a in ends, b in ends
            while b - a > 0.0:
                a, x = self.advance(x, trial, a, b, at_a, at_b, self.side(x))
                trial, at_a = None, False
                out.append((a, x))
        return out

    def march(self, x: float | tuple, k0: int, k1: int, traj: Trajectory | None = None):
        """Step x across grid intervals k0..k1-1 and return the final state.

        With traj, x is recorded at t = k0 * dt in row 0 and the state after
        interval k in row k + 1 - k0, t, u, state and y, a chunk at a time.
        Raises BlowUpError when the state stops being finite or its stepping
        raises an ArithmeticError.
        """
        # run is grid_step where the interval provably has no event: in the
        # window that ends short of the next break (at hi), breaks(a, t1) is
        # empty, so grid_step makes one step over [a, t1] with its stages at
        # the interval ends, and a finite trial between the same two
        # thresholds as x crosses none of them. Both run the same stage
        # arithmetic on the same inputs, so the samples are bit-identical.
        # run steps the rows from the next interval to the last one ending at
        # or before hi, memoryview slices of the chunk's columns; every other
        # interval, the first one included, goes to grid_step with run's
        # trial, if any, as its first step: advance bisects a trial that
        # crosses a threshold and takes one that stays, checked finite here.
        # A column-safe rate's increments are computed for the whole chunk
        # with numpy, whose elementwise + - * / round as the scalar ones, so
        # each step x + inc is the row form's last addition on the same
        # increment; such a rate cannot raise, and its overflows give inf
        # as the scalar operations do.
        dt = self.dt
        columns = self.waveform.columns
        grid_step, run, increments = self.grid_step, self.run, self.increments
        breaks = self.breaks
        specs = self.specs
        if specs:
            # every spec has a break within its period of any t; hi stays
            # short of the next one by twice the distance at which breaks
            # takes it for an end, and by the rounding of t
            reach = min(period for period, _ in specs)
            slack = 2e-9 * max(period for period, _ in specs)
        side_of, bounds, finite = self.side, self.bounds, self.finite
        if traj is not None:
            states = traj.state[:, 0] if self.model.state_dim == 1 else traj.state
            traj.t[0] = t0 = k0 * dt
            traj.u[0] = self.value(t0)
            states[0] = x
            _fill(self.model, traj, slice(0, 1))
        xs: list = []
        push = xs.append
        hi = -math.inf
        side = side_of(x)
        for c0 in range(k0, k1, CHUNK):
            m = min(CHUNK, k1 - c0)
            # the grid times k * dt (k < 2**53 is exact, so each rounds as the
            # scalar product), the steps h and the midpoints a + 0.5 * h, the
            # drive at the times and midpoints, and the step's 0.5 * h and
            # h / 6.0, each rounded as the scalar operation
            g = np.arange(c0, c0 + m + 1, dtype=float) * dt
            A, T1 = g[:-1], g[1:]
            H = T1 - A
            H2 = 0.5 * H
            TM = A + H2
            U = columns(g)
            times = (A, TM, T1) if self.reads_t else ()
            if increments:
                with np.errstate(all="ignore"):
                    cols = increments(U[:-1], columns(TM), U[1:], H / 6.0, *times)
            else:
                cols = (columns(TM), U[1:], H, H2, H / 6.0, *times)
            cols = [memoryview(col) for col in cols]
            try:
                while True:
                    k, stop = len(xs), T1.searchsorted(hi, side="right")
                    # one column is the grid itself, its rows the floats
                    grid = cols[0][k:stop] if len(cols) == 1 else zip(*(col[k:stop] for col in cols))
                    x, trial = run(x, float(U[k]), grid, *bounds[side], push)
                    if (k := len(xs)) == m:
                        break
                    a, t1 = float(g[k]), float(g[k + 1])
                    x = grid_step(x, a, t1, trial)[-1][1]
                    if trial is None:
                        hi = math.inf
                        if specs:
                            ahead = breaks(t1, t1 + reach)
                            nb = ahead[0] if ahead else t1
                            hi = nb - (slack + 1e-15 * nb) if nb > t1 else -math.inf
                    side = side_of(x)
                    if not finite(x):
                        raise BlowUpError(f"state became non-finite at t = {t1}", t1)
                    push(x)
            except ArithmeticError as exc:
                t1 = float(g[len(xs) + 1])
                raise BlowUpError(f"state derivative failed at t = {t1}: {exc}", t1) from None
            finally:
                # the rows stepped so far, also when the stepping raised: an
                # output failure among them came first, and is raised instead
                if traj is not None and xs:
                    rows = slice(c0 + 1 - k0, c0 + 1 - k0 + len(xs))
                    traj.t[rows] = T1[: len(xs)]
                    traj.u[rows] = U[1 : len(xs) + 1]
                    states[rows] = xs
                    _fill(self.model, traj, rows)
                xs.clear()
        return x


def _fill(model, traj: Trajectory, rows: slice) -> None:
    """y over rows from the t, u and state stored there, with one call to the
    model's output_fn under IEEE arithmetic; the first row whose y is not
    finite is a blow-up at its time. Only a call that raises (a Python
    ArithmeticError) is walked, one row at a time on one-row slices, to find
    the first row that raises or is not finite."""
    X, U, T = traj.state[rows], traj.u[rows], traj.t[rows]
    y, output_fn = traj.y[rows], model.output_fn
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


def simulate(model, drive: Drive, controls: SimControls, x0=None) -> Trajectory:
    """Integrate through the transient and return the recorded cycles.

    The trajectory holds record_cycles full drive periods (first sample on a
    period boundary, both endpoint samples included) with phi and q zeroed at
    the first retained sample; march writes its columns in place, v and i
    being the same arrays as u and y. Raises ConfigError for a
    current-controlled model on a voltage source or the reverse, and
    BlowUpError if the state leaves the finite range.
    """
    if model.input_kind is not drive.kind:
        raise ConfigError(
            f"model {model.name!r} is {model.input_kind.value}-controlled "
            f"but the drive imposes a {drive.kind.value}"
        )
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
    rows = total_steps - first_kept + 1
    u, y, state = np.empty(rows), np.empty(rows), np.empty((rows, model.state_dim))
    v, i = terminal_pair(model.input_kind, u, y)
    traj = Trajectory(dt, np.empty(rows), u, y, v, i, state, steps_per_cycle=n)
    engine.march(x, first_kept, total_steps, traj)
    return accumulate_integrals(traj)
