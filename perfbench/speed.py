"""A fixed reference workload that measures how fast the host runs Python now.

The host is a few CPUs of a shared machine. Their speed differs from one CPU
to the other and drifts by up to 2x, in spells from under a second to over a
minute, so a whole run can sit in a slow spell. Op and set-up times are
therefore reported at a reference speed: the time measured, multiplied by
REF_STEP_S over the time one step of the kernel below took on the same CPU
at the same time. During an op the kernel runs in short chunks from a timer
signal, inside the op, and its own time is taken out of the op's; set-up is
scaled by chunks run between the set-up probes.

The kernel is a frozen copy of the shape of memlab's stepping loop (RK4 on a
one-state thermistor, tuples, closures, math.exp), so it slows down with the
host the way memlab does, and it never changes with memlab: a faster program
lowers the scaled time as much as the wall time.

Only the standard library is imported: the set-up probe times memlab's own
imports, numpy among them.
"""

from __future__ import annotations

import array
import contextlib
import gc
import math
import signal
import time

# kernel step time on the host this benchmark was written on, in a fast spell
REF_STEP_S = 6e-6


def _kernel(steps: int) -> float:
    r0, beta, c, t0, d = 10.0, 3000.0, 0.01, 300.0, 0.002
    inv_t0 = 1.0 / t0

    def f(x, u, t):
        temp = x[0]
        r = r0 * math.exp(beta * (1.0 / temp - inv_t0))
        return (d / c * (t0 - temp) + (r / c) * u * u,)

    def value(t):
        return 0.5 * math.sin(2.0 * math.pi * t)

    out = array.array("d", bytes(8 * (steps + 1)))
    x = (t0,)
    h = 1e-3
    h2 = 0.5 * h
    h6 = h / 6.0
    for k in range(steps):
        a = k * h
        u1, um, u4 = value(a), value(a + h2), value(a + h)
        k1 = f(x, u1, a)
        x2 = tuple(xi + h2 * ki for xi, ki in zip(x, k1))
        k2 = f(x2, um, a + h2)
        x3 = tuple(xi + h2 * ki for xi, ki in zip(x, k2))
        k3 = f(x3, um, a + h2)
        x4 = tuple(xi + h * ki for xi, ki in zip(x, k3))
        k4 = f(x4, u4, a + h)
        x = tuple(
            xi + h6 * (c1 + 2.0 * (c2 + c3) + c4)
            for xi, c1, c2, c3, c4 in zip(x, k1, k2, k3, k4)
        )
        out[k + 1] = x[0]
    return out[steps]


class Meter:
    """Kernel chunks of `steps` steps, and the time they took."""

    def __init__(self, steps: int):
        self.steps = steps
        self.chunks = 0
        self.busy_s = 0.0

    def _run_chunk(self) -> float:
        # the collector is off so that the program's gc settings do not
        # change the kernel's speed
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel(self.steps)
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        self.chunks += 1
        self.busy_s += elapsed
        return elapsed

    def sample(self, seconds: float) -> None:
        """Run whole chunks for at least `seconds`."""
        spent = 0.0
        while spent < seconds or not self.chunks:
            spent += self._run_chunk()

    @contextlib.contextmanager
    def during(self, every_s: float):
        """Run one chunk every `every_s` of wall time inside the block, from a
        SIGALRM handler, between whatever bytecodes the block is running."""
        previous = signal.signal(signal.SIGALRM, lambda _sig, _frame: self._run_chunk())
        signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def step_s(self) -> float:
        return self.busy_s / (self.chunks * self.steps)

    def at_reference_speed(self, seconds: float) -> float:
        """`seconds` measured alongside these chunks, rescaled to a host on
        which a kernel step takes REF_STEP_S."""
        return seconds * REF_STEP_S / self.step_s
