"""Spans and counts recorded around the calls into each memlab layer.

The program is not edited: each public function is wrapped at the name its
caller binds, for the length of one traced op, and restored afterwards.
Spans stay in memory as (id, parent id, op, name, start, end).
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import time
from collections import Counter

from memlab import analyze, cli, integrate
from memlab.integrate import resolve_step

TIMED = (
    "expdsl.parse", "expdsl.build_model", "integrate.simulate",
    "core.accumulate_integrals", "analyze.pinch", "analyze.loop_area",
    "analyze.phi_q", "analyze.linearity", "analyze.frequency_sweep",
    "cli.csv_write",
)
# counts that must repeat exactly between two traced ops of the same inputs
EXACT_COUNTS = (
    "integrate.grid_steps", "models.f_calls", "models.output_calls",
    "analyze.crossings", "cli.csv_rows", "cli.csv_bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[int] = []

    def wrap(self, name, fn, hook=None):
        """fn recorded as a span called name; hook(result, args) may count
        and returns the result handed to the caller."""

        def traced(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else None,
                    self.op, name, time.perf_counter(), None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                self._stack.pop()
            return result if hook is None else hook(result, args)

        return traced

    def run_op(self, op: int, fn) -> dict:
        """Run fn as the root span of op and return that op's layer metrics."""
        self.op = op
        self.counts = Counter()
        self.wrap("op", fn)()
        return self._metrics(op)

    def _metrics(self, op: int) -> dict:
        spans = [s for s in self.spans if s[2] == op]
        total = Counter()
        calls = Counter()
        under = Counter()  # time covered by each span's direct children
        for _, parent, _, name, start, end in spans:
            total[name] += end - start
            calls[name] += 1
            under[parent] += end - start
        root = spans[0][0]
        m = {f"{name}_s": float(total[name]) for name in TIMED}
        m["cli.build_report_s"] = sum(
            s[5] - s[4] - under[s[0]] for s in spans if s[3] == "cli.build_report")
        m["cli.self_s"] = total["op"] - under[root]
        m.update({name: self.counts[name] for name in EXACT_COUNTS})
        steps = self.counts["integrate.grid_steps"]
        m["integrate.us_per_step"] = 1e6 * total["integrate.simulate"] / steps if steps else 0.0
        m["integrate.f_calls_per_step"] = self.counts["models.f_calls"] / steps if steps else 0.0
        csv_s = total["cli.csv_write"]
        m["cli.csv_mb_per_s"] = self.counts["cli.csv_bytes"] / 1e6 / csv_s if csv_s else 0.0
        return {"op_s": total["op"], "metrics": m, "calls": dict(calls)}

    # -- counting hooks -----------------------------------------------------

    def _counted_model(self, model, _args):
        counts = self.counts
        f = model.f
        out_field = "g" if any(fl.name == "g" for fl in dataclasses.fields(model)) else "output_fn"
        out = getattr(model, out_field)

        def counted_f(x, u, t):
            counts["models.f_calls"] += 1
            return f(x, u, t)

        def counted_out(x, u, t):
            counts["models.output_calls"] += 1
            return out(x, u, t)

        return dataclasses.replace(model, f=counted_f, **{out_field: counted_out})

    def _grid_steps(self, traj, args):
        _model, drive, controls = args[:3]
        n = resolve_step(controls, drive.period)[1]
        self.counts["integrate.grid_steps"] += n * (controls.transient_cycles + controls.record_cycles)
        return traj

    def _crossings(self, report, _args):
        self.counts["analyze.crossings"] += report.crossing_count
        return report

    def _csv(self, result, args):
        path, traj = args[:2]
        self.counts["cli.csv_rows"] += len(traj)
        self.counts["cli.csv_bytes"] += os.path.getsize(path)
        return result

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer entry points for the duration of the block."""
        targets = [
            (cli, "parse_experiment", "expdsl.parse", None),
            (cli, "build_model", "expdsl.build_model", self._counted_model),
            (cli, "simulate", "integrate.simulate", self._grid_steps),
            (cli, "build_report", "cli.build_report", None),
            (cli, "pinch_test", "analyze.pinch", self._crossings),
            (cli, "loop_area", "analyze.loop_area", None),
            (cli, "phi_q_classify", "analyze.phi_q", None),
            (cli, "linearity_fit", "analyze.linearity", None),
            (cli, "frequency_sweep", "analyze.frequency_sweep", None),
            (cli, "write_trajectory_csv", "cli.csv_write", self._csv),
            (analyze, "simulate", "integrate.simulate", self._grid_steps),
            (analyze, "loop_area", "analyze.loop_area", None),
            (analyze, "phi_q_classify", "analyze.phi_q", None),
            (integrate, "accumulate_integrals", "core.accumulate_integrals", None),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _, _ in targets]
        for mod, attr, name, hook in targets:
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), hook))
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)
