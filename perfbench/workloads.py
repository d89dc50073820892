"""Workload table, seeded inputs and output checks for the memlab benchmark.

Only the standard library is imported at module level: the set-up probe
times `import memlab` itself, so nothing here may import it first.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


@dataclass(frozen=True)
class Workload:
    """One op is every `runs` preset through `memlab run`, then every
    `sweeps` preset through `memlab sweep`, in this order."""

    runs: tuple[str, ...]
    sweeps: tuple[str, ...]
    # layers every traced op must reach; a zero count fails the traced run
    spans: frozenset[str]


_COMMON = frozenset({
    "expdsl.parse", "expdsl.build_model", "integrate.simulate",
    "core.accumulate_integrals", "analyze.pinch", "analyze.loop_area",
    "analyze.phi_q", "cli.build_report", "cli.csv_write",
})

WORKLOADS = {
    # 250k event-free steps, a 37 MB CSV and 250k-sample analyses: the only
    # workload where the CSV writer and the per-sample analysis loops dominate
    "quasistatic": Workload(("fig2_3",), (), _COMMON),
    # 360k event-free steps but only 801 recorded rows: isolates the stepping loop
    "settle": Workload(("fig6_7",), (), _COMMON | {"analyze.linearity"}),
    # threshold bisection, r1 breakpoints, the two-state capacitor model and
    # `sweep`; short ops, so per-op fixed costs weigh most
    "switching": Workload(
        ("fig8_9_switched", "fig14_15_tdr1", "fig17_tdr1_fast", "fig16_cap"),
        ("fig12_13_sweep",),
        _COMMON | {"analyze.linearity", "analyze.frequency_sweep"},
    ),
}


def commands(workload: Workload) -> list[tuple[str, str]]:
    return [("run", p) for p in workload.runs] + [("sweep", p) for p in workload.sweeps]


def sources(workload: Workload, seed: int) -> dict[str, str]:
    """Experiment text per preset. Seed 0 is the presets as shipped; any other
    seed redraws each sinusoid's phase, which keeps the grid-step counts and
    moves the event times."""
    from memlab.expdsl import preset_source

    rng = random.Random(seed)
    out = {}
    for _, name in commands(workload):
        text = preset_source(name)
        if seed != 0:
            if text.count("phase = 0 ") != 1:
                raise ValueError(f"preset {name} has no single 'phase = 0' to redraw")
            text = text.replace("phase = 0 ", f"phase = {rng.uniform(0.0, 2.0 * math.pi)!r} ")
        out[name] = text
    return out


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_outputs(out_dir: Path, command: str, name: str, seed: int, validators) -> list[str]:
    """Problems with one command's CSV and JSON; an empty list means correct."""
    problems = []
    report = json.loads((out_dir / f"{name}.json").read_text())
    for err in validators[command].iter_errors(report):
        problems.append(f"{name}.json violates the schema: {err.message}")
    if command == "run":
        want = REFERENCE["verdicts"][name]
        if "pinched" in want and (report["pinch"] or {}).get("pinched") != want["pinched"]:
            problems.append(f"{name}: pinch verdict {report['pinch']}, want pinched={want['pinched']}")
        if "phi_q" in want and (report["phi_q"] or {}).get("kind") != want["phi_q"]:
            problems.append(f"{name}: phi_q verdict {report['phi_q']}, want {want['phi_q']}")
    else:
        want = REFERENCE["sweep"]
        kinds = [p["kind"] for p in report["points"]]
        if kinds != [want["point_kind"]] * len(kinds):
            problems.append(f"{name}: sweep point kinds {kinds}, want all {want['point_kind']}")
        if seed == 0 and report["monotonicity"] != want["monotonicity_at_seed_0"]:
            problems.append(f"{name}: sweep is {report['monotonicity']!r}")
    return problems
