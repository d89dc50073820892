"""memlab benchmark: drives `memlab.cli.main` on preset workloads.

    python3 perfbench/run.py --workload quasistatic|settle|switching|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; memlab is imported from its `src/`. Each
workload runs in its own fresh child process, one op at a time in a closed
loop (a single client, no threads). Outputs go under `.perfbench_out/`.

--trace 0 reports the end-to-end metrics: op_s (median op time of the run)
and setup_s (median of several fresh interpreters), both scaled to a
reference host speed by the kernel of speed.py, peak_rss_mb of the child and
ok_frac. The wall times are printed beside them. --trace 1 reports per-layer
metrics, unscaled, from a run that alternates traced and untraced ops. Every
op's outputs are checked; the last line of stdout is one JSON object with
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import REF_STEP_S, Meter
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
CHILD = Path(__file__).with_name("child.py")
# Taken after the ops: on a shared host the first seconds of load after an
# idle spell can run slow, and by then the ops child has filled the bytecode
# cache.
SETUP_SAMPLES = 10
SETUP_CHUNK_STEPS = 5_000
BUDGET_S = 170.0


def _child(args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args],
        stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: child {args[0]} {args[2]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Seconds per reference kernel step, before the workload starts."""
    meter = Meter(SETUP_CHUNK_STEPS)
    meter.sample(0.5)
    return meter.step_s


def bench(name: str, seed: int, seconds: int, trace: bool, started: float) -> dict:
    """Run one workload; returns metrics, counts and run-level problems."""
    wl = ["--workload", name, "--seed", str(seed)]
    calib = calibrate()
    print(f"# {name}: host.calib_s = {calib * 1e6:.3f} us per kernel step")
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        res = _child(
            ["ops", *wl, "--seconds", str(seconds), "--trace", str(int(trace)),
             "--out", str(tmp), "--spans", str(OUT / f"spans-{name}-seed{seed}.json")],
            timeout=max(10.0, BUDGET_S - (time.perf_counter() - started)),
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setups, setup_meter = [], Meter(SETUP_CHUNK_STEPS)
    for _ in range(0 if trace else SETUP_SAMPLES):
        setup_meter.sample(0.1)
        setups.append(_child(["setup", *wl], timeout=60)["setup_s"])
    if setups:
        setup_meter.sample(0.1)

    for problem in res["problems"]:
        print(f"# {name}: {problem}", file=sys.stderr)
    attempted, failed = res["attempted"], res["failed"]
    if trace:
        units = _per_layer_units()
        layers = dict(res.get("layers") or dict.fromkeys(units, 0.0), **{"host.calib_s": calib})
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
    else:
        ops = res["wall_s"]
        setup_s = setup_meter.at_reference_speed(statistics.median(setups))
        metrics = {
            "op_s": {"value": statistics.median(res["op_s"]), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "fraction"},
        }
        p90 = statistics.quantiles(ops, n=10, method="inclusive")[-1] if len(ops) > 1 else ops[0]
        print(f"# {name}: wall op time over {len(ops)} ops: median {statistics.median(ops):.4f} s, "
              f"p90 {p90:.4f} s, best {min(ops):.4f} s; kernel step {setup_meter.step_s * 1e6:.2f} us "
              f"during set-up (reference {REF_STEP_S * 1e6:.2f} us); wall setup median "
              f"{statistics.median(setups):.4f} s; failed_frac {failed / attempted:.4f} "
              f"({failed} of {attempted})")
    for key, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{name} {key} = {value} {m['unit']}")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": res["problems"]}


def _per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "memlab" / "__init__.py").is_file():
        print(f"error: no memlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1

    # One CPU for this process and every child: the host runs the CPUs at
    # different speeds, and a process the scheduler moves between them changes
    # speed from one moment to the next. Pinned, the kernel chunks of speed.py
    # measure the CPU the timed code runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    started = time.perf_counter()
    load_start = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: bench(n, args.seed, args.seconds, bool(args.trace), started) for n in names}

    print(f"# host: nproc {os.cpu_count()}, python {platform.python_version()}, "
          f"numpy {importlib.metadata.version('numpy')}, "
          f"loadavg start {load_start[0]:.2f} end {os.getloadavg()[0]:.2f}")
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0 and not any(r["problems"] for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
