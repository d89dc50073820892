"""One workload inside a fresh interpreter; prints one JSON line.

    child.py setup --workload W --seed N
        times `import memlab`, then the source, parse and model build of the
        workload's first experiment
    child.py ops --workload W --seed N --seconds S --trace 0|1 --out DIR --spans FILE
        runs ops in a closed loop for S seconds and checks every op's outputs;
        with --trace 0 the reference kernel of speed.py runs inside each op
        to scale its time; with --trace 1 every other op is traced and the
        spans go to FILE

Started by run.py, which owns the timing budget and the output directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

from speed import Meter

# a 250-step chunk takes 1.5-2.5 ms: 3-5% of the op's time goes to the kernel
SAMPLE_STEPS = 250
SAMPLE_EVERY_S = 0.05
from workloads import REFERENCE, WORKLOADS, check_outputs, commands, sha256, sources

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _imported_from_checkout(module) -> None:
    if SRC not in Path(module.__file__).resolve().parents:
        raise SystemExit(f"memlab was imported from {module.__file__}, not from {SRC}")


def setup(workload, seed: int) -> dict:
    start = time.perf_counter()
    import memlab
    from memlab.expdsl import build_model, parse_experiment

    first = commands(workload)[0][1]
    build_model(parse_experiment(sources(workload, seed)[first]))
    elapsed = time.perf_counter() - start
    _imported_from_checkout(memlab)
    return {"setup_s": elapsed}


def _validators() -> dict:
    import jsonschema

    out = {}
    for command, stem in (("run", "runreport"), ("sweep", "sweepreport")):
        schema = json.loads((SRC / "memlab" / "schemas" / f"{stem}.schema.json").read_text())
        out[command] = jsonschema.validators.validator_for(schema)(schema)
    return out


def ops(workload, seed: int, seconds: float, trace: bool, out_dir: Path, spans_path: Path) -> dict:
    from memlab import cli

    _imported_from_checkout(cli)
    from tracing import EXACT_COUNTS, Tracer

    validators = _validators()
    cmds = commands(workload)
    inputs = out_dir / "inputs"
    if seed != 0:
        inputs.mkdir()
        for name, text in sources(workload, seed).items():
            (inputs / f"{name}.dsl").write_text(text)

    def argv(command, name, op_dir):
        src = ["--preset", name] if seed == 0 else [str(inputs / f"{name}.dsl")]
        return [command, *src, "--out", str(op_dir)]

    tracer = Tracer() if trace else None
    untraced, scaled, traced, hashes = [], [], [], {}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        op_dir = out_dir / f"op{attempted}"
        op_dir.mkdir()
        codes = []

        def op():
            for command, name in cmds:
                codes.append((command, name, cli.main(argv(command, name, op_dir))))

        try:
            if trace and attempted % 2 == 0:
                with tracer.installed():
                    traced.append(tracer.run_op(attempted, op))
            elif trace:
                start = time.perf_counter()
                op()
                untraced.append(time.perf_counter() - start)
            else:
                with Meter(SAMPLE_STEPS).during(SAMPLE_EVERY_S) as meter:
                    start = time.perf_counter()
                    op()
                    wall = time.perf_counter() - start
                untraced.append(wall)
                scaled.append(meter.at_reference_speed(wall - meter.busy_s))
            problems = [f"memlab {c} {n} exited {rc}" for c, n, rc in codes if rc != 0]
            if not problems:
                for command, name in cmds:
                    problems += check_outputs(op_dir, command, name, seed, validators)
                    digest = sha256(op_dir / f"{name}.csv")
                    want = REFERENCE["csv_sha256_at_seed_0"][name] if seed == 0 else hashes.setdefault(name, digest)
                    if digest != want:
                        problems.append(f"{name}.csv sha256 {digest}, want {want}")
        except Exception:
            traceback.print_exc()
            problems = ["op raised"]
        shutil.rmtree(op_dir)
        attempted += 1
        if problems:
            failed += 1
            print(f"op {attempted - 1} failed: " + "; ".join(problems), file=sys.stderr)
        if time.perf_counter() >= deadline and (not trace or attempted >= 3):
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "wall_s": untraced,
        "op_s": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "problems": [],
    }
    if trace:
        problems = result["problems"]
        if len(traced) < 2 or not untraced:
            problems.append(f"{len(traced)} traced and {len(untraced)} untraced ops, need 2 and 1")
        for name in EXACT_COUNTS:
            values = {r["metrics"][name] for r in traced}
            if len(values) > 1:
                problems.append(f"{name} differs between traced ops: {sorted(values)}")
        for name in sorted(workload.spans):
            if any(r["calls"].get(name, 0) == 0 for r in traced):
                problems.append(f"span {name} recorded no calls")
        if traced and untraced:
            best = min(traced, key=lambda r: r["op_s"])
            result["layers"] = dict(best["metrics"], **{"trace.overhead_s": best["op_s"] - min(untraced)})
        keys = ("id", "parent", "op", "name", "start", "end")
        spans_path.write_text(json.dumps([dict(zip(keys, s)) for s in tracer.spans]))
    return result


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "ops"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        result = setup(workload, args.seed)
    else:
        result = ops(workload, args.seed, args.seconds, bool(args.trace), args.out, args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
