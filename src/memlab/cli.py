"""Command line front end.

    memlab run <file> | --preset NAME   simulate and write csv + json report
    memlab sweep <file> | --preset NAME run the frequency sweep of the config
    memlab list                         show built-in preset names

Relative output paths resolve under --out, then $MEMLAB_OUT, then the
working directory. Exit codes: 0 ok, 2 configuration problem, 3 the
simulation itself failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

from .analyze import (
    check_analyses,
    linearity_fit,
    loop_area,
    phi_q_classify,
    pinch_test,
    frequency_sweep,
    sweep_monotonicity,
)
from .core import ConfigError, Trajectory
from .expdsl import ExperimentConfig, build_model, parse_experiment
from .expdsl import preset_names, preset_source, waveform_name
from .integrate import SimulationError, simulate

SCHEMA_VERSION = 2


def _report_header(config: ExperimentConfig) -> dict:
    """The fields a run report and a sweep report both open with."""
    wf = config.drive.waveform
    drive = {"kind": config.drive.kind.value, "waveform": waveform_name(wf), **asdict(wf)}
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": config.name,
        "model": {"kind": config.model_kind, "params": dict(config.model_params)},
        "drive": drive,
    }


def _phi_q_entry(cl) -> dict:
    return {**asdict(cl), "kind": cl.kind.value}


def _measured(name: str, entry: dict) -> dict:
    """An analysis' report entry, if each measure in it is finite: one that
    overflowed leaves the analysis nothing to report, a SimulationError."""
    for key, value in entry.items():
        values = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in values):
            raise SimulationError(f"{name} analysis: {key} is not finite")
    return entry


def build_report(config: ExperimentConfig, traj: Trajectory, wall_time_s: float) -> dict:
    """Assemble the run report for an already simulated trajectory."""
    report = {
        **_report_header(config),
        "controls": asdict(config.controls),
        "dt_used": traj.dt,
        "steps_per_cycle": traj.steps_per_cycle,
        "wall_time_s": wall_time_s,
        "pinch": None,
        "loop_areas": None,
        "phi_q": None,
        "linearity": None,
    }
    for name in config.analyses:
        try:
            if name == "pinch":
                report["pinch"] = _measured(name, asdict(pinch_test(traj)))
            elif name == "loop_area":
                rows = []
                for c in range(traj.n_cycles):
                    la = loop_area(traj.cycle(c))
                    # jsonschema takes a list, not a tuple, as an array
                    entry = {**asdict(la), "cycle": c, "lobe_areas": list(la.lobe_areas)}
                    rows.append(_measured(name, entry))
                report["loop_areas"] = rows
            elif name == "phi_q":
                report["phi_q"] = _measured(name, _phi_q_entry(phi_q_classify(traj)))
            else:
                report["linearity"] = _measured(name, asdict(linearity_fit(traj)))
        except ValueError as exc:
            # the run left nothing this analysis can measure (a current that
            # stays at zero has no slope): the simulation, not the config, failed
            raise SimulationError(f"{name} analysis: {exc}") from exc
    return report


def run_experiment(config: ExperimentConfig, dt_override: float | None = None):
    """Simulate one experiment and build its report. Returns (trajectory, report)."""
    if dt_override is not None:
        config = replace(config, controls=replace(config.controls, dt=dt_override))
        check_analyses(config.analyses, config.drive, config.controls)
    model = build_model(config)
    start = time.perf_counter()
    traj = simulate(model, config.drive, config.controls)
    wall = time.perf_counter() - start
    return traj, build_report(config, traj, wall_time_s=wall)


# rows formatted per write: memory holds one chunk of strings, where chunks of
# thousands of rows raise fig2_3's peak RSS by megabytes
CSV_CHUNK_ROWS = 256


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    """Write one row per sample: t,u,y,v,i,phi,q,state0,...

    Each cell is the repr of the float, rows end in "\\r\\n" as csv.writer's
    do. Rows are formatted column-wise, CSV_CHUNK_ROWS at a time, and a column
    that is the same array as another (v is y or u) is formatted once.
    """
    n_state = traj.state.shape[1]
    header = ["t", "u", "y", "v", "i", "phi", "q"] + [f"state{k}" for k in range(n_state)]
    columns = [traj.t, traj.u, traj.y, traj.v, traj.i, traj.phi, traj.q]
    columns += [traj.state[:, j] for j in range(n_state)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(traj), CSV_CHUNK_ROWS):
            stop = start + CSV_CHUNK_ROWS
            cells: dict[int, list[str]] = {}
            for col in columns:
                if id(col) not in cells:
                    cells[id(col)] = list(map(repr, col[start:stop].tolist()))
            rows = zip(*(cells[id(col)] for col in columns))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _out_base(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("MEMLAB_OUT")
    return Path(env) if env else Path(".")


def _output_paths(args, config: ExperimentConfig) -> tuple[Path, Path | None]:
    """The csv and json paths, relative ones under the output base, with
    their directories made; refused before anything is made when the json
    path names the csv file or either names the description file."""
    base = _out_base(args)
    csv_path = base / config.csv_path
    json_path = None if config.json_path is None else base / config.json_path
    if json_path is not None and json_path.resolve() == csv_path.resolve():
        raise ConfigError(f"the json output {str(json_path)!r} is the csv output {str(csv_path)!r}")
    paths = [path for path in (csv_path, json_path) if path is not None]
    for path in paths:
        if args.file and path.resolve() == Path(args.file).resolve():
            raise ConfigError(f"the output {str(path)!r} is the description file {args.file!r}")
    for path in paths:
        path.parent.mkdir(parents=True, exist_ok=True)
    return csv_path, json_path


def _load_config(args) -> ExperimentConfig:
    if args.preset and args.file:
        raise ConfigError("give an experiment file or --preset, not both")
    if args.preset:
        text = preset_source(args.preset)
    elif args.file:
        try:
            text = Path(args.file).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.file} is not UTF-8 text: {exc}") from None
    else:
        raise ConfigError("need an experiment file or --preset NAME")
    config = parse_experiment(text)
    for w in config.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    csv_path, json_path = _output_paths(args, config)
    traj, report = run_experiment(config, dt_override=args.dt_override)
    write_trajectory_csv(csv_path, traj)
    print(f"wrote {csv_path}")
    if json_path is not None:
        _write_json(json_path, report)
        print(f"wrote {json_path}")
    return 0


def _cmd_sweep(args) -> int:
    config = _load_config(args)
    if not config.sweep_frequencies:
        raise ConfigError(f"experiment {config.name!r} has no sweep(...) in its analyze block")
    csv_path, json_path = _output_paths(args, config)
    model = build_model(config)
    start = time.perf_counter()
    points = frequency_sweep(model, config.drive, config.sweep_frequencies, config.controls)
    wall = time.perf_counter() - start

    entries = [
        _measured("sweep", {
            "frequency": p.frequency,
            "area": p.loop.area,
            "normalized_area": p.loop.normalized_area,
            **_phi_q_entry(p.classification),
        })
        for p in points
    ]

    columns = ["frequency", "normalized_area", "kind", "dq_per_cycle", "dphi_per_cycle"]
    with open(csv_path, "w", newline="") as fh:
        # csv writes a float as its str, which is its repr
        writer = csv.writer(fh)
        writer.writerow(["f", *columns[1:]])
        writer.writerows([entry[c] for c in columns] for entry in entries)
    print(f"wrote {csv_path}")

    if json_path is not None:
        payload = {
            **_report_header(config),
            "frequencies": list(config.sweep_frequencies),
            "points": entries,
            "monotonicity": sweep_monotonicity(points),
            "wall_time_s": wall,
        }
        _write_json(json_path, payload)
        print(f"wrote {json_path}")
    return 0


def _cmd_list(args) -> int:
    for name in preset_names():
        print(name)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memlab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # run's and sweep's arguments
    shared.add_argument("file", nargs="?", help="experiment description file")
    shared.add_argument("--preset", help="use a built-in preset instead of a file")
    shared.add_argument("--out", help="directory for relative output paths")

    run = sub.add_parser("run", parents=[shared], help="simulate an experiment and write its outputs")
    run.add_argument("--dt-override", type=float, default=None,
                     help="replace the configured integrator step")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", parents=[shared], help="run an experiment's frequency sweep")
    sweep.set_defaults(func=_cmd_sweep)

    lst = sub.add_parser("list", help="list built-in presets")
    lst.set_defaults(func=_cmd_list)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
