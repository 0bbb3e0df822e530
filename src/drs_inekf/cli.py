"""Command-line front end: simulate, estimate, and Monte Carlo compare.

Subcommands:
  sim         write a synthetic sensor stream (JSON Lines) from a config
  estimate    run one filter variant over a stream, write per-step metrics CSV
  montecarlo  run the Monte Carlo comparison, write aggregate CSV + SVG plots
              and evaluate the pass/fail gates

Exit codes: 0 success, 2 config/IO error, 3 data error, 4 gate failure.
Every command is deterministic given (config, seed) and writes a manifest
next to its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from . import __version__
from .filter import FilterError, Variant
from .harness import (
    VARIANTS,
    TrialConfig,
    campaigns,
    evaluate_gates,
    run_trial,
    write_aggregate_csv,
    write_trial_csv,
)
from .models import ConfigError, NoiseParams, config_fields
from .plots import write_report_svgs
from .sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from .streams import StreamFormatError, read_jsonl, record_line, write_jsonl

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_GATE = 4


# The config document: one section per dataclass, whose `param` fields
# hold each key's default, type and bounds.
SECTIONS = {"surface": SurfaceConfig, "gait": GaitConfig, "rates": Rates,
            "noise": NoiseParams, "trials": TrialConfig}

DEFAULT_CONFIG: dict = json.loads(json.dumps(
    {name: {f.name: f.default for f in config_fields(cls)}
     for name, cls in SECTIONS.items()}))  # tuples as lists


def load_config(path: str | None) -> dict:
    """The default document, with the sections of the JSON file at `path`
    merged over it key by key (no path: the defaults)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is None:
        return cfg
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    for name, section in user.items():
        if name not in cfg:
            raise ConfigError(f"{name}: unknown field")
        if not isinstance(section, dict):
            raise ConfigError(f"{name}: expected an object")
        for key, value in section.items():
            if key not in cfg[name]:
                raise ConfigError(f"{name}.{key}: unknown field")
            cfg[name][key] = value
    return cfg


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-manifest-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_manifest(path: str, command: str, config: dict, seed: int,
                   outputs: list[str], marks: dict[str, float]) -> None:
    """`marks`: the `perf_counter` time of "start", then of each stage's end, in order."""
    names, times = list(marks), list(marks.values())
    manifest = {
        "tool": "drs-inekf",
        "version": __version__,
        "command": command,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "config": config,
        "outputs": [os.path.abspath(p) for p in outputs],
        "duration_s": round(time.perf_counter() - times[0], 3),
        "stages_s": {n: round(b - a, 4) for n, a, b in zip(names[1:], times, times[1:])},
    }
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _ensure_out_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)


def build_all(cfg: dict, seed: int) -> argparse.Namespace:
    """Every section of a loaded config as its dataclass, the gait on the tick grid.

    Each dataclass checks its own fields; its errors gain the section name,
    so they read `section.field: reason`.
    """
    c, extra = argparse.Namespace(), {"trials": {"master_seed": seed}}
    for name, cls in SECTIONS.items():
        try:
            setattr(c, name, cls(**cfg[name], **extra.get(name, {})))
        except ValueError as exc:
            raise ConfigError(f"{name}.{exc}") from exc
    c.gait.ticks(c.rates)
    return c


def cmd_sim(args, c, marks):
    truth = generate_truth(c.gait, c.surface, seed=args.seed)
    stream = synthesize_sensors([truth], c.noise, c.rates, [args.seed])
    marks["simulate"] = time.perf_counter()
    _ensure_out_dir(args.out)
    write_jsonl(stream, args.out)
    marks["write"] = time.perf_counter()
    print(f"wrote {len(stream)} records to {args.out}")
    return EXIT_OK, args.out + ".manifest.json", [args.out]


def cmd_estimate(args, c, marks):
    if args.stream is None:
        raise ConfigError("estimate needs --stream")
    variant = Variant(args.variant)
    stream = read_jsonl(args.stream)
    marks["read"] = time.perf_counter()
    # One variant, one trial, started exactly at the first truth sample.
    try:
        rows = run_trial(stream, c.trials, c.noise, (variant,), np.zeros(12))
    except FilterError as exc:  # named by its line, as a stream error is
        raise FilterError(f"line {record_line(args.stream, exc.record)}: {exc}") from exc
    marks["estimate"] = time.perf_counter()
    _ensure_out_dir(args.out)
    t = stream.columns["truth"]["t"]
    write_trial_csv(args.out, t, (variant,), rows)
    marks["write"] = time.perf_counter()
    print(f"wrote metrics for {len(t)} truth samples to {args.out}")
    return EXIT_OK, args.out + ".manifest.json", [args.out]


def cmd_montecarlo(args, c, marks):
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    tcfg, out_dir = c.trials, args.out
    os.makedirs(os.path.join(out_dir, "trials"), exist_ok=True)

    surfaces = [c.surface]
    print(f"running {tcfg.n_trials} trials (rocking surface), jobs={args.jobs}")
    if tcfg.static_control and c.surface.pitch_amplitude > 0.0:
        surfaces.append(dataclasses.replace(c.surface, pitch_amplitude=0.0))
        print(f"running {tcfg.n_trials} trials (static level control)")
    (rocking, rows), *control = campaigns(tcfg, c.gait, surfaces, c.noise,
                                          c.rates, jobs=args.jobs)
    static = control[0][0] if control else None
    marks["campaigns"] = time.perf_counter()

    outputs = []
    for name, report in (("aggregate.csv", rocking), ("aggregate_static.csv", static)):
        if report is not None:
            outputs.append(os.path.join(out_dir, name))
            write_aggregate_csv(outputs[-1], report)
    for i in range(rows.shape[1]):
        path = os.path.join(out_dir, "trials", f"trial_{i:03d}.csv")
        write_trial_csv(path, rocking.t, VARIANTS, rows[:, i])
        outputs.append(path)
    outputs.extend(write_report_svgs(rocking, os.path.join(out_dir, "plots")))

    gates = evaluate_gates(rocking, static)
    width = max(len(g.name) for g in gates)
    print()
    print(f"{'gate':<{width}}  status  detail")
    failed = []
    for g in gates:
        status = "PASS" if g.passed else "FAIL"
        if not g.gating:
            status = "info"
        elif not g.passed:
            failed.append(g.name)
        print(f"{g.name:<{width}}  {status:<6}  {g.detail}")
    gates_path = os.path.join(out_dir, "gates.json")
    _atomic_write(gates_path, json.dumps(
        [{"name": g.name, "passed": g.passed, "gating": g.gating,
          "detail": g.detail} for g in gates], indent=2) + "\n")
    outputs.append(gates_path)
    marks["outputs"] = time.perf_counter()
    manifest = os.path.join(out_dir, "manifest.json")
    if failed:
        print(f"\nFAILED gates: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GATE, manifest, outputs
    print("\nall gates passed")
    return EXIT_OK, manifest, outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drs-inekf",
        description="Invariant EKF for bipedal walking on moving rigid "
                    "surfaces: simulation, estimation, Monte Carlo comparison.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (defaults apply)")
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--print-config", action="store_true",
                        help="print the full default config and exit")

    p_sim = sub.add_parser("sim", parents=[common],
                           help="write a synthetic sensor stream")
    p_sim.add_argument("--out", default="stream.jsonl")
    p_sim.set_defaults(func=cmd_sim)

    p_est = sub.add_parser("estimate", parents=[common],
                           help="run one filter variant over a stream")
    p_est.add_argument("--stream", help="stream file to read (required)")
    p_est.add_argument("--variant", default=Variant.PROPOSED.value,
                       choices=[v.value for v in Variant])
    p_est.add_argument("--out", default="metrics.csv")
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("montecarlo", parents=[common],
                          help="Monte Carlo comparison with pass/fail gates")
    p_mc.add_argument("--out", default="mc_out")
    p_mc.add_argument("--jobs", type=int, default=1,
                      help="parallel workers, one contiguous chunk of trials each")
    p_mc.set_defaults(func=cmd_montecarlo)
    return parser


def main(argv=None) -> int:
    """Run one command in the frame every command shares: start the stage
    clock, load the config document, build and check its sections, run the
    command, and write the manifest it names (after a gate failure too).

    A command `cmd_*(args, sections, marks)` adds the end time of each of
    its stages to `marks` and returns its exit code, its manifest's path
    and its outputs.
    """
    args = build_parser().parse_args(argv)
    if args.print_config:
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return EXIT_OK
    marks = {"start": time.perf_counter()}
    try:
        cfg = load_config(args.config)
        code, manifest, outputs = args.func(args, build_all(cfg, args.seed), marks)
        write_manifest(manifest, args.command, cfg, args.seed, outputs, marks)
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StreamFormatError as exc:
        print(f"stream error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:  # estimator hard errors carry data context
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
