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
from .filter import Variant
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
from .streams import StreamFormatError, read_jsonl, write_jsonl

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


def _merge(defaults: dict, override: dict, path: str = "") -> dict:
    out = dict(defaults)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"{where}: unknown field")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where}: expected an object")
            out[key] = _merge(defaults[key], value, where)
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    if path is None:
        return json.loads(json.dumps(DEFAULT_CONFIG))
    try:
        with open(path) as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    return _merge(DEFAULT_CONFIG, user)


def build(cfg: dict, section: str, **extra):
    """Section `section` of a loaded config as its dataclass.

    The dataclass checks its own fields; its errors gain the section name,
    so they read `section.field: reason`.
    """
    try:
        return SECTIONS[section](**cfg[section], **extra)
    except ValueError as exc:
        raise ConfigError(f"{section}.{exc}") from exc


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
    """Every section of a loaded config, built and checked, the gait on the tick grid."""
    c = argparse.Namespace(
        surface=build(cfg, "surface"), gait=build(cfg, "gait"),
        rates=build(cfg, "rates"), noise=build(cfg, "noise"),
        trials=build(cfg, "trials", master_seed=seed))
    c.gait.ticks(c.rates)
    return c


def cmd_sim(args) -> int:
    marks = {"start": time.perf_counter()}
    cfg = load_config(args.config)
    c = build_all(cfg, args.seed)
    truth = generate_truth(c.gait, c.surface, seed=args.seed)
    stream = synthesize_sensors([truth], c.noise, c.rates, [args.seed])
    marks["simulate"] = time.perf_counter()
    _ensure_out_dir(args.out)
    write_jsonl(stream, args.out)
    marks["write"] = time.perf_counter()
    write_manifest(args.out + ".manifest.json", "sim", cfg, args.seed,
                   [args.out], marks)
    print(f"wrote {len(stream)} records to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    marks = {"start": time.perf_counter()}
    if args.stream is None:
        raise ConfigError("estimate needs --stream")
    cfg = load_config(args.config)
    c = build_all(cfg, args.seed)
    variant = Variant(args.variant)
    stream = read_jsonl(args.stream)
    marks["read"] = time.perf_counter()
    # One variant, one trial, started exactly at the first truth sample.
    rows = run_trial(stream, c.trials, c.noise, (variant,), np.zeros(12))
    marks["estimate"] = time.perf_counter()
    _ensure_out_dir(args.out)
    t = stream.columns["truth"]["t"]
    write_trial_csv(args.out, t, (variant,), rows)
    marks["write"] = time.perf_counter()
    write_manifest(args.out + ".manifest.json", "estimate", cfg, args.seed,
                   [args.out], marks)
    print(f"wrote metrics for {len(t)} truth samples to {args.out}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    marks = {"start": time.perf_counter()}
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")
    cfg = load_config(args.config)
    c = build_all(cfg, args.seed)
    tcfg = c.trials
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "trials"), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

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
    write_manifest(os.path.join(out_dir, "manifest.json"), "montecarlo", cfg,
                   args.seed, outputs, marks)
    if failed:
        print(f"\nFAILED gates: {', '.join(failed)}", file=sys.stderr)
        return EXIT_GATE
    print("\nall gates passed")
    return EXIT_OK


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "print_config", False):
        print(json.dumps(DEFAULT_CONFIG, indent=2, sort_keys=True))
        return EXIT_OK
    try:
        return args.func(args)
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
