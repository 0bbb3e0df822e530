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

from . import __version__
from .filter import FilterConfig, StreamEstimator, Variant, state_from_truth
from .harness import (
    TrialConfig,
    TrialResult,
    evaluate_gates,
    initial_covariance,
    metric_series,
    monte_carlo,
    write_aggregate_csv,
    write_trial_csv,
)
from .models import NoiseLevels, NoiseParams, config_fields
from .plots import write_report_svgs
from .sim import GaitConfig, Rates, SurfaceConfig, generate_truth, synthesize_sensors
from .streams import StreamFormatError, TruthSample, read_jsonl, write_jsonl

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_GATE = 4


class ConfigError(ValueError):
    """Invalid configuration; message names the offending field."""


# The config document: one section per dataclass, whose `param` fields
# hold each key's default, type and bounds.
SECTIONS = {"surface": SurfaceConfig, "gait": GaitConfig, "rates": Rates,
            "noise": NoiseLevels, "filter": FilterConfig, "trials": TrialConfig}

DEFAULT_CONFIG: dict = json.loads(json.dumps(
    {name: {f.name: f.default for f in config_fields(cls)}
     for name, cls in SECTIONS.items()},
    default=lambda member: member.value))  # an Enum member as its value


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


def build(cfg: dict, section: str, make=None, **extra):
    """Section `section` of a loaded config as its dataclass (or `make(...)`).

    The dataclass checks its own fields; its errors gain the section name,
    so they read `section.field: reason`.
    """
    try:
        return (make or SECTIONS[section])(**cfg[section], **extra)
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
                   outputs: list[str], started: float) -> None:
    manifest = {
        "tool": "drs-inekf",
        "version": __version__,
        "command": command,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": seed,
        "config": config,
        "outputs": [os.path.abspath(p) for p in outputs],
        "duration_s": round(time.time() - started, 3),
    }
    _atomic_write(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _ensure_out_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)


def cmd_sim(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    surface = build(cfg, "surface")
    gait = build(cfg, "gait")
    rates = build(cfg, "rates")
    noise = build(cfg, "noise", NoiseParams.from_scalars)
    truth = generate_truth(gait, surface, seed=args.seed)
    try:
        records = synthesize_sensors(truth, noise, rates, seed=args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _ensure_out_dir(args.out)
    write_jsonl(records, args.out)
    write_manifest(args.out + ".manifest.json", "sim", cfg, args.seed,
                   [args.out], started)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    noise = build(cfg, "noise", NoiseParams.from_scalars)
    variant = Variant(args.variant)
    fcfg = build(cfg, "filter", noise=noise, variant=variant)
    tcfg = build(cfg, "trials", master_seed=args.seed)
    records = read_jsonl(args.stream)
    first = next((r for r in records if isinstance(r, TruthSample)), None)
    if first is None:
        raise StreamFormatError("stream contains no truth records")
    est = StreamEstimator(state_from_truth(first, initial_covariance(tcfg)), fcfg)
    series = metric_series(records, est)
    _ensure_out_dir(args.out)
    write_trial_csv(args.out, TrialResult(0, {variant: series}))
    write_manifest(args.out + ".manifest.json", "estimate", cfg, args.seed,
                   [args.out], started)
    print(f"wrote metrics for {len(series.t)} truth samples to {args.out}")
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    started = time.time()
    cfg = load_config(args.config)
    surface = build(cfg, "surface")
    gait = build(cfg, "gait")
    rates = build(cfg, "rates")
    noise = build(cfg, "noise", NoiseParams.from_scalars)
    fcfg = build(cfg, "filter", noise=noise)
    tcfg = build(cfg, "trials", master_seed=args.seed)
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        os.makedirs(os.path.join(out_dir, "trials"), exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out_dir}: {exc}") from exc

    options = dict(jobs=args.jobs, epsilon=fcfg.epsilon,
                   schedule=fcfg.update_schedule)
    print(f"running {tcfg.n_trials} trials (rocking surface), jobs={args.jobs}")
    rocking, results = monte_carlo(tcfg, gait, surface, noise, rates, **options)
    static = None
    if tcfg.static_control and surface.pitch_amplitude > 0.0:
        print(f"running {tcfg.n_trials} trials (static level control)")
        static, _ = monte_carlo(
            tcfg, gait, dataclasses.replace(surface, pitch_amplitude=0.0),
            noise, rates, **options)

    outputs = []
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    write_aggregate_csv(aggregate_path, rocking)
    outputs.append(aggregate_path)
    if static is not None:
        static_path = os.path.join(out_dir, "aggregate_static.csv")
        write_aggregate_csv(static_path, static)
        outputs.append(static_path)
    for result in results:
        path = os.path.join(out_dir, "trials", f"trial_{result.trial:03d}.csv")
        write_trial_csv(path, result)
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
    write_manifest(os.path.join(out_dir, "manifest.json"), "montecarlo", cfg,
                   args.seed, outputs, started)
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
    p_est.add_argument("--stream", required=True)
    p_est.add_argument("--variant", default=FilterConfig.variant.value,
                       choices=[v.value for v in Variant])
    p_est.add_argument("--out", default="metrics.csv")
    p_est.set_defaults(func=cmd_estimate)

    p_mc = sub.add_parser("montecarlo", parents=[common],
                          help="Monte Carlo comparison with pass/fail gates")
    p_mc.add_argument("--out", default="mc_out")
    p_mc.add_argument("--jobs", type=int, default=1,
                      help="parallel trial workers")
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
