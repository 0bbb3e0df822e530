"""Runs one drs-inekf benchmark workload in this process.

Started by `bench/run.py` with the thread-pinned environment and
`PYTHONPATH=<checkout>/src`; not meant to be run by hand.  The worker
imports the package, sets up its config files and work directory, then
runs the workload's CLI commands through `drs_inekf.cli.main`, timing each
one.  Outputs are checked after each command, outside the timed region,
and deleted.  The result goes to the JSON file named by `--result`.

Modes:
  setup  stop right after set-up (a fresh-process set-up time probe)
         and one measurement of the machine's speed index
  loop   repeat the workload's unit of work until `--seconds` is used up
  fixed  run the unit of work once (traced runs and their untraced twin)
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import speed_index

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "reference.json"

# The reference run uses the config and seed of the repository's
# determinism acceptance test (criterion 9), at which the montecarlo gates
# pass.  Its final-window medians must match bench/reference.json to a
# relative REF_RTOL plus an absolute REF_ATOL, after rounding to REF_DIGITS.
REF_OVERRIDES = {"gait": {"duration": 4.8}, "trials": {"n_trials": 2}}
REF_SEED = 11
REF_DIGITS = 8
REF_RTOL = 1e-6
REF_ATOL = 1e-9
FINAL_WINDOW_S = 5.0       # harness.aggregate's default final window
EXIT_GATE = 4


@dataclass(frozen=True)
class Workload:
    """A CLI command mix and the config overrides it runs under."""

    name: str
    kind: str                      # "montecarlo" or "stream"
    overrides: dict = field(default_factory=dict)


# One rocking plus one static trial per montecarlo command keep the unit
# of work to a few seconds, so a run holds several units and its length
# follows --seconds.
WORKLOADS = {
    "mc_campaign": Workload("mc_campaign", "montecarlo",
                            {"trials": {"n_trials": 1}}),
    "mc_dense_kin": Workload("mc_dense_kin", "montecarlo",
                             {"trials": {"n_trials": 1},
                              "rates": {"kin_hz": 400},
                              "gait": {"duration": 10.0}}),
    "cli_stream": Workload("cli_stream", "stream"),
}

VARIANTS = ("proposed", "position-only")


def import_package():
    """Import `drs_inekf` from this checkout's `src/`, never from elsewhere."""
    import drs_inekf
    from drs_inekf import cli, filter, harness, models, streams  # noqa: F401

    src = (ROOT / "src").resolve()
    if Path(drs_inekf.__file__).resolve().parents[1] != src:
        raise SystemExit(f"drs_inekf imported from {drs_inekf.__file__}, "
                         f"not from {src}")
    return drs_inekf


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- output checks ---------------------------------------------------------

def _check_rows(path: Path, n_rows: int, first_value_col: int) -> list[str]:
    """Row count and finiteness of one metrics CSV; returns problems."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    problems = []
    if len(rows) != n_rows:
        problems.append(f"{path.name}: {len(rows)} rows, expected {n_rows}")
    for row in rows:
        values = [row[0]] + row[first_value_col:]
        if not all(math.isfinite(float(v)) for v in values):
            problems.append(f"{path.name}: non-finite value in {row}")
            break
    return problems


def check_montecarlo(out: Path, n_truth: int, n_trials: int, static: bool) -> list[str]:
    n_metrics = 6            # harness.METRIC_NAMES
    problems = []
    trials = sorted((out / "trials").glob("trial_*.csv"))
    if len(trials) != n_trials:
        problems.append(f"{len(trials)} trial CSVs, expected {n_trials}")
    for path in trials:
        problems += _check_rows(path, len(VARIANTS) * n_truth, 2)
    aggregates = ["aggregate.csv"] + (["aggregate_static.csv"] if static else [])
    for name in aggregates:
        problems += _check_rows(out / name, len(VARIANTS) * n_metrics * n_truth, 3)
    return problems


# -- one unit of work --------------------------------------------------------

class Runner:
    """Runs a workload's commands inside one work directory."""

    def __init__(self, pkg, workload: Workload, work: Path, tracer=None):
        self.cli = pkg.cli
        self.tracer = tracer
        self.workload = workload
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps(workload.overrides))
        cfg = self.cli.load_config(str(self.config))
        self.n_truth = round(cfg["gait"]["duration"] * cfg["rates"]["kin_hz"]) + 1
        self.n_trials = int(cfg["trials"]["n_trials"])
        self.static = (bool(cfg["trials"]["static_control"])
                       and cfg["surface"]["pitch_amplitude"] > 0.0)
        self.attempted = 0
        self.failed = 0
        self.gate_verdicts: list[bool] = []
        self.problems: list[str] = []
        self.stream_digests: list[str] = []

    def command(self, argv: list[str], accept=(0,)) -> tuple[int, float]:
        """One timed CLI command; an exit code outside `accept` is a failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                with self.tracer.span("bench.command"):
                    code = self.cli.main(argv)
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
        if code not in accept:
            self.failed += 1
            self.problems.append(f"exit {code}: drs-inekf {' '.join(argv)}")
        return code, wall

    def fail(self, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.problems += problems

    def unit(self, seed: int, index: int) -> dict:
        """The workload's unit of work for command seed `seed*1000 + index`."""
        cmd_seed = str(seed * 1000 + index)
        base = ["--config", str(self.config), "--seed", cmd_seed]
        out = self.work / f"unit_{index}"
        try:
            return self._unit(base, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _unit(self, base: list[str], out: Path) -> dict:
        if self.workload.kind == "montecarlo":
            # Two trials are too few for the median-based gates to be a
            # check of the program (see README.md), so a gate verdict (exit
            # 4) is recorded, not failed; the reference run checks gates.
            code, wall = self.command(["montecarlo", *base, "--jobs", "1",
                                       "--out", str(out)], accept=(0, EXIT_GATE))
            ok = code in (0, EXIT_GATE)
            if ok:
                self.gate_verdicts.append(code == 0)
                self.fail(check_montecarlo(out, self.n_truth, self.n_trials,
                                           self.static))
            trials = self.n_trials * (2 if self.static else 1)
            return {"wall": wall, "trials": trials if ok else 0}
        out.mkdir()
        stream = out / "stream.jsonl"
        code, sim_s = self.command(["sim", *base, "--out", str(stream)])
        all_ok, estimate_s = code == 0, 0.0
        if all_ok:
            self.stream_digests.append(
                hashlib.sha256(stream.read_bytes()).hexdigest())
            for variant in VARIANTS:
                csv_path = out / f"metrics_{variant}.csv"
                code, wall = self.command(["estimate", *base, "--stream", str(stream),
                                           "--variant", variant, "--out", str(csv_path)])
                estimate_s += wall
                all_ok &= code == 0
                if code == 0:
                    self.fail(_check_rows(csv_path, self.n_truth, 2))
        return {"wall": sim_s + estimate_s, "trials": 1 if all_ok else 0,
                "sim_s": sim_s, "estimate_s": estimate_s if all_ok else None}


def run_units(runner: Runner, seed: int, seconds: float, fixed: bool,
              speed: float) -> list[dict]:
    """Run units while that brings the timed wall closer to `seconds`.

    Another unit is started unless the mean unit time so far says it would
    end further past `seconds` than the run is short of it now.  A fixed run
    does one unit.  Each unit's `speed` is the mean of the machine's speed
    index measured right before and right after it (`speed` is the first).
    """
    units: list[dict] = []
    spent = 0.0
    while True:
        unit = runner.unit(seed, len(units))
        after = speed_index()
        unit["speed"] = 0.5 * (speed + after)
        speed = after
        units.append(unit)
        spent += unit["wall"]
        if fixed or spent + 0.5 * spent / len(units) > seconds:
            return units


# -- reference answers -------------------------------------------------------

def final_window_medians(path: Path) -> dict:
    """Per variant and metric, the median over the last FINAL_WINDOW_S."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    metrics = [k for k in rows[0] if k not in ("t", "variant")]
    t_end = max(float(r["t"]) for r in rows)
    window = [r for r in rows if float(r["t"]) >= t_end - FINAL_WINDOW_S + 1e-9]
    out: dict = {}
    for variant in dict.fromkeys(r["variant"] for r in window):
        mine = [r for r in window if r["variant"] == variant]
        out[variant] = {m: float(f"{statistics.median(float(r[m]) for r in mine):.{REF_DIGITS}g}")
                        for m in metrics}
    return out


def reference_medians(runner: Runner, kind: str) -> dict:
    """Final-window medians of every metrics CSV of the fixed reference run.

    `montecarlo` must exit 0 here: at this config and seed the gates pass,
    so a gate failure is a changed answer.
    """
    out_dir = runner.work / f"reference_{kind}"
    out_dir.mkdir()
    config = out_dir / "config.json"
    config.write_text(json.dumps(REF_OVERRIDES))
    base = ["--config", str(config), "--seed", str(REF_SEED)]
    try:
        if kind == "montecarlo":
            if runner.command(["montecarlo", *base, "--jobs", "1",
                               "--out", str(out_dir)])[0] != 0:
                return {}
            paths = sorted((out_dir / "trials").glob("trial_*.csv"))
        else:
            stream = out_dir / "stream.jsonl"
            if runner.command(["sim", *base, "--out", str(stream)])[0] != 0:
                return {}
            paths = []
            for variant in VARIANTS:
                paths.append(out_dir / f"{variant}.csv")
                if runner.command(["estimate", *base, "--stream", str(stream),
                                   "--variant", variant,
                                   "--out", str(paths[-1])])[0] != 0:
                    return {}
        return {p.name: final_window_medians(p) for p in paths}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def compare_reference(got: dict, want: dict) -> list[str]:
    problems = []
    for name, variants in want.items():
        for variant, metrics in variants.items():
            for metric, value in metrics.items():
                have = got.get(name, {}).get(variant, {}).get(metric)
                if have is None or abs(have - value) > REF_ATOL + REF_RTOL * abs(value):
                    problems.append(f"reference mismatch {name} {variant} {metric}: "
                                    f"got {have}, stored {value}")
    return problems


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--mode", choices=("setup", "loop", "fixed"), default="loop")
    parser.add_argument("--trace", action="store_true",
                        help="wrap the package's boundary functions and record spans")
    parser.add_argument("--result", help="JSON file the worker writes its result to")
    parser.add_argument("--write-reference", action="store_true",
                        help="rerun the reference runs and rewrite bench/reference.json")
    args = parser.parse_args(argv)

    pkg = import_package()
    work = ROOT / ".bench_build" / "bench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.write_reference:
            runner = Runner(pkg, WORKLOADS["cli_stream"], work)
            table = {kind: reference_medians(runner, kind)
                     for kind in ("montecarlo", "stream")}
            if runner.failed:
                raise SystemExit(f"reference run failed: {runner.problems}")
            REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
            return 0
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
        runner = Runner(pkg, WORKLOADS[args.workload], work, tracer)
        result = {"ready": time.monotonic(), "machine": machine_info(),
                  "speed": speed_index()}
        if args.mode != "setup":
            result.update(run_workload(pkg, runner, args, result["speed"]))
        Path(args.result).write_text(json.dumps(result))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def run_workload(pkg, runner: Runner, args, speed: float) -> dict:
    tracer = runner.tracer
    if tracer is not None:
        tracer.install(pkg)
    try:
        units = run_units(runner, args.seed, args.seconds, args.mode == "fixed",
                          speed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {"units": units, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        from tracing import layer_metrics, summarize

        trace_dir = ROOT / ".bench_build" / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans_path = trace_dir / f"{args.workload}.spans.npz"
        spans = tracer.save(str(spans_path))
        out["metrics"] = layer_metrics(summarize(spans), tracer.counters)
        out["spans_file"] = str(spans_path.relative_to(ROOT))
        out["n_spans"] = len(spans["start"])
    else:
        # The reference run is untraced; its comparison is one more operation.
        kind = runner.workload.kind
        got = reference_medians(runner, kind)
        runner.attempted += 1
        runner.fail(compare_reference(got, json.loads(REFERENCE.read_text())[kind]))
    out.update(attempted=runner.attempted, failed=runner.failed,
               gate_verdicts=runner.gate_verdicts, problems=runner.problems)
    return out


if __name__ == "__main__":
    sys.exit(main())
