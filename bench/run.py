"""drs-inekf benchmark launcher.

    python3 bench/run.py --workload mc_campaign --seed 1 --seconds 28 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Each run starts fresh worker processes (`worker.py`)
with BLAS/OpenMP pinned to one thread and prints a human-readable summary,
then one JSON line with `correct`, `attempted`, `failed` and `metrics`.

--trace 0  end-to-end metrics from untraced workers: `setup_s` is the
           median over several fresh processes, the rest come from one
           worker that repeats the workload's unit of work for --seconds.
           Times are divided by the machine's speed index measured next to
           them (bench/calibrate.py); raw wall figures are in the summary.
--trace 1  per-layer metrics: the unit of work runs traced, between two
           untraced runs of it, each in its own process; the traced timed
           wall minus the mean of the untraced ones, scaled to the traced
           run's speed index, is `trace.overhead_s`.

Metric names and units are those declared in BENCHMARK.json at the root of
the checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import ROOT, WORKLOADS

BENCH = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build" / "bench"
SETUP_PROBES = 4           # fresh set-up-only processes, plus the main worker
# A run may last 3 x --seconds plus this allowance (set-up probes, the
# reference run, a unit that ends past --seconds) before it is stopped.
SLACK_S = 60.0

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


class Launcher:
    def __init__(self, args):
        self.args = args
        self.time_limit = 3.0 * args.seconds + SLACK_S
        self.deadline = time.monotonic() + self.time_limit
        self.env = dict(os.environ, **CHILD_ENV,
                        PYTHONPATH=str(ROOT / "src"))
        self.log = BUILD / f"{args.workload}-{os.getpid()}.log"
        self.count = 0

    def spawn(self, mode: str, trace: bool = False) -> dict:
        """Run one worker to completion; returns its result with `setup_s`."""
        self.count += 1
        result = BUILD / f"result-{os.getpid()}-{self.count}.json"
        argv = [sys.executable, str(BENCH / "worker.py"),
                "--workload", self.args.workload, "--seed", str(self.args.seed),
                "--seconds", str(self.args.seconds), "--mode", mode,
                "--result", str(result)] + (["--trace"] if trace else [])
        with open(self.log, "a") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"run went past its {self.time_limit:.0f} s limit "
                                 f"in a {mode} worker")
        if code != 0:
            raise BenchError(f"worker ({mode}) exited with {code}")
        try:
            out = json.loads(result.read_text())
        finally:
            result.unlink(missing_ok=True)
        out["setup_s"] = out["ready"] - spawned
        return out


def end_to_end(launcher: Launcher) -> tuple[dict, dict, list[str]]:
    """Time metrics are divided by the machine's speed index (calibrate.py)
    measured next to them; the raw wall figures go to the summary."""
    probes = [launcher.spawn("setup") for _ in range(SETUP_PROBES)]
    run = launcher.spawn("loop")
    probes.append(run)
    units = run["units"]
    wall = sum(u["wall"] for u in units)
    metrics = {
        "setup_s": statistics.median(p["setup_s"] / p["speed"] for p in probes),
        "trials_per_ref_s": (sum(u["trials"] for u in units)
                             / sum(u["wall"] / u["speed"] for u in units)),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    lines = [f"{len(units)} unit(s) of work, {run['attempted']} operations "
             f"in {wall:.2f} s of timed wall; setup_s is the median of "
             f"{len(probes)} fresh processes",
             "unit walls (s):   " + " ".join(f"{u['wall']:.3f}" for u in units),
             "speed index:      " + " ".join(f"{u['speed']:.3f}" for u in units),
             f"raw wall: trials_per_s {sum(u['trials'] for u in units) / wall:.4f} 1/s, "
             f"setup median {statistics.median(p['setup_s'] for p in probes):.4f} s"]
    verdicts = run["gate_verdicts"]
    if verdicts:
        lines.append(f"gates: {sum(verdicts)} of {len(verdicts)} montecarlo commands "
                     f"passed every gate (a verdict, not a failure, with so few trials)")
    if WORKLOADS[launcher.args.workload].kind == "stream":
        estimates = [u["estimate_s"] for u in units if u["estimate_s"] is not None]
        lines.append(f"sim_s_p50 {statistics.median(u['sim_s'] for u in units):.4f} s"
                     f" (n={len(units)})")
        if estimates:
            lines.append(f"estimate_s_p50 {statistics.median(estimates):.4f} s"
                         f" (both variants, n={len(estimates)})")
    return run, metrics, lines


def per_layer(launcher: Launcher) -> tuple[dict, dict, list[str]]:
    # The untraced twin runs right before and right after the traced unit,
    # and each unit's wall is scaled by the speed index measured around it,
    # so a drift of the machine's speed cancels to first order.
    before = launcher.spawn("fixed")
    traced = launcher.spawn("fixed", trace=True)
    after = launcher.spawn("fixed")
    metrics = dict(traced["metrics"])
    speed = traced["units"][0]["speed"]
    metrics["trace.overhead_s"] = (_timed(traced) - speed * 0.5 * (
        _timed(before) / before["units"][0]["speed"]
        + _timed(after) / after["units"][0]["speed"]))
    wall = metrics["trace.wall_s"]
    lines = [f"{traced['n_spans']} spans written to {traced['spans_file']}; "
             f"traced wall {wall:.3f} s at speed index {speed:.3f}, "
             f"overhead {metrics['trace.overhead_s']:.3f} s"]
    for layer in ("liegroup", "models", "filter", "sim", "streams", "harness",
                  "plots", "cli"):
        share = metrics[f"{layer}.self_s"] / wall
        lines.append(f"  {layer:<9} self {metrics[layer + '.self_s']:9.4f} s "
                     f"{100 * share:5.1f} %")
    lines.append(f"  unwrapped      {metrics['trace.unwrapped_s']:9.4f} s")
    workers = (before, traced, after)
    run = dict(traced, attempted=sum(w["attempted"] for w in workers),
               failed=sum(w["failed"] for w in workers),
               problems=[p for w in workers for p in w["problems"]])
    return run, metrics, lines


def _timed(worker: dict) -> float:
    return sum(u["wall"] for u in worker["units"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "drs_inekf" / "__init__.py").is_file():
        print(f"no drs_inekf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    BUILD.mkdir(parents=True, exist_ok=True)
    launcher = Launcher(args)
    try:
        run, metrics, lines = (per_layer if args.trace else end_to_end)(launcher)
    except BenchError as exc:
        print(f"benchmark failed: {exc}; worker log: {launcher.log}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"benchmark produced no value for {missing}", file=sys.stderr)
        return 1
    launcher.log.unlink(missing_ok=True)

    print(f"machine: {json.dumps(run['machine'], sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    for m in wanted:
        print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<40} {run['failed'] / run['attempted']:>14.6g} ratio "
          f"({run['failed']} of {run['attempted']} operations failed)")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
