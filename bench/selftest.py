"""Self-test of the benchmark's traced run.

    python3 bench/selftest.py

Runs small traced workloads in this process and checks that:
  - two traced runs with the same seed give identical counts
    (`tracing.deterministic_counts`);
  - another seed changes the simulated stream but not the record counts;
  - every wrapper is gone after a traced run;
  - layer self times plus the unwrapped remainder add up to the traced wall;
  - every per-layer metric that BENCHMARK.json declares is produced.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import types
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tracing import LAYERS, Tracer, deterministic_counts, layer_metrics, summarize  # noqa: E402
from worker import ROOT, Runner, Workload, import_package, run_units  # noqa: E402

SMALL = (
    Workload("selftest_mc", "montecarlo",
             {"trials": {"n_trials": 1}, "gait": {"duration": 2.4}}),
    Workload("selftest_stream", "stream", {"gait": {"duration": 2.4}}),
)


def wrappers_left(pkg, tracer: Tracer) -> list[str]:
    """Tracer patches still in place, plus any wrapped function in the package."""
    left = tracer.leftover()
    for module in vars(pkg).values():
        if isinstance(module, types.ModuleType):
            left += [f"{module.__name__}.{name}" for name, value in vars(module).items()
                     if hasattr(value, "__wrapped__")]
    if hasattr(pkg.filter.StreamEstimator.step, "__wrapped__"):
        left.append("StreamEstimator.step")
    return left


def traced_run(pkg, workload: Workload, seed: int, problems: list[str]):
    work = ROOT / ".bench_build" / "selftest" / f"{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tracer = Tracer()
    runner = Runner(pkg, workload, work, tracer)
    tracer.install(pkg)
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            run_units(runner, seed, 0.0, fixed=True, speed=1.0)
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    left = wrappers_left(pkg, tracer)
    if left:
        problems.append(f"{workload.name}: wrappers left after the run: {left}")
    metrics = layer_metrics(summarize(tracer.arrays()), tracer.counters)
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    if abs(layers + metrics["trace.unwrapped_s"] - metrics["trace.wall_s"]) > 1e-6:
        problems.append(f"{workload.name}: layer self times {layers} plus unwrapped "
                        f"{metrics['trace.unwrapped_s']} != wall {metrics['trace.wall_s']}")
    return metrics, runner.stream_digests


def record_counts(metrics: dict) -> dict:
    return {k: v for k, v in metrics.items()
            if k.startswith("filter.records.") or k == "sim.records"}


def main() -> int:
    pkg = import_package()
    problems: list[str] = []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for workload in SMALL:
        first, digests_a = traced_run(pkg, workload, 7, problems)
        again, _ = traced_run(pkg, workload, 7, problems)
        other, digests_b = traced_run(pkg, workload, 8, problems)
        counts = deterministic_counts(first)
        if counts != deterministic_counts(again):
            diff = {k: (v, again.get(k)) for k, v in counts.items() if again.get(k) != v}
            problems.append(f"{workload.name}: counts differ between runs: {diff}")
        if not counts.get("filter.records.imu"):
            problems.append(f"{workload.name}: no imu records counted")
        if record_counts(first) != record_counts(other):
            problems.append(f"{workload.name}: record counts depend on the seed")
        if workload.kind == "stream" and digests_a == digests_b:
            problems.append(f"{workload.name}: seeds 7 and 8 gave the same stream")
        missing = [m["name"] for m in declared
                   if m["name"] not in first and m["name"] != "trace.overhead_s"]
        if missing:
            problems.append(f"{workload.name}: no value for declared metrics {missing}")
        print(f"{workload.name}: {len(counts)} counts repeat, "
              f"{first['filter.records.imu']} imu records per run")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
