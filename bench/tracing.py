"""In-memory span tracer for the drs-inekf benchmark, and a trace reader.

The tracer wraps the public functions at each module boundary of the
imported `drs_inekf` package: every function of the package found in the
namespace of `cli`, `harness` or `filter` (the names those modules import,
and the ones `harness` and `filter` define and call through their own
globals), `cli.main`, `cli.write_manifest`, and `StreamEstimator.step`,
timed per record kind.  Nothing under `src/` is
edited; `install` swaps module attributes and `uninstall` puts the
originals back.

Each span is kept in four flat arrays (name id, parent index, start, end)
and written out as one `.npz` file when the run ends.  A span's self time
is its duration minus the time its direct children cover.  The span name
is `<layer>.<function>`, where the layer is the module that defines the
function, so per-layer self times are sums over names; the root spans
(`bench.*`) hold the time no wrapped function covers.

Read a written trace with:

    python3 bench/tracing.py .bench_build/trace/mc_campaign.spans.npz
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import os
import time
import types
from array import array

import numpy as np

LAYERS = ("liegroup", "models", "filter", "sim", "streams", "harness",
          "plots", "cli")
ROOT_LAYER = "bench"
# The CLI's own helpers (config builders, subcommands, the estimate CSV
# loop) stay inside the `cli.main` span; only these are spans of their own.
CLI_OWN = ("main", "write_manifest")


def _count_written(counters, args, result):
    records, path = args[0], args[1]
    counters["streams.records_written"] += len(records)
    counters["streams.bytes"] += os.path.getsize(path)


def _count_read(counters, args, result):
    counters["streams.records_read"] += len(result)


def _count_synthesized(counters, args, result):
    counters["sim.records"] += len(result)


def _count_csv(counters, args, result):
    counters["harness.csv_bytes"] += os.path.getsize(args[0])


def _count_gates(counters, args, result):
    counters["harness.gates_passed"] += sum(1 for g in result
                                            if g.gating and g.passed)


# Counters read from a call's arguments or result after the span closes.
POST_HOOKS = {
    "streams.write_jsonl": _count_written,
    "streams.read_jsonl": _count_read,
    "sim.synthesize_sensors": _count_synthesized,
    "harness.write_trial_csv": _count_csv,
    "harness.write_aggregate_csv": _count_csv,
    "harness.evaluate_gates": _count_gates,
}


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counters: collections.Counter = collections.Counter()
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the root spans)."""
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name: str):
        nid = self._id(name)
        post = POST_HOOKS.get(name)
        counters, open_, close = self.counters, self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(i)
            if post is not None:
                post(counters, args, result)
            return result

        return traced

    def wrap_step(self, fn, kinds: dict[type, str]):
        ids = {cls: self._id(f"filter.step:{kind}") for cls, kind in kinds.items()}
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(estimator, event):
            i = open_(ids[type(event)])
            try:
                return fn(estimator, event)
            finally:
                close(i)

        return traced

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, pkg) -> None:
        """Wrap the boundary functions of the imported `drs_inekf` package."""
        for module in (pkg.cli, pkg.harness, pkg.filter):
            for attr, value in sorted(vars(module).items()):
                if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                        or not value.__module__.startswith("drs_inekf.")
                        or (module is pkg.cli and value.__module__ == module.__name__
                            and attr not in CLI_OWN)):
                    continue
                layer = value.__module__.split(".")[1]
                self._patch(module, attr,
                            self.wrap(value, f"{layer}.{value.__name__}"))
        streams, models = pkg.streams, pkg.models
        kinds = {models.ImuStep: "imu", streams.FkPosition: "fk_pos",
                 streams.FkOrientation: "fk_rot", streams.SurfacePose: "surface",
                 streams.SwapEvent: "swap", streams.TruthSample: "truth"}
        estimator = pkg.filter.StreamEstimator
        self._patch(estimator, "step", self.wrap_step(estimator.step, kinds))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def leftover(self) -> list[str]:
        """Patched attributes that do not hold their original value now."""
        return [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._saved
                if getattr(owner, attr) is not original]

    # -- output -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"names": np.array(self.names),
                "name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start),
                "end": np.array(self.end)}

    def save(self, path: str) -> dict[str, np.ndarray]:
        spans = self.arrays()
        np.savez(path, **spans)
        return spans


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s (total duration) and self_s.

    No wrapped function calls itself, so a name's busy time is the plain
    sum of its span durations.
    """
    names, nid, parent = spans["names"], spans["name_id"], spans["parent"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    own = dur - covered
    n = len(names)
    calls = np.bincount(nid, minlength=n)
    busy = np.bincount(nid, weights=dur, minlength=n)
    self_s = np.bincount(nid, weights=own, minlength=n)
    return {str(name): {"calls": int(calls[i]), "busy_s": float(busy[i]),
                        "self_s": float(self_s[i])}
            for i, name in enumerate(names)}


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(table: dict[str, dict[str, float]],
                  counters: dict[str, int]) -> dict[str, float]:
    """Flatten a span summary into the benchmark's per-layer metric names."""
    out: dict[str, float] = {}
    kinds: dict[str, int] = {}
    step_self = 0.0
    layer_self = dict.fromkeys(LAYERS, 0.0)
    wall = unwrapped = 0.0
    for name, row in table.items():
        layer = layer_of(name)
        if layer == ROOT_LAYER:
            wall += row["busy_s"]
            unwrapped += row["self_s"]
            continue
        layer_self[layer] += row["self_s"]
        if name.startswith("filter.step:"):
            kinds[name.split(":", 1)[1]] = row["calls"]
            step_self += row["self_s"]
            continue
        out[f"{name}.calls"] = row["calls"]
        out[f"{name}.busy_s"] = row["busy_s"]
        out[f"{name}.self_s"] = row["self_s"]
        out[f"{name}.us_per_call"] = (1e6 * row["busy_s"] / row["calls"]
                                      if row["calls"] else 0.0)
    for kind in ("imu", "fk_pos", "fk_rot", "surface", "swap", "truth"):
        out[f"filter.records.{kind}"] = kinds.get(kind, 0)
    out["filter.step.self_s"] = step_self
    out["filter.updates_skipped"] = (out["filter.records.fk_pos"]
                                     + out["filter.records.fk_rot"]
                                     - out.get("filter.update.calls", 0))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    for key in ("sim.records", "streams.bytes", "harness.csv_bytes",
                "harness.gates_passed"):
        out[key] = counters.get(key, 0)
    for op, count in (("write_jsonl", "records_written"),
                      ("read_jsonl", "records_read")):
        busy = out.get(f"streams.{op}.busy_s", 0.0)
        out[f"streams.{op}.busy_s"] = busy
        out[f"streams.{op}.records_per_s"] = (
            counters.get(f"streams.{count}", 0) / busy if busy else 0.0)
    out["trace.wall_s"] = wall
    out["trace.unwrapped_s"] = unwrapped
    return out


def deterministic_counts(metrics: dict[str, float]) -> dict[str, float]:
    """The counts that must repeat exactly for a fixed workload and seed."""
    return {k: v for k, v in metrics.items()
            if k.startswith("filter.records.") or k == "filter.updates_skipped"
            or (k.startswith("filter.") and k.endswith(".calls"))
            or k in ("liegroup.project_to_rotation.calls",
                     "models.state_transition.calls", "sim.records",
                     "streams.bytes")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Print the span table and layer totals of a saved trace.")
    parser.add_argument("spans", help="a .spans.npz file written by a traced run")
    parser.add_argument("--top", type=int, default=25,
                        help="span names to list, by self time")
    args = parser.parse_args(argv)
    with np.load(args.spans) as data:
        spans = {k: data[k] for k in data.files}
    table = summarize(spans)
    wall = sum(r["busy_s"] for n, r in table.items() if layer_of(n) == ROOT_LAYER)
    print(f"{len(spans['start'])} spans, traced wall {wall:.3f} s\n")
    print(f"{'span':<40} {'calls':>9} {'busy_s':>10} {'self_s':>10} {'self%':>6}")
    rows = sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
    for name, r in rows[:args.top]:
        print(f"{name:<40} {r['calls']:>9} {r['busy_s']:>10.4f} "
              f"{r['self_s']:>10.4f} {100 * r['self_s'] / wall:>6.1f}")
    print(f"\n{'layer':<40} {'self_s':>10} {'self%':>6}")
    totals = collections.Counter()
    for name, r in table.items():
        totals[layer_of(name)] += r["self_s"]
    for layer, s in totals.most_common():
        label = "(unwrapped)" if layer == ROOT_LAYER else layer
        print(f"{label:<40} {s:>10.4f} {100 * s / wall:>6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
