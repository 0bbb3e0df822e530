"""Print the tracemalloc peaks of the stages that build, read and fold streams.

For each (config, seed) pair of tools/checksums.py it prints one `peak
config/stage` line per stage: the peak, in MB, of the memory Python traces
while that stage runs (inputs made before it are not counted).

    synthesize_chunk  `synthesize_sensors` of a Monte Carlo chunk: one
                      trial of each campaign (rocking and static control),
                      as `montecarlo --jobs 2` runs a two-trial config
    synthesize_one    `synthesize_sensors` of the one stream `sim` writes
    read_jsonl        `read_jsonl` of that stream's file
    run_trials        `run_trials` of both variants over the chunk

Peak resident memory also moves with the allocation pattern, not only with
live data; these peaks follow the data alone. Two checkouts compare as:

    python tools/peaks.py /path/to/other/checkout > before.txt
    python tools/peaks.py > after.txt
    diff before.txt after.txt

The optional argument is the repository whose `src/` is measured (default:
the one holding this script).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from checksums import CONFIGS


def _peak(stage):
    """What stage() returns, and its tracemalloc peak in MB."""
    tracemalloc.start()
    try:
        return stage(), tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def peaks(config: dict, seed: int, tmp: Path):
    """(stage, peak in MB) of each stage, for one config document and seed."""
    from drs_inekf.cli import build_all, load_config
    from drs_inekf.harness import VARIANTS, run_trials, sample_initial_error
    from drs_inekf.sim import generate_truth, synthesize_sensors
    from drs_inekf.streams import read_jsonl, write_jsonl

    path = tmp / "config.json"
    path.write_text(json.dumps(config))
    c = build_all(load_config(str(path)), seed)
    surfaces = (c.surface, dataclasses.replace(c.surface, pitch_amplitude=0.0))
    truths = [generate_truth(c.gait, surf, seed) for surf in surfaces]
    chunk, peak = _peak(lambda: synthesize_sensors(truths, c.noise, c.rates, [seed] * 2))
    yield "synthesize_chunk", peak
    stream, peak = _peak(lambda: synthesize_sensors(truths[:1], c.noise, c.rates, [seed]))
    yield "synthesize_one", peak
    path = tmp / "stream.jsonl"
    write_jsonl(stream, path)
    yield "read_jsonl", _peak(lambda: read_jsonl(path))[1]
    xi0 = sample_initial_error(np.random.default_rng(seed), c.trials)
    yield "run_trials", _peak(lambda: run_trials(chunk, c.trials, c.noise, VARIANTS,
                                                 np.tile(xi0, (2, 1))))[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="repository whose src/ to measure")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.root.resolve() / "src"))
    with tempfile.TemporaryDirectory(prefix="drs-inekf-peaks-") as tmp:
        for name, config, seed in CONFIGS:
            for stage, peak in peaks(config, seed, Path(tmp)):
                print(f"{peak:7.2f}  {name}/{stage}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
