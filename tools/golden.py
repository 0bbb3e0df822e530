"""Write the golden answers that tests/test_golden.py compares a fresh run with.

The answers are those of acceptance criterion 9's config (2 trials x 4.8 s,
master seed 11):

    rows         the `montecarlo` metric rows of both campaigns (rocking and
                 the static-level control), at every EVERY-th truth sample:
                 (surface, variant, trial, sample, metric)
    final_means  the mean over the final window of every (surface, variant,
                 trial, metric)
    stream       the columns of the `sim` stream at PER_KIND records of each
                 kind, spread evenly over the kind, with each kind's count

Floats are written by `repr`, so they read back bit for bit. The file
changes only with a change meant to change answers; regenerate it with

    python tools/golden.py

and quote the largest change per quantity (`python tools/golden.py --diff`
prints it, against the file as it is, without writing).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ANSWERS = ROOT / "tests" / "golden" / "answers.json"
CONFIG = {"gait": {"duration": 4.8}, "trials": {"n_trials": 2}}
SEED = 11
EVERY = 48  # truth samples between two golden rows
PER_KIND = 8  # golden records of each stream kind


def answers() -> dict:
    """The golden quantities, computed by the package on the import path."""
    from drs_inekf.cli import DEFAULT_CONFIG, build_all
    from drs_inekf.harness import FINAL_WINDOW, campaigns
    from drs_inekf.sim import generate_truth, synthesize_sensors

    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for name, section in CONFIG.items():
        cfg[name].update(section)
    c = build_all(cfg, SEED)
    # The surfaces of the montecarlo command: the configured one and its
    # static-level control.
    surfaces = [c.surface, dataclasses.replace(c.surface, pitch_amplitude=0.0)]
    runs = campaigns(c.trials, c.gait, surfaces, c.noise, c.rates)
    t = runs[0][0].t
    window = t >= t[-1] - FINAL_WINDOW + 1e-9
    rows = np.stack([r for _, r in runs])
    stream = synthesize_sensors([generate_truth(c.gait, c.surface, seed=SEED)],
                                c.noise, c.rates, [SEED])
    records = {}
    for kind, columns in stream.columns.items():
        n = len(columns["t"])
        at = np.unique(np.linspace(0, n - 1, PER_KIND).round().astype(int))
        records[kind] = {"count": n, "index": at.tolist(), **{
            name: col[at].reshape(len(at), -1).tolist() if col.ndim > 1
            else col[at].tolist() for name, col in columns.items()}}
    return {"rows": rows[..., ::EVERY, :].tolist(),
            "final_means": rows[..., window, :].mean(axis=-2).tolist(),
            "stream": records}


def largest_changes(old: dict, new: dict) -> dict:
    """The largest absolute change of each quantity, by name."""
    out = {"rows": float(np.abs(np.subtract(new["rows"], old["rows"])).max()),
           "final_means": float(np.abs(np.subtract(new["final_means"],
                                                   old["final_means"])).max())}
    for kind, columns in new["stream"].items():
        for name, col in columns.items():
            if name not in ("count", "index"):
                out[f"stream.{kind}.{name}"] = float(
                    np.abs(np.subtract(col, old["stream"][kind][name])).max())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="print the largest change per quantity, write nothing")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    new = answers()
    if args.diff:
        for name, change in largest_changes(json.loads(ANSWERS.read_text()), new).items():
            print(f"{change:.3g}  {name}")
        return 0
    ANSWERS.parent.mkdir(exist_ok=True)
    ANSWERS.write_text(json.dumps(new, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
