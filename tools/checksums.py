"""Print the sha256 of every output of a fixed set of drs-inekf commands.

For each of three (config, seed) pairs it runs, in a temporary directory,
`sim`, `estimate` for both variants on that stream, and `montecarlo --jobs
2`, then prints one `sha256  path` line per output file, manifests left
out (they hold wall times). Two checkouts that print the same lines give
byte-identical outputs, so a refactor that must not change any answer is
checked with:

    python tools/checksums.py > after.txt
    python tools/checksums.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the repository whose `src/` is run (default: the
one holding this script).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# (name, config document, master seed): the determinism criterion's config,
# a two-trial default campaign and the dense-kinematics campaign.
CONFIGS = (
    ("criterion9", {"gait": {"duration": 4.8}, "trials": {"n_trials": 2}}, 11),
    ("default", {"trials": {"n_trials": 2}}, 4),
    ("dense_kin", {"trials": {"n_trials": 2}, "rates": {"kin_hz": 400},
                   "gait": {"duration": 10.0}}, 4),
)
VARIANTS = ("proposed", "position-only")
MONTECARLO_EXITS = (0, 4)  # a gate failure still writes every output


def _run(src: Path, args: list, ok=(0,)) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-m", "drs_inekf.cli", *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if done.returncode not in ok:
        raise SystemExit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")


def run_all(src: Path, out: Path) -> None:
    """Run every command of CONFIGS with outputs under `out/<name>/`."""
    for name, config, seed in CONFIGS:
        d = out / name
        d.mkdir()
        cfg = d / "config.json"
        cfg.write_text(json.dumps(config))
        common = ["--config", str(cfg), "--seed", str(seed)]
        stream = d / "stream.jsonl"
        _run(src, ["sim", *common, "--out", str(stream)])
        for variant in VARIANTS:
            _run(src, ["estimate", *common, "--stream", str(stream),
                       "--variant", variant, "--out", str(d / f"{variant}.csv")])
        _run(src, ["montecarlo", *common, "--jobs", "2", "--out", str(d / "mc")],
             ok=MONTECARLO_EXITS)
        cfg.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=Path(__file__).resolve().parents[1],
                        type=Path, help="repository whose src/ to run")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="drs-inekf-checksums-") as tmp:
        out = Path(tmp)
        run_all(args.root.resolve() / "src", out)
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            if "manifest" not in path.name:
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{digest}  {path.relative_to(out).as_posix()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
