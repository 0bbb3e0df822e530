"""The benchmark's trace contract holds for the package as it is now.

`bench/tracing.py` wraps the package's boundary functions and keys its
spans on the stream record classes; `bench/selftest.py` runs small traced
workloads and checks that every declared per-layer metric is produced.
Running it here makes a change to `src/` that breaks that contract fail
the suite, not only traced benchmark runs.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "selftest.py")],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest passed" in done.stdout
