"""A fresh run gives the golden answers of tests/golden/answers.json.

`tools/golden.py` wrote the file: acceptance criterion 9's montecarlo
rows, their final-window means and the sim stream at a few records of
each kind. A change that only reassociates a sum moves the rows by about
1e-10 absolute and the means by about 1e-12 relative; a wrong noise scale
or correction moves them by percents. So the rows and the stream compare
at 1e-9 absolute and the means at 1e-9 relative. The file changes only
with a change meant to change answers, regenerated by the script.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
ABS_TOL = 1e-9  # rows and stream values
REL_TOL = 1e-9  # final-window means


def _golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def answers():
    golden = _golden()
    return json.loads(golden.ANSWERS.read_text()), golden.answers()


def test_montecarlo_rows(answers):
    stored, fresh = answers
    np.testing.assert_allclose(fresh["rows"], stored["rows"], rtol=0, atol=ABS_TOL)


def test_final_window_means(answers):
    stored, fresh = answers
    np.testing.assert_allclose(fresh["final_means"], stored["final_means"],
                               rtol=REL_TOL, atol=0)


def test_sim_stream_columns(answers):
    stored, fresh = answers
    assert fresh["stream"].keys() == stored["stream"].keys()
    for kind, columns in stored["stream"].items():
        assert fresh["stream"][kind].keys() == columns.keys(), kind
        for name, values in columns.items():
            if name in ("count", "index"):
                assert fresh["stream"][kind][name] == values, (kind, name)
            else:
                np.testing.assert_allclose(fresh["stream"][kind][name], values, rtol=0,
                                           atol=ABS_TOL, err_msg=f"{kind}.{name}")
