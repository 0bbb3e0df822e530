"""The mutation ledger's mutants still name text of the sources.

`tools/mutants.py` replaces one piece of `src/drs_inekf/` text per mutant;
a mutant whose text was edited away would mutate nothing. Running the
ledger takes about 45 s per mutant, so only its text check runs here.
"""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ledger():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_mutant_text_occurs_once():
    assert _ledger().stale_mutants() == []


def test_text_edited_away_is_reported(tmp_path):
    ledger = _ledger()
    name, module, original, _ = ledger.MUTANTS[0]
    shutil.copytree(ROOT / ledger.PACKAGE, tmp_path / ledger.PACKAGE)
    path = tmp_path / ledger.PACKAGE / f"{module}.py"
    path.write_text(path.read_text().replace(original, original + "\n" + original))
    assert ledger.stale_mutants(tmp_path) == [
        f"{name}: its text occurs 2 times in {module}.py"]
