"""The stream layer sits below the filter: `streams` knows nothing of it.

A `Stream` holds and checks sensor data; the filter's own messages (an
`ImuStep`, built by `StreamEstimator.fold`) belong to `models` and
`filter`, which import `streams`, not the other way round.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drs_inekf"


def package_imports(path: Path) -> set[str]:
    """The modules of the package that a module imports, by bare name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif node.level:  # from .module import ..., or from . import module
            names = ([f"drs_inekf.{node.module}"] if node.module
                     else [f"drs_inekf.{alias.name}" for alias in node.names])
        else:  # from drs_inekf.module import ..., or from drs_inekf import module
            names = ([node.module] if node.module != "drs_inekf"
                     else [f"drs_inekf.{alias.name}" for alias in node.names])
        out.update(name.split(".")[1] for name in names
                   if name.startswith("drs_inekf."))
    return out


def test_streams_imports_only_liegroup_from_the_package():
    assert package_imports(PACKAGE / "streams.py") == {"liegroup"}

