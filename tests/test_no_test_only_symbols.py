"""Every public symbol of the package is used by the package or the bench.

A function, class, method or property that only the tests call is code
the program does not need; its checks belong in the tests (as an oracle
in conftest.py) or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "drs_inekf"
# Reached from outside the sources: the console script `drs-inekf`.
ENTRY_POINTS = {"cli.main"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def public_symbols() -> dict[str, str]:
    """Qualified name -> bare name of each public top-level function and
    class of the package, and of each public method and property of those
    classes."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            out[f"{path.stem}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                out.update((f"{path.stem}.{node.name}.{item.name}", item.name)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_"))
    return out


def used_names() -> set[str]:
    """Names read, attributes taken and names imported in src/ and bench/."""
    used = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    return used


def test_every_public_symbol_is_used_outside_tests():
    used = used_names()
    unused = sorted(qualified for qualified, name in public_symbols().items()
                    if name not in used and qualified not in ENTRY_POINTS)
    assert not unused, f"public symbols only the tests use: {unused}"
