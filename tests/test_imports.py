"""The package's import structure: ``graph`` stands alone, the modules import
each other without a cycle, and the exact alpha lives in its own module."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

from loorkit import independence_number

SRC = Path(__file__).resolve().parents[1] / "src" / "loorkit"
MODULES = {path.stem for path in SRC.glob("*.py")}


def package_imports(path: Path) -> set[str]:
    """The loorkit modules that one source file imports, relatively or not."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = f"loorkit.{node.module or ''}".rstrip(".") if node.level else node.module or ""
            names = [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("loorkit."))
    return found & MODULES


IMPORTS = {path.stem: package_imports(path) for path in SRC.glob("*.py")}


def test_graph_imports_no_loorkit_module():
    assert IMPORTS["graph"] == set()


def test_package_import_graph_has_no_cycle():
    assert IMPORTS["__init__"] >= {"alpha", "graph", "loor", "theta"}  # the scan sees imports
    list(TopologicalSorter(IMPORTS).static_order())  # raises CycleError on a cycle


def test_independence_number_is_defined_in_alpha():
    assert independence_number.__module__ == "loorkit.alpha"
