"""The package's import structure: ``graph`` stands alone, the modules import
each other without a cycle, the exact alpha lives in its own module, and each
entry point loads only the modules it calls."""

import ast
import json
import subprocess
import sys
from graphlib import TopologicalSorter
from pathlib import Path

import pytest

import loorkit
from loorkit import bbc21, independence_number, serialize_graph, serialize_rep
from util import src_env

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


def test_lazy_submodule_names_match_the_files_and_the_static_import():
    # the package's ``_SUBMODULES`` and its one static ``from . import`` must
    # both follow the module files, or a new module loads wrongly or drops out
    # of ``__all__``
    assert loorkit._SUBMODULES == MODULES - {"__init__", "__main__"}
    assert IMPORTS["__init__"] == loorkit._SUBMODULES - {"cli"}


def test_independence_number_is_defined_in_alpha():
    assert independence_number.__module__ == "loorkit.alpha"


LOADED = """
import json, sys
{code}
print(json.dumps([sorted(m for m in sys.modules if m.startswith("loorkit")), "numpy" in sys.modules]))
"""


def loaded_after(code: str, *argv: str, cwd=None) -> tuple[set, bool]:
    """The loorkit modules, and whether numpy, that a fresh interpreter holds after ``code``."""
    proc = subprocess.run([sys.executable, "-c", LOADED.format(code=code), *argv], cwd=cwd,
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules, numpy = json.loads(proc.stdout.splitlines()[-1])
    return set(modules), numpy


def test_import_loorkit_loads_no_submodule_and_no_numpy():
    assert loaded_after("import loorkit") == ({"loorkit"}, False)


@pytest.mark.parametrize("code", ["import loorkit.cli", "from loorkit import cli"])
def test_import_cli_adds_only_graph(code):
    assert loaded_after(code) == ({"loorkit", "loorkit.cli", "loorkit.graph"}, False)


@pytest.mark.parametrize("module", ["graph", "alpha"])
def test_the_graph_layer_loads_no_numpy(module):
    # a graph and its alpha are combinatorics; only theta and the
    # representations need linear algebra
    modules, numpy = loaded_after(f"import loorkit.{module}")
    assert f"loorkit.{module}" in modules and not numpy


@pytest.fixture(scope="module")
def bbc_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("bbc21")
    inst = bbc21()
    (d / "bbc.json").write_text(serialize_graph(inst.graph) + "\n")
    (d / "rc.json").write_text(serialize_rep(inst.complex_rep) + "\n")
    return d


# what each command loads beyond loorkit, cli and graph: loorkit modules by
# their short names, and numpy
@pytest.mark.parametrize("argv, added", [
    (["theta", "bbc.json", "--tol", "1e-6"], {"theta", "numpy"}),
    (["alpha", "bbc.json"], {"alpha"}),
    (["extract", "bbc.json"], {"theta", "loor", "numpy"}),
    (["verify", "rc.json", "--graph", "bbc.json", "--target", "29"], {"loor", "numpy"}),
    (["orthograph", "rc.json"], {"loor", "numpy"}),
    (["realify", "rc.json", "--method", "vector"], {"loor", "realify", "numpy"}),
    (["instance", "bbc21"], {"instances"}),
    (["instance", "bbc21", "--what", "rep-complex"], {"instances", "loor", "numpy"}),
    (["instance", "kcbs"], {"instances"}),
], ids=lambda x: x[0] if isinstance(x, list) else None)
def test_each_command_loads_only_the_modules_it_calls(bbc_dir, argv, added):
    code = "from loorkit.cli import main; assert main(sys.argv[1:]) == 0"
    modules, numpy = loaded_after(code, *argv, "--output", "out.json", cwd=bbc_dir)
    loaded = {m.removeprefix("loorkit.") for m in modules} | ({"numpy"} if numpy else set())
    assert loaded == {"loorkit", "cli", "graph"} | added
