import subprocess
import sys

import pytest

import loorkit
from util import src_env

PUBLIC = [
    "ExclusivityGraph", "GraphFormatError", "NamedInstance", "OrthRep", "RepFormatError",
    "ThetaSolution", "VerificationReport", "__version__", "all_instances", "bbc21",
    "block_embed", "certify_operator", "gram_from_rep", "hermitize", "independence_number",
    "kcbs", "lovasz_theta", "lovasz_theta_complex", "max_edge_overlap", "orthogonality_graph",
    "parse_graph", "parse_rep", "projector_realify", "realify_map_M",
    "rep_from_gram", "rep_value", "serialize_graph", "serialize_rep", "vector_realify",
    "verify_rep", "weight_objective",
]


def test_public_names_are_fixed_and_resolve():
    # moving a helper between modules must not change what the package exports
    assert sorted(loorkit.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(loorkit, name)


def run_fresh(code: str) -> list[str]:
    """The words ``code`` prints in a fresh interpreter, where no public name is loaded yet."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_fresh_star_import_binds_every_public_name():
    # a submodule reached first as an attribute must not stop the star
    # import from binding every name
    assert run_fresh("""
import loorkit
print(loorkit.theta.__name__)
from loorkit import *
print(sorted(name for name in loorkit.__all__ if name in globals()) == sorted(loorkit.__all__))
""") == ["loorkit.theta", "True"]


def test_fresh_dir_lists_every_public_name():
    assert run_fresh("import loorkit; names = dir(loorkit); "
                     "print(set(loorkit.__all__) <= set(names))") == ["True"]


@pytest.mark.parametrize("module, name", [
    ("alpha", "independence_number"), ("graph", "parse_graph"), ("instances", "bbc21"),
    ("loor", "verify_rep"), ("realify", "vector_realify"), ("theta", "lovasz_theta"),
])
def test_public_names_are_the_submodules_own(module, name):
    submodule = getattr(loorkit, module)
    assert submodule is sys.modules[f"loorkit.{module}"]
    assert getattr(loorkit, name) is getattr(submodule, name)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        loorkit.no_such_name
    assert not hasattr(loorkit, "no_such_name")
