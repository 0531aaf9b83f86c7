"""Weighted Lovász numbers, optimal orthogonal representations, and
complex-to-real conversion for exclusivity graphs."""

from .graph import (
    ExclusivityGraph,
    GraphFormatError,
    independence_number,
    max_edge_overlap,
    orthogonality_graph,
    parse_graph,
    serialize_graph,
)
from .instances import NamedInstance, all_instances, bbc21, kcbs, self_test
from .loor import (
    OrthRep,
    RepFormatError,
    VerificationReport,
    certify_operator,
    gram_from_rep,
    parse_rep,
    rep_from_gram,
    rep_value,
    serialize_rep,
    verify_rep,
)
from .numerics import (
    EigenDecomposition,
    basis_to_e1,
    gram_factor,
    herm_eig,
    hermitize,
    psd_project,
    sym_eig,
    symmetrize,
)
from .realify import (
    block_embed,
    phase_align,
    projector_realify,
    realify_map_M,
    vector_realify,
)
from .theta import (
    ThetaSolution,
    affine_project,
    lovasz_theta,
    lovasz_theta_complex,
    weight_objective,
)

__version__ = "0.1.0"

__all__ = [
    "ExclusivityGraph",
    "GraphFormatError",
    "independence_number",
    "max_edge_overlap",
    "orthogonality_graph",
    "parse_graph",
    "serialize_graph",
    "NamedInstance",
    "all_instances",
    "bbc21",
    "kcbs",
    "self_test",
    "OrthRep",
    "RepFormatError",
    "VerificationReport",
    "certify_operator",
    "gram_from_rep",
    "parse_rep",
    "rep_from_gram",
    "rep_value",
    "serialize_rep",
    "verify_rep",
    "EigenDecomposition",
    "basis_to_e1",
    "gram_factor",
    "herm_eig",
    "hermitize",
    "psd_project",
    "sym_eig",
    "symmetrize",
    "block_embed",
    "phase_align",
    "projector_realify",
    "realify_map_M",
    "vector_realify",
    "ThetaSolution",
    "affine_project",
    "lovasz_theta",
    "lovasz_theta_complex",
    "weight_objective",
    "__version__",
]
