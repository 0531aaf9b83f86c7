import loorkit

PUBLIC = [
    "ExclusivityGraph", "GraphFormatError", "NamedInstance", "OrthRep", "RepFormatError",
    "ThetaSolution", "VerificationReport", "__version__", "all_instances", "bbc21",
    "block_embed", "certify_operator", "gram_from_rep", "hermitize", "independence_number",
    "kcbs", "lovasz_theta", "lovasz_theta_complex", "max_edge_overlap", "orthogonality_graph",
    "parse_graph", "parse_rep", "phase_align", "projector_realify", "realify_map_M",
    "rep_from_gram", "rep_value", "serialize_graph", "serialize_rep", "vector_realify",
    "verify_rep", "weight_objective",
]


def test_public_names_are_fixed_and_resolve():
    # moving a helper between modules must not change what the package exports
    assert sorted(loorkit.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(loorkit, name)
