import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loorkit import (
    ExclusivityGraph,
    GraphFormatError,
    OrthRep,
    bbc21,
    independence_number,
    kcbs,
    max_edge_overlap,
    orthogonality_graph,
    parse_graph,
    serialize_graph,
)
from util import brute_force_independence, random_graph, random_unitary

PENTAGON_DOC = json.dumps(
    {"n": 5, "weights": [1, 1, 1, 1, 1], "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}
)

# pairwise orthogonality count of the 21-ray instance, frozen after first
# computation as a regression constant
BBC21_EDGE_COUNT = 48


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    weights = draw(
        st.lists(st.integers(1, 80).map(lambda k: k / 8.0), min_size=n, max_size=n)
    )
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if possible:
        edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
    else:
        edges = []
    return ExclusivityGraph(n=n, weights=np.asarray(weights), edges=tuple(edges))


def test_parse_pentagon():
    g = parse_graph(PENTAGON_DOC)
    assert g.n == 5
    assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert np.array_equal(g.weights, np.ones(5))


def test_parse_single_vertex():
    g = parse_graph('{"n": 1, "weights": [1], "edges": []}')
    assert g.n == 1 and g.edges == ()


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"n": 2, "weights": [1, 1], "edges": [[0, 0]]}', "self-loop"),
        ('{"n": 2, "weights": [1, -1], "edges": []}', r"weights\[1\]"),
        ('{"n": 2, "weights": [1, 0], "edges": []}', r"weights\[1\]"),
        ('{"n": 2, "weights": [1, 1], "edges": [[0, 5]]}', "out of range"),
        ('{"n": 2, "weights": [1], "edges": []}', "weights"),
        ('{"n": 2, "weights": [1, 1]}', "edges"),
        ('{"n": 2, "weights": [1, 1], "edges": [], "extra": 1}', "unknown"),
        ('{"n": 2, "weights": [1, "x"], "edges": []}', r"weights\[1\]"),
        ("{not json", "malformed"),
        ('{"n": 2, "weights": [1, 1], "edges": [[0, 1.5]]}', r"edges\[0\]"),
        ('{"n": true, "weights": [1], "edges": []}', "'n'"),
        ('{"n": 2, "weights": [true, 1], "edges": []}', r"weights\[0\]"),
        pytest.param("[" * 100_000, "malformed", id="deeply-nested-malformed"),
    ],
)
def test_parse_errors_name_the_field(doc, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(doc)


@pytest.mark.parametrize(
    "make, fragment",
    [
        (lambda: ExclusivityGraph(3, np.ones(3), ((0, 1.7),)), r"edges\[0\]"),
        (lambda: ExclusivityGraph(True, [1.0], ()), "'n'"),
        (lambda: ExclusivityGraph(2, [True, True], ()), r"weights\[0\]"),
        (lambda: OrthRep("real", True, [1.0], [[1.0]]), "'dim'"),
    ],
    ids=["float-endpoint", "bool-n", "bool-weights", "bool-dim"],
)
def test_constructors_reject_bad_fields(make, fragment):
    # the constructors are the validators, so library callers get the same
    # field-naming errors as documents read by the parsers
    with pytest.raises(ValueError, match=fragment):
        make()


def test_constructor_accepts_numpy_integers():
    g = ExclusivityGraph(np.int64(3), np.ones(3), ((np.int64(2), np.int32(0)),))
    assert type(g.n) is int and g.edges == ((0, 2),)
    assert parse_graph(serialize_graph(g)) == g


def test_serialize_pentagon_is_canonical():
    g = parse_graph(PENTAGON_DOC)
    doc = json.loads(serialize_graph(g))
    assert doc["edges"] == [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]


def test_serialize_bbc_weights():
    doc = json.loads(serialize_graph(bbc21().graph))
    assert doc["weights"] == [3.0] * 9 + [5.0] * 12


def test_serialize_edgeless():
    g = ExclusivityGraph(n=3, weights=np.array([1.0, 2.0, 3.0]), edges=())
    assert json.loads(serialize_graph(g))["edges"] == []


def test_parse_canonicalizes_scrambled_and_duplicate_edges():
    g = parse_graph('{"n": 3, "weights": [1, 1, 1], "edges": [[2, 0], [0, 1], [1, 0]]}')
    assert g.edges == ((0, 1), (0, 2))


@settings(deadline=None, max_examples=80)
@given(graphs())
def test_parse_serialize_roundtrip(g):
    assert parse_graph(serialize_graph(g)) == g


@st.composite
def accepted_graphs(draw, max_n=10):
    """Any input the constructor accepts: positive finite float weights down to
    subnormals, endpoints in either order, duplicate edges."""
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    pairs = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=2 * n)) if n > 1 else []
    return ExclusivityGraph(n=n, weights=weights, edges=tuple(edges))


@settings(deadline=None, max_examples=80)
@given(accepted_graphs())
def test_every_accepted_graph_roundtrips(g):
    assert parse_graph(serialize_graph(g)) == g


def test_orthogonality_graph_kcbs_is_pentagon():
    inst = kcbs()
    derived = orthogonality_graph(inst.real_rep.vectors, inst.graph.weights)
    assert derived == inst.graph


def test_orthogonality_graph_bbc_edge_count_frozen():
    inst = bbc21()
    assert len(inst.graph.edges) == BBC21_EDGE_COUNT
    # accepted-edge residuals sit at machine epsilon, far from the threshold
    assert max_edge_overlap(inst.complex_rep.vectors, inst.graph) <= 1e-14


def test_orthogonality_graph_identical_vectors_share_no_edge():
    v = np.array([[1.0, 0.0], [1.0, 0.0]])
    g = orthogonality_graph(v)
    assert g.edges == ()


def test_orthogonality_graph_unitary_invariance():
    rays = bbc21().complex_rep.vectors
    base = orthogonality_graph(rays).edges
    rng = np.random.default_rng(5)
    for _ in range(20):
        u = random_unitary(rng, 3)
        assert orthogonality_graph(rays @ u.T).edges == base


def test_orthogonality_graph_rejects_bad_vectors():
    with pytest.raises(ValueError, match="not unit"):
        orthogonality_graph(np.array([[1.0, 0.0], [2.0, 0.0]]))
    with pytest.raises(ValueError, match="shape"):
        orthogonality_graph(np.ones(3))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
def test_orthogonality_graph_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        orthogonality_graph(kcbs().real_rep.vectors, tol=tol)


def test_independence_pentagon():
    alpha, witness = independence_number(kcbs().graph)
    assert alpha == 2.0
    assert witness == (0, 2)  # lexicographically smallest maximum set


def test_independence_bbc_is_27():
    alpha, witness = independence_number(bbc21().graph)
    assert alpha == 27.0
    g = bbc21().graph
    adj = g.adjacency_bitsets()
    assert all(not (adj[a] >> b) & 1 for a in witness for b in witness)


def test_independence_edgeless_takes_everything():
    g = ExclusivityGraph(n=3, weights=np.array([1.0, 2.0, 3.0]), edges=())
    assert independence_number(g) == (6.0, (0, 1, 2))


def test_independence_capacity_error():
    g = ExclusivityGraph(n=65, weights=np.ones(65), edges=())
    with pytest.raises(ValueError, match="desk-scale"):
        independence_number(g)


def test_independence_matches_brute_force_100_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        g = random_graph(rng, n_max=12)
        assert independence_number(g) == brute_force_independence(g)


@settings(deadline=None, max_examples=60)
@given(graphs(max_n=7))
def test_independence_bounded_by_weight_sum(g):
    alpha, witness = independence_number(g)
    assert alpha <= g.weight_sum + 1e-12
    if g.edges:
        assert alpha < g.weight_sum  # dyadic weights, sums exact
    else:
        assert alpha == g.weight_sum
        assert witness == tuple(range(g.n))
