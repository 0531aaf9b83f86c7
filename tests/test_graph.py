import dataclasses
import json
import sys

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
from util import (
    brute_force_independence,
    gnp,
    random_forest,
    random_graph,
    random_unitary,
    tree_independence,
)

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
        ('{"n": 2, "weights": [1e308, 1e308], "edges": []}', "'weights'"),
        ('{"n": 2, "weights": [1, 1], "edges": {}}', r"'edges' must be a list of \[i, j\] pairs"),
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
        (lambda: ExclusivityGraph(3, np.ones(2), ()),
         r"'weights' must be a list of 3 numbers, got shape \(2,\)"),
        (lambda: OrthRep("real", 2, [1, 0], np.ones((1, 3))), r"'vectors' must have shape \(n, 2\)"),
        (lambda: OrthRep("real", 1, ["1.0"], [["1.0"]]),
         r"handle\[0\] must be a real number, got '1.0'"),
        (lambda: OrthRep("real", 1, [True], [[1.0]]), r"handle\[0\] must be a real number, got True"),
        (lambda: OrthRep("real", 1, [1.0], [[1.0], [np.bool_(True)]]),
         r"vectors\[1\]\[0\] must be a real number"),
        (lambda: OrthRep("real", 1, np.array([1 + 1e-5j]), [[1.0]]),
         r"handle\[0\] must be a real number"),
        (lambda: OrthRep("real", 1, [1.0], [[1 + 0j]]), r"vectors\[0\]\[0\] must be a real number"),
        (lambda: OrthRep("complex", 1, np.array([True]), [[1j]]), r"handle\[0\] must be a number"),
        (lambda: OrthRep("real", 2, [1, 0], [[1, 0], [1]]),
         r"'vectors' must have shape \(n, 2\), got ragged rows"),
        (lambda: OrthRep("real", 2, [1, [0]], [[1, 0]]), r"'handle' must have length 2, got ragged rows"),
        # not iterable, or a 0-d array: parse_graph's message, not a TypeError
        *((lambda e=e: ExclusivityGraph(3, [1, 1, 1], e),
           r"^'edges' must be a list of \[i, j\] pairs$") for e in (None, 5, 1.5, np.array(5))),
        (lambda: ExclusivityGraph(3, [1, 1, 1], [np.array(5)]),
         r"^edges\[0\] must be a pair of integers, got array\(5\)$"),
    ],
    ids=["float-endpoint", "bool-n", "bool-weights", "bool-dim", "weights-shape", "vectors-shape",
         "string-entries", "bool-handle", "numpy-bool-vector", "complex-array-in-real",
         "complex-list-in-real", "bool-array-in-complex", "ragged-vectors", "ragged-handle",
         "none-edges", "int-edges", "float-edges", "0-d-edges", "0-d-edge"],
)
def test_constructors_reject_bad_fields(make, fragment):
    # the constructors are the validators, so library callers get the same
    # field-naming errors as documents read by the parsers
    with pytest.raises(ValueError, match=fragment):
        make()


@pytest.mark.parametrize("weights", [np.array(None), np.array("a")], ids=["none", "string"])
def test_zero_dimensional_weights_are_refused_naming_weights(weights):
    # a 0-d array of no numeric kind has no len(); it gets the message of a
    # wrong-length list, not a TypeError
    with pytest.raises(ValueError, match="'weights' must be a list of 1 numbers"):
        ExclusivityGraph(1, weights, ())


def test_graph_weights_are_a_read_only_copy():
    # a checked graph stays checked: a negative weight written after
    # construction would reach alpha and make serialize_graph write a
    # document parse_graph refuses
    w = np.array([1.0, 2.0])
    g = ExclusivityGraph(2, w, [(0, 1)])
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0] = -5.0
    w[0] = 3.0  # the caller's array stays writeable, and stays theirs
    assert np.array_equal(g.weights, [1.0, 2.0])
    assert independence_number(g) == (2.0, (1,))
    assert parse_graph(serialize_graph(g)) == g


def test_orthrep_is_read_only():
    # a checked representation stays checked: neither a new array nor a
    # write into a stored one can skip the unit-norm, finiteness and field
    # checks
    handle, vectors = np.array([1.0, 0.0]), np.array([[0.0, 1.0]])
    rep = OrthRep("real", 2, handle, vectors)
    for name in ("handle", "vectors", "dim", "field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rep, name, getattr(rep, name))
    for stored in (rep.handle, rep.vectors):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 5.0
    handle[0] = vectors[0, 0] = 7.0  # the caller's arrays stay writeable, and stay theirs
    assert np.array_equal(rep.handle, [1.0, 0.0]) and np.array_equal(rep.vectors, [[0.0, 1.0]])


def test_orthrep_accepts_numbers_of_every_numeric_type():
    rep = OrthRep("real", 2, [1, 0], [[0, np.int64(1)], (np.float32(1), 0.0)])
    assert rep.handle.dtype == rep.vectors.dtype == np.float64
    assert np.array_equal(rep.vectors, [[0.0, 1.0], [1.0, 0.0]])
    rep = OrthRep("complex", 1, [1j], [[1], [np.complex64(1j)], [np.float16(-1)]])
    assert rep.vectors.dtype == np.complex128 and rep.vectors[1, 0] == 1j
    rep = OrthRep("real", 1, np.array([1], dtype=np.int8), np.ones((1, 1), dtype=np.float16))
    assert rep.handle.dtype == np.float64


def test_graph_is_never_equal_to_a_non_graph():
    assert (kcbs().graph == 5) is False
    assert kcbs().graph != "pentagon"


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
    subnormals (capped so that their sum stays finite), endpoints in either
    order, duplicate edges."""
    n = draw(st.integers(1, max_n))
    weights = draw(st.lists(
        st.floats(min_value=0.0, max_value=sys.float_info.max / max_n, exclude_min=True),
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
    # an overflowing norm is refused by message, not by a numpy warning
    for vectors in ([[1.0, 0.0], [2.0, 0.0]], [[1e200, 1e200]], [[np.nan, 0.0]]):
        with pytest.raises(ValueError, match="not unit"):
            orthogonality_graph(np.array(vectors))
    with pytest.raises(ValueError, match="shape"):
        orthogonality_graph(np.ones(3))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan"), True])
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
    # every vertex is forced at the root, so neither search branches
    g = ExclusivityGraph(n=64, weights=np.ones(64), edges=())
    assert independence_number(g) == (64.0, tuple(range(64)))


@pytest.mark.parametrize("seed", range(3))
def test_independence_adds_over_a_union_of_blocks(seed):
    # disjoint blocks in index order: alpha adds up, and the witness is the
    # blocks' witnesses, offset and concatenated (integer weights: exact sums)
    rng = np.random.default_rng(seed)
    edges, weights, alpha, witness = [], [], 0.0, ()
    for _ in range(10):
        size = int(rng.integers(8, 13))
        block = gnp(rng, size, float(rng.uniform(0.2, 0.6)), rng.integers(1, 9, size).astype(float))
        value, members = brute_force_independence(block)
        offset = len(weights)
        edges += [(i + offset, j + offset) for i, j in block.edges]
        weights += block.weights.tolist()
        alpha, witness = alpha + value, witness + tuple(v + offset for v in members)
    g = ExclusivityGraph(n=len(weights), weights=weights, edges=edges)
    assert g.n >= 80
    assert independence_number(g) == (alpha, witness)


def test_independence_search_depth_is_not_bounded_by_the_call_stack():
    # 1,100 disjoint triangles: the main search branches once per triangle,
    # far deeper than Python's recursion limit
    m = 1100
    edges = [(3 * t + a, 3 * t + b) for t in range(m) for a, b in ((0, 1), (0, 2), (1, 2))]
    g = ExclusivityGraph(n=3 * m, weights=np.ones(3 * m), edges=edges)
    assert independence_number(g) == (float(m), tuple(range(0, 3 * m, 3)))


def test_independence_matches_brute_force_100_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        g = random_graph(rng, n_max=12)
        assert independence_number(g) == brute_force_independence(g)
    # sparse unit-weight graphs have many maximum sets, so the tie rule decides
    for _ in range(50):
        g = gnp(rng, int(rng.integers(6, 13)), 0.15)
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


@pytest.mark.parametrize(
    "weights, edges, expected",
    [
        # a leaf lighter than its neighbour is not forced; the tie goes to the centre
        ([2, 1, 1], [(0, 1), (0, 2)], (2.0, (0,))),
        # a leaf heavier than its neighbour is in every maximum set
        ([1, 3, 1, 2], [(0, 1), (1, 2), (2, 3)], (5.0, (1, 3))),
        # leaves 1 and 3 equal their neighbours, so the search for alpha
        # takes 1 and then 2 (the leaf left once 0 is gone); the smallest
        # maximum set holds neither
        ([1, 1, 1, 1], [(0, 1), (0, 2), (2, 3)], (2.0, (0, 3))),
        # forced vertices alone take an equal-weight path
        ([1, 1], [(0, 1)], (1.0, (0,))),
        ([5, 5, 5, 5, 5], [(0, 4), (4, 1), (1, 3), (3, 2)], (15.0, (0, 1, 2))),
        # an isolated vertex is taken by the search and kept by the walk
        ([1, 2, 2], [(1, 2)], (3.0, (0, 1))),
    ],
    ids=["lighter-leaf", "heavier-leaf", "forced-not-in-witness", "equal-edge",
         "equal-path", "isolated"],
)
def test_independence_forced_vertex_ties(weights, edges, expected):
    g = ExclusivityGraph(n=len(weights), weights=np.asarray(weights, float), edges=tuple(edges))
    assert brute_force_independence(g) == expected
    assert independence_number(g) == expected


WITNESS_FLOOR_CASES = [
    ([1, 1 + 1e-12], [(0, 1)], (1.0, (0,))),
    ([1, 1 + 1e-6], [(0, 1)], (1.000001, (1,))),
    ([0.5, 1 + 1e-12, 0.5], [(0, 1), (1, 2)], (1.0, (0, 2))),
    ([0.5, 1 + 1e-6, 0.5], [(0, 1), (1, 2)], (1.000001, (1,))),
    # the floor is relative: an absolute 1e-9 would count the centre alone
    # as maximum and keep it, as the lexicographically first vertex
    ([1e-10] * 4, [(0, 1), (0, 2), (0, 3)], (3e-10, (1, 2, 3))),
]
WITNESS_FLOOR_IDS = ["edge-within", "edge-beyond", "path-within", "path-beyond", "star-tiny"]
# powers of two, so scaled weights and their sums stay exact
SCALES = pytest.mark.parametrize("scale", [2.0**-40, 2.0**-34, 2.0**30],
                                 ids=["2^-40", "2^-34", "2^30"])


@pytest.mark.parametrize("weights, edges, expected", WITNESS_FLOOR_CASES, ids=WITNESS_FLOOR_IDS)
def test_independence_witness_floor(weights, edges, expected):
    # a set within 1e-9 (relative) of alpha counts as maximum, so the
    # lexicographically smaller set wins; one 1e-6 lighter does not
    g = ExclusivityGraph(n=len(weights), weights=np.asarray(weights, float), edges=tuple(edges))
    assert independence_number(g) == expected


@SCALES
@pytest.mark.parametrize("weights, edges, expected", WITNESS_FLOOR_CASES, ids=WITNESS_FLOOR_IDS)
def test_independence_witness_floor_is_relative_at_any_scale(weights, edges, expected, scale):
    g = ExclusivityGraph(n=len(weights), weights=np.asarray(weights, float) * scale,
                         edges=tuple(edges))
    assert independence_number(g) == (expected[0] * scale, expected[1])


@SCALES
def test_independence_matches_brute_force_on_scaled_weights(scale):
    rng = np.random.default_rng(13)
    for _ in range(60):
        g = random_graph(rng, n_max=10)
        g = ExclusivityGraph(n=g.n, weights=g.weights * scale, edges=g.edges)
        assert independence_number(g) == brute_force_independence(g)


@pytest.mark.parametrize(
    "n, p, integer_weights, expected",
    [
        (48, 0.1, False, (22.0, (2, 3, 4, 5, 6, 9, 11, 12, 15, 16, 17, 18, 20, 21, 23, 24,
                                 25, 29, 37, 40, 41, 43))),
        (56, 0.1, True, (122.0, (2, 4, 6, 7, 9, 10, 13, 16, 23, 24, 28, 29, 30, 39, 42,
                                 43, 44, 46, 48, 53, 55))),
        (64, 0.1, False, (25.0, (1, 3, 5, 8, 10, 11, 13, 18, 20, 22, 25, 27, 33, 34, 36,
                                 37, 43, 44, 46, 50, 52, 53, 55, 61, 62))),
        (40, 0.3, True, (62.0, (3, 4, 5, 12, 18, 20, 22, 25, 30, 31))),
        (60, 0.1, True, (141.0, (4, 9, 10, 11, 13, 15, 17, 20, 21, 22, 33, 34, 36, 40, 46,
                                 49, 50, 52, 53, 55, 56, 59))),
        (64, 0.1, True, (139.0, (0, 2, 3, 8, 13, 16, 18, 20, 21, 25, 29, 30, 33, 37, 41,
                                 46, 49, 50, 56, 57, 58, 59, 62))),
        (64, 0.2, False, (17.0, (1, 5, 11, 18, 19, 21, 22, 25, 27, 36, 37, 43, 44, 46, 48,
                                 55, 62))),
    ],
    ids=["G48-unit", "G56-integer", "G64-unit", "G40-dense-integer", "G60-integer",
         "G64-integer", "G64-p.2-unit"],
)
def test_independence_golden_witness_on_general_graphs(n, p, integer_weights, expected):
    # beyond brute force and off forests: the first four recorded from an
    # earlier solver that found the witness with a separate include-first
    # search, the last three from the search before the witness walk reused
    # its maximum sets (the costliest kinds of graph for that walk)
    rng = np.random.default_rng(n)
    w = rng.integers(1, 9, n).astype(float) if integer_weights else None
    assert independence_number(gnp(rng, n, p, w)) == expected


def _star(rng, n):
    centre = int(rng.integers(n))
    return [(centre, v) for v in range(n) if v != centre]


def _path(rng, n):
    order = rng.permutation(n).tolist()
    return list(zip(order, order[1:]))


def _caterpillar(rng, n):
    order = rng.permutation(n).tolist()
    spine = order[: int(rng.integers(1, n + 1))]
    legs = [(v, spine[int(rng.integers(len(spine)))]) for v in order[len(spine):]]
    return list(zip(spine, spine[1:])) + legs


@pytest.mark.parametrize("shape", [_star, _path, _caterpillar], ids=["star", "path", "caterpillar"])
def test_independence_ties_on_stars_paths_and_caterpillars(shape):
    # weights 1 to 3 make degree-1 vertices lighter than, equal to and
    # heavier than their neighbours, and many maximum sets tie
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 15))
        g = ExclusivityGraph(n=n, weights=rng.integers(1, 4, n).astype(float),
                             edges=tuple(shape(rng, n)))
        assert independence_number(g) == brute_force_independence(g)


def test_independence_matches_brute_force_on_near_forests():
    # a chord or three on a forest hide forced vertices until a branch
    # removes vertices, and leave many tied maximum sets for the witness walk
    rng = np.random.default_rng(16)
    for _ in range(400):
        n = int(rng.integers(2, 15))
        forest = random_forest(rng, n, 0.2, rng.integers(1, 4, n).astype(float))
        absent = [(i, j) for i in range(n) for j in range(i + 1, n)
                  if (i, j) not in forest.edges]
        picks = rng.permutation(len(absent))[: int(rng.integers(1, 4))]
        g = ExclusivityGraph(n=n, weights=forest.weights,
                             edges=forest.edges + tuple(absent[k] for k in picks))
        assert independence_number(g) == brute_force_independence(g)


def test_tree_dp_matches_brute_force():
    rng = np.random.default_rng(12)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        g = random_forest(rng, n, 0.2, rng.integers(1, 4, n).astype(float))
        assert tree_independence(g) == brute_force_independence(g)


@pytest.mark.parametrize("integer_weights", [False, True], ids=["unit", "integer"])
def test_independence_matches_tree_dp_on_large_forests(integer_weights):
    # 40 to 64 vertices, beyond brute force; forests are where the
    # forced-vertex rules of the alpha search do most of the work
    rng = np.random.default_rng(13 + integer_weights)
    for _ in range(25):
        n = int(rng.integers(40, 65))
        w = rng.integers(1, 9, n).astype(float) if integer_weights else np.ones(n)
        g = random_forest(rng, n, 0.1, w)
        assert independence_number(g) == tree_independence(g)
