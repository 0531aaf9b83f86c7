"""The bulk checks and encoders of the graph and representation layers
against the per-entry code they replaced (``util.oracle_*`` and the
encoders below): the same inputs accepted, the same values stored, the
same messages (for representation documents, the same refusals), and
byte-identical documents."""

import json
import math
import sys
from itertools import chain
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loorkit import (ExclusivityGraph, OrthRep, RepFormatError, parse_rep, serialize_graph,
                     serialize_rep)
from util import oracle_graph, oracle_scalars

FLOAT_MAX = sys.float_info.max


def outcome(fn):
    """("ok", value) or (exception type, message)."""
    try:
        return "ok", fn()
    except Exception as exc:  # the comparison is of whatever either side raises
        return type(exc), str(exc)


int_types = st.sampled_from([int, np.int64, np.int32, np.uint8])
bools = st.sampled_from([True, False, np.bool_(True), np.bool_(False)])
bad_entries = st.one_of(
    st.sampled_from([1.0, 0.5, "1", None, np.uint64(2**63), np.uint64(2**64 - 1),
                     int(FLOAT_MAX) + 1, -1]),
    st.floats(), st.integers(2**63, 2**70), st.integers(-(2**70), -(2**63) - 1),
)


@st.composite
def edge_inputs(draw, n: int):
    """Edges in every form a caller may pass: lists, tuples, generators and
    (m, 2) ndarrays of int, float and bool dtype; pairs as tuples, lists and
    arrays of Python and numpy ints; duplicates in both orientations.  At
    most one entry or pair is then spoilt: a bool, a float, a string, an
    int beyond int64, an endpoint out of range, a 1-tuple, a 3-tuple or a
    self-loop."""
    vertex = st.integers(0, n - 1)
    ij = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=6)
              if n > 1 else st.just([]))
    if ij and draw(st.booleans()):  # a repeat, turned round
        ij.append(ij[0][::-1])
    if draw(st.integers(0, 3)) == 0:
        a = np.array(ij, dtype=np.int64).reshape(-1, 2)
        if a.size and draw(st.booleans()):
            a[draw(st.integers(0, len(a) - 1)), draw(st.integers(0, 1))] = draw(
                st.sampled_from([-1, n]))
        dtype = draw(st.sampled_from([np.int64, np.int32, np.uint64, np.float64, np.bool_]))
        return "array", a.astype(dtype)
    pairs = []
    for i, j in ij:
        t = draw(int_types)
        form = draw(st.sampled_from([tuple, list, np.array]))
        pairs.append(form([t(i), t(j)]))
    spoil = draw(st.integers(0, 4)) if pairs else 0
    if spoil:
        k = draw(st.integers(0, len(pairs) - 1))
        i, j = (int(x) for x in pairs[k])
        if spoil <= 2:
            bad = draw(bools if spoil == 1 else bad_entries)
            pairs[k] = draw(st.sampled_from([(bad, j), [i, bad]]))
        elif spoil == 3:
            pairs[k] = draw(st.sampled_from([(i,), (i, j, j), [i, j, 0]]))
        else:
            pairs[k] = (i, i)
    return draw(st.sampled_from(["list", "tuple", "generator"])), pairs


def make_edges(kind, pairs):
    """A fresh container each call: a generator is spent by one constructor."""
    if kind == "array":
        return pairs.copy()
    if kind == "generator":
        return (p for p in pairs)
    return list(pairs) if kind == "list" else tuple(pairs)


weight_entries = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 8), st.integers(1, 8).map(np.int64),
    st.floats(1e-3, 1e3).map(np.float32), st.just(5e-324), st.just(1e308),
    st.sampled_from([0.0, -1.0, float("nan"), float("inf"), True, np.bool_(False), "1", None,
                     10**400, int(FLOAT_MAX), int(FLOAT_MAX) + 1, 2**70]),
)


@st.composite
def weight_inputs(draw, n: int):
    size = draw(st.sampled_from([n, n, n, n + 1, max(n - 1, 0)]))
    entries = draw(st.lists(weight_entries, min_size=size, max_size=size))
    kind = draw(st.sampled_from(["list", "tuple", "array", "object-array", "bool-array"]))
    if kind == "list":
        return entries
    if kind == "tuple":
        return tuple(entries)
    if kind == "object-array":
        return np.array(entries, dtype=object)
    if kind == "bool-array":
        return np.ones(size, dtype=bool)
    return np.array([x for x in entries if isinstance(x, float)] or [1.0] * size, dtype=float)


@st.composite
def graph_inputs(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 6, 6, np.int64(4), True]))
    size = int(n)
    weights = draw(weight_inputs(size)) if draw(st.integers(0, 3)) == 0 else [1.0] * size
    return n, weights, draw(edge_inputs(size))


@settings(deadline=None, max_examples=600)
@given(graph_inputs())
def test_constructor_matches_the_per_entry_oracle(case):
    n, weights, (kind, pairs) = case
    expected = outcome(lambda: oracle_graph(n, weights, make_edges(kind, pairs)))
    got = outcome(lambda: ExclusivityGraph(n, weights, make_edges(kind, pairs)))
    if expected[0] != "ok":
        assert got == expected
        return
    assert got[0] == "ok", got
    g = got[1]
    n_, w, edges = expected[1]
    assert type(g.n) is int and g.n == n_
    assert g.weights.dtype == w.dtype and g.weights.tobytes() == w.tobytes()
    assert g.edges == edges
    assert all(type(i) is int and type(j) is int for i, j in g.edges)


scalar_entries = st.one_of(
    st.floats(), st.integers(-3, 3), st.integers(2**63, 2**70),
    st.sampled_from([10**400, int(FLOAT_MAX), int(FLOAT_MAX) + 1, -0.0, 5e-324, FLOAT_MAX]),
    st.booleans(), st.text(max_size=2), st.none(),
    st.floats().map(np.float64), st.integers(-3, 3).map(np.int64), st.booleans().map(np.bool_),
)


@st.composite
def scalar_lists(draw):
    """A JSON list of scalars (or of [re, im] pairs), clean or with stray entries."""
    is_complex = draw(st.booleans())
    clean = draw(st.booleans())
    number = st.floats() if clean else scalar_entries
    if is_complex:
        pair = st.lists(number, min_size=2, max_size=2)
        entry = pair if clean else st.one_of(pair, st.lists(number, max_size=3), scalar_entries)
    else:
        entry = number if clean else st.one_of(number, st.lists(number, min_size=2, max_size=2))
    x = draw(st.lists(entry, max_size=6))
    if not clean and draw(st.integers(0, 9)) == 0:
        x = draw(st.sampled_from([tuple(x), "x", {}, 1.0, None]))
    length = draw(st.sampled_from([None, len(x) if isinstance(x, list) else 0, 3]))
    return x, is_complex, length


def oracle_rep(doc: dict) -> OrthRep:
    """The representation the per-entry parser built from a decoded document."""
    is_complex = doc["field"] == "complex"
    handle = oracle_scalars(doc["handle"], is_complex, "handle")
    rows = doc["vectors"]
    if not isinstance(rows, list):
        raise ValueError("'vectors' must be a list of vectors")
    rows = [oracle_scalars(row, is_complex, f"vectors[{i}]", len(handle))
            for i, row in enumerate(rows)]
    dtype = complex if is_complex else float
    return OrthRep(doc["field"], doc["dim"], np.array(handle, dtype).reshape(len(handle)),
                   np.array(rows, dtype).reshape(len(rows), len(handle)))


def unit(x):
    """``x`` with its float entries rescaled so that its entries, read as
    numbers, form a unit vector: documents the oracle accepts are then
    common, and stray bools and ints sit inside unit vectors.  Other input
    is returned as is."""
    leaves = list(chain.from_iterable(e if isinstance(e, list) else [e] for e in x)
                  if isinstance(x, list) else [None])
    if not all(isinstance(v, (int, float, np.number, np.bool_)) for v in leaves):
        return x
    try:
        rest = math.hypot(*(v for v in leaves if not isinstance(v, float)))
    except OverflowError:  # an int beyond the double range
        return x
    free = math.hypot(*(v for v in leaves if isinstance(v, float)))
    if not (rest <= 1.0 and 0.0 < free < math.inf):
        return x
    room = math.sqrt(1.0 - rest * rest)

    def scaled(v):  # |v| <= free, so v / free does not overflow
        return v / free * room if isinstance(v, float) else v

    return [[scaled(c) for c in e] if isinstance(e, list) else scaled(e) for e in x]


@settings(deadline=None, max_examples=600)
@given(scalar_lists(), st.booleans())
def test_parse_rep_matches_the_per_entry_oracle(case, as_handle):
    # x is the handle and the one vector, or else the whole of 'vectors'
    x, is_complex, length = case
    x = unit(x)
    dim = length if length is not None else len(x) if isinstance(x, list) else 1
    e1 = [[1.0, 0.0] if is_complex else 1.0] + [[0.0, 0.0] if is_complex else 0.0] * (dim - 1)
    doc = {"field": "complex" if is_complex else "real", "dim": dim,
           "handle": x if as_handle else e1, "vectors": [x] if as_handle else x}
    text = json.dumps(doc, default=lambda s: s.item())  # numpy ints and bools
    expected = outcome(lambda: oracle_rep(json.loads(text)))
    got = outcome(lambda: parse_rep(text))
    if expected[0] != "ok":
        assert got[0] is RepFormatError, got
        return
    assert got[0] == "ok", got
    rep, want = got[1], expected[1]
    assert (rep.field, rep.dim) == (want.field, want.dim)
    for a, b in ((rep.handle, want.handle), (rep.vectors, want.vectors)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def old_serialize_graph(g, indent=None) -> str:
    doc = {
        "n": g.n,
        "weights": [float(w) for w in g.weights],
        "edges": [[int(i), int(j)] for i, j in g.edges],
    }
    return json.dumps(doc, indent=indent)


def old_serialize_rep(rep, indent=None) -> str:
    def scalar(x):
        return [float(x.real), float(x.imag)] if rep.field == "complex" else float(x)

    doc = {
        "field": rep.field,
        "dim": rep.dim,
        "handle": [scalar(x) for x in rep.handle],
        "vectors": [[scalar(x) for x in row] for row in rep.vectors],
    }
    return json.dumps(doc, indent=indent)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, FLOAT_MAX, -FLOAT_MAX,
               1.0, 0.1, 1.0 / 3.0, float("nan"), float("inf")]


@pytest.mark.parametrize("weights", [[FLOAT_MAX], [5e-324, FLOAT_MAX], [2.2250738585072014e-308,
                                     0.1, 1.0 / 3.0, 5e-324]])
def test_serialize_graph_matches_the_per_scalar_encoder(weights):
    n = len(weights)
    g = ExclusivityGraph(n, weights, [(j, i) for i in range(n) for j in range(i)])
    for indent in (None, 2):
        assert serialize_graph(g, indent) == old_serialize_graph(g, indent)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 6), st.data())
def test_serialize_graph_matches_the_per_scalar_encoder_on_random_graphs(n, data):
    weights = data.draw(st.lists(st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308]),
                                           st.floats(min_value=5e-324, max_value=FLOAT_MAX / (n + 1))),
                                 min_size=n, max_size=n))
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                               max_size=8)) if n > 1 else []
    g = ExclusivityGraph(n, weights, edges)
    assert serialize_graph(g) == old_serialize_graph(g)


@settings(deadline=None, max_examples=150)
@given(st.booleans(), st.integers(1, 4), st.integers(1, 4), st.data())
def test_serialize_rep_matches_the_per_scalar_encoder(is_complex, dim, n, data):
    # the encoder does not validate, and reads only the four fields, so it is
    # given a stand-in for an OrthRep holding values no unit vector holds
    value = st.one_of(st.sampled_from(EDGE_VALUES), st.floats())

    def array(shape):
        count = int(np.prod(shape)) * (2 if is_complex else 1)
        a = np.array(data.draw(st.lists(value, min_size=count, max_size=count)))
        return a.reshape(shape + (2,)).view(complex).reshape(shape) if is_complex else a.reshape(shape)

    rep = SimpleNamespace(field="complex" if is_complex else "real", dim=dim,
                          handle=array((dim,)), vectors=array((n, dim)))
    for indent in (None, 2):
        assert serialize_rep(rep, indent) == old_serialize_rep(rep, indent)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 8), st.data())
def test_edge_arrays_are_the_edges_and_read_only(n, data):
    vertex = st.integers(0, n - 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                               max_size=12)) if n > 1 else []
    g = ExclusivityGraph(n, np.ones(n), edges)
    ei, ej = g.edge_arrays()
    expected = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
    assert ei.dtype == ej.dtype == np.intp
    assert np.array_equal(ei, expected[:, 0]) and np.array_equal(ej, expected[:, 1])
    for column in (ei, ej):
        with pytest.raises(ValueError, match="read-only"):
            column[...] = 0
        with pytest.raises(ValueError):
            column.setflags(write=True)
    assert np.array_equal(g.edge_arrays()[0], expected[:, 0])
