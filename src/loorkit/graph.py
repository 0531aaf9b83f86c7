"""Exclusivity graphs: data model, JSON wire format, derivation from vector
families, and the exact weighted independence number (the classical bound).

Wire format (UTF-8 JSON, 0-based vertices, edges canonical i < j ascending;
``parse_graph`` decodes it, the ``ExclusivityGraph`` constructor validates it)::

    {"n": <int>, "weights": [<float> ...], "edges": [[<int>, <int>] ...]}
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

__all__ = [
    "ExclusivityGraph",
    "GraphFormatError",
    "parse_graph",
    "serialize_graph",
    "orthogonality_graph",
    "max_edge_overlap",
    "independence_number",
]

ORTHO_TOL = 1e-9  # orthogonality_graph's default edge threshold on |<v_i|v_j>|
# the tol of every call and every --tol flag that is not given one
DEFAULT_TOL = 1e-8
# acceptance of input, the same in every layer: a vector is unit when
# |norm - 1| <= INPUT_TOL, a matrix Hermitian when its deviation is at most
# INPUT_TOL * max(1, max|A|)
INPUT_TOL = 1e-8


class GraphFormatError(ValueError):
    """Raised when a graph document does not match the wire schema."""


# Python and numpy read a bool as 0 or 1; no field of a document takes one.
def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A real number that converts to a double (JSON integers are unbounded)."""
    return (_is_int(x) and abs(x) <= sys.float_info.max) or isinstance(x, (float, np.floating))


# The bulk checks test the set of the entries' types, and pass a type only if
# every value of it passes the per-entry test.  Python ints are unbounded, so
# as numbers they fall back to that test, and as endpoints beyond int64 they
# overflow the conversion and fall back.  The per-entry walk names the first
# bad entry, or accepts.
def _int_types(types) -> bool:
    return all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types)


def _float_types(types) -> bool:
    return all(issubclass(t, (float, np.floating, np.integer)) for t in types)


def _walk(x, name: str, depth: int, need, index: tuple[int, ...] = ()) -> None:
    """Raise naming the first entry ``depth`` lists deep in ``x`` that fails
    ``need``, a pair (what, test), as "<where> must be <what>, got ...", or
    the first entry above them that is not a list (or a tuple or an array,
    which library calls may give)."""
    where = name + "".join(f"[{k}]" for k in index) if index else f"'{name}'"
    if depth == 0:
        what, test = need
        if not test(x):
            raise ValueError(f"{where} must be {what}, got {x!r}")
    elif not isinstance(x, (list, tuple, np.ndarray)):
        raise ValueError(f"{where} must be a list, got {x!r}")
    else:
        for k, s in enumerate(x):
            _walk(s, name, depth - 1, need, index + (k,))


def _check_numbers(x, shape: tuple[int, ...], name: str, complex_ok: bool = False) -> None:
    """The one check of input numbers: refuse the first entry of ``x``, nested
    lists, tuples or arrays of ``shape``, that is not a real number (or a
    complex one, when ``complex_ok``).  numpy would read True and "1.0" as
    1.0, so the entries are checked before any conversion.  An ndarray of a
    numeric kind passes at once, other input on the set of its entries'
    types; the entries are walked only to name the first bad one."""
    if isinstance(x, np.ndarray) and x.dtype.kind in ("iufc" if complex_ok else "iuf"):
        return
    extra = (complex, np.complexfloating) if complex_ok else ()
    entries = x
    for _ in shape[1:]:
        entries = chain.from_iterable(entries)
    if _float_types(t for t in set(map(type, entries)) if not issubclass(t, extra)):
        return
    number = "a number" if complex_ok else "a real number"
    _walk(x, name, len(shape), (number, lambda s: _is_number(s) or isinstance(s, extra)))


def _check_tol(name: str, value) -> None:
    """Refuse a tolerance that is a bool or not a positive, finite number."""
    if isinstance(value, (bool, np.bool_)) or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _norm_deviation(v) -> np.ndarray:
    """|norm - 1| of a vector, or of each row of an (n, d) array; inf on overflow."""
    a = np.asarray(v)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a) if a.ndim == 1 else np.linalg.norm(a, axis=1)
    return np.abs(norms - 1.0)


def _walk_edges(pairs, n: int) -> list[tuple[int, int]]:
    """The per-entry check: raise naming the first bad pair, else the int pairs."""
    out = []
    for k, pair in enumerate(pairs):
        sized = isinstance(pair, (tuple, list)) or (isinstance(pair, np.ndarray) and pair.ndim > 0)
        if not (sized and len(pair) == 2 and _is_int(pair[0]) and _is_int(pair[1])):
            raise ValueError(f"edges[{k}] must be a pair of integers, got {pair!r}")
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edges[{k}] = {pair!r} out of range for n={n}")
        if i == j:
            raise ValueError(f"edges[{k}] is a self-loop at vertex {i}")
        out.append((i, j))
    return out


def _bulk_edges(pairs) -> np.ndarray | None:
    """The pairs as an (m, 2) int array if their types pass in bulk, else None."""
    if isinstance(pairs, np.ndarray):
        ok = pairs.ndim == 2 and pairs.shape[1] == 2 and pairs.dtype.kind in "iu"
        return pairs.astype(np.intp) if ok else None  # uint64 wraps below 0: out of range
    try:
        if not (all(issubclass(t, (tuple, list, np.ndarray)) for t in set(map(type, pairs)))
                and set(map(len, pairs)) <= {2}
                and _int_types(set(map(type, chain.from_iterable(pairs))))):
            return None
        return np.fromiter(chain.from_iterable(pairs), np.intp, 2 * len(pairs)).reshape(-1, 2)
    except (TypeError, OverflowError):  # len() of a 0-d array; an int beyond int64
        return None


def _edge_index(edges, n: int) -> np.ndarray:
    """Canonical, read-only (m, 2) intp index: rows i < j, ascending, no repeats."""
    if (isinstance(edges, np.ndarray) and edges.ndim == 0) or not isinstance(edges, Iterable):
        raise ValueError("'edges' must be a list of [i, j] pairs")
    pairs = edges if isinstance(edges, (list, tuple, np.ndarray)) else list(edges)
    e = _bulk_edges(pairs)
    if e is None or (e.size and (e.min() < 0 or e.max() >= n or np.any(e[:, 0] == e[:, 1]))):
        e = np.array(_walk_edges(pairs, n), dtype=np.intp).reshape(-1, 2)
    key = np.minimum(e[:, 0], e[:, 1]) * n + np.maximum(e[:, 0], e[:, 1])  # n^2 fits intp
    key.sort()
    key = key[np.concatenate(([True], key[1:] != key[:-1]))] if key.size else key
    index = np.stack(np.divmod(key, n), axis=1)
    index.setflags(write=False)
    return index


@dataclass(frozen=True, eq=False)
class ExclusivityGraph:
    """Vertex-weighted undirected graph; one vertex per measurement event.

    Edges join mutually exclusive events.  The constructor validates input
    from any source (n a positive int, weights positive and finite with a
    finite sum, edges in-range int pairs without self-loops) and stores
    edges canonically as sorted (i, j) pairs with i < j.  It checks the
    entries in bulk, by the set of their types and by vectorized range
    tests, and walks them one by one only to name the first bad entry.
    The canonical (m, 2) edge index is computed once, here, and is
    read-only; ``edge_arrays`` returns its columns.  ``weights`` is a
    read-only copy, so a checked graph stays checked.
    """

    n: int
    weights: np.ndarray
    edges: tuple[tuple[int, int], ...]
    _index: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.n
        if not _is_int(n) or n < 1:
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        n = int(n)
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype.kind in "iuf"):
            sized = isinstance(w, (list, tuple)) or (isinstance(w, np.ndarray) and w.ndim > 0)
            if not sized or len(w) != n:  # a 0-d array has no len()
                raise ValueError(f"'weights' must be a list of {n} numbers")
            _check_numbers(w, (n,), "weights")
        w = np.array(w, dtype=float)  # a copy: the caller's array stays theirs
        if w.shape != (n,):
            raise ValueError(f"'weights' must be a list of {n} numbers, got shape {w.shape}")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"weights[{k}] must be positive and finite, got {float(w[k])!r}")
        try:  # theta and alpha both take math.fsum of the weights
            math.fsum(w)
        except OverflowError:
            raise ValueError(f"'weights' must sum to at most {sys.float_info.max!r}") from None
        w.flags.writeable = False
        index = _edge_index(self.edges, n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "edges", tuple(zip(*index.T.tolist())))
        object.__setattr__(self, "_index", index)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExclusivityGraph):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.weights, other.weights)
            and self.edges == other.edges
        )

    @property
    def weight_sum(self) -> float:
        return float(math.fsum(self.weights))

    def adjacency_bitsets(self) -> list[int]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two read-only index arrays (empty for edgeless graphs)."""
        return self._index[:, 0], self._index[:, 1]


def _load_document(text: str, name: str, fields: tuple[str, ...], error: type[ValueError]) -> dict:
    """Decode a JSON object holding exactly ``fields``; raise ``error`` if it does not."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise error(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise error(f"{name} document must be a JSON object")
    unknown = set(doc) - set(fields)
    if unknown:
        raise error(f"unknown fields: {sorted(unknown)}")
    for key in fields:
        if key not in doc:
            raise error(f"missing field '{key}'")
    return doc


def parse_graph(text: str) -> ExclusivityGraph:
    """Decode a graph document; the constructor validates it.  Raises GraphFormatError."""
    doc = _load_document(text, "graph", ("n", "weights", "edges"), GraphFormatError)
    if not isinstance(doc["edges"], list):
        raise GraphFormatError("'edges' must be a list of [i, j] pairs")
    try:
        return ExclusivityGraph(n=doc["n"], weights=doc["weights"], edges=doc["edges"])
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_graph(g: ExclusivityGraph, indent: int | None = None) -> str:
    """Canonical JSON document; parse_graph(serialize_graph(g)) == g."""
    doc = {"n": g.n, "weights": g.weights.tolist(), "edges": g._index.tolist()}
    return json.dumps(doc, indent=indent)


def orthogonality_graph(vectors, weights=None, tol: float = ORTHO_TOL) -> ExclusivityGraph:
    """Graph with an edge (i, j) exactly when |<v_i|v_j>| <= tol.

    ``vectors`` is an (n, d) array (real or complex) of rows that are unit
    within ``INPUT_TOL``; weights default to 1.  Inner products are
    invariant under a common unitary, so the derived graph is too.
    """
    v = np.asarray(vectors)
    if v.ndim != 2:
        raise ValueError(f"vectors must form an (n, d) array, got shape {v.shape}")
    _check_tol("tol", tol)
    deviation = _norm_deviation(v)
    bad = np.flatnonzero(~(deviation <= INPUT_TOL))  # NaN is not unit either
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"vector {k} is not unit (norm deviation {float(deviation[k])!r})")
    n = v.shape[0]
    if weights is None:
        weights = np.ones(n)
    overlaps = np.abs(v.conj() @ v.T)
    edges = np.argwhere(np.triu(overlaps <= tol, 1))
    return ExclusivityGraph(n=n, weights=weights, edges=edges)


def max_edge_overlap(vectors, g: ExclusivityGraph) -> float:
    """Largest |<v_i|v_j>| over the accepted edges (0.0 if edgeless)."""
    v = np.asarray(vectors)
    ei, ej = g.edge_arrays()
    return float(np.max(np.abs(np.einsum("ij,ij->i", v[ei].conj(), v[ej])), initial=0.0))


def independence_number(g: ExclusivityGraph) -> tuple[float, tuple[int, ...]]:
    """Maximum-weight independent set, up to a 1e-9 tie floor: (alpha, witness).

    One branch-and-bound search, on bitset adjacency with a greedy weighted
    clique cover as the pruning bound.  The bitsets label the vertices
    heaviest first (ties by index), so the lowest set bit of a mask is its
    heaviest vertex.  The cover takes one clique at a time: it takes the
    lowest bit, counts its weight for the whole clique, and peels common
    neighbours (lowest first) until none are left; an independent set
    takes at most one vertex per clique.  Before bounding, the search takes
    every forced vertex: one with no neighbour left, or with exactly one
    neighbour no heavier than itself (some maximum set contains it, since
    that set can trade the neighbour for it).  A node checks only the
    vertices whose neighbourhood changed since its parent's check left none
    forced: the neighbours of the removed neighbours after taking a vertex,
    the neighbours of a vertex after dropping it.  It then branches on the
    heaviest vertex left, taking it first.  Open nodes are frames on an
    explicit stack, not nested calls, so only the number of search nodes
    limits the graph size.  The search records the set behind its
    incumbent and returns as soon as the incumbent reaches its goal.

    Run with no goal, it finds the maximum weight.  The witness walks the
    original vertex indices in ascending order and keeps vertex k exactly
    when the same search, with goal that maximum less 1e-9 (relative),
    finds a set holding k and the vertices kept so far.  The walk holds the
    last set found to reach the goal (first the one behind the maximum); a
    vertex in it, or with no neighbour left, is kept without a search.  So
    the witness is the lexicographically smallest set within 1e-9 (relative)
    of the maximum, and alpha is its weight, a correctly rounded sum
    (math.fsum): on an edge weighted 1 and 1 + 1e-10 it is (1.0, (0,)).
    """
    n = g.n
    w = [float(x) for x in g.weights]
    order = sorted(range(n), key=lambda v: (-w[v], v))  # vertex at each label
    label = [0] * n
    for b, v in enumerate(order):
        label[v] = b
    wt = [w[v] for v in order]
    adj = [0] * n
    for i, j in g.edges:
        adj[label[i]] |= 1 << label[j]
        adj[label[j]] |= 1 << label[i]
    closed = [adj[b] | (1 << b) for b in range(n)]

    def cover_bound(mask: int) -> float:
        ub = 0.0
        while mask:
            low = mask & -mask
            u = low.bit_length() - 1
            ub += wt[u]
            mask ^= low
            common = mask & adj[u]
            while common:
                low = common & -common
                mask ^= low
                common &= adj[low.bit_length() - 1]
        return ub

    # the last incumbent above top and its set, returned once it reaches goal;
    # a frame (mask, acc, taken, rest) keeps in rest the vertices whose
    # neighbourhood in mask changed since the parent's pass left none forced
    def search(mask: int, acc: float, top: float, goal: float) -> tuple[float, int]:
        best, stack = 0, [(mask, acc, 0, mask)]
        while stack:
            mask, acc, taken, rest = stack.pop()
            while rest:  # take forced vertices; a take rechecks what it touched
                low = rest & -rest
                rest ^= low
                v = low.bit_length() - 1
                nb = adj[v] & mask
                if not nb:
                    mask ^= low
                    acc += wt[v]
                    taken |= low
                elif not nb & (nb - 1) and wt[nb.bit_length() - 1] <= wt[v]:
                    mask &= ~(low | nb)
                    acc += wt[v]
                    taken |= low
                    rest = (rest | adj[nb.bit_length() - 1]) & mask
            if acc > top:
                top, best = acc, taken
                if top >= goal:
                    break
            if acc + cover_bound(mask) <= top:  # an empty mask too: acc <= top here
                continue
            low = mask & -mask
            v = low.bit_length() - 1  # heaviest vertex left
            nb = rest = adj[v] & mask
            touched = 0
            while rest:
                u = rest & -rest
                rest ^= u
                touched |= adj[u.bit_length() - 1]
            child = mask & ~closed[v]
            stack.append((mask ^ low, acc, taken, nb))  # exclude v: popped second
            stack.append((child, acc + wt[v], taken | low, touched & child))
        return top, best

    mask = (1 << n) - 1
    top, proof = search(mask, 0.0, 0.0, math.inf)
    goal = top - 1e-9 * top  # the tie floor; top > 0
    # invariant: the kept vertices and proof & mask form a set reaching goal
    acc, witness = 0.0, []
    for k in range(n):
        b = label[k]
        if not (mask >> b) & 1:
            continue
        if adj[b] & mask and not (proof >> b) & 1:
            child = mask & ~closed[b]
            # start just below goal: also prunes what cannot reach goal
            found, best = search(child, acc + w[k], math.nextafter(goal, -math.inf), goal)
            if found < goal:
                mask ^= 1 << b
                continue
            proof = best | (1 << b)
        mask &= ~closed[b]
        acc += w[k]
        witness.append(k)
    return float(math.fsum(w[v] for v in witness)), tuple(witness)
