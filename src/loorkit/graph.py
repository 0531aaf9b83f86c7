"""Exclusivity graphs: the data model, its JSON wire format, and the input
rules that every module shares.  Those rules are the number, edge and tol
checks, the document loader and the tol of every call not given one
(``DEFAULT_TOL``).  Each check runs at the tol of the function that makes
it.  Nothing here takes vectors or searches: vector measures are in
``loor``, the independence number in ``alpha``.

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
]

# the tol of every call and every --tol flag that is not given one
DEFAULT_TOL = 1e-8


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
    """Decode a JSON object holding exactly ``fields``, each key once; raise
    ``error`` if it does not."""
    def unique_keys(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise error(f"duplicate key {key!r}")
            doc[key] = value
        return doc

    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except error:  # a repeated key
        raise
    # ValueError also covers an integer literal past Python's int-string
    # digit limit; RecursionError is nesting too deep to decode
    except (ValueError, RecursionError) as exc:
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
