"""Exclusivity graphs: the data model, its JSON wire format, and the input
rules that every module shares.  Those rules are the number check of every
weight, vector and matrix entry, the edge and tol checks, the document
loader and the tol of every call not given one (``DEFAULT_TOL``).  Each
check runs at the tol of the function that makes it.  Nothing here
measures vectors or searches: vector measures are in ``loor``, the
independence number in ``alpha``.

A graph is combinatorics, so this module never imports numpy: it stores
Python ints and floats, recognizes numpy scalars and arrays only once some
other module has loaded numpy, and builds the arrays that the linear
algebra reads (``weights``, ``edge_arrays``) on first use.

Wire format (UTF-8 JSON, 0-based vertices, edges canonical i < j ascending;
``parse_graph`` decodes it, the ``ExclusivityGraph`` constructor validates it)::

    {"n": <int>, "weights": [<float> ...], "edges": [[<int>, <int>] ...]}
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable
from functools import cached_property
from itertools import chain, repeat
from operator import eq

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


def _numpy_types(*names: str) -> tuple[type, ...]:
    """numpy's types of these names, or none while numpy is not loaded: until
    then no numpy scalar or array can exist, so none needs recognizing.
    ``isinstance(x, ())`` is False, so a test against none needs no guard."""
    np = sys.modules.get("numpy")
    return tuple(getattr(np, name) for name in names) if np is not None else ()


# Python and numpy read a bool as 0 or 1; no field of a document takes one.
def _is_int(x) -> bool:
    return isinstance(x, (int, *_numpy_types("integer"))) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A real number that converts to a double (JSON integers are unbounded)."""
    return ((_is_int(x) and abs(x) <= sys.float_info.max)
            or isinstance(x, (float, *_numpy_types("floating"))))


# The bulk checks test the set of the entries' types, and pass a type only if
# every value of it passes the per-entry test.  Python ints are unbounded, so
# as numbers they fall back to that test; as endpoints they pass, and the
# range test refuses those beyond n.  The per-entry walk names the first bad
# entry, or accepts.
def _int_types(types) -> bool:
    ints = (int, *_numpy_types("integer"))
    return all(issubclass(t, ints) and not issubclass(t, bool) for t in types)


def _float_types(types) -> bool:
    reals = (float, *_numpy_types("floating", "integer"))
    return all(issubclass(t, reals) for t in types)


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
    elif not isinstance(x, (list, tuple, *_numpy_types("ndarray"))):
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
    if isinstance(x, _numpy_types("ndarray")) and x.dtype.kind in ("iufc" if complex_ok else "iuf"):
        return
    extra = (complex, *_numpy_types("complexfloating")) if complex_ok else ()
    entries = x
    for _ in shape[1:]:
        entries = chain.from_iterable(entries)
    if _float_types(t for t in set(map(type, entries)) if not issubclass(t, extra)):
        return
    number = "a number" if complex_ok else "a real number"
    _walk(x, name, len(shape), (number, lambda s: _is_number(s) or isinstance(s, extra)))


def _check_tol(name: str, value) -> None:
    """Refuse a tolerance that is not a positive, finite real number (a bool is not one)."""
    if not (_is_number(value) and value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _checked_weights(w, n: int) -> tuple[float, ...]:
    """The weights as floats: n real numbers, positive and finite, with a finite sum."""
    array = _numpy_types("ndarray")
    if isinstance(w, array) and w.dtype.kind in "iuf":
        if w.shape != (n,):
            raise ValueError(f"'weights' must be a list of {n} numbers, got shape {w.shape}")
        values = w.astype(float).tolist()
    else:
        sized = isinstance(w, (list, tuple)) or (isinstance(w, array) and w.ndim > 0)
        if not sized or len(w) != n:  # a 0-d array has no len()
            raise ValueError(f"'weights' must be a list of {n} numbers")
        _check_numbers(w, (n,), "weights")
        values = list(map(float, w))
    for k, x in enumerate(values):
        if not (x > 0.0 and math.isfinite(x)):
            raise ValueError(f"weights[{k}] must be positive and finite, got {x!r}")
    try:  # theta and alpha both take math.fsum of the weights
        math.fsum(values)
    except OverflowError:
        raise ValueError(f"'weights' must sum to at most {sys.float_info.max!r}") from None
    return tuple(values)


def _canonical_edges(edges, n: int) -> tuple[tuple[int, int], ...]:
    """The edges as int pairs (i, j), i < j, ascending, without repeats.

    An (m, 2) integer array passes its types at once, other input on the
    set of the types of its pairs and of their endpoints; the endpoints
    are then range-checked by their extremes.  Only a failure walks the
    pairs, to name the first bad one."""
    array = _numpy_types("ndarray")
    if (isinstance(edges, array) and edges.ndim == 0) or not isinstance(edges, Iterable):
        raise ValueError("'edges' must be a list of [i, j] pairs")
    pairs = edges if isinstance(edges, (list, tuple, *array)) else list(edges)
    flat = None
    if isinstance(pairs, array):
        if pairs.ndim == 2 and pairs.shape[1] == 2 and pairs.dtype.kind in "iu":
            flat = pairs.ravel().tolist()
    else:
        try:
            if (all(issubclass(t, (tuple, list, *array)) for t in set(map(type, pairs)))
                    and set(map(len, pairs)) <= {2}):
                ends = list(chain.from_iterable(pairs))
                types = set(map(type, ends))
                if _int_types(types):
                    flat = ends if types <= {int} else list(map(int, ends))
        except TypeError:  # len() of a 0-d array
            pass
    if flat is None or (flat and (min(flat) < 0 or max(flat) >= n)) or any(
            map(eq, flat[::2], flat[1::2])):
        flat = []
        for k, pair in enumerate(pairs):
            sized = isinstance(pair, (tuple, list)) or (isinstance(pair, array) and pair.ndim > 0)
            if not (sized and len(pair) == 2 and _is_int(pair[0]) and _is_int(pair[1])):
                raise ValueError(f"edges[{k}] must be a pair of integers, got {pair!r}")
            i, j = int(pair[0]), int(pair[1])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edges[{k}] = {pair!r} out of range for n={n}")
            if i == j:
                raise ValueError(f"edges[{k}] is a self-loop at vertex {i}")
            flat += (i, j)
    it = iter(flat)
    keys = {i * n + j if i < j else j * n + i for i, j in zip(it, it)}
    return tuple(map(divmod, sorted(keys), repeat(n)))


class ExclusivityGraph:
    """Vertex-weighted undirected graph; one vertex per measurement event.

    Edges join mutually exclusive events.  The constructor validates input
    from any source (n a positive int, weights positive and finite with a
    finite sum, edges in-range int pairs without self-loops).  It checks
    the entries in bulk, by the set of their types and by their extremes,
    and walks them one by one only to name the first bad entry.  It stores
    ``n``, ``weight_tuple`` (the weights as floats) and ``edges``
    (canonical: sorted (i, j) pairs with i < j), all Python values, and a
    graph is immutable, so a checked graph stays checked.  ``weights``, a
    read-only float64 array of the weights, and ``edge_arrays`` are built
    from them on first use, for the modules that do linear algebra.
    """

    def __init__(self, n, weights, edges):
        if not _is_int(n) or n < 1:
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        n = int(n)
        vars(self).update(n=n, weight_tuple=_checked_weights(weights, n),
                          edges=_canonical_edges(edges, n))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: a graph is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: a graph is immutable")

    def __repr__(self) -> str:
        return (f"ExclusivityGraph(n={self.n!r}, weights={self.weight_tuple!r}, "
                f"edges={self.edges!r})")

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExclusivityGraph):
            return NotImplemented
        return (
            self.n == other.n
            and self.weight_tuple == other.weight_tuple
            and self.edges == other.edges
        )

    @cached_property
    def weights(self):
        """The weights as a read-only float64 array."""
        import numpy as np

        w = np.array(self.weight_tuple)
        w.flags.writeable = False
        return w

    @property
    def weight_sum(self) -> float:
        return math.fsum(self.weight_tuple)

    def adjacency_bitsets(self) -> list[int]:
        adj = [0] * self.n
        for i, j in self.edges:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        return adj

    @cached_property
    def _edge_columns(self):
        import numpy as np

        index = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * len(self.edges))
        index.flags.writeable = False
        index = index.reshape(-1, 2)
        return index[:, 0], index[:, 1]

    def edge_arrays(self):
        """Edge endpoints as two read-only intp arrays (empty for edgeless graphs)."""
        return self._edge_columns


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
    doc = {"n": g.n, "weights": g.weight_tuple, "edges": g.edges}
    return json.dumps(doc, indent=indent)
