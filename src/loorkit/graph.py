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
from dataclasses import dataclass

import numpy as np

from .numerics import UNIT_TOL, _norm_deviation

__all__ = [
    "ExclusivityGraph",
    "GraphFormatError",
    "parse_graph",
    "serialize_graph",
    "orthogonality_graph",
    "max_edge_overlap",
    "independence_number",
]

MAX_EXACT_VERTICES = 64


class GraphFormatError(ValueError):
    """Raised when a graph document does not match the wire schema."""


# Python and numpy read a bool as 0 or 1; no field of a document takes one.
def _is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A real number that converts to a double (JSON integers are unbounded)."""
    return (_is_int(x) and abs(x) <= sys.float_info.max) or isinstance(x, (float, np.floating))


@dataclass(frozen=True, eq=False)
class ExclusivityGraph:
    """Vertex-weighted undirected graph; one vertex per measurement event.

    Edges join mutually exclusive events.  The constructor validates input
    from any source (n a positive int, weights positive and finite, edges
    in-range int pairs without self-loops) and stores edges canonically as
    sorted (i, j) pairs with i < j.
    """

    n: int
    weights: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        n = self.n
        if not _is_int(n) or n < 1:
            raise ValueError(f"'n' must be a positive integer, got {n!r}")
        n = int(n)
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype.kind in "iuf"):
            if not isinstance(w, (list, tuple, np.ndarray)) or len(w) != n:
                raise ValueError(f"'weights' must be a list of {n} numbers")
            for k, x in enumerate(w):  # per entry: asarray would take True as 1.0
                if not _is_number(x):
                    raise ValueError(f"weights[{k}] must be a real number, got {x!r}")
        w = np.asarray(w, dtype=float)
        if w.shape != (n,):
            raise ValueError(f"'weights' must be a list of {n} numbers, got shape {w.shape}")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"weights[{k}] must be positive and finite, got {float(w[k])!r}")
        canonical = set()
        for k, pair in enumerate(self.edges):
            if not (isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
                    and _is_int(pair[0]) and _is_int(pair[1])):
                raise ValueError(f"edges[{k}] must be a pair of integers, got {pair!r}")
            i, j = int(pair[0]), int(pair[1])
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edges[{k}] = {pair!r} out of range for n={n}")
            if i == j:
                raise ValueError(f"edges[{k}] is a self-loop at vertex {i}")
            canonical.add((i, j) if i < j else (j, i))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "edges", tuple(sorted(canonical)))

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
        """Edge endpoints as two index arrays (empty for edgeless graphs)."""
        if not self.edges:
            empty = np.zeros(0, dtype=np.intp)
            return empty, empty
        e = np.asarray(self.edges, dtype=np.intp)
        return e[:, 0], e[:, 1]


def parse_graph(text: str) -> ExclusivityGraph:
    """Decode a graph document; the constructor validates it.  Raises GraphFormatError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("graph document must be a JSON object")
    unknown = set(doc) - {"n", "weights", "edges"}
    if unknown:
        raise GraphFormatError(f"unknown fields: {sorted(unknown)}")
    for key in ("n", "weights", "edges"):
        if key not in doc:
            raise GraphFormatError(f"missing field '{key}'")
    if not isinstance(doc["edges"], list):
        raise GraphFormatError("'edges' must be a list of [i, j] pairs")
    try:
        return ExclusivityGraph(n=doc["n"], weights=doc["weights"], edges=doc["edges"])
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc


def serialize_graph(g: ExclusivityGraph, indent: int | None = None) -> str:
    """Canonical JSON document; parse_graph(serialize_graph(g)) == g."""
    doc = {
        "n": g.n,
        "weights": [float(w) for w in g.weights],
        "edges": [[int(i), int(j)] for i, j in g.edges],
    }
    return json.dumps(doc, indent=indent)


def orthogonality_graph(vectors, weights=None, tol: float = 1e-9) -> ExclusivityGraph:
    """Graph with an edge (i, j) exactly when |<v_i|v_j>| <= tol.

    ``vectors`` is an (n, d) array (real or complex) of rows that are unit
    within ``numerics.UNIT_TOL``; weights default to 1.  Inner products are
    invariant under a common unitary, so the derived graph is too.
    """
    v = np.asarray(vectors)
    if v.ndim != 2:
        raise ValueError(f"vectors must form an (n, d) array, got shape {v.shape}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    bad = np.flatnonzero(_norm_deviation(v) > UNIT_TOL)
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"vector {k} is not unit (norm {float(np.linalg.norm(v[k]))!r})")
    n = v.shape[0]
    if weights is None:
        weights = np.ones(n)
    overlaps = np.abs(v.conj() @ v.T)
    iu, ju = np.triu_indices(n, k=1)
    mask = overlaps[iu, ju] <= tol
    edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
    return ExclusivityGraph(n=n, weights=weights, edges=edges)


def max_edge_overlap(vectors, g: ExclusivityGraph) -> float:
    """Largest |<v_i|v_j>| over the accepted edges (0.0 if edgeless)."""
    v = np.asarray(vectors)
    ei, ej = g.edge_arrays()
    if ei.size == 0:
        return 0.0
    return float(np.max(np.abs(np.einsum("ij,ij->i", v[ei].conj(), v[ej]))))


def independence_number(g: ExclusivityGraph) -> tuple[float, tuple[int, ...]]:
    """Exact maximum-weight independent set: (alpha, witness).

    Branch and bound on vertices in descending-weight order with bitset
    adjacency and a greedy weighted clique cover as the pruning bound.
    Among maximum sets, the witness is the lexicographically smallest; its
    weight is returned as a correctly rounded sum (math.fsum).
    """
    n = g.n
    if n > MAX_EXACT_VERTICES:
        raise ValueError(
            f"exact solver is limited to {MAX_EXACT_VERTICES} vertices (got {n}); "
            "this tool targets desk-scale instances"
        )
    w = [float(x) for x in g.weights]
    adj = g.adjacency_bitsets()
    closed = [adj[v] | (1 << v) for v in range(n)]
    order = sorted(range(n), key=lambda v: (-w[v], v))

    def cover_bound(mask: int) -> float:
        # Greedy clique cover; an independent set takes at most one vertex
        # per clique, so the heaviest member of each clique bounds its share.
        ub = 0.0
        commons: list[int] = []
        for v in order:
            if not (mask >> v) & 1:
                continue
            for k in range(len(commons)):
                if (commons[k] >> v) & 1:
                    commons[k] &= adj[v]
                    break
            else:
                commons.append(adj[v])
                ub += w[v]
        return ub

    def best_value(mask0: int) -> float:
        best = 0.0
        m = mask0
        for v in order:  # greedy start for early pruning
            if (m >> v) & 1:
                best += w[v]
                m &= ~closed[v]

        def dfs(mask: int, acc: float) -> None:
            nonlocal best
            if acc > best:
                best = acc
            if not mask:
                return
            if acc + cover_bound(mask) <= best:
                return
            for v in order:
                if (mask >> v) & 1:
                    break
            dfs(mask & ~closed[v], acc + w[v])
            dfs(mask & ~(1 << v), acc)

        dfs(mask0, 0.0)
        return best

    full = (1 << n) - 1
    alpha = best_value(full)
    eps = 1e-9 * max(1.0, abs(alpha))

    # Lexicographically smallest witness: commit to each vertex in index
    # order whenever some maximum set is still consistent with including it.
    chosen: list[int] = []
    mask = full
    acc = 0.0
    for v in range(n):
        if not (mask >> v) & 1:
            continue
        rest = mask & ~closed[v]
        if acc + w[v] + best_value(rest) >= alpha - eps:
            chosen.append(v)
            acc += w[v]
            mask = rest
        else:
            mask &= ~(1 << v)

    witness = tuple(chosen)
    return float(math.fsum(w[v] for v in witness)), witness
