"""Exclusivity graphs: data model, JSON wire format, derivation from vector
families, and the exact weighted independence number (the classical bound).

Wire format (UTF-8 JSON, 0-based vertices, edges canonical i < j ascending)::

    {"n": <int>, "weights": [<float> ...], "edges": [[<int>, <int>] ...]}
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

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

MAX_EXACT_VERTICES = 64


class GraphFormatError(ValueError):
    """Raised when a graph document does not match the wire schema."""


@dataclass(frozen=True, eq=False)
class ExclusivityGraph:
    """Vertex-weighted undirected graph; one vertex per measurement event.

    Edges join mutually exclusive events.  Weights are positive and finite;
    edges are stored canonically as sorted (i, j) pairs with i < j.
    """

    n: int
    weights: np.ndarray
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"vertex count must be a positive integer, got {self.n!r}")
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.n,):
            raise ValueError(f"expected {self.n} weights, got shape {w.shape}")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("weights must be positive and finite")
        canonical = set()
        for pair in self.edges:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            canonical.add((min(i, j), max(i, j)))
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise GraphFormatError(message)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def parse_graph(text: str) -> ExclusivityGraph:
    """Parse and validate a graph document; canonicalizes the edge list."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"malformed JSON: {exc}") from exc
    _require(isinstance(doc, dict), "graph document must be a JSON object")
    unknown = set(doc) - {"n", "weights", "edges"}
    _require(not unknown, f"unknown fields: {sorted(unknown)}")
    for key in ("n", "weights", "edges"):
        _require(key in doc, f"missing field '{key}'")

    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1,
             f"'n' must be a positive integer, got {n!r}")
    weights = doc["weights"]
    _require(isinstance(weights, list) and len(weights) == n,
             f"'weights' must be a list of {n} numbers")
    for k, w in enumerate(weights):
        _require(_is_number(w), f"weights[{k}] must be a number, got {w!r}")
        _require(math.isfinite(w) and w > 0, f"weights[{k}] must be positive, got {w!r}")
    edges = doc["edges"]
    _require(isinstance(edges, list), "'edges' must be a list of [i, j] pairs")
    pairs = []
    for k, e in enumerate(edges):
        _require(isinstance(e, list) and len(e) == 2, f"edges[{k}] must be a pair [i, j]")
        i, j = e
        for side in (i, j):
            _require(isinstance(side, int) and not isinstance(side, bool),
                     f"edges[{k}] must contain integers, got {e!r}")
        _require(0 <= i < n and 0 <= j < n, f"edges[{k}] = {e!r} out of range for n={n}")
        _require(i != j, f"edges[{k}] is a self-loop at vertex {i}")
        pairs.append((i, j))
    return ExclusivityGraph(n=n, weights=np.array(weights, dtype=float), edges=tuple(pairs))


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

    ``vectors`` is an (n, d) array (real or complex) of unit rows; weights
    default to 1.  Inner products are invariant under a common unitary, so
    the derived graph is too.
    """
    v = np.asarray(vectors)
    if v.ndim != 2:
        raise ValueError(f"vectors must form an (n, d) array, got shape {v.shape}")
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    norms = np.linalg.norm(v, axis=1)
    bad = np.where(np.abs(norms - 1.0) > 1e-8)[0]
    if bad.size:
        raise ValueError(f"vector {bad[0]} is not unit (norm {norms[bad[0]]!r})")
    n = v.shape[0]
    if weights is None:
        weights = np.ones(n)
    overlaps = np.abs(v.conj() @ v.T)
    iu, ju = np.triu_indices(n, k=1)
    mask = overlaps[iu, ju] <= tol
    edges = tuple(zip(iu[mask].tolist(), ju[mask].tolist()))
    return ExclusivityGraph(n=n, weights=np.asarray(weights, dtype=float), edges=edges)


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
