"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from fractions import Fraction

import numpy as np

from loorkit import ExclusivityGraph, OrthRep, orthogonality_graph


def random_graph(rng, n_max=10, p=0.4, dyadic_weights=True) -> ExclusivityGraph:
    """Random graph with dyadic-rational weights (k/8, exact float sums)."""
    n = int(rng.integers(1, n_max + 1))
    if dyadic_weights:
        weights = rng.integers(1, 81, size=n) / 8.0
    else:
        weights = rng.uniform(0.1, 10.0, size=n)
    edges = tuple(
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    )
    return ExclusivityGraph(n=n, weights=weights, edges=edges)


def gnp(rng, n: int, p: float, weights=None) -> ExclusivityGraph:
    """Erdős–Rényi G(n, p): each pair i < j, in row-major order, is an edge
    with probability p.  Unit weights unless ``weights`` is given."""
    iu, ju = np.triu_indices(n, 1)
    mask = rng.random(iu.size) < p
    return ExclusivityGraph(
        n=n,
        weights=np.ones(n) if weights is None else weights,
        edges=tuple(zip(iu[mask].tolist(), ju[mask].tolist())),
    )


def scan_graph(seed: int) -> ExclusivityGraph:
    """G(n, p) with n in [4, 24] and p in [0.2, 0.95]; odd seeds draw
    integer weights 1 to 8."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 25))
    p = float(rng.uniform(0.2, 0.95))
    g = gnp(rng, n, p)
    if seed % 2:
        return ExclusivityGraph(n, rng.integers(1, 9, size=n).astype(float), g.edges)
    return g


def report_cases() -> dict[str, ExclusivityGraph]:
    """Graphs whose solve once stopped on a point below the lower end it
    printed: K5 with weights 1 to 5, and two ``scan_graph`` draws.  Each
    has theta = alpha (5, 21 and 16)."""
    k5 = ExclusivityGraph(5, np.arange(1.0, 6.0),
                          tuple((i, j) for i in range(5) for j in range(i + 1, 5)))
    return {"K5-weighted": k5, "scan183": scan_graph(183), "scan243": scan_graph(243)}


def random_unitary(rng, d: int, complex_field=True) -> np.ndarray:
    """Haar-ish random unitary (or orthogonal) via sign-fixed QR."""
    z = rng.standard_normal((d, d))
    if complex_field:
        z = z + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def phase_rotated(x: np.ndarray, rng) -> np.ndarray:
    """D X D^H for a random diagonal unitary D: Hermitian, complex in general,
    with the trace, the zero entries and the spectrum of X."""
    angle = 2.0 * np.pi * rng.random(len(x))
    return x * np.exp(1j * (angle[:, None] - angle[None, :]))


def random_complex_rep(rng, d: int, n: int) -> tuple[OrthRep, ExclusivityGraph]:
    """Random edge-orthogonal complex rep on the graph its vectors induce.

    Vectors are drawn as columns of random unitaries, so each frame is a
    clique of exact orthogonalities and cross-frame pairs are generically
    far from orthogonal; the graph is derived from the vectors themselves.
    """
    columns: list[np.ndarray] = []
    while len(columns) < n:
        u = random_unitary(rng, d)
        columns.extend(u[:, k] for k in range(d))
    vectors = np.array(columns[:n])
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    handle = z / np.linalg.norm(z)
    graph = orthogonality_graph(vectors, tol=1e-9)
    return OrthRep("complex", d, handle, vectors), graph


def brute_force_independence(g: ExclusivityGraph) -> tuple[float, tuple[int, ...]]:
    """Exhaustive 2^n maximum-weight independent set (value, lex-min witness)."""
    n = g.n
    w = [float(x) for x in g.weights]
    adj = g.adjacency_bitsets()
    best = -math.inf
    best_sets: list[tuple[int, ...]] = []
    for mask in range(1 << n):
        members = [v for v in range(n) if (mask >> v) & 1]
        if any(mask & adj[v] for v in members):
            continue
        total = math.fsum(w[v] for v in members)
        if total > best:
            best = total
            best_sets = [tuple(members)]
        elif total == best:
            best_sets.append(tuple(members))
    return best, min(best_sets)


def random_forest(rng, n: int, p_root: float, weights) -> ExclusivityGraph:
    """Random forest: each vertex after the first joins a random earlier one
    unless it starts a new tree (probability ``p_root``); labels are then
    shuffled so that index order is not tree order."""
    perm = rng.permutation(n)
    edges = tuple(
        (int(perm[k]), int(perm[rng.integers(k)]))
        for k in range(1, n) if rng.random() >= p_root
    )
    return ExclusivityGraph(n=n, weights=weights, edges=edges)


def tree_independence(g: ExclusivityGraph) -> tuple[float, tuple[int, ...]]:
    """Maximum-weight independent set of a forest by dynamic programming:
    (value, lex-min witness).

    Weights are summed exactly (Fraction).  The witness is fixed by a commit
    loop over indices: vertex k joins it when it has no chosen neighbour and
    the optimum with it forced in, given every earlier decision, is still
    the optimum; otherwise k is forced out.
    """
    n = g.n
    w = [Fraction(float(x)) for x in g.weights]
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for i, j in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parent = [-1] * n
    post: list[int] = []  # preorder, reversed below: children before parents
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        while stack:
            v = stack.pop()
            post.append(v)
            for u in nbrs[v]:
                if seen[u]:
                    assert u == parent[v], "graph is not a forest"
                else:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
    post.reverse()

    def best(state: list[bool | None]) -> Fraction | float:
        """Optimum with state[v] True (in), False (out) or None (free);
        -inf when the states conflict."""
        take = [-math.inf] * n  # best of v's subtree with v in
        skip = [-math.inf] * n  # best of v's subtree with v out
        total = Fraction(0)
        for v in post:
            kids = [u for u in nbrs[v] if u != parent[v]]
            if state[v] is not False:
                take[v] = w[v] + sum(skip[u] for u in kids)
            if state[v] is not True:
                skip[v] = sum(max(take[u], skip[u]) for u in kids)
            if parent[v] < 0:
                total += max(take[v], skip[v])
        return total

    state: list[bool | None] = [None] * n
    alpha = best(state)
    for k in range(n):
        state[k] = not any(state[u] for u in nbrs[k])
        if state[k] and best(state) != alpha:
            state[k] = False
    witness = tuple(v for v in range(n) if state[v])
    return math.fsum(float(w[v]) for v in witness), witness


def edge_residual(rep: OrthRep, g: ExclusivityGraph) -> float:
    """Largest |<v_i|v_j>| over the graph's edges."""
    ei, ej = g.edge_arrays()
    if ei.size == 0:
        return 0.0
    inner = np.einsum("ij,ij->i", rep.vectors[ei].conj(), rep.vectors[ej])
    return float(np.max(np.abs(inner)))


def odd_cycle(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(
        n=n, weights=np.ones(n), edges=tuple((i, (i + 1) % n) for i in range(n))
    )


def odd_cycle_theta(n: int) -> float:
    """Closed-form optimum for an odd cycle, evaluated independently."""
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


# Per-entry validators of the constructors and of the representation parser,
# as they stood before the checks ran in bulk: the oracle that the bulk
# checks must match in what they accept, what they store and every message.

def _oracle_is_int(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _oracle_is_number(x) -> bool:
    return ((_oracle_is_int(x) and abs(x) <= sys.float_info.max)
            or isinstance(x, (float, np.floating)))


def oracle_graph(n, w, edges) -> tuple[int, np.ndarray, tuple[tuple[int, int], ...]]:
    """(n, weights, edges) as the constructor stores them, or the ValueError it raises."""
    if not _oracle_is_int(n) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    n = int(n)
    if not (isinstance(w, np.ndarray) and w.dtype.kind in "iuf"):
        if not isinstance(w, (list, tuple, np.ndarray)) or len(w) != n:
            raise ValueError(f"'weights' must be a list of {n} numbers")
        for k, x in enumerate(w):
            if not _oracle_is_number(x):
                raise ValueError(f"weights[{k}] must be a real number, got {x!r}")
    w = np.asarray(w, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"'weights' must be a list of {n} numbers, got shape {w.shape}")
    bad = np.flatnonzero(~(np.isfinite(w) & (w > 0.0)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"weights[{k}] must be positive and finite, got {float(w[k])!r}")
    try:
        math.fsum(w)
    except OverflowError:
        raise ValueError(f"'weights' must sum to at most {sys.float_info.max!r}") from None
    if (isinstance(edges, np.ndarray) and edges.ndim == 0) or not isinstance(edges, Iterable):
        raise ValueError("'edges' must be a list of [i, j] pairs")
    canonical = set()
    for k, pair in enumerate(edges):
        sized = isinstance(pair, (tuple, list)) or (isinstance(pair, np.ndarray) and pair.ndim > 0)
        if not (sized and len(pair) == 2
                and _oracle_is_int(pair[0]) and _oracle_is_int(pair[1])):
            raise ValueError(f"edges[{k}] must be a pair of integers, got {pair!r}")
        i, j = int(pair[0]), int(pair[1])
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edges[{k}] = {pair!r} out of range for n={n}")
        if i == j:
            raise ValueError(f"edges[{k}] is a self-loop at vertex {i}")
        canonical.add((i, j) if i < j else (j, i))
    return n, w, tuple(sorted(canonical))


def oracle_scalars(x, is_complex: bool, where: str, length: int | None = None) -> list:
    """A JSON list of numbers, or of [re, im] pairs, decoded; or the ValueError."""
    if not isinstance(x, list):
        raise ValueError(f"{where} must be a list of scalars, got {type(x).__name__}")
    if length is not None and len(x) != length:
        raise ValueError(f"{where} has {len(x)} entries but 'handle' has {length}")
    kind = "a [re, im] pair" if is_complex else "a number"
    for k, s in enumerate(x):
        if not (isinstance(s, list) and len(s) == 2 and all(map(_oracle_is_number, s))
                if is_complex else _oracle_is_number(s)):
            raise ValueError(f"{where}[{k}] must be {kind}, got {s!r}")
    return [complex(*s) for s in x] if is_complex else [float(s) for s in x]
