"""Seeded inputs for the three workloads.

Each workload's corpus is one fixed draw (``CORPUS_SEED``), so every run
does the same amount of work.  The workload seed relabels the vertices of
every instance, and rotates each representation by a random unitary, so
the program sees different inputs of identical structure: the same seed
gives the same inputs.  ``fingerprint`` hashes an input set so tests can
check that.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from loorkit import ExclusivityGraph, OrthRep, bbc21, kcbs

# Salts keep the random streams of different workloads independent.
_SALT = {"cli": 101, "sdp": 202, "alpha-reps": 303}
CORPUS_SEED = 0

SDP_RANDOM_GRAPHS = 4
SDP_N_RANGE = (10, 24)
ODD_CYCLES = tuple(range(5, 33, 2))
ALPHA_GRAPHS = 16
ALPHA_N_RANGE = (40, 64)
REP_INSTANCES = 64
REP_D_RANGE = (3, 8)
REP_MAX_N = 64


def rng_for(workload: str, seed: int, stream: int = 0) -> np.random.Generator:
    # SeedSequence takes non-negative words; a negative seed maps to its
    # two's complement, so distinct seeds still give distinct streams
    return np.random.default_rng([_SALT[workload], seed & (2**64 - 1), stream])


@dataclass(frozen=True)
class SolveCase:
    """A graph for the SDP workload with what its theta is checked against."""

    name: str
    graph: ExclusivityGraph
    reference: float | None  # exact theta, where one is known
    complex_field: bool  # also solved in the complex field


@dataclass(frozen=True)
class RepCase:
    """A complex representation built from random unitary frames.

    Vectors in one frame are mutually orthogonal and vectors in different
    frames are not, so ``expected_edges`` is the frame cliques.
    """

    name: str
    rep: OrthRep
    weights: np.ndarray
    expected_edges: tuple[tuple[int, int], ...]


def odd_cycle(n: int) -> ExclusivityGraph:
    return ExclusivityGraph(n=n, weights=np.ones(n),
                            edges=tuple((i, (i + 1) % n) for i in range(n)))


def odd_cycle_theta(n: int) -> float:
    c = math.cos(math.pi / n)
    return n * c / (1.0 + c)


def gnp(rng: np.random.Generator, n: int, p: float, weights=None) -> ExclusivityGraph:
    iu, ju = np.triu_indices(n, 1)
    mask = rng.random(iu.size) < p
    return ExclusivityGraph(
        n=n,
        weights=np.ones(n) if weights is None else weights,
        edges=tuple(zip(iu[mask].tolist(), ju[mask].tolist())),
    )


def stratified_ints(rng: np.random.Generator, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers from [lo, hi], one drawn from each of ``count``
    equal strata, so every seed covers the range evenly."""
    span = hi - lo + 1
    return [lo + int((k + rng.random()) * span / count) for k in range(count)]


def permuted(g: ExclusivityGraph, perm: np.ndarray) -> ExclusivityGraph:
    """Relabel vertex i as perm[i]."""
    weights = np.empty(g.n)
    weights[perm] = g.weights
    return ExclusivityGraph(
        n=g.n, weights=weights,
        edges=tuple((int(perm[i]), int(perm[j])) for i, j in g.edges),
    )


def permuted_rep(rep: OrthRep, perm: np.ndarray) -> OrthRep:
    vectors = np.empty_like(rep.vectors)
    vectors[perm] = rep.vectors
    return OrthRep(rep.field, rep.dim, rep.handle, vectors)


def g40_defect_graph() -> ExclusivityGraph:
    """The fixed G(40, 0.3) on which ``extract --tol 1e-6`` exits 2 today."""
    return gnp(np.random.default_rng(0), 40, 0.3)


def cli_inputs(seed: int) -> dict:
    """kcbs and bbc21 under a seeded relabelling, plus the G(40, .3) graph.

    Returns {name: {"graph", "rep", "theta", "alpha", "builtin"}} for the
    two named instances and "g40" for the fixed graph.  "rep" is the
    instance's complex representation (kcbs has only a real one), relabelled
    to stay aligned with the relabelled graph.
    """
    rng = rng_for("cli", seed)
    out = {}
    for inst in (kcbs(), bbc21()):
        perm = rng.permutation(inst.graph.n)
        out[inst.name] = {
            "graph": permuted(inst.graph, perm),
            "rep": permuted_rep(inst.complex_rep or inst.real_rep, perm),
            "theta": inst.theta_reference,
            "alpha": inst.alpha_reference,
            "builtin": inst.graph,
        }
    out["g40"] = g40_defect_graph()
    return out


def sdp_cases(seed: int) -> list[SolveCase]:
    """G(n, .3) graphs, one third log-uniformly weighted over six decades,
    then kcbs, bbc21 and the odd cycles C5 to C31.  Cases are paired by
    size and one of each pair is also solved in the complex field."""
    rng = rng_for("sdp", CORPUS_SEED)
    graphs = []
    for k, n in enumerate(stratified_ints(rng, SDP_RANDOM_GRAPHS, *SDP_N_RANGE)):
        weights = 10.0 ** rng.uniform(0.0, 6.0, n) if k % 3 == 2 else None
        graphs.append((f"gnp{k}-n{n}" + ("-w" if weights is not None else ""),
                       gnp(rng, n, 0.3, weights), None))
    for inst in (kcbs(), bbc21()):
        graphs.append((inst.name, inst.graph, inst.theta_reference))
    for n in ODD_CYCLES:
        graphs.append((f"C{n}", odd_cycle(n), odd_cycle_theta(n)))

    by_size = sorted(range(len(graphs)), key=lambda i: (graphs[i][1].n, i))
    complex_set = set()
    for a in range(0, len(by_size), 2):
        pair = by_size[a:a + 2]
        complex_set.add(pair[int(rng.integers(len(pair)))])
    relabel = rng_for("sdp", seed, 1)
    return [SolveCase(name, permuted(g, relabel.permutation(g.n)), ref, i in complex_set)
            for i, (name, g, ref) in enumerate(graphs)]


def alpha_graphs() -> list[ExclusivityGraph]:
    """Sparse G(n, .1); even positions unit-weighted, odd ones with integer
    weights 1 to 8.

    These graphs are the same for every seed.  Branch and bound breaks
    weight ties by vertex index, so relabelling alone changes the cost of
    this corpus by up to a factor of four, which would swamp any change
    to the solver itself.
    """
    rng = rng_for("alpha-reps", CORPUS_SEED)
    graphs = []
    for k, n in enumerate(stratified_ints(rng, ALPHA_GRAPHS, *ALPHA_N_RANGE)):
        weights = rng.integers(1, 9, n).astype(float) if k % 2 else None
        graphs.append(gnp(rng, n, 0.1, weights))
    return graphs


def _unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rep_cases(seed: int) -> list[RepCase]:
    """Complex representations of dimension d in [3, 8], each the columns
    of several random unitary frames (n = frames * d <= 64), with a random
    unit handle and integer weights 1 to 5."""
    rng = rng_for("alpha-reps", CORPUS_SEED, 2)
    relabel = rng_for("alpha-reps", seed, 3)
    cases = []
    for k, d in enumerate(stratified_ints(rng, REP_INSTANCES, *REP_D_RANGE)):
        frames = int(rng.integers(2, REP_MAX_N // d + 1))
        n = frames * d
        vectors = np.concatenate([_unitary(rng, d).T for _ in range(frames)])
        handle = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        handle /= np.linalg.norm(handle)
        weights = rng.integers(1, 6, n).astype(float)
        g = ExclusivityGraph(n, weights, tuple(
            (f * d + a, f * d + b)
            for f in range(frames) for a in range(d) for b in range(a + 1, d)))
        perm = relabel.permutation(n)
        u = _unitary(relabel, d)
        rep = permuted_rep(OrthRep("complex", d, u @ handle, vectors @ u.T), perm)
        g = permuted(g, perm)
        cases.append(RepCase(f"rep{k}-d{d}-n{n}", rep, g.weights, g.edges))
    return cases


def _graph_bytes(g: ExclusivityGraph) -> bytes:
    return (repr(g.n) + repr(g.edges)).encode() + np.asarray(g.weights).tobytes()


def fingerprint(workload: str, seed: int) -> str:
    """SHA-256 over the edge lists, weights and vectors of a workload's inputs."""
    h = hashlib.sha256()
    if workload == "cli":
        inputs = cli_inputs(seed)
        for name in ("kcbs", "bbc21"):
            h.update(_graph_bytes(inputs[name]["graph"]))
            h.update(inputs[name]["rep"].vectors.tobytes())
        h.update(_graph_bytes(inputs["g40"]))
    elif workload == "sdp":
        for case in sdp_cases(seed):
            h.update(_graph_bytes(case.graph) + bytes([case.complex_field]))
    elif workload == "alpha-reps":
        for g in alpha_graphs():
            h.update(_graph_bytes(g))
        for case in rep_cases(seed):
            h.update(case.rep.vectors.tobytes() + case.rep.handle.tobytes()
                     + case.weights.tobytes())
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return h.hexdigest()
