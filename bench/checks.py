"""Correctness checks applied to every operation the benchmark runs.

Each check returns None when the output is right and a one-line reason
when it is not.  The benchmark counts a reason as a wrong answer; it never
retries or drops the operation.
"""

from __future__ import annotations

import math

from loorkit import ExclusivityGraph, verify_rep

# theta is solved to tol 1e-8; the value is not yet a rigorous bound, so
# comparisons allow this much relative slack.
THETA_REL_TOL = 1e-6


def _close(value: float, reference: float, rel: float = THETA_REL_TOL) -> bool:
    return abs(value - reference) <= rel * max(1.0, abs(reference))


def greedy_cover_bound(g: ExclusivityGraph) -> float:
    """Upper bound on theta (and alpha): a greedy weighted clique cover.

    Each clique of the cover contributes its heaviest weight; theta of a
    clique is its heaviest weight and theta is subadditive over a vertex
    partition into cliques.
    """
    adj = g.adjacency_bitsets()
    order = sorted(range(g.n), key=lambda v: (-g.weights[v], v))
    cliques: list[int] = []  # common neighbourhood of each clique so far
    bound = 0.0
    for v in order:
        for k, common in enumerate(cliques):
            if (common >> v) & 1:
                cliques[k] = common & adj[v]
                break
        else:
            cliques.append(adj[v])
            bound += float(g.weights[v])
    return bound


def greedy_independent_weight(g: ExclusivityGraph) -> float:
    """Lower bound on alpha: heaviest-first greedy independent set."""
    adj = g.adjacency_bitsets()
    blocked = 0
    total = 0.0
    for v in sorted(range(g.n), key=lambda v: (-g.weights[v], v)):
        if not (blocked >> v) & 1:
            total += float(g.weights[v])
            blocked |= adj[v] | (1 << v)
    return total


def check_theta(value: float, reference: float | None = None,
                alpha: float | None = None, cover: float | None = None) -> str | None:
    """theta against its exact value, or against alpha <= theta <= cover."""
    if not math.isfinite(value):
        return f"theta is {value!r}"
    if reference is not None and not _close(value, reference):
        return f"theta {value!r} differs from the reference {reference!r}"
    if alpha is not None and value < alpha * (1.0 - THETA_REL_TOL):
        return f"theta {value!r} is below alpha {alpha!r}"
    if cover is not None and value > cover * (1.0 + THETA_REL_TOL):
        return f"theta {value!r} exceeds the clique-cover bound {cover!r}"
    return None


def check_fields_agree(real_value: float, complex_value: float) -> str | None:
    if not _close(real_value, complex_value):
        return f"real theta {real_value!r} and complex theta {complex_value!r} differ"
    return None


def check_alpha(g: ExclusivityGraph, alpha: float, witness, reference: float | None = None) -> str | None:
    """The witness is independent, weighs alpha, and alpha sits between
    the greedy independent set and the clique-cover bound."""
    chosen = set(int(v) for v in witness)
    if len(chosen) != len(witness) or any(not 0 <= v < g.n for v in chosen):
        return f"witness {list(witness)!r} is not a set of vertices"
    if any(i in chosen and j in chosen for i, j in g.edges):
        return "witness is not independent"
    if math.fsum(float(g.weights[v]) for v in chosen) != alpha:
        return f"witness weight differs from alpha {alpha!r}"
    if reference is not None and alpha != reference:
        return f"alpha {alpha!r} differs from the reference {reference!r}"
    if alpha < greedy_independent_weight(g) or alpha > greedy_cover_bound(g):
        return f"alpha {alpha!r} is outside its greedy bounds"
    return None


def check_rep(rep, g: ExclusivityGraph, target: float | None = None,
              tol: float = 1e-8, with_sic: bool = False, verify=verify_rep) -> str | None:
    """``verify_rep`` passes, with the value ``target`` preserved if given.

    ``verify`` is the (possibly traced) verify_rep to call.
    """
    report = verify(rep, g, tol=tol, target=target, with_sic=with_sic)
    if not report.passed:
        return (f"verify_rep failed: norm {report.max_norm_residual:.3e}, "
                f"edge {report.max_edge_residual:.3e}, value {report.value!r}"
                + ("" if target is None else f" vs target {target!r}"))
    return None
