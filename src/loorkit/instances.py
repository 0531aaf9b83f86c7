"""Canonical built-in instances with their reference representations.

* ``kcbs``: the pentagon inequality for a qutrit (five unit-weight events,
  cyclic exclusivity) together with its real three-dimensional optimal
  representation; quantum value sqrt(5), classical bound 2.
* ``bbc21``: the 21-ray state-independent qutrit inequality with weights
  3 (first nine events) and 5 (remaining twelve), its complex
  three-dimensional optimal representation, and the reference real
  five-dimensional representation; quantum value 29, classical bound 27.

All entries are exact algebraic constants (square roots, cosines of
rational multiples of pi) evaluated in double precision at call time, so
residuals sit at machine epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ExclusivityGraph
from .loor import OrthRep, orthogonality_graph

__all__ = ["NamedInstance", "all_instances", "kcbs", "bbc21"]


@dataclass(frozen=True)
class NamedInstance:
    name: str
    graph: ExclusivityGraph
    complex_rep: OrthRep | None
    real_rep: OrthRep | None
    theta_reference: float
    alpha_reference: float


def kcbs() -> NamedInstance:
    """Pentagon instance: cyclic exclusivity, unit weights, value sqrt(5)."""
    tau = np.sqrt(1.0 / np.sqrt(5.0))
    rest = np.sqrt(1.0 - tau**2)
    vectors = np.zeros((5, 3))
    for j in range(1, 6):
        phi = 2.0 * np.pi * (2 * j - 1) / 5.0
        vectors[j - 1] = (tau, rest * np.cos(phi), rest * np.sin(phi))
    handle = np.array([1.0, 0.0, 0.0])
    graph = ExclusivityGraph(
        n=5,
        weights=np.ones(5),
        edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    )
    rep = OrthRep("real", 3, handle, vectors)
    return NamedInstance(
        name="kcbs",
        graph=graph,
        complex_rep=None,
        real_rep=rep,
        theta_reference=float(np.sqrt(5.0)),
        alpha_reference=2.0,
    )


def _bbc21_rays() -> np.ndarray:
    w = np.exp(2j * np.pi / 3.0)
    wb = np.conj(w)
    s2 = 1.0 / np.sqrt(2.0)
    s3 = 1.0 / np.sqrt(3.0)
    rows = [
        (0, s2, -s2),
        (s2, 0, -s2),
        (s2, -s2, 0),
        (0, s2, -s2 * wb),
        (s2, 0, -s2 * wb),
        (s2, -s2 * wb, 0),
        (0, s2, -s2 * w),
        (s2, 0, -s2 * w),
        (s2, -s2 * w, 0),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (s3, s3, s3),
        (s3, s3, s3 * w),
        (s3, s3, s3 * wb),
        (s3, s3 * wb, s3),
        (s3, s3 * wb, s3 * w),
        (s3, s3 * wb, s3 * wb),
        (s3, s3 * w, s3),
        (s3, s3 * w, s3 * w),
        (s3, s3 * w, s3 * wb),
    ]
    return np.array(rows, dtype=complex)


def _bbc21_real_vectors() -> np.ndarray:
    s2 = 1.0 / np.sqrt(2.0)
    q8 = 1.0 / (2.0 * np.sqrt(2.0))
    t8 = np.sqrt(3.0) / (2.0 * np.sqrt(2.0))
    s3 = 1.0 / np.sqrt(3.0)
    q12 = 1.0 / (2.0 * np.sqrt(3.0))
    rows = [
        (0, s2, -s2, 0, 0),
        (s2, 0, -s2, 0, 0),
        (s2, -s2, 0, 0, 0),
        (0, s2, q8, 0, t8),
        (s2, 0, q8, 0, t8),
        (s2, q8, 0, t8, 0),
        (0, s2, q8, 0, -t8),
        (s2, 0, q8, 0, -t8),
        (s2, q8, 0, -t8, 0),
        (1, 0, 0, 0, 0),
        (0, 1, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (s3, s3, s3, 0, 0),
        (s3, s3, -q12, 0, 0.5),
        (s3, s3, -q12, 0, -0.5),
        (s3, -q12, s3, -0.5, 0),
        (s3, -q12, -q12, -0.5, 0.5),
        (s3, -q12, -q12, -0.5, -0.5),
        (s3, -q12, s3, 0.5, 0),
        (s3, -q12, -q12, 0.5, 0.5),
        (s3, -q12, -q12, 0.5, -0.5),
    ]
    return np.array(rows, dtype=float)


def bbc21() -> NamedInstance:
    """21-ray instance: weights 3 and 5, graph derived from the rays."""
    rays = _bbc21_rays()
    weights = np.concatenate([np.full(9, 3.0), np.full(12, 5.0)])
    graph = orthogonality_graph(rays, weights)
    handle_c = np.array([1, 0, 0], dtype=complex)
    handle_r = np.array([1, 0, 0, 0, 0], dtype=float)
    return NamedInstance(
        name="bbc21",
        graph=graph,
        complex_rep=OrthRep("complex", 3, handle_c, rays),
        real_rep=OrthRep("real", 5, handle_r, _bbc21_real_vectors()),
        theta_reference=29.0,
        alpha_reference=27.0,
    )


def all_instances() -> tuple[NamedInstance, ...]:
    return (kcbs(), bbc21())

