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
residuals sit at machine epsilon.  Each graph is stored as a literal, the
orthogonality graph of its rays at ``graph.DEFAULT_TOL``.  The graphs load
no numpy; a representation loads numpy and ``loor`` when it is first read.
"""

from __future__ import annotations

import math
from functools import cached_property

from .graph import ExclusivityGraph

__all__ = ["NamedInstance", "all_instances", "kcbs", "bbc21"]


class NamedInstance:
    """A built-in instance: its name, graph and reference values, and its
    complex and real representations (None where it has none), built by
    ``reps`` on first read."""

    def __init__(self, name: str, graph: ExclusivityGraph, theta_reference: float,
                 alpha_reference: float, reps):
        self.name = name
        self.graph = graph
        self.theta_reference = theta_reference
        self.alpha_reference = alpha_reference
        self._build_reps = reps

    @cached_property
    def _reps(self) -> tuple:
        return self._build_reps()

    @property
    def complex_rep(self):
        return self._reps[0]

    @property
    def real_rep(self):
        return self._reps[1]


def _kcbs_reps() -> tuple:
    import numpy as np

    from .loor import OrthRep

    tau = np.sqrt(1.0 / np.sqrt(5.0))
    rest = np.sqrt(1.0 - tau**2)
    vectors = np.zeros((5, 3))
    for j in range(1, 6):
        phi = 2.0 * np.pi * (2 * j - 1) / 5.0
        vectors[j - 1] = (tau, rest * np.cos(phi), rest * np.sin(phi))
    handle = np.array([1.0, 0.0, 0.0])
    return None, OrthRep("real", 3, handle, vectors)


def kcbs() -> NamedInstance:
    """Pentagon instance: cyclic exclusivity, unit weights, value sqrt(5)."""
    graph = ExclusivityGraph(
        n=5,
        weights=[1.0] * 5,
        edges=((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)),
    )
    return NamedInstance("kcbs", graph, math.sqrt(5.0), 2.0, _kcbs_reps)


def _bbc21_rays():
    import numpy as np

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


def _bbc21_real_vectors():
    import numpy as np

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


# the orthogonality graph of _bbc21_rays() at graph.DEFAULT_TOL
_BBC21_EDGES = (
    (0, 9), (0, 12), (0, 17), (0, 19), (1, 10), (1, 12), (1, 15), (1, 18),
    (2, 11), (2, 12), (2, 13), (2, 14), (3, 9), (3, 14), (3, 16), (3, 18),
    (4, 10), (4, 14), (4, 17), (4, 20), (5, 11), (5, 15), (5, 16), (5, 17),
    (6, 9), (6, 13), (6, 15), (6, 20), (7, 10), (7, 13), (7, 16), (7, 19),
    (8, 11), (8, 18), (8, 19), (8, 20), (9, 10), (9, 11), (10, 11), (12, 16),
    (12, 20), (13, 17), (13, 18), (14, 15), (14, 19), (15, 19), (16, 20), (17, 18),
)


def _bbc21_reps() -> tuple:
    from .loor import OrthRep

    return (OrthRep("complex", 3, [1, 0, 0], _bbc21_rays()),
            OrthRep("real", 5, [1, 0, 0, 0, 0], _bbc21_real_vectors()))


def bbc21() -> NamedInstance:
    """21-ray instance: weights 3 and 5, graph the rays' orthogonality graph."""
    graph = ExclusivityGraph(n=21, weights=[3.0] * 9 + [5.0] * 12, edges=_BBC21_EDGES)
    return NamedInstance("bbc21", graph, 29.0, 27.0, _bbc21_reps)


def all_instances() -> tuple[NamedInstance, ...]:
    return (kcbs(), bbc21())
