"""Weighted Lovász-number SDP, real and complex fields.

The program solved is

    maximize    W . X      with  W_ij = sqrt(w_i w_j)
    subject to  trace(X) = 1,  X_ij = 0 on edges,  X PSD,

over real symmetric X.  The real solve also answers the Hermitian program:
W is real, so the real part of a Hermitian-feasible X is real-feasible with
the same objective, and a real optimum is a Hermitian optimum.  The solver
is a first-order operator splitting (ADMM / boundary-point style): the
affine constraints admit an exact closed-form projection, which is
alternated with a PSD projection under a scaled dual update.

The loop runs on the normalized weights w / sum(w), so that W has unit
trace, and scales value, lower and upper back by sum(w) at the end: theta
is 1-homogeneous in w.  Residual balancing compares the splitting gap
(in units of X) with rho times the change of the PSD iterate (in units of
W); with W normalized the two are commensurate, and the iteration count
does not depend on the scale of the weights.

Every ``CHECK_EVERY`` iterations the solver certifies a bracket
lower <= theta <= upper:

- lower = (W . X + p sum(w)) / (1 + n p), with X the affine projection of
  the PSD iterate and p its PSD residual (the magnitude of its most
  negative eigenvalue).  (X + p I) / (1 + n p) is feasible and PSD, and
  that is its objective.
- upper = lambda_max(M), where M = W off the edges and M_ij = M_ji =
  2 rho u_ij on them (u the scaled dual).  Any Y supported on the edges
  gives theta <= lambda_max(W + Y), the Lovász dual.

Each end is widened by n eps sum(w) to cover the roundoff in computing
it, so lower <= upper holds in floating point too.  The best bound seen
on each side is kept.  The solve has converged when the primal residual
and the PSD residual are at most tol and the relative gap
(upper - lower) / upper is at most tol.  Reported values are evaluated
at the final feasibility-projected iterate, so a returned solution is
exactly affine-feasible and PSD up to the reported residual p; its value
is not a bound and may exceed theta by up to n p sum(w).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .graph import ExclusivityGraph, _is_int
from .numerics import psd_part

__all__ = [
    "ThetaSolution",
    "weight_objective",
    "affine_project",
    "lovasz_theta",
    "lovasz_theta_complex",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITERS = 200_000
CHECK_EVERY = 100


def _unmet(primal: float, psd: float, lower: float, upper: float, tol: float) -> dict[str, float]:
    """The stop criteria missed at ``tol``, by name, with their values."""
    measured = (
        ("primal residual", primal),
        ("PSD residual", psd),
        ("relative gap", (upper - lower) / upper),
    )
    return {name: value for name, value in measured if not value <= tol}


@dataclasses.dataclass
class ThetaSolution:
    """SDP result with a feasibility certificate and a bracket on theta.

    X is exactly affine-feasible (trace 1, zero on edges); primal_residual
    bounds the affine violation of the PSD-side iterate it was projected
    from, psd_residual the magnitude of X's most negative eigenvalue.
    lower <= theta <= upper is the best certified bracket the solve found.
    """

    X: np.ndarray
    value: float
    lower: float
    upper: float
    primal_residual: float
    psd_residual: float
    iterations: int
    converged: bool

    def unmet(self, tol: float) -> dict[str, float]:
        """Stop criteria this solution misses at ``tol``, by name, with their
        last values; empty exactly when a solve at ``tol`` converged here."""
        return _unmet(self.primal_residual, self.psd_residual, self.lower, self.upper, tol)


def weight_objective(g: ExclusivityGraph) -> np.ndarray:
    """Objective matrix W with W_ij = sqrt(w_i w_j) (all-ones for unit weights)."""
    root = np.sqrt(g.weights)
    return np.outer(root, root)


def affine_project(x, g: ExclusivityGraph) -> np.ndarray:
    """Frobenius-nearest matrix with zero edge entries and unit trace.

    Closed form: zero both triangles on every edge, then shift the diagonal
    by (1 - trace)/n.  The two constraint families act on disjoint entries,
    so the composition is the exact affine projection.  Complex input stays
    complex: edges lose their real and imaginary parts, and the shift uses
    the trace's real part, so Hermitian input gives Hermitian output.
    """
    a = np.array(x, dtype=complex if np.iscomplexobj(x) else float)
    if a.ndim != 2 or a.shape != (g.n, g.n):
        raise ValueError(f"expected a {g.n} x {g.n} matrix, got shape {a.shape}")
    ei, ej = g.edge_arrays()
    a[ei, ej] = 0.0
    a[ej, ei] = 0.0
    a.flat[:: g.n + 1] += (1.0 - float(np.trace(a).real)) / g.n
    return a


def lovasz_theta(
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ThetaSolution:
    """Solve the real weighted Lovász-number SDP.

    Deterministic for fixed (graph, tol, max_iters); on non-convergence the
    best feasibility-projected iterate is returned with converged=False.
    """
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if not _is_int(max_iters) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")

    n = g.n
    scale = g.weight_sum
    w_obj = weight_objective(g) / scale  # unit trace
    ei, ej = g.edge_arrays()
    rho = 1.0
    x = affine_project(np.zeros((n, n)), g)
    z = x.copy()
    u = np.zeros_like(x)
    dual = w_obj.copy()  # the M of the upper bound; edges set per check
    # each end of the bracket is widened by n eps sum(w): the order of the
    # roundoff in W . X and in lambda_max of a matrix of norm at most 1,
    # in the units of the weights
    roundoff = n * np.finfo(float).eps * scale

    iterations = 0
    converged = False
    x_report = x
    primal = np.inf
    psd_resid = np.inf
    value = float("nan")
    lower = -np.inf
    upper = np.inf

    while iterations < max_iters:
        iterations += 1
        # The linear term W/(2 rho) makes this ADMM on the objective W/2, which
        # has the same optimal X.  Its PSD multiplier is rho u, so the dual of
        # the program in W is 2 rho u, the M of the upper bound.  The step and
        # that factor go together: on the benchmark's sdp corpus, W/rho with
        # 2 rho u caps every solve at 10k iterations, and W/rho with rho u
        # takes 9,300 iterations in all against 8,300.
        x = affine_project(z - u + w_obj / (2.0 * rho), g)
        z_prev = z
        z = psd_part(x + u)
        u = u + x - z

        if iterations % CHECK_EVERY == 0 or iterations == max_iters:
            primal = abs(float(np.trace(z)) - 1.0)
            if ei.size:
                primal = max(primal, float(np.max(np.abs(z[ei, ej]))))
            x_report = affine_project(z, g)
            psd_resid = max(0.0, -float(np.linalg.eigvalsh(x_report)[0]))
            value = scale * float(np.sum(w_obj * x_report))
            lower = max(lower, (value + psd_resid * scale) / (1.0 + n * psd_resid) - roundoff)
            dual[ei, ej] = dual[ej, ei] = 2.0 * rho * u[ei, ej]
            upper = min(upper, scale * float(np.linalg.eigvalsh(dual)[-1]) + roundoff)
            if not _unmet(primal, psd_resid, lower, upper, tol):
                converged = True
                break
            # residual balancing on the splitting gap
            r_gap = float(np.linalg.norm(x - z))
            s_gap = rho * float(np.linalg.norm(z - z_prev))
            if r_gap > 10.0 * s_gap and rho < 1e6:
                rho *= 2.0
                u /= 2.0
            elif s_gap > 10.0 * r_gap and rho > 1e-6:
                rho /= 2.0
                u *= 2.0

    return ThetaSolution(
        X=x_report,
        value=value,
        lower=lower,
        upper=upper,
        primal_residual=primal,
        psd_residual=psd_resid,
        iterations=iterations,
        converged=converged,
    )


def lovasz_theta_complex(
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ThetaSolution:
    """Solve the Hermitian variant of the weighted Lovász-number SDP.

    Re X of a Hermitian-feasible X is real-feasible with the same objective,
    because W is real.  So the two programs have one optimum value, and the
    real optimum with its certified bracket is a Hermitian optimum with a
    valid bracket; it is returned with X as a complex array.
    """
    sol = lovasz_theta(g, tol, max_iters)
    return dataclasses.replace(sol, X=sol.X.astype(complex))
