"""Weighted Lovász-number SDP, real and complex fields.

The program solved is

    maximize    W . X      with  W_ij = sqrt(w_i w_j)
    subject to  trace(X) = 1,  X_ij = 0 on edges,  X PSD,

over real symmetric X, or over Hermitian X for the complex variant.  The
solver is a first-order operator splitting (ADMM / boundary-point style):
the affine constraints admit an exact closed-form projection, which is
alternated with a PSD projection under a scaled dual update.  Both fields
run the same loop on n x n matrices; the Hermitian program works on complex
X directly, since the projection and the eigendecomposition it needs take
complex Hermitian input as they take real symmetric input.

Reported values are evaluated at the final feasibility-projected iterate,
so a returned solution is exactly affine-feasible and PSD up to the
reported residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import ExclusivityGraph
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


@dataclass
class ThetaSolution:
    """SDP result with a feasibility certificate.

    X is exactly affine-feasible (trace 1, zero on edges); primal_residual
    bounds the affine violation of the PSD-side iterate it was projected
    from, psd_residual the magnitude of X's most negative eigenvalue.
    """

    X: np.ndarray
    value: float
    primal_residual: float
    psd_residual: float
    iterations: int
    converged: bool


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


def _solve(g: ExclusivityGraph, dtype, tol: float, max_iters: int) -> ThetaSolution:
    """ADMM on n x n matrices of ``dtype`` (float: symmetric, complex: Hermitian)."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")

    n = g.n
    w_obj = weight_objective(g)
    ei, ej = g.edge_arrays()
    rho = 1.0
    x = affine_project(np.zeros((n, n), dtype=dtype), g)
    z = x.copy()
    u = np.zeros_like(x)

    value_prev = np.inf
    iterations = 0
    converged = False
    x_report = x
    primal = np.inf
    psd_resid = np.inf
    value = float("nan")

    while iterations < max_iters:
        iterations += 1
        # The linear term is W/(2 rho) in both fields.  This is the step ADMM
        # takes on the 2n x 2n real embedding [[A, -B], [B, A]] of X = A + iB,
        # measured in n x n units: the embedding doubles squared Frobenius
        # norms, so its objective W/2 per diagonal block halves the step.  With
        # W/rho, Hermitian solves need more iterations and some hit the cap,
        # and real solves never need fewer.
        x = affine_project(z - u + w_obj / (2.0 * rho), g)
        z_prev = z
        z = psd_part(x + u)
        u = u + x - z

        if iterations % CHECK_EVERY == 0 or iterations == max_iters:
            primal = abs(float(np.trace(z).real) - 1.0)
            if ei.size:
                primal = max(primal, float(np.max(np.abs(z[ei, ej]))))
            x_report = affine_project(z, g)
            lam_min = float(np.linalg.eigvalsh(x_report)[0])
            psd_resid = max(0.0, -lam_min)
            value = float(np.sum(w_obj * x_report).real)
            rel_change = abs(value - value_prev) / max(1.0, abs(value))
            value_prev = value
            if max(primal, psd_resid, rel_change) <= tol:
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
        primal_residual=primal,
        psd_residual=psd_resid,
        iterations=iterations,
        converged=converged,
    )


def lovasz_theta(
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ThetaSolution:
    """Solve the real weighted Lovász-number SDP.

    Deterministic for fixed (graph, tol, max_iters); on non-convergence the
    best feasibility-projected iterate is returned with converged=False.
    """
    return _solve(g, float, tol, max_iters)


def lovasz_theta_complex(
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ThetaSolution:
    """Solve the Hermitian variant of the weighted Lovász-number SDP.

    Returns a Hermitian n x n X; its value always matches the real program
    (the optimal value is field-independent), which the test suite checks.
    """
    return _solve(g, complex, tol, max_iters)
