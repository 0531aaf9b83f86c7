"""Weighted Lovász-number SDP: one real solve answers both fields.

The program solved is

    maximize    W . X      with  W_ij = sqrt(w_i w_j)
    subject to  trace(X) = 1,  X_ij = 0 on edges,  X PSD,

over real symmetric X.  The same solve answers the Hermitian program: W is
real, so the real part of a Hermitian-feasible X is real-feasible with the
same objective, and a real optimum is a Hermitian optimum.
``lovasz_theta_complex`` is a second name for ``lovasz_theta``.

The solver is a first-order operator splitting (ADMM / boundary-point
style), written as a fixed-point map on t = x + u (u the scaled dual).
One evaluation is one PSD projection and one closed-form affine projection:

    z = psd_part(t),   x = affine projection of 2z - t + W/(2 rho),
    T(t) = t + x - z.

A fixed point has x = z, an optimum.  Iterating T alone is the plain
splitting; the loop accelerates it with type-II Anderson acceleration
(Walker & Ni 2011).  Over the last ``ANDERSON_MEMORY`` accepted points it
keeps the differences of their steps f = T(t) - t and of their images
g = T(t) = t + f, one row each in two preallocated ring buffers, with the
Gram matrix of the step differences: an append writes one row of each
buffer and one row and column of the Gram matrix, and clearing the memory
resets two counters.  The loop finds the combination gamma of step
differences that best cancels the current step (least squares, with a
Tikhonov term of ``ANDERSON_REG`` times the trace of the small normal
matrix) and moves to g minus that combination of image differences (a
point difference plus its step difference is the image difference).  A
safeguard in the spirit of Zhang, O'Donoghue & Boyd (2020) keeps this
from diverging on the nonsmooth map: an extrapolated point whose step
||x - z|| is longer than the step of the point it was extrapolated from is
rejected, and the loop takes that point's plain step, to its image g, and
clears the memory.  Every evaluation counts as an iteration, rejected ones
included.

The loop runs on the normalized weights w / sum(w), so that W has unit
trace, and scales value, lower and upper back by sum(w) at the end: theta
is 1-homogeneous in w.  Every ``BALANCE_EVERY`` iterations residual
balancing compares the splitting gap ||x - z|| (in units of X) with rho
times the change of the PSD iterate (in units of W); with W normalized
the two are commensurate.  A new rho is a new map, so t is rescaled to
z + s (t - z), keeping z and scaling u as rho scales by 1/s, and the
memory is cleared.  Scaling the weights changes W / sum(w) only in
roundoff, which the safeguard's comparisons can on occasion turn into a
different path; every path ends in a certified bracket.

Every ``CHECK_EVERY`` iterations the solver certifies a bracket
lower <= theta <= upper from the point just evaluated, or from the last
accepted point when the safeguard rejects the one just evaluated:

- lower = (W . X + p sum(w)) / (1 + n p), with X the affine projection of
  the PSD iterate and p its PSD residual (the magnitude of its most
  negative eigenvalue).  (X + p I) / (1 + n p) is feasible and PSD, and
  that is its objective.
- upper = lambda_max(M), where M = W off the edges and M_ij = M_ji =
  2 rho u_ij on them, u = t - z.  Any Y supported on the edges gives
  theta <= lambda_max(W + Y), the Lovász dual.

Both bounds hold at any point, so acceleration changes which points are
visited, never what a bracket certifies.

The solve has converged when the primal residual and the PSD residual are
at most tol and the relative gap (upper - lower) / upper is at most tol.
A check is staged, cheapest first, and stops at the first stage whose
criterion it misses:

1. the primal residual of the PSD iterate (a trace and a max over the
   edge entries);
2. the affine projection X, its PSD residual p (one eigvalsh) and lower;
3. upper (one eigvalsh of the dual matrix), then the relative gap.

So most checks early in a solve cost no eigenvalue problem.  The forced
check at the iteration cap runs every stage, so a capped report is
complete.

Each end is widened by n eps sum(w) to cover the roundoff in computing
it, so lower <= upper holds in floating point too.  upper is the best
over the checks that reached stage 3; lower is the bound the reported X
certifies, so a small gap means that X is near optimal.  Reported values
are those of the last check, which ran every stage, evaluated at its
feasibility-projected PSD iterate, so a returned solution is
affine-feasible up to roundoff and PSD up to the reported residual p; its
value is not a bound and may exceed theta by up to n p sum(w).
"""

from __future__ import annotations

import dataclasses
import math
import sys

import numpy as np

from .graph import DEFAULT_TOL, ExclusivityGraph, _check_tol, _is_int

__all__ = [
    "ThetaSolution",
    "weight_objective",
    "lovasz_theta",
    "lovasz_theta_complex",
]

DEFAULT_MAX_ITERS = 200_000
CHECK_EVERY = 25  # iterations between bracket checks
BALANCE_EVERY = 100  # iterations between residual-balancing steps
ANDERSON_MEMORY = 12  # point and step differences kept for acceleration
ANDERSON_REG = 1e-10  # Tikhonov term, relative to the normal matrix's trace


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

    X is affine-feasible (trace 1, zero on edges) up to roundoff at the scale
    of X; primal_residual bounds the affine violation of the PSD-side iterate
    it was projected from, psd_residual the magnitude of X's most negative
    eigenvalue.  lower <= theta <= upper is a certified bracket: lower is
    the bound X itself certifies, upper the best dual bound found.
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


def psd_part(m: np.ndarray) -> np.ndarray:
    """Positive part of a real symmetric matrix, without input checks: the
    nearest positive-semidefinite matrix in Frobenius norm.

    Keeps the eigenpairs with positive eigenvalue and recomposes; eigh reads
    one triangle only and sorts the eigenvalues ascending, so the positive
    ones are a suffix.  This is the solver's inner kernel.

    The matrix is recomposed as B B^T with B = V sqrt(lambda) over the kept
    pairs.  numpy hands a product of an array with its own transpose to
    BLAS syrk, which computes one triangle and mirrors it, so the result is
    bitwise symmetric without a symmetrizing pass.
    """
    values, vectors = np.linalg.eigh(m)
    first = int(np.searchsorted(values, 0.0, side="right"))
    b = vectors[:, first:] * np.sqrt(values[first:])
    return b @ b.T


def _flat_edges(g: ExclusivityGraph) -> np.ndarray:
    """Flat indices into an n x n array of every edge entry, both triangles."""
    ei, ej = g.edge_arrays()
    return np.concatenate((ei * g.n + ej, ej * g.n + ei))


def _affine_part(a: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Project a contiguous square ``a`` in place onto the affine constraints.

    ``edges`` are the flat indices of the edge entries (``_flat_edges``).
    Closed form: zero both triangles on every edge, then shift the diagonal
    by (1 - trace)/n.  The two constraint families act on disjoint entries,
    so the composition is the exact affine projection.
    """
    flat = a.reshape(-1)
    flat[edges] = 0.0
    d = flat[:: a.shape[0] + 1]
    d += (1.0 - float(d.sum())) / d.size
    return a


def lovasz_theta(
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ThetaSolution:
    """Solve the weighted Lovász-number SDP; the real optimum answers the
    Hermitian program too.

    Deterministic for fixed (graph, tol, max_iters).  On non-convergence X,
    value, lower and the residuals are those of the last check, at
    iteration max_iters, and upper the best seen.  A check that falls on an
    extrapolated point the safeguard rejects reads the last accepted point,
    so a report never comes from a runaway extrapolation.
    """
    _check_tol("tol", tol)
    if not _is_int(max_iters) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")

    n = g.n
    scale = g.weight_sum
    w_obj = weight_objective(g) / scale  # unit trace
    edges = _flat_edges(g)
    rho = 1.0
    linear = w_obj / (2.0 * rho)
    t = np.eye(n) / n  # x = I/n, u = 0
    z = t
    dual = w_obj.copy()  # the M of the upper bound; edges set per check
    # each end of the bracket is widened by n eps sum(w): the order of the
    # roundoff in W . X and in lambda_max of a matrix of norm at most 1,
    # in the units of the weights
    roundoff = n * sys.float_info.epsilon * scale

    # Anderson state: the last accepted point with its PSD part, its image
    # g = T(t) = t + f, its step f (flat) and the step's norm; ring buffers
    # of the differences of accepted images and of accepted steps (row
    # ``slot`` is written next, the first ``count`` rows are filled), and
    # the Gram matrix of the step differences, one row and column updated
    # per append
    anchor = anchor_z = anchor_image = step = None
    step_norm = np.inf
    dgs = np.empty((ANDERSON_MEMORY, n * n))
    dfs = np.empty((ANDERSON_MEMORY, n * n))
    gram = np.empty((ANDERSON_MEMORY, ANDERSON_MEMORY))
    eye = np.eye(ANDERSON_MEMORY)
    count = slot = 0
    extrapolated = False
    affine = np.empty((n, n))  # 2z - t + W/(2 rho), projected in place

    iterations = 0
    converged = False
    # no start for X, value, lower or residuals: max_iters >= 1 and the last check runs every stage
    upper = np.inf

    while iterations < max_iters:
        iterations += 1
        # The linear term W/(2 rho) makes this ADMM on the objective W/2, which
        # has the same optimal X.  Its PSD multiplier is rho u, so the dual of
        # the program in W is 2 rho u, the M of the upper bound.  The step and
        # that factor go together: on the benchmark's sdp corpus, without
        # acceleration, W/rho with 2 rho u caps every solve at 10k iterations,
        # and W/rho with rho u takes 9,300 iterations in all against 8,300.
        z_prev = z
        z = psd_part(t)
        np.multiply(z, 2.0, out=affine)
        affine -= t
        affine += linear
        f = _affine_part(affine, edges) - z  # T(t) - t
        f_flat = f.ravel()
        f_norm = math.sqrt(f_flat @ f_flat)
        # the safeguard's test: the extrapolated point did worse than the
        # point it came from
        rejected = extrapolated and f_norm > step_norm

        last = iterations == max_iters
        if iterations % CHECK_EVERY == 0 or last:
            # staged, cheapest first; a stage runs only if the criteria
            # before it are met, or at the forced last check
            at, az = t, z
            if rejected:
                # a report must not come from a point the safeguard rejects:
                # read the last accepted one
                at, az = anchor, anchor_z
            primal = max(abs(float(az.trace()) - 1.0),
                         float(np.max(np.abs(az.flat[edges]), initial=0.0)))
            if primal <= tol or last:
                x_report = _affine_part(az.copy(), edges)
                psd_resid = max(0.0, -float(np.linalg.eigvalsh(x_report)[0]))
                value = scale * float(np.sum(w_obj * x_report))
                lower = (value + psd_resid * scale) / (1.0 + n * psd_resid) - roundoff
                if psd_resid <= tol or last:
                    dual.flat[edges] = 2.0 * rho * (at.flat[edges] - az.flat[edges])
                    upper = min(upper, scale * float(np.linalg.eigvalsh(dual)[-1]) + roundoff)
                    if not _unmet(primal, psd_resid, lower, upper, tol):
                        converged = True
                        break

        if iterations % BALANCE_EVERY == 0:
            # residual balancing on the splitting gap; a new rho is a new
            # map, so restart it from t with u rescaled and no memory
            r_gap = f_norm
            s_gap = rho * float(np.linalg.norm(z - z_prev))
            s = 1.0
            if r_gap > 10.0 * s_gap and rho < 1e6:
                s = 0.5
            elif s_gap > 10.0 * r_gap and rho > 1e-6:
                s = 2.0
            if s != 1.0:
                rho /= s
                linear = w_obj / (2.0 * rho)
                t = z + s * (t - z)
                anchor = None
                extrapolated = False
                count = slot = 0
                continue

        if rejected:
            # take the plain step of the point it came from, to that point's
            # image, and forget the past
            t = anchor_image
            extrapolated = False
            count = slot = 0
            continue

        image = t + f
        if anchor is not None:
            np.subtract(image.ravel(), anchor_image.ravel(), out=dgs[slot])
            np.subtract(f_flat, step, out=dfs[slot])
            count = min(count + 1, ANDERSON_MEMORY)
            row = dfs[:count] @ dfs[slot]
            gram[slot, :count] = row
            gram[:count, slot] = row
            slot = (slot + 1) % ANDERSON_MEMORY
        anchor, anchor_z, anchor_image, step, step_norm = t, z, image, f_flat, f_norm
        t = image
        extrapolated = False
        reg = ANDERSON_REG * float(gram[:count, :count].trace())  # 0 with no memory
        if reg > 0.0:
            normal = gram[:count, :count] + reg * eye[:count, :count]
            gamma = np.linalg.solve(normal, dfs[:count] @ f_flat)
            t = image - (gamma @ dgs[:count]).reshape(n, n)
            extrapolated = True

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


# a second name for the one solve, kept because bench/workloads.py reads it
lovasz_theta_complex = lovasz_theta
