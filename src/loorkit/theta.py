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

    z = B B^T with B = _psd_factor(t),
    x = affine projection of 2z - t + W/(2 rho),   T(t) = t + x - z.

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

- lower = W . X for a feasible PSD X, taken as the better of two:
  - (W . X + p sum(w)) / (1 + n p), with X the affine projection of the
    PSD iterate and p its PSD residual (the magnitude of its most negative
    eigenvalue).  (X + p I) / (1 + n p) is feasible and PSD, and that is
    its objective.  It loses up to n p sum(w) against W . X.
  - W . X_c, the certificate below, which has no n p term.
- upper = lambda_max(M), where M = W off the edges and M_ij = M_ji =
  2 rho u_ij on them, u = t - z.  Any Y supported on the edges gives
  theta <= lambda_max(W + Y), the Lovász dual.  The solve keeps the M of
  its best upper: ``ThetaSolution.y`` holds M's edge entries, one per edge
  in ``g.edge_arrays()`` order, in the units of the normalized W / sum(w).
  So sum(w) lambda_max(M) + n eps sum(w), with M rebuilt from (g, y),
  gives upper bit for bit.

Both bounds hold at any point, so acceleration changes which points are
visited, never what a bracket certifies.

The certificate X_c starts from the PSD iterate z = B B^T, with the factor
B = V sqrt(lambda) that the loop formed z from at the point the check
reads.  One Gauss-Newton step B -> (I + Y) B, with Y supported on the
edges and (Y z + z Y)_ij = -z_ij on every edge (an m x m symmetric system
in the edge multipliers), cancels the edge entries to first order.  PSD
2 x 2 blocks [[|e|, -e], [-e, |e|]] zero the entries e that the step
leaves, and the sum is divided by its trace.  X_c is then exactly 0 on
the edges, has trace 1 up to one rounding, and is a sum of PSD terms.

The solve has converged when the primal residual and the PSD residual are
at most tol and the relative gap (upper - lower) / upper is at most tol.
A check is one call of the function ``check`` inside ``lovasz_theta``,
which holds the best upper, its y and stage 4's back-off; the loop keeps
only the check's last report.  A check is staged, cheapest first, and
stops at the first stage whose criterion it misses:

1. the primal residual of the PSD iterate (a trace and a max over the
   edge entries);
2. the affine projection X, its PSD residual p (one eigvalsh) and lower;
3. upper (one eigvalsh of the dual matrix), then the relative gap;
4. when only the gap misses and upper - W . X <= tol upper, so that a
   lossless lower end would close it, the certificate, then the gap again.

So most checks early in a solve cost no eigenvalue problem, and most
solves never reach stage 4.  The forced check at the iteration cap runs
stages 1-3, and stage 4 when its gate and back-off allow, so a capped
report is complete.  An attempt that leaves the gap open backs off: the gated
checks after it skip 1, 2, 4, ... attempts, so a solve that stalls near
the gate makes a logarithmic number of them.  The certificate's system is
formed and solved directly up to ``CERT_DENSE_EDGES`` edges (a 2,000 x
2,000 solve); above that it is never formed, and conjugate gradients run
on the operator matrix-free, ``CERT_CG_ITERS`` products at most.

Each end is widened by n eps sum(w) to cover the roundoff in computing
it, so lower <= upper holds in floating point too.  upper is the best
over the checks that reached stage 3; lower is the bound the reported X
certifies, so a small gap means that X is near optimal.  Reported values
are those of the last check, which ran every stage its criteria allowed.
The reported X is X_c when the certificate gave the lower end, exactly
feasible and PSD up to roundoff, and otherwise the feasibility-projected
PSD iterate, affine-feasible up to roundoff and PSD up to the reported
residual p, whose value is not a bound and may exceed theta by up to
n p sum(w).  Either way value is W . X at the reported X, and lower comes
with it.
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
CERT_DENSE_EDGES = 2_000  # edges up to which the certificate's system is formed
CERT_CG_RTOL = 1e-3  # above that, CG stops once its residual has fallen by this
CERT_CG_ITERS = 200  # or after this many products


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

    lower <= theta <= upper is a certified bracket: lower is the bound X
    itself certifies, upper the best dual bound found, and y proves it: the
    dual matrix's entries on the edges, one per edge in ``g.edge_arrays()``
    order, in the units of W / sum(w), so that with M = W / sum(w) and
    M_ij = M_ji = y_e on each edge e = (i, j), upper is sum(w) lambda_max(M)
    + n eps sum(w) bit for bit.  On a capped solve y, like upper, is the
    best check's, not the last one's.  All other fields come from the last
    check.  X is the certificate point when it gave the
    lower end (exactly 0 on edges, trace 1 up to roundoff, PSD up to
    roundoff), and otherwise the affine projection of the PSD iterate
    (affine-feasible up to roundoff at the scale of X, PSD up to
    psd_residual).  value is W . X at that X.  primal_residual and
    psd_residual always describe the iterate: primal_residual the affine
    violation of the PSD iterate, psd_residual the magnitude of the most
    negative eigenvalue of its affine projection.
    """

    X: np.ndarray
    value: float
    lower: float
    upper: float
    primal_residual: float
    psd_residual: float
    iterations: int
    converged: bool
    y: np.ndarray

    def unmet(self, tol: float) -> dict[str, float]:
        """Stop criteria this solution misses at ``tol``, by name, with their
        last values; empty exactly when a solve at ``tol`` converged here."""
        return _unmet(self.primal_residual, self.psd_residual, self.lower, self.upper, tol)


def weight_objective(g: ExclusivityGraph) -> np.ndarray:
    """Objective matrix W with W_ij = sqrt(w_i w_j) (all-ones for unit weights)."""
    root = np.sqrt(g.weights)
    return np.outer(root, root)


def _psd_factor(m: np.ndarray) -> np.ndarray:
    """B = V sqrt(lambda) over the positive eigenpairs of a real symmetric
    ``m``, without input checks: B B^T is the positive part of ``m``, the
    nearest positive-semidefinite matrix in Frobenius norm.  eigh reads one
    triangle only and sorts the eigenvalues ascending, so the positive ones
    are a suffix.  This is the solver's inner kernel."""
    values, vectors = np.linalg.eigh(m)
    first = int(np.searchsorted(values, 0.0, side="right"))
    return vectors[:, first:] * np.sqrt(values[first:])


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


def _on_edges(y: np.ndarray, ei: np.ndarray, ej: np.ndarray, n: int) -> np.ndarray:
    """The symmetric n x n matrix with y_e at (i, j) and (j, i) for every
    edge e = (i, j), zero elsewhere."""
    out = np.zeros((n, n))
    out[ei, ej] = y
    out[ej, ei] = y
    return out


def _edge_multipliers(b: np.ndarray, z: np.ndarray, ei: np.ndarray, ej: np.ndarray) -> np.ndarray:
    """The y, one entry per edge, with (Y z + z Y)_ij = -z_ij on every edge,
    for Y = ``_on_edges(y)`` and z = B B^T, given both.

    The system is m x m and symmetric positive semidefinite: y^T A y is
    trace(Y z Y).  Up to ``CERT_DENSE_EDGES`` edges it is formed and solved
    directly.  Above that it is never formed: conjugate gradients run on
    y -> (Y z + z Y) on the edges, at O(n^2 rank(B)) a product, until the
    residual has fallen by ``CERT_CG_RTOL`` or for ``CERT_CG_ITERS`` steps.
    """
    n, m = len(b), len(ei)
    rhs = -np.einsum("ij,ij->i", b[ei], b[ej])
    if m <= CERT_DENSE_EDGES:
        # entry (e, f) sums, over the vertices v that edges e and f share,
        # z[other end of e, other end of f]
        a = np.zeros((m, m))
        ends = np.concatenate((ei, ej))
        others = np.concatenate((ej, ei))
        ids = np.concatenate((np.arange(m), np.arange(m)))
        order = np.argsort(ends, kind="stable")
        bounds = np.searchsorted(ends[order], np.arange(n + 1))
        for v in range(n):
            at_v = order[bounds[v]:bounds[v + 1]]
            a[np.ix_(ids[at_v], ids[at_v])] += z[np.ix_(others[at_v], others[at_v])]
        try:
            return np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError:  # exactly singular: no step
            return np.zeros(m)
    y = np.zeros(m)
    r = rhs
    p = r.copy()
    rr = float(r @ r)
    stop = CERT_CG_RTOL**2 * rr
    for _ in range(CERT_CG_ITERS):
        if rr <= stop:
            break
        yz = (_on_edges(p, ei, ej, n) @ b) @ b.T
        ap = yz[ei, ej] + yz[ej, ei]
        curvature = float(p @ ap)
        if not curvature > 0.0:
            break
        step = rr / curvature
        y += step * p
        r = r - step * ap
        rr, rr_prev = float(r @ r), rr
        p = r + (rr / rr_prev) * p
    return y


def _certificate(b: np.ndarray, z: np.ndarray, ei: np.ndarray, ej: np.ndarray) -> np.ndarray | None:
    """A trace-1 PSD point that is exactly 0 on every edge, near z = B B^T,
    given both, or None when the step overflows.

    One Gauss-Newton step B -> (I + Y) B, with Y supported on the edges and
    (Y z + z Y)_ij = -z_ij on every edge, cancels the edge entries of z to
    first order.  Each edge entry e that the step leaves is zeroed by adding
    the PSD block [[|e|, -e], [-e, |e|]] on rows and columns i and j, and
    the sum is divided by its trace.  Every term is PSD, so the result is,
    up to the roundoff of one product and one division.
    """
    n = len(b)
    with np.errstate(all="ignore"):
        step = b + _on_edges(_edge_multipliers(b, z, ei, ej), ei, ej, n) @ b
        x = step @ step.T
        left = np.abs(x[ei, ej])
        x[ei, ej] = 0.0
        x[ej, ei] = 0.0
        x.flat[:: n + 1] += np.bincount(ei, left, n) + np.bincount(ej, left, n)
        x /= float(x.trace())
    return x if np.isfinite(x).all() else None


def lovasz_theta(
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> ThetaSolution:
    """Solve the weighted Lovász-number SDP; the real optimum answers the
    Hermitian program too.

    Deterministic for fixed (graph, tol, max_iters).  On non-convergence X,
    value, lower and the residuals are those of the last check, at
    iteration max_iters, and upper the best seen, with the y that proves
    it.  A check that falls on an extrapolated point the safeguard rejects
    reads the last accepted point, so a report never comes from a runaway
    extrapolation.
    """
    _check_tol("tol", tol)
    if not _is_int(max_iters) or max_iters < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")

    n = g.n
    scale = g.weight_sum
    w_obj = weight_objective(g) / scale  # unit trace
    edges = _flat_edges(g)
    ei, ej = g.edge_arrays()
    rho = 1.0
    linear = w_obj / (2.0 * rho)
    t = np.eye(n) / n  # x = I/n, u = 0
    z = t
    dual = w_obj.copy()  # the M of the upper bound; edges set per check
    # each end of the bracket is widened by n eps sum(w): the order of the
    # roundoff in W . X and in lambda_max of a matrix of norm at most 1,
    # in the units of the weights
    roundoff = n * sys.float_info.epsilon * scale
    # the check's state: the best upper with the dual's edge entries that
    # give it, and stage 4's back-off (gated checks left to skip, and the
    # skip after a miss)
    upper, y = np.inf, None
    cert_wait, cert_backoff = 0, 1

    def check(at, az, ab, rho, last):
        """Stages 1-4 at the point t = ``at`` with z = ``az`` = B B^T,
        B = ``ab``: the report (X, value, lower, primal, psd), or None when
        stage 1 misses, and whether the solve has converged.  A stage runs
        only if the criteria before it are met, or at the forced last check."""
        nonlocal upper, y, cert_wait, cert_backoff
        primal = max(abs(float(az.trace()) - 1.0),
                     float(np.max(np.abs(az.flat[edges]), initial=0.0)))
        if not (primal <= tol or last):
            return None, False
        x = _affine_part(az.copy(), edges)
        psd = max(0.0, -float(np.linalg.eigvalsh(x)[0]))
        value = scale * float(np.sum(w_obj * x))
        lower = (value + psd * scale) / (1.0 + n * psd) - roundoff
        if not (psd <= tol or last):
            return (x, value, lower, primal, psd), False
        dual.flat[edges] = 2.0 * rho * (at.flat[edges] - az.flat[edges])
        bound = scale * float(np.linalg.eigvalsh(dual)[-1]) + roundoff
        if bound < upper:
            # eigvalsh reads the lower triangle, where edge (i, j), i < j, is (j, i)
            upper, y = bound, dual[ej, ei]
        missed = _unmet(primal, psd, lower, upper, tol)
        # stage 4, when a lossless lower end would close the gap
        if missed.keys() == {"relative gap"} and upper - value <= tol * upper:
            if cert_wait:
                cert_wait -= 1
            else:
                x_cert = _certificate(ab, az, ei, ej)
                if x_cert is not None:
                    value_cert = scale * float(np.sum(w_obj * x_cert))
                    if value_cert - roundoff > lower:
                        x, value = x_cert, value_cert
                        lower = value - roundoff
                        missed = _unmet(primal, psd, lower, upper, tol)
                if missed:
                    cert_wait, cert_backoff = cert_backoff, 2 * cert_backoff
        return (x, value, lower, primal, psd), not missed

    # Anderson state: the last accepted point with its PSD part and that
    # part's factor, its image g = T(t) = t + f, its step f (flat) and the
    # step's norm; ring buffers of the differences of accepted images and
    # of accepted steps (row ``slot`` is written next, the first ``count``
    # rows are filled), and the Gram matrix of the step differences, one
    # row and column updated per append
    anchor = anchor_z = anchor_b = anchor_image = step = None
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
    report = None  # max_iters >= 1, and the forced last check always reports

    while iterations < max_iters:
        iterations += 1
        # The linear term W/(2 rho) makes this ADMM on the objective W/2, which
        # has the same optimal X.  Its PSD multiplier is rho u, so the dual of
        # the program in W is 2 rho u, the M of the upper bound.  The step and
        # that factor go together: on the benchmark's sdp corpus, without
        # acceleration, W/rho with 2 rho u caps every solve at 10k iterations,
        # and W/rho with rho u takes 9,300 iterations in all against 8,300.
        z_prev = z
        # numpy hands a product of an array with its own transpose to BLAS
        # syrk, which computes one triangle and mirrors it, so z is bitwise
        # symmetric without a symmetrizing pass
        b = _psd_factor(t)
        z = b @ b.T
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
            # a report must not come from a point the safeguard rejects:
            # read the last accepted one
            point = (anchor, anchor_z, anchor_b) if rejected else (t, z, b)
            checked, converged = check(*point, rho, last)
            report = checked or report
            if converged:
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
        anchor, anchor_z, anchor_b, anchor_image, step, step_norm = t, z, b, image, f_flat, f_norm
        t = image
        extrapolated = False
        reg = ANDERSON_REG * float(gram[:count, :count].trace())  # 0 with no memory
        if reg > 0.0:
            normal = gram[:count, :count] + reg * eye[:count, :count]
            gamma = np.linalg.solve(normal, dfs[:count] @ f_flat)
            t = image - (gamma @ dgs[:count]).reshape(n, n)
            extrapolated = True

    x, value, lower, primal, psd = report
    return ThetaSolution(X=x, value=value, lower=lower, upper=upper, primal_residual=primal,
                         psd_residual=psd, iterations=iterations, converged=converged, y=y)


# a second name for the one solve, kept because bench/workloads.py reads it
lovasz_theta_complex = lovasz_theta
