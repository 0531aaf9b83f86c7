"""Dense linear algebra for desk-scale symmetric and Hermitian problems.

Matrices are plain numpy arrays, real symmetric or complex Hermitian;
every routine keeps the input's field.  ``hermitize`` tightens
almost-(conjugate-)symmetric input into exactly symmetric storage, so
downstream residual checks never see asymmetry noise.  Eigenproblems are
delegated to LAPACK through numpy, which is deterministic for identical
input bits on a fixed build.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "hermitize",
    "gram_factor",
]

# relative tolerance for accepting input as symmetric / Hermitian
SYMMETRY_TOL = 1e-8
# absolute tolerance for accepting a vector as unit norm
UNIT_TOL = 1e-8
# default floor, relative to max(1, lambda_max), below which gram_factor
# calls a matrix not positive semidefinite
PSD_TOL = 1e-6
# gram_factor keeps the eigenvalues above RANK_TOL * lambda_max
RANK_TOL = 1e-7


def hermitize(m) -> np.ndarray:
    """Return (M + M^H)/2: bitwise (conjugate) symmetric, real diagonal.

    Real input stays real (float64), complex input stays complex.
    """
    a = np.asarray(m)
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    return (a + a.conj().T) / 2.0


def _checked_hermitian(m) -> np.ndarray:
    """Hermitized copy of a square, finite, nonempty, (conjugate) symmetric matrix."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("matrix must have size >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix must be finite and Hermitian, got non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    dev = float(np.max(np.abs(a - a.conj().T)))
    if dev > SYMMETRY_TOL * scale:
        raise ValueError(f"matrix deviates from Hermitian (conjugate) symmetry by {dev:.3e}")
    return hermitize(a)


def _check_tol(name: str, value) -> None:
    """Refuse a tolerance that is a bool or not a positive, finite number."""
    if isinstance(value, (bool, np.bool_)) or not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _norm_deviation(v) -> np.ndarray:
    """|norm - 1| of a vector, or of each row of an (n, d) array."""
    a = np.asarray(v)
    norms = np.linalg.norm(a) if a.ndim == 1 else np.linalg.norm(a, axis=1)
    return np.abs(norms - 1.0)


def psd_part(m: np.ndarray) -> np.ndarray:
    """Positive part of a symmetric or Hermitian matrix, without input checks:
    the nearest positive-semidefinite matrix in Frobenius norm.

    Keeps the eigenpairs with positive eigenvalue and recomposes; eigh reads
    one triangle only and sorts the eigenvalues ascending, so the positive
    ones are a suffix.  The result is bitwise symmetric (Hermitian).  This is
    the solver's inner kernel.
    """
    values, vectors = np.linalg.eigh(m)
    first = int(np.searchsorted(values, 0.0, side="right"))
    if first == values.size:
        return np.zeros_like(m)
    # copy the kept columns column-major: the operand layout selects the
    # BLAS kernel, and so the product's last bits and the solver's path
    vp = np.asfortranarray(vectors[:, first:])
    p = (vp * values[first:]) @ vp.conj().T
    return (p + p.conj().T) / 2.0


def gram_factor(x, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Factor a PSD matrix X into Y with Y^T Y = X, Y of shape (r, n).

    r is the number of eigenvalues above ``RANK_TOL * lambda_max``; column
    y_i of Y is the vector attached to index i.  Raises on materially
    non-PSD input: an eigenvalue below -psd_tol * max(1, lambda_max), widened
    by n eps lambda_max of roundoff.  A solver optimum of unit trace that
    is PSD up to a residual p <= tol passes with ``psd_tol=tol``.
    """
    _check_tol("psd_tol", psd_tol)
    if np.iscomplexobj(x):
        raise ValueError("gram_factor expects a real matrix; take the real part first")
    values, vectors = np.linalg.eigh(_checked_hermitian(x))
    lam_max = max(float(values[-1]), 0.0)
    roundoff = values.size * np.finfo(float).eps * lam_max
    if float(values[0]) < -psd_tol * max(1.0, lam_max) - roundoff:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {values[0]:.3e}"
        )
    keep = values > RANK_TOL * lam_max
    return np.sqrt(values[keep])[:, None] * vectors[:, keep].T
