"""Dense linear algebra for desk-scale symmetric and Hermitian problems:
hermitization, input checks and the solver's PSD projection.

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
]

# relative tolerance for accepting input as symmetric / Hermitian
SYMMETRY_TOL = 1e-8
# absolute tolerance for accepting a vector as unit norm
UNIT_TOL = 1e-8


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
    """|norm - 1| of a vector, or of each row of an (n, d) array; inf on overflow."""
    a = np.asarray(v)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(a) if a.ndim == 1 else np.linalg.norm(a, axis=1)
    return np.abs(norms - 1.0)


def psd_part(m: np.ndarray) -> np.ndarray:
    """Positive part of a symmetric or Hermitian matrix, without input checks:
    the nearest positive-semidefinite matrix in Frobenius norm.

    Keeps the eigenpairs with positive eigenvalue and recomposes; eigh reads
    one triangle only and sorts the eigenvalues ascending, so the positive
    ones are a suffix.  The result is bitwise symmetric (Hermitian).  This is
    the solver's inner kernel.

    A real matrix is recomposed as B B^T with B = V sqrt(lambda) over the
    kept pairs.  numpy hands a product of an array with its own transpose
    to BLAS syrk, which computes one triangle and mirrors it, so the result
    is bitwise symmetric without a symmetrizing pass.  A Hermitian matrix is
    recomposed by a general product and symmetrized.
    """
    values, vectors = np.linalg.eigh(m)
    first = int(np.searchsorted(values, 0.0, side="right"))
    if first == values.size:
        return np.zeros_like(m)
    if not np.iscomplexobj(vectors):
        b = vectors[:, first:] * np.sqrt(values[first:])
        return b @ b.T
    # copy the kept columns column-major: the operand layout selects the
    # BLAS kernel, and so the product's last bits
    vp = np.asfortranarray(vectors[:, first:])
    p = (vp * values[first:]) @ vp.conj().T
    return (p + p.conj().T) / 2.0
