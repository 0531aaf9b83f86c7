"""Dense linear algebra for desk-scale symmetric and Hermitian problems.

Matrices are plain numpy arrays.  ``symmetrize``/``hermitize`` tighten
almost-symmetric input into exactly symmetric storage, so downstream
residual checks never see asymmetry noise.  Eigenproblems are delegated
to LAPACK through numpy, which is deterministic for identical input bits
on a fixed build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenDecomposition",
    "symmetrize",
    "hermitize",
    "sym_eig",
    "herm_eig",
    "psd_part",
    "psd_project",
    "gram_factor",
    "basis_to_e1",
]

# relative tolerance for accepting input as symmetric / Hermitian
SYMMETRY_TOL = 1e-8


@dataclass
class EigenDecomposition:
    """Full spectrum, values ascending; vectors[:, k] pairs with values[k]."""

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.vectors
        return (v * self.values) @ v.conj().T


def _as_square(m, name: str = "matrix") -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2, which is bitwise symmetric."""
    a = np.asarray(m, dtype=float)
    return (a + a.T) / 2.0


def hermitize(m) -> np.ndarray:
    """Return (M + M^H)/2, bitwise Hermitian with exactly real diagonal."""
    a = np.asarray(m, dtype=complex)
    return (a + a.conj().T) / 2.0


def _check_symmetry(a: np.ndarray, name: str) -> None:
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    dev = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if dev > SYMMETRY_TOL * scale:
        raise ValueError(f"{name} deviates from (conjugate) symmetry by {dev:.3e}")


def sym_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix, spectrum ascending."""
    a = _as_square(m)
    if np.iscomplexobj(a):
        raise ValueError("sym_eig expects a real matrix; use herm_eig for complex input")
    if a.shape[0] == 0:
        raise ValueError("matrix must have size >= 1")
    _check_symmetry(a, "matrix")
    values, vectors = np.linalg.eigh(symmetrize(a))
    return EigenDecomposition(values=values, vectors=vectors)


def herm_eig(m) -> EigenDecomposition:
    """Eigendecomposition of a complex Hermitian matrix; real ascending values."""
    a = _as_square(m)
    if a.shape[0] == 0:
        raise ValueError("matrix must have size >= 1")
    _check_symmetry(a, "matrix")
    values, vectors = np.linalg.eigh(hermitize(a))
    return EigenDecomposition(values=values, vectors=vectors)


def psd_part(m: np.ndarray) -> np.ndarray:
    """Positive part of a symmetric or Hermitian matrix, without input checks.

    Keeps the eigenpairs with positive eigenvalue and recomposes; eigh reads
    one triangle only.  The result is bitwise symmetric (Hermitian).  This is
    the solver's inner kernel; ``psd_project`` is the checked entry point.
    """
    values, vectors = np.linalg.eigh(m)
    pos = values > 0.0
    if not np.any(pos):
        return np.zeros_like(m)
    vp = vectors[:, pos]
    p = (vp * values[pos]) @ vp.conj().T
    return (p + p.conj().T) / 2.0


def psd_project(m) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm.

    Accepts real symmetric or complex Hermitian input.  Clips negative
    eigenvalues to zero and recomposes; idempotent up to roundoff.
    """
    a = _as_square(m)
    if a.shape[0] == 0:
        raise ValueError("matrix must have size >= 1")
    _check_symmetry(a, "matrix")
    return psd_part(hermitize(a) if np.iscomplexobj(a) else symmetrize(a))


def gram_factor(x, rank_tol: float = 1e-7) -> np.ndarray:
    """Factor a PSD matrix X into Y with Y^T Y = X, Y of shape (r, n).

    r is the number of eigenvalues above ``rank_tol * lambda_max``; column
    y_i of Y is the vector attached to index i.  Raises on materially
    non-PSD input (an eigenvalue below -max(1e-6 * lambda_max, 1e-8)).
    """
    if not (rank_tol > 0 and math.isfinite(rank_tol)):
        raise ValueError("rank_tol must be positive and finite")
    eig = sym_eig(x)
    lam_max = max(float(eig.values[-1]), 0.0)
    if float(eig.values[0]) < -max(1e-6 * lam_max, 1e-8):
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {eig.values[0]:.3e}"
        )
    keep = eig.values > rank_tol * lam_max
    lam = np.clip(eig.values[keep], 0.0, None)
    return (np.sqrt(lam)[:, None] * eig.vectors[:, keep].T)


def basis_to_e1(psi) -> np.ndarray:
    """Unitary (orthogonal, for real input) U with U @ psi = e1.

    Built from a Householder reflection whose mirror vector adds
    ``phase(psi[0]) * e1`` (the cancellation-free choice, + on a zero
    first component), followed by a deterministic row rescaling so the
    image lands on +e1 with any phase absorbed.  Returns the identity
    when psi is already e1 to within 1e-12.
    """
    v = np.asarray(psi)
    if v.ndim != 1 or v.size == 0:
        raise ValueError(f"psi must be a nonempty vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("psi contains non-finite entries")
    nrm = float(np.linalg.norm(v))
    if nrm <= 1e-12:
        raise ValueError("psi is the zero vector")
    if abs(nrm - 1.0) > 1e-10:
        raise ValueError(f"psi must be a unit vector, got norm {nrm!r}")

    is_complex = np.iscomplexobj(v)
    dtype = complex if is_complex else float
    d = v.size
    e1 = np.zeros(d, dtype=dtype)
    e1[0] = 1.0
    if np.linalg.norm(v - e1) <= 1e-12:
        return np.eye(d, dtype=dtype)

    first = complex(v[0])
    if is_complex:
        phase = first / abs(first) if abs(first) > 0.0 else 1.0 + 0.0j
    else:
        phase = -1.0 if first.real < 0.0 else 1.0

    u = v.astype(dtype) + phase * e1
    h = np.eye(d, dtype=dtype) - 2.0 * np.outer(u, u.conj()) / np.vdot(u, u).real
    # Householder sends psi to -phase * e1; fix the first row to land on +e1.
    h[0, :] *= -np.conj(phase)
    return h
