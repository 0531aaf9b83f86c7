"""Complex-to-real conversion of optimal orthogonal representations.

Everything rests on the PSD-preserving embedding of a Hermitian matrix
A + iB into the real symmetric block matrix [[A, -B], [B, A]] (whose
spectrum is that of A + iB with every multiplicity doubled), and on the
map M that stacks a complex vector's real parts over its imaginary parts.
M intertwines the two: block_embed(P) @ M(x) == M(P @ x).

Both constructions are one kernel, the real-over-imaginary stack of the
phase-aligned vectors:

* ``projector_realify`` (dimension 2d) is that stack.  It equals the
  operator construction, which compresses each embedded rank-2 projector
  Q_i = block_embed(v_i v_i^H) onto a rank-1 piece of the embedded state,
  because Q_i M(psi) = M(<v_i|psi> v_i).
* ``vector_realify`` (dimension 2d - 1) is the same stack with the handle
  first rotated onto e1, minus coordinate d: it holds the imaginary part
  of every first component, which the rephasing makes zero.

Both preserve the achieved value and all edge orthogonalities exactly (up
to roundoff).
"""

from __future__ import annotations

import numpy as np

from .graph import ExclusivityGraph
from .loor import OrthRep, _check_aligned
from .numerics import _checked_hermitian, basis_to_e1

__all__ = [
    "block_embed",
    "realify_map_M",
    "phase_align",
    "projector_realify",
    "vector_realify",
]


def block_embed(m) -> np.ndarray:
    """Embed Hermitian A + iB as the real symmetric block [[A, -B], [B, A]].

    The input must be square, nonempty, finite and Hermitian within
    ``numerics.SYMMETRY_TOL`` (relative).
    """
    h = _checked_hermitian(m)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def realify_map_M(v) -> np.ndarray:
    """Stack a complex vector's real parts over its imaginary parts.

    Real-linear and norm-preserving; for the output, <M(u)|M(v)> equals
    Re <u|v>.  Coordinate order is all real parts first, then all
    imaginary parts, matching the block layout of ``block_embed`` so that
    block_embed(P) @ realify_map_M(x) == realify_map_M(P @ x).  An (n, d)
    array maps row by row to an (n, 2d) array.
    """
    a = np.asarray(v, dtype=complex)
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a vector or an (n, d) array, got shape {a.shape}")
    return np.concatenate([a.real, a.imag], axis=-1)


def phase_align(rep: OrthRep) -> OrthRep:
    """Rephase each vector so its handle overlap is real and nonnegative.

    Multiplying v_i by the unit phase conj(<psi|v_i>)/|<psi|v_i>| leaves
    every |<psi|v_i>|^2 and every pairwise |<v_i|v_j>| unchanged.  Vectors
    with vanishing overlap (below 1e-12) are left as they are.
    """
    r = rep.as_complex()
    amp = r.vectors @ r.handle.conj()
    mag = np.abs(amp)
    phase = np.where(mag > 1e-12, np.conj(amp) / np.where(mag > 1e-12, mag, 1.0), 1.0)
    return OrthRep("complex", r.dim, r.handle, phase[:, None] * r.vectors)


def projector_realify(rep: OrthRep, g: ExclusivityGraph) -> OrthRep:
    """Operator-side conversion of a complex representation to dimension 2d.

    With a = M(psi) and Q_i = block_embed(v_i v_i^H), the compression of Q_i
    onto the rank-1 state a a^T / 2 is Q_i a a^T Q_i / (a^T Q_i a), the
    outer product of Q_i a / |Q_i a| = M(phase * v_i) with the phase that
    makes <psi|v_i> real and nonnegative.  So the output handle is M(psi)
    and output vector i is M of the phase-aligned v_i.  A vector orthogonal
    to the handle is left unrotated: any unit vector in range(Q_i) keeps
    every orthogonality and contributes nothing to the value.
    """
    _check_aligned(rep, g)
    aligned = phase_align(rep)
    return OrthRep("real", 2 * aligned.dim, realify_map_M(aligned.handle),
                   realify_map_M(aligned.vectors))


def vector_realify(rep: OrthRep, g: ExclusivityGraph) -> OrthRep:
    """Vector-side conversion of a complex representation to dimension 2d - 1.

    Rotate the handle onto e1, take ``projector_realify``, then delete
    coordinate d, the imaginary part of the first component: zero for the
    handle e1, and zero for every vector because its handle overlap, its
    first component, was made real.
    """
    r = rep.as_complex()
    d = r.dim
    u = basis_to_e1(r.handle)
    out = projector_realify(OrthRep("complex", d, u @ r.handle, r.vectors @ u.T), g)
    return OrthRep("real", 2 * d - 1, np.delete(out.handle, d), np.delete(out.vectors, d, axis=1))
