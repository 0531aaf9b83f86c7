"""Complex-to-real conversion of optimal orthogonal representations.

Everything rests on the PSD-preserving embedding of a Hermitian matrix
A + iB into the real symmetric block matrix [[A, -B], [B, A]] (whose
spectrum is that of A + iB with every multiplicity doubled), and on the
map M that stacks a complex vector's real parts over its imaginary parts.
M intertwines the two: block_embed(P) @ M(x) == M(P @ x).

Both constructions are one kernel, the real-over-imaginary stack of the
phase-aligned vectors, each v_i rephased so that <psi|v_i> is real and
nonnegative:

* ``projector_realify`` (dimension 2d) is that stack.  It equals the
  operator construction, which compresses each embedded rank-2 projector
  Q_i = block_embed(v_i v_i^H) onto a rank-1 piece of the embedded state,
  because Q_i M(psi) = M(<v_i|psi> v_i).
* ``vector_realify`` (dimension 2d - 1) is that stack minus one direction.
  Every row, and the handle M(psi), is orthogonal to the unit vector
  b = M(i psi), because <M(i psi)|M(x)> = Im <psi|x> and the rephasing
  made every <psi|v_i> real.  A real reflection sends b to a coordinate
  axis, which is then deleted.

Both preserve the achieved value and all edge orthogonalities exactly (up
to roundoff).
"""

from __future__ import annotations

import numpy as np

from .graph import DEFAULT_TOL, ExclusivityGraph
from .loor import OrthRep, _check_aligned, _checked_hermitian, _numeric, _rectangular

__all__ = [
    "block_embed",
    "realify_map_M",
    "projector_realify",
    "vector_realify",
]


def block_embed(m) -> np.ndarray:
    """Embed Hermitian A + iB as the real symmetric block [[A, -B], [B, A]].

    The input must be square, nonempty, finite and Hermitian within
    ``graph.DEFAULT_TOL`` (relative).
    """
    h = _checked_hermitian(m, DEFAULT_TOL)
    return np.block([[h.real, -h.imag], [h.imag, h.real]])


def realify_map_M(v) -> np.ndarray:
    """Stack a complex vector's real parts over its imaginary parts.

    Real-linear and norm-preserving; for the output, <M(u)|M(v)> equals
    Re <u|v>.  Coordinate order is all real parts first, then all
    imaginary parts, matching the block layout of ``block_embed`` so that
    block_embed(P) @ realify_map_M(x) == realify_map_M(P @ x).  An (n, d)
    array maps row by row to an (n, 2d) array.
    """
    a = _rectangular(v, "v", "shape (d,) or (n, d)")
    if a.ndim not in (1, 2):
        raise ValueError(f"expected a vector or an (n, d) array, got shape {a.shape}")
    a = np.asarray(_numeric(a, v, "v"), dtype=complex)
    return np.concatenate([a.real, a.imag], axis=-1)


def projector_realify(rep: OrthRep, g: ExclusivityGraph) -> OrthRep:
    """Operator-side conversion of a complex representation to dimension 2d.

    With a = M(psi) and Q_i = block_embed(v_i v_i^H), the compression of Q_i
    onto the rank-1 state a a^T / 2 is Q_i a a^T Q_i / (a^T Q_i a), the
    outer product of Q_i a / |Q_i a| = M(phase * v_i) with the phase that
    makes <psi|v_i> real and nonnegative.  So the output handle is M(psi)
    and output vector i is M of the phase-aligned v_i: v_i times the unit
    phase conj(<psi|v_i>)/|<psi|v_i>|, which leaves every |<psi|v_i>|^2
    and every |<v_i|v_j>| unchanged.  A vector with |<psi|v_i>| at most
    ``graph.DEFAULT_TOL`` is left unrotated: any phase keeps every
    orthogonality, and its share of the value is below DEFAULT_TOL^2 w_i.
    """
    _check_aligned(rep, g)
    amp = rep.vectors @ rep.handle.conj()
    mag = np.abs(amp)
    phase = np.where(mag > DEFAULT_TOL, np.conj(amp) / np.maximum(mag, DEFAULT_TOL), 1.0)
    return OrthRep("real", 2 * rep.dim, realify_map_M(rep.handle),
                   realify_map_M(phase[:, None] * rep.vectors))


def vector_realify(rep: OrthRep, g: ExclusivityGraph) -> OrthRep:
    """Vector-side conversion of a complex representation to dimension 2d - 1.

    Take ``projector_realify``: its handle M(psi) and every vector are
    orthogonal to the unit vector b = M(i psi), since <M(i psi)|M(x)> =
    Im <psi|x> vanishes for x = psi and for each phase-aligned v_i.  One
    real Householder reflection sends b onto the axis e_d; its mirror
    vector b + sign(b[d]) |b| e_d takes the sign of b[d] = Re psi[0], so it
    never cancels.  Coordinate d then holds each row's component along b,
    Im <psi|v_i>: zero, or at most DEFAULT_TOL if unrotated.  It is deleted.
    """
    out = projector_realify(rep, g)
    d = rep.dim
    u = realify_map_M(1j * rep.handle)
    u[d] += np.copysign(np.linalg.norm(u), u[d])
    h = np.eye(2 * d) - np.outer(u, u) * (2.0 / (u @ u))
    return OrthRep("real", 2 * d - 1, np.delete(out.handle @ h, d),
                   np.delete(out.vectors @ h, d, axis=1))
