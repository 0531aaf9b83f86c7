"""Orthogonal representations with a handle vector: the achieved-value
functional, verification, the representation <-> Gram-matrix bridges, and
the operator certificate for state-independence.

Wire format (UTF-8 JSON)::

    {"field": "real"|"complex", "dim": <int>, "handle": [<scalar> ...],
     "vectors": [[<scalar> ...] ...]}

where a real scalar is a JSON number and a complex scalar a two-element
array [re, im].  ``parse_rep`` decodes it, the ``OrthRep`` constructor
validates it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .graph import (DEFAULT_TOL, INPUT_TOL, ExclusivityGraph, _check_numbers, _check_tol, _is_int,
                    _is_number, _load_document, _norm_deviation, _walk, max_edge_overlap)

__all__ = [
    "OrthRep",
    "RepFormatError",
    "VerificationReport",
    "parse_rep",
    "serialize_rep",
    "rep_value",
    "verify_rep",
    "gram_from_rep",
    "rep_from_gram",
    "certify_operator",
    "hermitize",
]

# rep_from_gram keeps the eigenvalues of X above RANK_TOL * lambda_max
RANK_TOL = 1e-7


class RepFormatError(ValueError):
    """Raised when a representation document does not match the wire schema."""


def _field_dtype(field) -> type:
    """Scalar type of a representation's field; the one check of 'field'."""
    if field not in ("real", "complex"):
        raise ValueError(f"'field' must be 'real' or 'complex', got {field!r}")
    return complex if field == "complex" else float


def _max_norm_deviation(handle: np.ndarray, vectors: np.ndarray) -> float:
    """Worst |norm - 1| over the handle and the vector rows."""
    return float(np.max(np.concatenate(([_norm_deviation(handle)], _norm_deviation(vectors)))))


def _rectangular(x, name: str, shape: str) -> np.ndarray:
    """``np.asarray(x)``, refusing ragged or too deep nesting with a message
    that names the field and the ``shape`` it must have."""
    try:
        return np.asarray(x)
    except ValueError as exc:  # numpy's "inhomogeneous shape" or its dimension limit
        deep = "maximum number of dimension" in str(exc)
        got = "nesting deeper than numpy's maximum number of dimensions" if deep else "ragged rows"
        raise ValueError(f"'{name}' must have {shape}, got {got}") from None


@dataclass(frozen=True, eq=False)
class OrthRep:
    """A handle vector plus one unit vector per graph vertex.

    ``vectors`` has shape (n, dim), n >= 1, with row i aligned to vertex i
    of the graph it represents.  The constructor validates input from any
    source: field, dim, the shapes, that every entry is a number (a real
    one in the real field; a bool or a string is refused, naming the
    entry), and that all vectors are finite and unit within
    ``graph.INPUT_TOL``; orthogonality on edges is checked by verify_rep.
    ``handle`` and ``vectors`` are read-only copies, so a checked
    representation stays checked.
    """

    field: str
    dim: int
    handle: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        dtype = _field_dtype(self.field)
        if not _is_int(self.dim) or self.dim < 1:
            raise ValueError(f"'dim' must be a positive integer, got {self.dim!r}")
        dim = int(self.dim)
        handle = _rectangular(self.handle, "handle", f"length {dim}")
        vectors = _rectangular(self.vectors, "vectors", f"shape (n, {dim})")
        if handle.shape != (dim,):
            raise ValueError(f"'handle' must have length {dim}, got shape {handle.shape}")
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ValueError(f"'vectors' must have shape (n, {dim}), got {vectors.shape}")
        _check_numbers(self.handle, handle.shape, "handle", dtype is complex)
        _check_numbers(self.vectors, vectors.shape, "vectors", dtype is complex)
        handle = np.array(handle, dtype=dtype)  # copies: the caller's arrays stay theirs
        vectors = np.array(vectors, dtype=dtype)
        if not (np.all(np.isfinite(handle)) and np.all(np.isfinite(vectors))):
            raise ValueError("representation contains non-finite entries")
        worst = _max_norm_deviation(handle, vectors)
        if worst > INPUT_TOL:
            raise ValueError(f"handle/vectors must be unit norm (worst deviation {worst:.3e})")
        if vectors.shape[0] == 0:
            raise ValueError("'vectors' must hold at least one vector, got none")
        handle.flags.writeable = False
        vectors.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "handle", handle)
        object.__setattr__(self, "vectors", vectors)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]


@dataclass
class VerificationReport:
    value: float
    max_norm_residual: float
    max_edge_residual: float
    per_vertex_overlap: np.ndarray
    passed: bool
    sic_spectrum: np.ndarray | None = None
    sic: bool | None = None


def _from_pairs(x, name: str, depth: int) -> np.ndarray:
    """The [re, im] pairs ``depth`` lists deep in a complex document's field
    ``name`` as complex values: the pairs' shape is checked in bulk, their
    components by the number check, and only a failure is walked."""
    try:
        a = np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape"
        a = None
    if a is not None and a.size == 0:
        return a.astype(complex)  # the constructor refuses it by its shape
    if a is None or a.shape[depth:] != (2,):
        _walk(x, name, depth, ("a [re, im] pair", lambda s: (
            isinstance(s, list) and len(s) == 2 and not any(isinstance(c, list) for c in s))))
        raise ValueError(f"'{name}' must have rows of one length, got ragged rows")
    _check_numbers(x, a.shape, name)
    return np.asarray(a, dtype=float).view(complex)[..., 0]


def _json_scalars(a: np.ndarray, is_complex: bool) -> list:
    """An array's entries as JSON scalars: floats, or [re, im] pairs."""
    return (np.stack((a.real, a.imag), axis=-1) if is_complex else a).tolist()


def parse_rep(text: str) -> OrthRep:
    """Decode a representation document; the constructor validates it.

    A real document's ``handle`` and ``vectors`` go to ``OrthRep`` as
    decoded; a complex document's [re, im] pairs are first read as complex
    values.  Raises RepFormatError.
    """
    doc = _load_document(text, "representation", ("field", "dim", "handle", "vectors"),
                         RepFormatError)
    try:
        handle, vectors = doc["handle"], doc["vectors"]
        if doc["field"] == "complex":
            handle, vectors = _from_pairs(handle, "handle", 1), _from_pairs(vectors, "vectors", 2)
        return OrthRep(doc["field"], doc["dim"], handle, vectors)
    except ValueError as exc:
        raise RepFormatError(str(exc)) from exc


def serialize_rep(rep: OrthRep, indent: int | None = None) -> str:
    is_complex = rep.field == "complex"
    doc = {
        "field": rep.field,
        "dim": rep.dim,
        "handle": _json_scalars(rep.handle, is_complex),
        "vectors": _json_scalars(rep.vectors, is_complex),
    }
    return json.dumps(doc, indent=indent)


def _check_aligned(rep: OrthRep, g: ExclusivityGraph) -> None:
    if rep.n != g.n:
        raise ValueError(f"representation has {rep.n} vectors but graph has {g.n} vertices")


def _overlaps(rep: OrthRep) -> np.ndarray:
    """Handle overlaps |<psi|v_i>|^2, one per vertex."""
    amp = rep.vectors @ rep.handle.conj()
    return np.abs(amp) ** 2


def rep_value(rep: OrthRep, g: ExclusivityGraph) -> float:
    """Achieved value sum_i w_i |<psi|v_i>|^2 of a representation."""
    _check_aligned(rep, g)
    return float(np.dot(g.weights, _overlaps(rep)))


def verify_rep(
    rep: OrthRep,
    g: ExclusivityGraph,
    tol: float = DEFAULT_TOL,
    target: float | None = None,
    with_sic: bool = False,
) -> VerificationReport:
    """Residual report for a representation; failures are reported, not raised.

    The one tolerance ``tol`` bounds the norm and edge residuals and, when
    a ``target`` is given, |value - target| relative to sum(w): the value
    is 1-homogeneous in the weights, so the check is scale-free.

    Raises ValueError on a misaligned graph, on ``tol`` not positive and
    finite, and on a ``target`` that is not a finite number; a bool is
    refused for both.
    """
    _check_aligned(rep, g)
    _check_tol("tol", tol)
    if target is not None and not (_is_number(target) and math.isfinite(target)):
        raise ValueError(f"target must be a finite number, got {target!r}")
    max_norm = _max_norm_deviation(rep.handle, rep.vectors)
    max_edge = max_edge_overlap(rep.vectors, g)
    overlap = _overlaps(rep)
    value = float(np.dot(g.weights, overlap))
    passed = max_norm <= tol and max_edge <= tol
    if target is not None:
        passed = passed and abs(value - target) <= tol * g.weight_sum
    spectrum = None
    sic = None
    if with_sic:
        _, spectrum, sic = certify_operator(rep, g)
    return VerificationReport(
        value=value,
        max_norm_residual=max_norm,
        max_edge_residual=max_edge,
        per_vertex_overlap=overlap,
        passed=passed,
        sic_spectrum=spectrum,
        sic=sic,
    )


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
    if dev > INPUT_TOL * scale:
        raise ValueError(f"matrix deviates from Hermitian (conjugate) symmetry by {dev:.3e}")
    return hermitize(a)


def gram_from_rep(rep: OrthRep, g: ExclusivityGraph) -> np.ndarray:
    """Feasible Gram-like matrix attaining the representation's value.

    X_ij = sqrt(w_i w_j) <psi|v_i><v_j|psi><v_i|v_j> / S with S the achieved
    value: the Gram matrix of sqrt(w_i)<v_i|psi>|v_i>/sqrt(S).  It has unit
    trace, zeros on edges, and is PSD; W.X >= S, with equality exactly when
    the handle is an eigenvector of sum_i w_i |v_i><v_i|.
    """
    _check_aligned(rep, g)
    amp = rep.vectors @ rep.handle.conj()  # <psi|v_i>
    s = float(np.dot(g.weights, np.abs(amp) ** 2))  # the achieved value, as rep_value has it
    if s <= 1e-12 * float(np.max(g.weights)):
        raise ValueError(f"degenerate representation: achieved value {s!r}")
    scaled = (np.sqrt(g.weights) * np.conj(amp))[:, None] * rep.vectors
    x = scaled.conj() @ scaled.T / s
    return hermitize(x)


def rep_from_gram(x, g: ExclusivityGraph, tol: float = DEFAULT_TOL) -> OrthRep:
    """Extract a real representation from a feasible optimum of the SDP.

    Factors X = Y^T Y from its eigenvalues above ``RANK_TOL * lambda_max``,
    normalizes the factor columns y_i into vertex vectors, and reconstructs
    the handle from sum_i sqrt(w_i) y_i (proportional to the top
    eigenvector of the weighted projector sum at an optimum).  Vertices
    whose factor column vanishes get a fresh appended coordinate axis each,
    which keeps them unit and orthogonal to everything previously present.

    A complex (Hermitian) X is replaced by its real part: Re X has the same
    trace, zero edges and value, and is PSD, so it is a real optimum.
    ``tol`` bounds X's trace and edge deviations and is the PSD refusal
    floor: X is refused when an eigenvalue lies below
    -tol * max(1, lambda_max), widened by n eps lambda_max of roundoff.
    Pass the tolerance X was solved at, so that X's own residuals are
    accepted; the default is the solver's, ``graph.DEFAULT_TOL``.
    """
    _check_tol("tol", tol)
    a = np.asarray(np.real(x), dtype=float)
    if a.shape != (g.n, g.n):
        raise ValueError(f"expected a {g.n} x {g.n} matrix, got shape {a.shape}")
    tr_dev = abs(float(np.trace(a)) - 1.0)
    ei, ej = g.edge_arrays()
    edge_dev = float(np.max(np.abs(a[ei, ej]), initial=0.0))
    if max(tr_dev, edge_dev) > tol:
        raise ValueError(
            f"matrix is not feasible: trace deviation {tr_dev:.3e}, "
            f"edge deviation {edge_dev:.3e}"
        )
    values, vectors = np.linalg.eigh(_checked_hermitian(a))
    lam_max = max(float(values[-1]), 0.0)
    roundoff = g.n * np.finfo(float).eps * lam_max
    if float(values[0]) < -tol * max(1.0, lam_max) - roundoff:
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {values[0]:.3e}"
        )
    keep = values > RANK_TOL * lam_max
    y = np.sqrt(values[keep])[:, None] * vectors[:, keep].T
    r = y.shape[0]
    if r == 0:
        raise ValueError("matrix has numerical rank 0")
    norms = np.linalg.norm(y, axis=0)
    handle_raw = y @ np.sqrt(g.weights)
    handle_norm = float(np.linalg.norm(handle_raw))
    if handle_norm <= 1e-10 * math.sqrt(float(np.max(g.weights))):
        raise ValueError("no handle recoverable: sum of weighted factor columns vanishes")

    live = norms > 1e-6 * float(np.max(norms))
    fresh = g.n - int(np.count_nonzero(live))
    dim = r + fresh
    handle = np.zeros(dim)
    handle[:r] = handle_raw / handle_norm
    vectors = np.zeros((g.n, dim))
    vectors[live, :r] = (y[:, live] / norms[live]).T
    vectors[~live, r:] = np.eye(fresh)
    return OrthRep("real", dim, handle, vectors)


def certify_operator(
    rep: OrthRep, g: ExclusivityGraph
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Weighted projector sum, its spectrum, and the state-independence flag.

    Returns (operator, spectrum ascending, sic) with
    operator = sum_i w_i |v_i><v_i|; sic is True exactly when the operator
    is the top eigenvalue times the identity, within
    ``graph.DEFAULT_TOL * max(w)`` in max-norm (the operator scales with
    the weights), in which case the achieved value is the same for every
    unit handle.
    """
    _check_aligned(rep, g)
    m = rep.vectors.T @ (g.weights[:, None] * rep.vectors.conj())
    operator = hermitize(m)
    spectrum = np.linalg.eigh(operator)[0]
    lam_max = float(spectrum[-1])
    dev = float(np.max(np.abs(operator - lam_max * np.eye(rep.dim))))
    return operator, spectrum, bool(dev <= DEFAULT_TOL * float(np.max(g.weights)))
