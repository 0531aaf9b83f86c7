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
from itertools import chain

import numpy as np

from .graph import (ExclusivityGraph, _float_types, _is_int, _is_number, _load_document,
                    max_edge_overlap)
from .numerics import UNIT_TOL, _check_tol, _checked_hermitian, _norm_deviation, hermitize

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
]

SIC_TOL = 1e-8
VERIFY_TOL = 1e-8  # verify_rep's default tolerance
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
    """``np.asarray(x)``, refusing ragged nesting with a message that names
    the field and the ``shape`` it must have."""
    try:
        return np.asarray(x)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ValueError(f"'{name}' must have {shape}, got ragged rows") from None


def _check_entries(x, a: np.ndarray, name: str, is_complex: bool) -> None:
    """Refuse entries of ``x`` (read as ``a``) that are not numbers, and complex
    entries outside the complex field.  An ndarray of a numeric kind passes
    at once; other input is checked by the set of its entries' types, and
    walked entry by entry to name the first bad one, since asarray would
    read True as 1.0 and "1.0" as 1.0."""
    kinds = "iufc" if is_complex else "iuf"
    if isinstance(x, np.ndarray) and x.dtype.kind in kinds:
        return
    rows = [x] if a.ndim == 1 else x
    extra = (complex, np.complexfloating) if is_complex else ()
    types = set(map(type, chain.from_iterable(rows)))
    if _float_types(t for t in types if not issubclass(t, extra)):
        return
    for i, row in enumerate(rows):
        for k, s in enumerate(row):
            if not (_is_number(s) or isinstance(s, extra)):
                where = f"{name}[{k}]" if a.ndim == 1 else f"{name}[{i}][{k}]"
                number = "number" if is_complex else "real number"
                raise ValueError(f"{where} must be a {number}, got {s!r}")


@dataclass
class OrthRep:
    """A handle vector plus one unit vector per graph vertex.

    ``vectors`` has shape (n, dim), n >= 1, with row i aligned to vertex i
    of the graph it represents.  The constructor validates field, dim, and
    that all vectors are finite and unit within ``numerics.UNIT_TOL``;
    orthogonality on edges is checked by verify_rep.
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
        _check_entries(self.handle, handle, "handle", dtype is complex)
        _check_entries(self.vectors, vectors, "vectors", dtype is complex)
        handle = np.asarray(handle, dtype=dtype)
        vectors = np.asarray(vectors, dtype=dtype)
        if not (np.all(np.isfinite(handle)) and np.all(np.isfinite(vectors))):
            raise ValueError("representation contains non-finite entries")
        worst = _max_norm_deviation(handle, vectors)
        if worst > UNIT_TOL:
            raise ValueError(f"handle/vectors must be unit norm (worst deviation {worst:.3e})")
        if vectors.shape[0] == 0:
            raise ValueError("'vectors' must hold at least one vector, got none")
        self.dim = dim
        self.handle = handle
        self.vectors = vectors

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


def _scalars_from_json(x, is_complex: bool, where: str, length: int | None = None) -> None:
    """Check a JSON list of numbers, or of [re, im] pairs for a complex field.

    A vector row passes the handle's ``length``.  The entries are checked
    by the set of their types, and walked one by one only to name the
    first bad entry (or to accept JSON integers, which are unbounded).
    """
    if not isinstance(x, list):
        raise ValueError(f"{where} must be a list of scalars, got {type(x).__name__}")
    if length is not None and len(x) != length:
        raise ValueError(f"{where} has {len(x)} entries but 'handle' has {length}")
    if is_complex:
        if (all(issubclass(t, list) for t in set(map(type, x))) and set(map(len, x)) <= {2}
                and _float_types(set(map(type, chain.from_iterable(x))))):
            return
    elif _float_types(set(map(type, x))):
        return
    kind = "a [re, im] pair" if is_complex else "a number"
    for k, s in enumerate(x):
        if not (isinstance(s, list) and len(s) == 2 and all(map(_is_number, s))
                if is_complex else _is_number(s)):
            raise ValueError(f"{where}[{k}] must be {kind}, got {s!r}")


def _json_array(x, is_complex: bool, shape: tuple[int, ...]) -> np.ndarray:
    """Checked JSON scalars as an array of ``shape``; a [re, im] pair is one entry."""
    a = np.array(x, dtype=float)
    return a.reshape(shape + (2,)).view(complex).reshape(shape) if is_complex else a.reshape(shape)


def _json_scalars(a: np.ndarray, is_complex: bool) -> list:
    """An array's entries as JSON scalars: floats, or [re, im] pairs."""
    return (np.stack((a.real, a.imag), axis=-1) if is_complex else a).tolist()


def parse_rep(text: str) -> OrthRep:
    """Decode a representation document; the constructor validates it.  Raises RepFormatError."""
    doc = _load_document(text, "representation", ("field", "dim", "handle", "vectors"),
                         RepFormatError)
    try:
        is_complex = _field_dtype(doc["field"]) is complex
        handle, rows = doc["handle"], doc["vectors"]
        _scalars_from_json(handle, is_complex, "handle")
        if not isinstance(rows, list):
            raise ValueError("'vectors' must be a list of vectors")
        for i, row in enumerate(rows):
            _scalars_from_json(row, is_complex, f"vectors[{i}]", len(handle))
        return OrthRep(doc["field"], doc["dim"], _json_array(handle, is_complex, (len(handle),)),
                       _json_array(rows, is_complex, (len(rows), len(handle))))
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
    tol: float = VERIFY_TOL,
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


def gram_from_rep(rep: OrthRep, g: ExclusivityGraph) -> np.ndarray:
    """Feasible Gram-like matrix attaining the representation's value.

    X_ij = sqrt(w_i w_j) <psi|v_i><v_j|psi><v_i|v_j> / S with S the achieved
    value: the Gram matrix of sqrt(w_i)<v_i|psi>|v_i>/sqrt(S).  It has unit
    trace, zeros on edges, and is PSD; W.X >= S, with equality exactly when
    the handle is an eigenvector of sum_i w_i |v_i><v_i|.
    """
    _check_aligned(rep, g)
    s = rep_value(rep, g)
    if s <= 1e-12 * float(np.max(g.weights)):
        raise ValueError(f"degenerate representation: achieved value {s!r}")
    amp = rep.vectors @ rep.handle.conj()  # <psi|v_i>
    scaled = (np.sqrt(g.weights) * np.conj(amp))[:, None] * rep.vectors
    x = scaled.conj() @ scaled.T / s
    return hermitize(x)


def rep_from_gram(x, g: ExclusivityGraph, tol: float = 1e-6) -> OrthRep:
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
    accepted.
    """
    _check_tol("tol", tol)
    a = np.asarray(np.real(x), dtype=float)
    if a.shape != (g.n, g.n):
        raise ValueError(f"expected a {g.n} x {g.n} matrix, got shape {a.shape}")
    tr_dev = abs(float(np.trace(a)) - 1.0)
    ei, ej = g.edge_arrays()
    edge_dev = float(np.max(np.abs(a[ei, ej]))) if ei.size else 0.0
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
    is the top eigenvalue times the identity, within ``SIC_TOL * max(w)``
    in max-norm (the operator scales with the weights), in which case the
    achieved value is the same for every unit handle.
    """
    _check_aligned(rep, g)
    m = rep.vectors.T @ (g.weights[:, None] * rep.vectors.conj())
    operator = hermitize(m)
    spectrum = np.linalg.eigh(operator)[0]
    lam_max = float(spectrum[-1])
    dev = float(np.max(np.abs(operator - lam_max * np.eye(rep.dim))))
    return operator, spectrum, bool(dev <= SIC_TOL * float(np.max(g.weights)))
