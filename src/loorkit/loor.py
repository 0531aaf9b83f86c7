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
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .graph import ExclusivityGraph, _is_int, _is_number, max_edge_overlap
from .numerics import UNIT_TOL, _norm_deviation, gram_factor, herm_eig, hermitize

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
        handle = np.asarray(self.handle, dtype=dtype)
        vectors = np.asarray(self.vectors, dtype=dtype)
        if handle.shape != (dim,):
            raise ValueError(f"'handle' must have length {dim}, got shape {handle.shape}")
        if vectors.ndim != 2 or vectors.shape[1] != dim:
            raise ValueError(f"'vectors' must have shape (n, {dim}), got {vectors.shape}")
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

    def as_complex(self) -> "OrthRep":
        if self.field == "complex":
            return self
        return OrthRep("complex", self.dim, self.handle.astype(complex),
                       self.vectors.astype(complex))


@dataclass
class VerificationReport:
    value: float
    max_norm_residual: float
    max_edge_residual: float
    per_vertex_overlap: np.ndarray
    passed: bool
    target: float | None = None
    sic_spectrum: np.ndarray | None = dataclass_field(default=None)
    sic: bool | None = None


def _scalar_to_json(x, is_complex: bool):
    return [float(x.real), float(x.imag)] if is_complex else float(x)


def _scalars_from_json(x, is_complex: bool, where: str, length: int | None = None) -> list:
    """Decode a JSON list of numbers, or of [re, im] pairs for a complex field.

    A vector row passes the handle's ``length``.
    """
    if not isinstance(x, list):
        raise ValueError(f"{where} must be a list of scalars, got {type(x).__name__}")
    if length is not None and len(x) != length:
        raise ValueError(f"{where} has {len(x)} entries but 'handle' has {length}")
    kind = "a [re, im] pair" if is_complex else "a number"
    for k, s in enumerate(x):
        if not (isinstance(s, list) and len(s) == 2 and all(map(_is_number, s))
                if is_complex else _is_number(s)):
            raise ValueError(f"{where}[{k}] must be {kind}, got {s!r}")
    return [complex(*s) for s in x] if is_complex else [float(s) for s in x]


def parse_rep(text: str) -> OrthRep:
    """Decode a representation document; the constructor validates it.  Raises RepFormatError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: too deeply nested
        raise RepFormatError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise RepFormatError("representation document must be a JSON object")
    unknown = set(doc) - {"field", "dim", "handle", "vectors"}
    if unknown:
        raise RepFormatError(f"unknown fields: {sorted(unknown)}")
    for key in ("field", "dim", "handle", "vectors"):
        if key not in doc:
            raise RepFormatError(f"missing field '{key}'")
    try:
        dtype = _field_dtype(doc["field"])
        handle = _scalars_from_json(doc["handle"], dtype is complex, "handle")
        if not isinstance(doc["vectors"], list):
            raise ValueError("'vectors' must be a list of vectors")
        rows = [_scalars_from_json(row, dtype is complex, f"vectors[{i}]", len(handle))
                for i, row in enumerate(doc["vectors"])]
        return OrthRep(doc["field"], doc["dim"], np.array(handle, dtype=dtype),
                       np.array(rows, dtype=dtype).reshape(len(rows), len(handle)))
    except ValueError as exc:
        raise RepFormatError(str(exc)) from exc


def serialize_rep(rep: OrthRep, indent: int | None = None) -> str:
    is_complex = rep.field == "complex"
    doc = {
        "field": rep.field,
        "dim": rep.dim,
        "handle": [_scalar_to_json(x, is_complex) for x in rep.handle],
        "vectors": [[_scalar_to_json(x, is_complex) for x in row] for row in rep.vectors],
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
    tol: float = 1e-8,
    target: float | None = None,
    value_tol: float = 1e-6,
    with_sic: bool = False,
) -> VerificationReport:
    """Residual report for a representation; failures are reported, not raised.

    Raises ValueError on a misaligned graph, on ``tol`` or ``value_tol``
    not positive and finite, and on a non-finite ``target``.
    """
    _check_aligned(rep, g)
    for name, value in (("tol", tol), ("value_tol", value_tol)):
        if not (value > 0 and math.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if target is not None and not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target!r}")
    max_norm = _max_norm_deviation(rep.handle, rep.vectors)
    max_edge = max_edge_overlap(rep.vectors, g)
    overlap = _overlaps(rep)
    value = float(np.dot(g.weights, overlap))
    passed = max_norm <= tol and max_edge <= tol
    if target is not None:
        passed = passed and abs(value - target) <= value_tol
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
        target=target,
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
    if s <= 1e-12:
        raise ValueError(f"degenerate representation: achieved value {s!r}")
    amp = rep.vectors @ rep.handle.conj()  # <psi|v_i>
    scaled = (np.sqrt(g.weights) * np.conj(amp))[:, None] * rep.vectors
    x = scaled.conj() @ scaled.T / s
    return hermitize(x)


def rep_from_gram(x, g: ExclusivityGraph, rank_tol: float = 1e-7) -> OrthRep:
    """Extract a real representation from a feasible optimum of the SDP.

    Gram-factors X, normalizes the factor columns into vertex vectors, and
    reconstructs the handle from sum_i sqrt(w_i) y_i (proportional to the
    top eigenvector of the weighted projector sum at an optimum).  Vertices
    whose factor column vanishes get a fresh appended coordinate axis each,
    which keeps them unit and orthogonal to everything previously present.

    A complex (Hermitian) X is replaced by its real part: Re X has the same
    trace, zero edges and value, and is PSD, so it is a real optimum.
    """
    a = np.asarray(np.real(x), dtype=float)
    if a.shape != (g.n, g.n):
        raise ValueError(f"expected a {g.n} x {g.n} matrix, got shape {a.shape}")
    tr_dev = abs(float(np.trace(a)) - 1.0)
    ei, ej = g.edge_arrays()
    edge_dev = float(np.max(np.abs(a[ei, ej]))) if ei.size else 0.0
    if max(tr_dev, edge_dev) > 1e-6:
        raise ValueError(
            f"matrix is not feasible: trace deviation {tr_dev:.3e}, "
            f"edge deviation {edge_dev:.3e}"
        )
    y = gram_factor(a, rank_tol)
    r = y.shape[0]
    if r == 0:
        raise ValueError("matrix has numerical rank 0")
    norms = np.linalg.norm(y, axis=0)
    handle_raw = y @ np.sqrt(g.weights)
    handle_norm = float(np.linalg.norm(handle_raw))
    if handle_norm <= 1e-10:
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
    is the top eigenvalue times the identity (max-norm within 1e-8), in
    which case the achieved value is the same for every unit handle.
    """
    _check_aligned(rep, g)
    m = rep.vectors.T @ (g.weights[:, None] * rep.vectors.conj())
    operator = hermitize(m)
    spectrum = herm_eig(operator).values
    lam_max = float(spectrum[-1])
    dev = float(np.max(np.abs(operator - lam_max * np.eye(rep.dim))))
    return operator, spectrum, bool(dev <= SIC_TOL)
