import numpy as np
import pytest
from numpy.testing import assert_allclose

from loorkit import ExclusivityGraph, bbc21, certify_operator, hermitize, rep_from_gram
from loorkit.numerics import _checked_hermitian, psd_part


def test_herm_eig_weighted_ray_sum_is_flat():
    # oracle: the weighted projector sum of the 21-ray complex instance is 29 I
    inst = bbc21()
    operator, _, _ = certify_operator(inst.complex_rep, inst.graph)
    assert_allclose(operator, 29.0 * np.eye(3), atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(operator), [29.0, 29.0, 29.0], atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    # complex symmetric but not Hermitian: the check every eigensolve runs behind
    with pytest.raises(ValueError, match="Hermitian"):
        _checked_hermitian(np.array([[0.0, 1j], [1j, 0.0]]))


def test_psd_project_clips_negative_diagonal():
    assert_allclose(psd_part(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    m = a @ a.T
    assert np.max(np.abs(psd_part(m) - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))


def test_psd_project_matches_clipping_oracle_and_is_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(25):
        raw = rng.standard_normal((7, 7))
        m = (raw + raw.T) / 2
        p = psd_part(m)
        assert p.dtype == np.float64
        assert np.array_equal(p, p.T)
        vals, vecs = np.linalg.eigh(m)
        oracle = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        assert np.max(np.abs(p - oracle)) <= 1e-10
        assert np.max(np.abs(psd_part(p) - p)) <= 1e-10
        assert np.linalg.eigvalsh(p)[0] >= -1e-10
        h = hermitize(raw)
        assert h.dtype == np.float64
        assert np.array_equal(h, (raw + raw.T) / 2)


@pytest.mark.parametrize("dtype", [float])
@pytest.mark.parametrize("shift", [0.0, -1.0], ids=["zero", "negative-definite"])
def test_psd_part_of_a_matrix_without_positive_eigenvalues_is_zero(shift, dtype):
    m = np.eye(4, dtype=dtype) * shift
    if shift:
        m[0, 1] = m[1, 0] = 0.5
    p = psd_part(m)
    assert p.dtype == m.dtype
    assert np.array_equal(p, np.zeros((4, 4)))


def test_psd_part_drops_a_zero_eigenvalue():
    # eigh sorts the spectrum to [-1, 0, 1]; the zero sits on the boundary
    # of the kept positive suffix, and the result is exact either way
    assert np.array_equal(psd_part(np.diag([0.0, 1.0, -1.0])), np.diag([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("n, shift", [(7, 0.0), (34, 9.0)], ids=["7-real", "34-real-definite"])
def test_psd_part_is_bitwise_the_masked_recomposition(n, shift):
    # the matrix is recomposed as B B^T, B = V sqrt(lambda) over the kept
    # pairs: numpy hands that product to BLAS syrk, so it is bitwise
    # symmetric, and it agrees with the masked recomposition V lambda V^T
    # to roundoff
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((n, n))
    m = (raw + raw.T) / 2 + shift * np.eye(n)
    values, vectors = np.linalg.eigh(m)
    pos = values > 0.0
    assert np.any(pos)
    vp = vectors[:, pos]
    q = (vp * values[pos]) @ vp.T
    masked = (q + q.T) / 2.0
    p = psd_part(m)
    b = vp * np.sqrt(values[pos])
    assert np.array_equal(p, b @ b.T)
    assert np.array_equal(p, p.T)
    assert np.max(np.abs(p - masked)) <= 1e-14 * np.max(np.abs(m))


# The Gram factorization X = Y^T Y of an SDP optimum is done inside
# loor.rep_from_gram.  On an edgeless graph every unit-trace PSD X is
# feasible, and the factor comes back from the representation as
# Y = (sqrt(X_ii) v_i)_i, so these cases pin the factorization itself.


def _edgeless(n):
    return ExclusivityGraph(n=n, weights=np.ones(n), edges=())


def _factor(rep, x):
    return (np.sqrt(np.diag(x))[:, None] * rep.vectors).T


def test_gram_factor_identity():
    x = np.eye(2) / 2.0
    rep = rep_from_gram(x, _edgeless(2))
    assert rep.dim == 2
    y = _factor(rep, x)
    assert y.shape == (2, 2)
    assert_allclose(y.T @ y, x, atol=1e-12)


def test_gram_factor_identity_rows_carry_the_spectrum():
    # row k of Y is sqrt(lambda_k) u_k^T, so its squared norm is lambda_k;
    # a complex X is factored through its real part
    x = np.eye(3, dtype=complex) / 3.0
    rep = rep_from_gram(x, _edgeless(3))
    assert rep.vectors.dtype == np.float64 and rep.handle.dtype == np.float64
    y = _factor(rep, x.real)
    assert_allclose(np.sum(y**2, axis=1), np.full(3, 1.0 / 3.0), atol=1e-14)


def test_gram_factor_reconstructs_random_psd_with_orthogonal_rows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        x = a @ a.T
        x /= np.trace(x)
        rep = rep_from_gram(x, _edgeless(6))
        assert rep.dim == 6
        y = _factor(rep, x)
        assert np.max(np.abs(y.T @ y - x)) <= 1e-10
        rows = y @ y.T
        assert np.max(np.abs(rows - np.diag(np.diag(rows)))) <= 1e-10
        assert_allclose(np.diag(rows), np.linalg.eigvalsh(x), atol=1e-10)


def test_gram_factor_roundtrip_200_random_psd():
    # X has rank r: its n - r zero eigenvalues are zeros of the
    # construction, and on this seed every other one stands clear of the
    # rank cutoff
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 31))
        r = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, r))
        x = a @ a.T
        x /= np.trace(x)
        rep = rep_from_gram(x, _edgeless(n))
        assert rep.dim == r
        y = _factor(rep, x)
        assert np.max(np.abs(y.T @ y - x)) <= 1e-10


@pytest.mark.parametrize("tol", [float("nan"), True])
def test_gram_factor_rejects_bad_psd_tol(tol):
    # tol is the PSD refusal floor; a bad one is named before X, which is
    # indefinite here, is factored
    x = np.diag([0.5, 0.5 + 2e-6, -2e-6])
    with pytest.raises(ValueError, match="^tol must be"):
        rep_from_gram(x, _edgeless(3), tol=tol)
