import numpy as np
import pytest
from numpy.testing import assert_allclose

from loorkit import bbc21, certify_operator, gram_factor, hermitize
from loorkit.numerics import _checked_hermitian, psd_part


def test_gram_factor_identity_rows_carry_the_spectrum():
    # row k of Y is sqrt(lambda_k) v_k^T, so its squared norm is lambda_k
    y = gram_factor(np.eye(3))
    assert y.dtype == np.float64
    assert_allclose(np.sum(y**2, axis=1), [1.0, 1.0, 1.0], atol=1e-14)


def test_gram_factor_known_diagonal_sorted_ascending():
    y = gram_factor(np.diag([29.0, 77 / 4, 17.0, 39 / 4, 12.0]))
    assert y.dtype == np.float64
    assert_allclose(np.sum(y**2, axis=1), [39 / 4, 12.0, 17.0, 77 / 4, 29.0], atol=1e-12)


def test_gram_factor_reconstructs_random_psd_with_orthogonal_rows():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((6, 6))
        m = a @ a.T / 6
        y = gram_factor(m)
        assert y.dtype == np.float64 and y.shape == (6, 6)
        scale = max(1.0, np.max(np.abs(m)))
        assert np.max(np.abs(y.T @ y - m)) <= 1e-10 * scale
        vectors = y.T / np.linalg.norm(y, axis=1)
        assert np.max(np.abs(vectors.T @ vectors - np.eye(6))) <= 1e-10


def test_gram_factor_rejects_bad_input():
    with pytest.raises(ValueError, match="square"):
        gram_factor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        gram_factor(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="symmetry"):
        gram_factor(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="size"):
        gram_factor(np.zeros((0, 0)))


def test_herm_eig_weighted_ray_sum_is_flat():
    # oracle: the weighted projector sum of the 21-ray complex instance is
    # 29 I, a positive operator that is its own positive part
    inst = bbc21()
    operator, _, _ = certify_operator(inst.complex_rep, inst.graph)
    assert_allclose(operator, 29.0 * np.eye(3), atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(operator), [29.0, 29.0, 29.0], atol=1e-12)
    assert_allclose(psd_part(operator), operator, atol=1e-12)


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
    for trial in range(50):
        hermitian = trial >= 25
        raw = rng.standard_normal((7, 7))
        if hermitian:
            raw = raw + 1j * rng.standard_normal((7, 7))
        m = (raw + raw.conj().T) / 2
        p = psd_part(m)
        assert np.iscomplexobj(p) == hermitian
        assert np.array_equal(p, p.conj().T)
        vals, vecs = np.linalg.eigh(m)
        oracle = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        assert np.max(np.abs(p - oracle)) <= 1e-10
        assert np.max(np.abs(psd_part(p) - p)) <= 1e-10
        assert np.linalg.eigvalsh(p)[0] >= -1e-10
        if not hermitian:
            h = hermitize(raw)
            assert h.dtype == np.float64
            assert np.array_equal(h, (raw + raw.T) / 2)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shift", [0.0, -1.0], ids=["zero", "negative-definite"])
def test_psd_part_of_a_matrix_without_positive_eigenvalues_is_zero(shift, dtype):
    m = np.eye(4, dtype=dtype) * shift
    if shift:
        m[0, 1] = 0.5j if dtype is complex else 0.5
        m[1, 0] = np.conj(m[0, 1])
    p = psd_part(m)
    assert p.dtype == m.dtype
    assert np.array_equal(p, np.zeros((4, 4)))


def test_psd_part_drops_a_zero_eigenvalue():
    # eigh sorts the spectrum to [-1, 0, 1]; the zero sits on the boundary
    # of the kept positive suffix, and the result is exact either way
    assert np.array_equal(psd_part(np.diag([0.0, 1.0, -1.0])), np.diag([0.0, 1.0, 0.0]))


@pytest.mark.parametrize("n, hermitian, shift", [(7, False, 0.0), (7, True, 0.0), (34, False, 9.0)],
                         ids=["7-real", "7-complex", "34-real-definite"])
def test_psd_part_is_bitwise_the_masked_recomposition(n, hermitian, shift):
    # the kept columns are recomposed in column-major layout; for the
    # positive-definite 34 x 34 case, a row-major operand makes OpenBLAS
    # 0.3 pick another kernel and moves the last bits
    rng = np.random.default_rng(7)
    raw = rng.standard_normal((n, n))
    if hermitian:
        raw = raw + 1j * rng.standard_normal((n, n))
    m = (raw + raw.conj().T) / 2 + shift * np.eye(n)
    values, vectors = np.linalg.eigh(m)
    pos = values > 0.0
    assert np.any(pos)
    vp = vectors[:, pos]
    q = (vp * values[pos]) @ vp.conj().T
    assert np.array_equal(psd_part(m), (q + q.conj().T) / 2.0)


def test_gram_factor_identity():
    y = gram_factor(np.eye(2))
    assert y.shape == (2, 2)
    assert_allclose(y.T @ y, np.eye(2), atol=1e-12)


def test_gram_factor_rank_one():
    u = np.array([0.6, 0.0, 0.8])
    y = gram_factor(np.outer(u, u))
    assert y.shape == (1, 3)
    column = y[0]
    assert min(np.max(np.abs(column - u)), np.max(np.abs(column + u))) <= 1e-12


def test_gram_factor_roundtrip_200_random_psd():
    # ranks chosen away from the cutoff: nonzero eigenvalues are O(1),
    # the rest are exact zeros of the construction
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 31))
        r = int(rng.integers(1, n + 1))
        a = rng.standard_normal((n, r))
        x = a @ a.T / r
        y = gram_factor(x)
        worst = max(worst, float(np.max(np.abs(y.T @ y - x))))
    assert worst <= 1e-8


def test_gram_factor_rejects_complex_input():
    with pytest.raises(ValueError, match="real matrix"):
        gram_factor(np.eye(2, dtype=complex))


def test_gram_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        gram_factor(np.diag([1.0, -0.5]))


def test_gram_factor_refusal_floor_is_psd_tol():
    # unit trace, most negative eigenvalue -2e-6: below the default floor,
    # above the floor of a solve at tol 1e-4
    x = np.diag([0.5, 0.5 + 2e-6, -2e-6])
    with pytest.raises(ValueError, match="positive semidefinite"):
        gram_factor(x)
    y = gram_factor(x, psd_tol=1e-4)
    assert y.shape == (2, 3)
    assert_allclose(y.T @ y, np.diag([0.5, 0.5 + 2e-6, 0.0]), atol=1e-15)


@pytest.mark.parametrize("psd_tol", [0.0, -1.0, float("inf"), float("nan"), True])
def test_gram_factor_rejects_bad_psd_tol(psd_tol):
    with pytest.raises(ValueError, match="psd_tol"):
        gram_factor(np.eye(2), psd_tol=psd_tol)
