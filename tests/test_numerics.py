import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from loorkit import basis_to_e1, bbc21, certify_operator, gram_factor, herm_eig, hermitize, psd_project


def test_herm_eig_real_identity():
    eig = herm_eig(np.eye(3))
    assert eig.vectors.dtype == np.float64
    assert_allclose(eig.values, [1.0, 1.0, 1.0], atol=1e-14)


def test_herm_eig_real_known_diagonal_sorted_ascending():
    eig = herm_eig(np.diag([29.0, 77 / 4, 17.0, 39 / 4, 12.0]))
    assert eig.vectors.dtype == np.float64
    assert_allclose(eig.values, [39 / 4, 12.0, 17.0, 77 / 4, 29.0], atol=1e-12)


def test_herm_eig_real_reconstructs_random_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m = rng.standard_normal((6, 6))
        m = (m + m.T) / 2
        eig = herm_eig(m)
        assert eig.vectors.dtype == np.float64
        scale = max(1.0, np.max(np.abs(m)))
        assert np.max(np.abs(eig.reconstruct() - m)) <= 1e-10 * scale
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(6))) <= 1e-10


def test_herm_eig_rejects_bad_input():
    with pytest.raises(ValueError):
        herm_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        herm_eig(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        herm_eig(np.zeros((0, 0)))


def test_herm_eig_identity():
    eig = herm_eig(np.eye(3, dtype=complex))
    assert_allclose(eig.values, [1.0, 1.0, 1.0], atol=1e-14)


def test_herm_eig_weighted_ray_sum_is_flat():
    # oracle: the weighted projector sum of the 21-ray complex instance
    inst = bbc21()
    operator, _, _ = certify_operator(inst.complex_rep, inst.graph)
    assert_allclose(operator, 29.0 * np.eye(3), atol=1e-12)
    assert_allclose(herm_eig(operator).values, [29.0, 29.0, 29.0], atol=1e-12)


def test_herm_eig_pauli_like():
    m = np.array([[0.0, 1j], [-1j, 0.0]])
    eig = herm_eig(m)
    assert_allclose(eig.values, [-1.0, 1.0], atol=1e-14)
    assert np.max(np.abs(eig.reconstruct() - m)) <= 1e-12


def test_herm_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        herm_eig(np.array([[0.0, 1j], [1j, 0.0]]))


def test_psd_project_clips_negative_diagonal():
    assert_allclose(psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    m = a @ a.T
    assert np.max(np.abs(psd_project(m) - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))


def test_psd_project_matches_clipping_oracle_and_is_idempotent():
    rng = np.random.default_rng(2)
    for trial in range(50):
        hermitian = trial >= 25
        raw = rng.standard_normal((7, 7))
        if hermitian:
            raw = raw + 1j * rng.standard_normal((7, 7))
        m = (raw + raw.conj().T) / 2
        p = psd_project(m)
        assert np.iscomplexobj(p) == hermitian
        assert np.array_equal(p, p.conj().T)
        vals, vecs = np.linalg.eigh(m)
        oracle = (vecs * np.clip(vals, 0.0, None)) @ vecs.conj().T
        assert np.max(np.abs(p - oracle)) <= 1e-10
        assert np.max(np.abs(psd_project(p) - p)) <= 1e-10
        assert np.linalg.eigvalsh(p)[0] >= -1e-10
        if not hermitian:
            h = hermitize(raw)
            assert h.dtype == np.float64
            assert np.array_equal(h, (raw + raw.T) / 2)


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


@pytest.mark.parametrize("rank_tol", [0.0, -1.0, float("inf"), float("nan")])
def test_gram_factor_rejects_bad_rank_tol(rank_tol):
    with pytest.raises(ValueError, match="rank_tol"):
        gram_factor(np.eye(2), rank_tol=rank_tol)


def test_basis_to_e1_identity_shortcut():
    psi = np.array([1.0, 0.0, 0.0])
    assert_allclose(basis_to_e1(psi), np.eye(3), atol=0)


def test_basis_to_e1_permutation_like():
    u = basis_to_e1(np.array([0.0, 1.0, 0.0]))
    assert_allclose(u @ [0.0, 1.0, 0.0], [1.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(u.T @ u, np.eye(3), atol=1e-14)


def test_basis_to_e1_absorbs_phase():
    psi = np.array([1.0 + 1.0j, 0.0]) / np.sqrt(2.0)
    u = basis_to_e1(psi)
    assert_allclose(u @ psi, [1.0, 0.0], atol=1e-12)
    assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8).filter(
        lambda xs: sum(abs(x) for x in xs) > 1e-3
    )
)
def test_basis_to_e1_is_orthogonal_and_maps_to_e1(entries):
    v = np.asarray(entries)
    v = v / np.linalg.norm(v)
    u = basis_to_e1(v)
    e1 = np.zeros(v.size)
    e1[0] = 1.0
    assert np.max(np.abs(u @ v - e1)) <= 1e-10
    assert np.max(np.abs(u.T @ u - np.eye(v.size))) <= 1e-10


def test_basis_to_e1_complex_random_unitary():
    rng = np.random.default_rng(4)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        psi = z / np.linalg.norm(z)
        u = basis_to_e1(psi)
        e1 = np.zeros(d)
        e1[0] = 1.0
        assert np.max(np.abs(u @ psi - e1)) <= 1e-10
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) <= 1e-10


def test_basis_to_e1_rejects_degenerate_input():
    with pytest.raises(ValueError):
        basis_to_e1(np.zeros(3))
    with pytest.raises(ValueError):
        basis_to_e1(np.array([2.0, 0.0]))
