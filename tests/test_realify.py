import numpy as np
import pytest
from numpy.testing import assert_allclose

from loorkit import (
    ExclusivityGraph,
    OrthRep,
    bbc21,
    verify_rep,
    block_embed,
    kcbs,
    projector_realify,
    realify_map_M,
    rep_value,
    vector_realify,
)
from util import edge_residual, random_complex_rep


def test_block_embed_identity():
    assert_allclose(block_embed(np.eye(3, dtype=complex)), np.eye(6), atol=0)


def test_block_embed_pauli_like():
    m = np.array([[0.0, 1j], [-1j, 0.0]])
    expected = np.array(
        [
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0],
        ]
    )
    assert_allclose(block_embed(m), expected, atol=0)


def test_block_embed_rank1_projector_becomes_rank2():
    ray = bbc21().complex_rep.vectors[3]
    q = block_embed(np.outer(ray, ray.conj()))
    assert float(np.trace(q)) == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(q @ q - q)) <= 1e-12


def test_block_embed_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        block_embed(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="Hermitian"):
        block_embed(np.array([[0.0, 1j], [1j, 0.0]]))
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        with pytest.raises(ValueError, match="Hermitian"):
            block_embed(np.array([[1.0, bad], [np.conj(bad), 1.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            block_embed(np.array([[bad]]))
    for shape in ((2, 3), (3,)):
        with pytest.raises(ValueError, match=r"must be square, got shape \(" + str(shape[0])):
            block_embed(np.zeros(shape))
    with pytest.raises(ValueError, match="must have size >= 1"):
        block_embed(np.zeros((0, 0)))
    # numpy would read a bool as 1 and "1.0" as 1.0
    with pytest.raises(ValueError, match=r"matrix\[0\]\[0\] must be a number, got True"):
        block_embed([[True]])
    with pytest.raises(ValueError, match=r"matrix\[1\]\[1\] must be a number, got '1.0'"):
        block_embed([[1.0, 0.0], [0.0, "1.0"]])
    # an int beyond int64, which numpy holds as an object, is a number
    assert block_embed([[10**19]]).tolist() == [[1e19, 0.0], [0.0, 1e19]]


def test_block_embed_names_a_ragged_matrix():
    with pytest.raises(ValueError, match=r"^'matrix' must have shape \(n, n\), got ragged rows$"):
        block_embed([[1.0], [1.0, 2.0]])


def test_block_embed_psd_equivalence_200_random():
    rng = np.random.default_rng(13)
    disagreements = 0
    for trial in range(200):
        n = int(rng.integers(1, 11))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2
        if trial % 2 == 0:
            h = h @ h.conj().T  # construct a PSD case
            h = (h + h.conj().T) / 2
        source_psd = np.linalg.eigvalsh(h)[0] >= -1e-10
        image_psd = np.linalg.eigvalsh(block_embed(h))[0] >= -1e-10
        disagreements += source_psd != image_psd
    assert disagreements == 0


def test_block_embed_indefinite_by_construction():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2
        h -= (np.linalg.eigvalsh(h)[0] + 1.0) * np.eye(n)  # min eigenvalue -1
        assert np.linalg.eigvalsh(block_embed(h))[0] <= -0.5


def test_block_embed_doubles_the_spectrum():
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2
        lam = np.linalg.eigvalsh(h)
        doubled = np.sort(np.concatenate([lam, lam]))
        assert np.max(np.abs(np.linalg.eigvalsh(block_embed(h)) - doubled)) <= 1e-8


def _pairing_gap(rep, g):
    d = rep.dim
    rho = np.outer(rep.handle, rep.handle.conj())
    weighted = np.zeros((2 * d, 2 * d))
    for w, v in zip(g.weights, rep.vectors):
        weighted += w * block_embed(np.outer(v, v.conj()))
    rho_tilde = block_embed(rho) / 2.0
    return abs(float(np.sum(rho_tilde * weighted)) - rep_value(rep, g))


def test_trace_pairing_preserved_by_embedding():
    inst = bbc21()
    assert _pairing_gap(inst.complex_rep, inst.graph) <= 1e-12
    rng = np.random.default_rng(24)
    for _ in range(10):
        rep, g = random_complex_rep(rng, int(rng.integers(2, 5)), int(rng.integers(2, 8)))
        assert _pairing_gap(rep, g) <= 1e-12


def test_projector_realify_bbc():
    inst = bbc21()
    out = projector_realify(inst.complex_rep, inst.graph)
    assert out.field == "real" and out.dim == 6
    assert abs(rep_value(out, inst.graph) - 29.0) <= 1e-10
    assert edge_residual(out, inst.graph) <= 1e-10


def test_projector_realify_already_real_input():
    inst = kcbs()
    out = projector_realify(inst.real_rep, inst.graph)
    assert out.dim == 6
    # embedded copies of the input, up to the sign of the handle overlap
    for got, src in zip(out.vectors, inst.real_rep.vectors):
        emb = np.concatenate([src, np.zeros(3)])
        assert min(np.max(np.abs(got - emb)), np.max(np.abs(got + emb))) <= 1e-12
    assert abs(rep_value(out, inst.graph) - rep_value(inst.real_rep, inst.graph)) <= 1e-12


def test_projector_realify_single_vertex():
    g = ExclusivityGraph(n=1, weights=np.ones(1), edges=())
    rep = OrthRep("complex", 2, np.array([1, 0], dtype=complex),
                  np.array([[1, 0]], dtype=complex))
    out = projector_realify(rep, g)
    assert_allclose(out.vectors[0], [1.0, 0.0, 0.0, 0.0], atol=1e-14)
    assert rep_value(out, g) == pytest.approx(1.0, abs=1e-14)


def test_projector_realify_degenerate_overlap_falls_back():
    # overlap 1e-8 makes the compression weight |<psi|v>|^2 = 1e-16, so the
    # compression formula Q rho1 Q / (rho1 . Q) divides by almost zero
    g = ExclusivityGraph(n=2, weights=np.ones(2), edges=((0, 1),))
    vectors = np.array([[1, 0], [0, 1]], dtype=complex)
    for overlap in (0.0, 1e-8):
        handle = np.array([overlap, np.sqrt(1.0 - overlap**2)], dtype=complex)
        rep = OrthRep("complex", 2, handle, vectors)
        for convert in (projector_realify, vector_realify):
            out = convert(rep, g)
            case = f"{convert.__name__}, overlap {overlap}"
            assert_allclose(np.linalg.norm(out.vectors, axis=1), [1.0, 1.0], atol=1e-12,
                            err_msg=case)
            assert abs(out.vectors[0] @ out.vectors[1]) <= 1e-12, case
            assert rep_value(out, g) == pytest.approx(rep_value(rep, g), abs=1e-12), case


def test_projector_realify_is_the_compression_construction():
    inst = bbc21()
    cases = [(inst.complex_rep, inst.graph)]
    rng = np.random.default_rng(25)
    cases += [random_complex_rep(rng, int(rng.integers(1, 7)), int(rng.integers(1, 12)))
              for _ in range(10)]
    for rep, g in cases:
        out = projector_realify(rep, g)
        a = realify_map_M(rep.handle)
        assert np.array_equal(out.handle, a)
        rho1 = np.outer(a, a) / 2.0  # rank-1 piece of the embedded state
        for v, w in zip(rep.vectors, out.vectors):
            q = block_embed(np.outer(v, v.conj()))
            assert np.max(np.abs(q @ w - w)) <= 1e-12  # w lies in range(Q_i)
            weight = float(np.sum(rho1 * q))
            if weight > 1e-8:
                # compression formula: Q_i rho1 Q_i / (rho1 . Q_i) = w w^T
                assert np.max(np.abs(q @ rho1 @ q / weight - np.outer(w, w))) <= 1e-10
                # the compressed projector keeps the whole pairing with rho1
                assert float(w @ rho1 @ w) == pytest.approx(weight, abs=1e-12)


def aligned_vectors(rep: OrthRep, g: ExclusivityGraph) -> np.ndarray:
    """The phase-aligned complex vectors, read back from projector_realify."""
    out = projector_realify(rep, g)
    d = rep.dim
    return out.vectors[:, :d] + 1j * out.vectors[:, d:]


def test_phase_align_flips_negative_overlap():
    g_handle = np.array([1, 0], dtype=complex)
    v = np.array([-1 / np.sqrt(2), 1 / np.sqrt(2)], dtype=complex)
    rep = OrthRep("complex", 2, g_handle, v[None, :])
    out = aligned_vectors(rep, ExclusivityGraph(1, [1.0], ()))
    assert_allclose(out[0], -v, atol=1e-14)


def test_phase_align_keeps_bbc_rays_fixed():
    inst = bbc21()
    out = aligned_vectors(inst.complex_rep, inst.graph)
    assert np.max(np.abs(out - inst.complex_rep.vectors)) == 0.0


def test_phase_align_removes_pure_phase():
    psi = np.array([0.6, 0.8j], dtype=complex)
    v = np.exp(1j * np.pi / 3) * psi
    rep = OrthRep("complex", 2, psi, v[None, :])
    out = aligned_vectors(rep, ExclusivityGraph(1, [1.0], ()))
    assert_allclose(out[0], psi, atol=1e-14)


def test_phase_align_preserves_all_magnitudes():
    rng = np.random.default_rng(16)
    for _ in range(30):
        rep, g = random_complex_rep(rng, int(rng.integers(2, 6)), int(rng.integers(2, 9)))
        out = aligned_vectors(rep, g)
        amps = out @ rep.handle.conj()
        assert np.max(np.abs(amps.imag)) <= 1e-12
        assert np.min(amps.real) >= -1e-12
        before = np.abs(rep.vectors.conj() @ rep.vectors.T)
        after = np.abs(out.conj() @ out.T)
        assert np.max(np.abs(before - after)) <= 1e-12


def test_realify_map_basis_vector():
    assert_allclose(realify_map_M(np.array([1, 0, 0], dtype=complex)),
                    [1, 0, 0, 0, 0, 0], atol=0)


def test_realify_map_known_ray():
    v = np.array([0.0, 1.0, 0.5 + 0.5j * np.sqrt(3.0)], dtype=complex) / np.sqrt(2.0)
    expected = [0.0, 1 / np.sqrt(2), 1 / (2 * np.sqrt(2)), 0.0, 0.0, np.sqrt(3) / (2 * np.sqrt(2))]
    assert_allclose(realify_map_M(v), expected, atol=1e-15)


def test_realify_map_refuses_entries_that_are_not_numbers():
    # numpy would read "1" as 1.0 and True as 1.0
    with pytest.raises(ValueError, match=r"^v\[0\] must be a number, got '1'$"):
        realify_map_M(["1", "2j"])
    with pytest.raises(ValueError, match=r"^v\[0\] must be a number, got True$"):
        realify_map_M([True, False])
    with pytest.raises(ValueError, match=r"^v\[1\]\[0\] must be a number, got None$"):
        realify_map_M([[1.0], [None]])
    with pytest.raises(ValueError, match=r"^'v' must have shape \(d,\) or \(n, d\), got ragged rows$"):
        realify_map_M([[1.0], [1.0, 2.0]])
    # an int beyond int64, which numpy holds as an object, is a number
    assert realify_map_M([10**19, 1j]).tolist() == [1e19, 0.0, 0.0, 1.0]


def test_realify_map_refuses_a_3d_array():
    with pytest.raises(ValueError, match=r"expected a vector or an \(n, d\) array"):
        realify_map_M(np.ones((2, 2, 2), dtype=complex))


def test_realify_map_inner_product_identity():
    rng = np.random.default_rng(17)
    for _ in range(100):
        d = int(rng.integers(1, 9))
        u = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        lhs = realify_map_M(u) @ realify_map_M(v)
        assert abs(lhs - np.vdot(u, v).real) <= 1e-12 * max(1.0, abs(lhs))
        assert abs(np.linalg.norm(realify_map_M(u)) - np.linalg.norm(u)) <= 1e-12


def test_vector_realify_reproduces_reference_vectors():
    inst = bbc21()
    out = vector_realify(inst.complex_rep, inst.graph)
    assert out.dim == 5
    assert np.max(np.abs(out.vectors - inst.real_rep.vectors)) <= 1e-12
    assert np.max(np.abs(out.handle - inst.real_rep.handle)) <= 1e-12
    assert rep_value(out, inst.graph) == pytest.approx(29.0, abs=1e-10)


def test_vector_realify_already_real_input():
    inst = kcbs()
    out = vector_realify(inst.real_rep, inst.graph)
    assert out.dim == 5
    assert abs(rep_value(out, inst.graph) - np.sqrt(5.0)) <= 1e-10
    assert edge_residual(out, inst.graph) <= 1e-10


def test_vector_realify_rotates_general_handles():
    rng = np.random.default_rng(18)
    rep, g = random_complex_rep(rng, 3, 6)
    out = vector_realify(rep, g)
    assert out.dim == 5
    assert abs(rep_value(out, g) - rep_value(rep, g)) <= 1e-10
    assert edge_residual(out, g) <= 1e-10


def test_procedures_agree_on_random_reps():
    rng = np.random.default_rng(19)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        rep, g = random_complex_rep(rng, d, n)
        value = rep_value(rep, g)
        vec = vector_realify(rep, g)
        proj = projector_realify(rep, g)
        assert vec.dim == 2 * d - 1 and proj.dim == 2 * d
        assert abs(rep_value(vec, g) - value) <= 1e-9
        assert abs(rep_value(proj, g) - value) <= 1e-9
        assert edge_residual(vec, g) <= 1e-10
        assert edge_residual(proj, g) <= 1e-10
        # the 2d - 1 form is the 2d stack with one direction removed: no
        # inner product and no handle overlap changes
        assert np.max(np.abs(vec.vectors @ vec.vectors.T - proj.vectors @ proj.vectors.T)) <= 1e-12
        assert np.max(np.abs(vec.vectors @ vec.handle - proj.vectors @ proj.handle)) <= 1e-12


def test_vector_realify_accepts_a_handle_unit_within_unit_tol():
    # 5e-9 off unit: inside the 1e-8 tolerance every layer applies
    inst = bbc21()
    rep = inst.complex_rep
    scaled = OrthRep("complex", rep.dim, rep.handle * (1 + 5e-9), rep.vectors)
    out = vector_realify(scaled, inst.graph)
    assert out.field == "real" and out.dim == 5
    assert verify_rep(out, inst.graph, tol=1e-8, target=29.0).passed


def test_realify_rejects_misaligned_graph():
    inst = bbc21()
    wrong = ExclusivityGraph(n=3, weights=np.ones(3), edges=())
    with pytest.raises(ValueError, match="vertices"):
        vector_realify(inst.complex_rep, wrong)
    with pytest.raises(ValueError, match="vertices"):
        projector_realify(inst.complex_rep, wrong)
