import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from loorkit import (
    ExclusivityGraph,
    OrthRep,
    RepFormatError,
    bbc21,
    block_embed,
    certify_operator,
    gram_from_rep,
    hermitize,
    kcbs,
    lovasz_theta,
    max_edge_overlap,
    orthogonality_graph,
    parse_rep,
    rep_from_gram,
    rep_value,
    serialize_rep,
    verify_rep,
    weight_objective,
)
from loorkit.graph import DEFAULT_TOL
from loorkit.loor import _checked_hermitian
from util import gnp, odd_cycle, odd_cycle_theta, random_complex_rep, random_unitary

SQRT5 = float(np.sqrt(5.0))


def feasibility(x, g):
    """(trace deviation, worst edge entry, most negative eigenvalue)."""
    tr = abs(float(np.trace(x).real) - 1.0)
    edge = max((abs(x[i, j]) for i, j in g.edges), default=0.0)
    lam = float(np.linalg.eigvalsh(x)[0])
    return tr, edge, lam


def test_rep_value_kcbs():
    inst = kcbs()
    assert rep_value(inst.real_rep, inst.graph) == pytest.approx(SQRT5, abs=1e-12)
    overlaps = np.abs(inst.real_rep.vectors @ inst.real_rep.handle) ** 2
    assert_allclose(overlaps, np.full(5, 1.0 / np.sqrt(5.0)), atol=1e-12)


def test_rep_value_bbc_complex():
    inst = bbc21()
    assert rep_value(inst.complex_rep, inst.graph) == pytest.approx(29.0, abs=1e-12)


def test_rep_value_orthogonal_handle_is_zero():
    g = ExclusivityGraph(n=2, weights=np.ones(2), edges=())
    rep = OrthRep("real", 3, np.array([0.0, 0.0, 1.0]),
                  np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
    assert rep_value(rep, g) == 0.0


def test_rep_value_rejects_misaligned_sizes():
    inst = kcbs()
    g = ExclusivityGraph(n=4, weights=np.ones(4), edges=())
    with pytest.raises(ValueError, match="vertices"):
        rep_value(inst.real_rep, g)


def test_verify_bbc_real_reference():
    inst = bbc21()
    report = verify_rep(inst.real_rep, inst.graph, tol=1e-10, target=29.0)
    assert report.passed
    assert report.max_edge_residual <= 1e-12
    assert report.value == pytest.approx(29.0, abs=1e-12)


def test_verify_kcbs_reference():
    inst = kcbs()
    assert verify_rep(inst.real_rep, inst.graph, tol=1e-10, target=SQRT5).passed


def test_verify_sign_flip_still_passes():
    inst = kcbs()
    vectors = inst.real_rep.vectors.copy()
    vectors[2] = -vectors[2]
    flipped = OrthRep("real", 3, inst.real_rep.handle, vectors)
    report = verify_rep(flipped, inst.graph, tol=1e-10, target=SQRT5)
    assert report.passed


def test_verify_reports_failures_without_raising():
    inst = kcbs()
    report = verify_rep(inst.real_rep, inst.graph, tol=1e-10, target=3.0)
    assert not report.passed
    assert report.value == pytest.approx(SQRT5, abs=1e-12)


@pytest.mark.parametrize(
    ("argument", "value"),
    [("tol", value) for value in (0.0, -1.0, float("inf"), float("nan"), True)]
    + [("target", value) for value in (float("inf"), float("-inf"), float("nan"), True)],
)
def test_verify_rep_rejects_bad_arguments(argument, value):
    inst = bbc21()
    kwargs = {"target": 29.0, argument: value}
    with pytest.raises(ValueError, match=f"^{argument} must be"):
        verify_rep(inst.real_rep, inst.graph, **kwargs)


@pytest.mark.parametrize("tol", [None, "1e-8", [1e-8], 1j],
                         ids=["none", "string", "list", "complex"])
@pytest.mark.parametrize("call", [
    lambda inst, tol: lovasz_theta(inst.graph, tol=tol),
    lambda inst, tol: verify_rep(inst.real_rep, inst.graph, tol=tol),
    lambda inst, tol: rep_from_gram(np.eye(5) / 5.0, inst.graph, tol=tol),
    lambda inst, tol: orthogonality_graph(inst.real_rep.vectors, tol=tol),
], ids=["lovasz_theta", "verify_rep", "rep_from_gram", "orthogonality_graph"])
def test_a_tol_that_is_not_a_number_is_refused_naming_it(call, tol):
    # a ValueError, as each of them promises, not the TypeError of comparing the tol with 0
    with pytest.raises(ValueError, match=r"^tol must be positive and finite, got "):
        call(kcbs(), tol)


@pytest.mark.parametrize(
    ("factor", "target", "passed"),
    [(1e-22, 0.0, False), (1e13, "value", True), (1e13, "theta", True)],
    ids=["tiny-weights-zero-target", "huge-weights-exact-value", "huge-weights-theta"],
)
def test_verify_value_check_is_scale_free(factor, target, passed):
    # the value is 1-homogeneous in w, so the bound on |value - target| is tol * sum(w);
    # near 1e13 the doubles are 0.004 apart, so theta itself misses the value by roundoff
    inst = kcbs()
    g = ExclusivityGraph(5, inst.graph.weights * factor, inst.graph.edges)
    target = {"value": rep_value(inst.real_rep, g), "theta": SQRT5 * factor}.get(target, target)
    assert verify_rep(inst.real_rep, g, target=target).passed is passed


@pytest.mark.parametrize(("offset", "passed"), [(0.5, True), (2.0, False), (-0.5, True), (-2.0, False)])
def test_verify_value_bound_is_tol_times_weight_sum(offset, passed):
    inst = bbc21()
    tol = 1e-6
    target = rep_value(inst.real_rep, inst.graph) + offset * tol * inst.graph.weight_sum
    assert verify_rep(inst.real_rep, inst.graph, tol=tol, target=target).passed is passed


def test_report_value_consistent_with_overlaps():
    inst = bbc21()
    report = verify_rep(inst.real_rep, inst.graph)
    recomputed = float(np.dot(inst.graph.weights, report.per_vertex_overlap))
    assert abs(report.value - recomputed) <= 1e-12


def test_gram_from_rep_kcbs_attains_sqrt5():
    inst = kcbs()
    x = gram_from_rep(inst.real_rep, inst.graph)
    w = weight_objective(inst.graph)
    tr, edge, lam = feasibility(x, inst.graph)
    assert float(np.sum(w * x)) == pytest.approx(SQRT5, abs=1e-10)
    assert tr <= 1e-10 and edge <= 1e-10 and lam >= -1e-10


def test_gram_from_rep_single_vertex():
    g = ExclusivityGraph(n=1, weights=np.ones(1), edges=())
    rep = OrthRep("real", 2, np.array([1.0, 0.0]), np.array([[1.0, 0.0]]))
    assert_allclose(gram_from_rep(rep, g), [[1.0]], atol=1e-14)


def test_gram_from_rep_bbc_complex_attains_29():
    inst = bbc21()
    x = gram_from_rep(inst.complex_rep, inst.graph)
    w = weight_objective(inst.graph)
    tr, edge, lam = feasibility(x, inst.graph)
    assert float(np.sum(w * x).real) == pytest.approx(29.0, abs=1e-9)
    assert tr <= 1e-10 and edge <= 1e-10 and lam >= -1e-10


def test_gram_from_rep_rejects_degenerate():
    g = ExclusivityGraph(n=1, weights=np.ones(1), edges=())
    rep = OrthRep("real", 2, np.array([0.0, 1.0]), np.array([[1.0, 0.0]]))
    with pytest.raises(ValueError, match="degenerate"):
        gram_from_rep(rep, g)


def test_gram_from_rep_does_not_overflow_below_a_finite_value():
    # S = 1.69e308 is finite; the unscaled product sqrt(w) <v|psi> |v> squared is not
    g = ExclusivityGraph(n=1, weights=np.array([1e308]), edges=())
    rep = OrthRep("real", 2, np.array([1.0, 0.0]), np.array([[1.3, 0.0]]))
    assert_allclose(gram_from_rep(rep, g), [[1.69]], rtol=1e-15)


@pytest.mark.parametrize("k", [-100, -10, 2, 10, 100])
def test_weights_times_a_power_of_four_scale_gram_and_operator_exactly(k):
    # scaling by 4^k is exact in binary floating point, and so is every
    # power-of-two rescaling inside gram_from_rep and certify_operator
    inst = bbc21()
    g = ExclusivityGraph(inst.graph.n, inst.graph.weights * 4.0 ** k, inst.graph.edges)
    for rep in (inst.real_rep, inst.complex_rep):
        assert gram_from_rep(rep, g).tobytes() == gram_from_rep(rep, inst.graph).tobytes()
        operator, spectrum, sic = certify_operator(rep, g)
        base_operator, base_spectrum, base_sic = certify_operator(rep, inst.graph)
        assert np.array_equal(spectrum, base_spectrum * 4.0 ** k)
        assert np.array_equal(operator, base_operator * 4.0 ** k)
        assert sic is base_sic


@pytest.mark.parametrize("factor", [1e-13, 1e13])
def test_gram_from_rep_is_scale_free(factor):
    # X is homogeneous of degree 0 in the weights
    inst = kcbs()
    g = ExclusivityGraph(inst.graph.n, inst.graph.weights * factor, inst.graph.edges)
    assert_allclose(gram_from_rep(inst.real_rep, g), gram_from_rep(inst.real_rep, inst.graph),
                    atol=1e-12)


def test_rep_from_gram_pentagon_optimum():
    inst = kcbs()
    sol = lovasz_theta(inst.graph)
    assert sol.converged
    # independent rank oracle: three eigenvalues of the optimum stand clear
    # of a 1e-7-relative cutoff, ten times the rank cut at the default tol,
    # and the rest sit at solver noise
    eigenvalues = np.linalg.eigvalsh(sol.X)
    assert int(np.sum(eigenvalues > 1e-7 * eigenvalues[-1])) == 3
    rep = rep_from_gram(sol.X, inst.graph)
    assert rep.dim == 3
    assert abs(rep_value(rep, inst.graph) - SQRT5) <= 1e-5
    assert verify_rep(rep, inst.graph, tol=1e-6).passed
    # with every tol left at its default, the optimum of a solve is accepted
    # at the tol it was solved at, on every odd cycle from C5 to C15 too
    for n in range(5, 16, 2):
        g = odd_cycle(n)
        sol = lovasz_theta(g)
        assert sol.converged
        rep = rep_from_gram(sol.X, g)
        assert rep.dim == 3
        assert verify_rep(rep, g, target=odd_cycle_theta(n)).passed


def test_rep_from_gram_bbc_optimum():
    inst = bbc21()
    sol = lovasz_theta(inst.graph)
    assert sol.converged
    rep = rep_from_gram(sol.X, inst.graph)
    assert abs(rep_value(rep, inst.graph) - 29.0) <= 1e-3
    assert verify_rep(rep, inst.graph, tol=1e-6).passed
    assert verify_rep(rep, inst.graph, target=29.0).passed


def _hermitian_optimum(inst):
    """A complex Hermitian optimum: for bbc21 the Gram matrix of the stored
    complex rep, whose real part has rank 5 = 2 * 3 - 1; for kcbs the real
    optimum as a complex array."""
    if inst.complex_rep is not None:
        return gram_from_rep(inst.complex_rep, inst.graph)
    return lovasz_theta(inst.graph).X.astype(complex)


@pytest.mark.parametrize("make", [kcbs, bbc21], ids=["kcbs", "bbc21"])
def test_rep_from_gram_takes_the_real_part_of_a_hermitian_optimum(make):
    inst = make()
    x = _hermitian_optimum(inst)
    assert np.iscomplexobj(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = rep_from_gram(x, inst.graph)
    assert rep.field == "real"
    report = verify_rep(rep, inst.graph, tol=1e-6, target=inst.theta_reference)
    assert report.passed and abs(report.value - inst.theta_reference) <= 1e-6
    from_real_part = rep_from_gram(x.real, inst.graph)
    assert np.array_equal(rep.handle, from_real_part.handle)
    assert np.array_equal(rep.vectors, from_real_part.vectors)


def test_rep_from_gram_identity_over_n():
    g = ExclusivityGraph(n=3, weights=np.ones(3), edges=())
    rep = rep_from_gram(np.eye(3) / 3.0, g)
    assert rep.dim == 3
    assert_allclose(rep.vectors @ rep.vectors.T, np.eye(3), atol=1e-12)
    overlaps = np.abs(rep.vectors @ rep.handle) ** 2
    assert_allclose(overlaps, np.full(3, 1.0 / 3.0), atol=1e-12)
    assert rep_value(rep, g) == pytest.approx(1.0, abs=1e-12)


def test_rep_from_gram_rank_one_gives_one_dimension():
    u = np.array([0.6, 0.48, 0.64])
    rep = rep_from_gram(np.outer(u, u), ExclusivityGraph(n=3, weights=np.ones(3), edges=()))
    assert rep.dim == 1
    assert_allclose(rep.vectors[:, 0] * rep.handle[0], np.ones(3), atol=1e-12)


def test_rep_from_gram_degenerate_vertex_gets_fresh_axis():
    g = ExclusivityGraph(n=2, weights=np.ones(2), edges=())
    rep = rep_from_gram(np.diag([1.0, 0.0]), g)
    assert rep.dim == 2
    assert_allclose(np.linalg.norm(rep.vectors, axis=1), [1.0, 1.0], atol=1e-12)
    assert abs(rep.vectors[1] @ rep.handle) <= 1e-12
    assert abs(rep.vectors[0] @ rep.vectors[1]) <= 1e-12


@pytest.mark.parametrize(("eigenvalue", "tol", "dim"),
                         [(1e-5, 1e-4, 1), (1e-5, 1e-6, 2), (5e-8, DEFAULT_TOL, 2)])
def test_rep_from_gram_rank_cut_follows_tol(eigenvalue, tol, dim):
    # X = (1 - e) u u^T + e v v^T keeps v exactly when e > tol (1 - e)
    u, v = np.array([0.8, 0.6]), np.array([-0.6, 0.8])
    x = (1 - eigenvalue) * np.outer(u, u) + eigenvalue * np.outer(v, v)
    g = ExclusivityGraph(n=2, weights=np.ones(2), edges=())
    assert rep_from_gram(x, g, tol=tol).dim == dim


@pytest.mark.parametrize(("tol", "dim"), [(None, 2), (1e-11, 1)], ids=["default", "1e-11"])
def test_rep_from_gram_vanishing_vertex_follows_tol(tol, dim):
    # X = u u^T with |u_2|^2 = 1e-10: vanishing at the default tol, so
    # vertex 2 gets a fresh axis, orthogonal to the handle; live at 1e-11
    u = np.array([0.6, 0.8, 1e-5])
    u /= np.linalg.norm(u)
    g = ExclusivityGraph(n=3, weights=np.ones(3), edges=())
    rep = rep_from_gram(np.outer(u, u), g, **({} if tol is None else {"tol": tol}))
    assert rep.dim == dim
    if dim == 2:
        assert rep.vectors[2] @ rep.handle == 0.0


def test_extracted_rep_gives_its_graph_back_at_the_default_tol():
    # the edge residual of G(150)'s extract is 5.8e-9: within the default
    # tol, but not within 1e-9
    g = gnp(np.random.default_rng(150), 150, 0.3)
    sol = lovasz_theta(g)
    assert sol.converged
    rep = rep_from_gram(sol.X, g)
    assert verify_rep(rep, g).passed
    assert orthogonality_graph(rep.vectors).edges == g.edges


@pytest.mark.parametrize(("tol", "accepted"), [(None, False), (1e-4, True)],
                         ids=["default", "1e-4"])
def test_rep_from_gram_psd_floor_follows_tol(tol, accepted):
    # unit trace, most negative eigenvalue -2e-6: below the default floor,
    # above the floor of a solve at tol 1e-4, where the negative direction
    # is cut and vertex 2 gets a fresh axis
    g = ExclusivityGraph(n=3, weights=np.ones(3), edges=())
    x = np.diag([0.5, 0.5 + 2e-6, -2e-6])
    kwargs = {} if tol is None else {"tol": tol}
    if accepted:
        rep = rep_from_gram(x, g, **kwargs)
        assert rep.dim == 3
        assert rep.vectors[2] @ rep.handle == 0.0
    else:
        with pytest.raises(ValueError, match="not positive semidefinite: min eigenvalue -2.0"):
            rep_from_gram(x, g, **kwargs)


def test_rep_from_gram_rejects_infeasible():
    g = kcbs().graph
    with pytest.raises(ValueError, match="not feasible"):
        rep_from_gram(np.eye(5), g)  # trace 5


@pytest.mark.parametrize(("tol", "accepted"), [(None, False), (1e-6, False), (1e-4, True)],
                         ids=["default", "1e-6", "1e-4"])
def test_rep_from_gram_feasibility_follows_tol(tol, accepted):
    g = ExclusivityGraph(n=4, weights=np.ones(4), edges=())
    x = (1.0 + 1e-5) * np.eye(4) / 4.0  # trace off by 1e-5
    kwargs = {} if tol is None else {"tol": tol}
    if accepted:
        assert rep_from_gram(x, g, **kwargs).dim == 4
    else:
        with pytest.raises(ValueError, match="not feasible: trace deviation 1.000e-05"):
            rep_from_gram(x, g, **kwargs)


@pytest.mark.parametrize(
    ("x", "kwargs", "fragment"),
    [
        (np.eye(4) / 4.0, {}, "expected a 5 x 5 matrix"),
        (np.zeros((5, 5)), {"tol": 2.0}, "no handle recoverable"),
        (np.full((5, 5), np.nan), {}, "finite"),
        (np.eye(5) / 5.0 + 0.1 * np.eye(5, k=2), {}, "symmetry"),
        (np.eye(5) / 5.0 + 0.1j * (np.eye(5, k=2) + np.eye(5, k=-2)), {}, "symmetry"),
        ([[0.2 if i == j else "0" if (i, j) == (0, 2) else 0 for j in range(5)] for i in range(5)],
         {}, r"matrix\[0\]\[2\] must be a number, got '0'"),
        (np.eye(5, dtype=bool), {}, r"matrix\[0\]\[0\] must be a number, got np.True_"),
        (np.eye(5) / 5.0, {"tol": 0.0}, "^tol must be"),
        (np.eye(5) / 5.0, {"tol": -1.0}, "^tol must be"),
        (np.eye(5) / 5.0, {"tol": float("inf")}, "^tol must be"),
        (np.eye(5) / 5.0, {"tol": float("nan")}, "^tol must be"),
        (np.eye(5) / 5.0, {"tol": True}, "^tol must be"),
    ],
    ids=["wrong-shape", "rank-0", "nan-x", "asymmetric", "non-hermitian", "string-entry",
         "bool-entries", "zero-tol", "negative-tol", "inf-tol", "nan-tol", "bool-tol"],
)
def test_rep_from_gram_refusals_name_the_cause(x, kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        rep_from_gram(x, kcbs().graph, **kwargs)


@pytest.mark.parametrize(("call", "message"), [
    # numpy would read "1" as 1.0 and True as 1.0
    (lambda: hermitize([["1", "0"], ["0", "1"]]), r"matrix\[0\]\[0\] must be a number, got '1'"),
    (lambda: hermitize([[1.0], [0.0, 1.0]]), r"'matrix' must have shape \(n, n\), got ragged rows"),
    (lambda: hermitize([1.0, 2.0]), r"matrix must be square, got shape \(2,\)"),
    (lambda: max_edge_overlap(np.eye(5, dtype=bool), kcbs().graph),
     r"vectors\[0\]\[0\] must be a number, got np.True_"),
    (lambda: max_edge_overlap([["1", "0"]] * 5, kcbs().graph),
     r"vectors\[0\]\[0\] must be a number, got '1'"),
    (lambda: max_edge_overlap([[1.0], [1.0, 2.0]], kcbs().graph),
     r"'vectors' must have shape \(5, d\), got ragged rows"),
    (lambda: orthogonality_graph([[1.0, 0.0], [1.0]]),
     r"'vectors' must have shape \(n, d\), got ragged rows"),
    (lambda: rep_from_gram([[0.5, 0.0], [0.5]], ExclusivityGraph(2, [1.0, 1.0], ())),
     r"'matrix' must have shape \(2, 2\), got ragged rows"),
], ids=["hermitize-strings", "hermitize-ragged", "hermitize-vector", "overlap-bools",
        "overlap-strings", "overlap-ragged", "orthograph-ragged", "gram-ragged"])
def test_library_calls_name_the_entry_or_the_field(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_hermitize_keeps_ints_beyond_int64_real():
    # numpy holds 10**20 as an object; the number check accepts it, and
    # real input stays real
    h = hermitize([[10**20, 1], [1, 2]])
    assert h.dtype == np.float64 and h.tolist() == [[1e20, 1.0], [1.0, 2.0]]


def test_hermitize_reads_a_complex_entry_beside_an_int_beyond_int64():
    # numpy holds this matrix as an object array, which np.iscomplexobj
    # reads as real; one complex entry makes the result complex
    m = [[10**20, 1j], [-1j, 1]]
    h = hermitize(m)
    assert h.dtype == np.complex128 and h[0, 1] == 1j and h[1, 0] == -1j
    assert h.tolist() == [[1e20, 1j], [-1j, 1.0]]
    assert hermitize([[10**20, 1], [1, 1]]).dtype == np.float64
    # block_embed converted such a matrix to complex before, and still gives
    assert block_embed(m).tolist() == [[1e20, 0.0, 0.0, -1.0], [0.0, 1.0, 1.0, 0.0],
                                       [0.0, 1.0, 1e20, 0.0], [-1.0, 0.0, 0.0, 1.0]]


@pytest.mark.parametrize(("tol", "accepted"), [(None, False), (1e-6, True)],
                         ids=["default", "1e-6"])
def test_rep_from_gram_symmetry_follows_tol(tol, accepted):
    x = np.eye(5) / 5.0
    x[0, 2] += 1e-7  # asymmetry 1e-7 on a non-edge of the pentagon
    kwargs = {} if tol is None else {"tol": tol}
    if accepted:
        assert rep_from_gram(x, kcbs().graph, **kwargs).dim == 5
    else:
        with pytest.raises(ValueError, match="symmetry by 1.000e-07"):
            rep_from_gram(x, kcbs().graph, **kwargs)


def test_value_overflow_is_refused_naming_value():
    # the norm passes at the default tol, and the one weight is the largest double
    g = ExclusivityGraph(n=1, weights=np.array([np.finfo(float).max]), edges=())
    rep = OrthRep("real", 1, np.array([1.000000001]), np.array([[1.0]]))
    for measure in (rep_value, verify_rep, gram_from_rep):
        with pytest.raises(ValueError, match="'value' .* overflows, got inf"):
            measure(rep, g)


@pytest.mark.parametrize(("weight", "vector", "spectrum"),
                         [(1e308, [1.9, 0.0], None), (1.7e308, [1.0, 0.0], [0.0, 1.7e308])],
                         ids=["product", "hermitize"])
def test_operator_overflow_is_refused(weight, vector, spectrum):
    # the value is 0, so only the operator sum_i w_i |v_i><v_i| can overflow:
    # w |v|^2 = 3.61e308 does; 1.7e308 does not, though its a + a^H would
    g = ExclusivityGraph(n=1, weights=np.array([weight]), edges=())
    rep = OrthRep("real", 2, np.array([0.0, 1.0]), np.array([vector]))
    assert verify_rep(rep, g).value == 0.0
    if spectrum is None:
        with pytest.raises(ValueError, match="operator .* overflows"):
            verify_rep(rep, g, with_sic=True)
    else:
        assert verify_rep(rep, g, with_sic=True).sic_spectrum.tolist() == spectrum


def test_rep_from_gram_no_handle_error():
    g = ExclusivityGraph(n=2, weights=np.ones(2), edges=())
    x = np.array([[0.5, -0.5], [-0.5, 0.5]])
    with pytest.raises(ValueError, match="handle"):
        rep_from_gram(x, g)


def test_certify_operator_bbc_real_spectrum():
    inst = bbc21()
    operator, spectrum, sic = certify_operator(inst.real_rep, inst.graph)
    off_diag = operator - np.diag(np.diag(operator))
    assert np.max(np.abs(off_diag)) <= 1e-12
    assert_allclose(spectrum, [39 / 4, 12.0, 17.0, 77 / 4, 29.0], atol=1e-10)
    assert not sic


def test_certify_operator_bbc_complex_is_flat():
    inst = bbc21()
    operator, spectrum, sic = certify_operator(inst.complex_rep, inst.graph)
    assert np.max(np.abs(operator - 29.0 * np.eye(3))) <= 1e-12
    assert sic
    assert_allclose(spectrum, [29.0, 29.0, 29.0], atol=1e-12)


def test_certify_operator_complex_identity():
    g = ExclusivityGraph(n=3, weights=np.ones(3), edges=((0, 1), (0, 2), (1, 2)))
    rep = OrthRep("complex", 3, np.eye(3, dtype=complex)[0], np.eye(3, dtype=complex))
    _, spectrum, sic = certify_operator(rep, g)
    assert_allclose(spectrum, [1.0, 1.0, 1.0], atol=1e-14)
    assert sic


def test_certify_operator_pauli_like():
    # weights 1 and 3 on the eigenbasis (1, +-i)/sqrt 2 of m give 2 I + m
    m = np.array([[0.0, 1j], [-1j, 0.0]])
    g = ExclusivityGraph(n=2, weights=np.array([1.0, 3.0]), edges=((0, 1),))
    vectors = np.array([[1.0, 1j], [1.0, -1j]]) / np.sqrt(2.0)
    rep = OrthRep("complex", 2, np.array([1.0, 0.0], dtype=complex), vectors)
    operator, spectrum, sic = certify_operator(rep, g)
    assert_allclose(spectrum - 2.0, [-1.0, 1.0], atol=1e-14)
    assert np.max(np.abs(operator - 2.0 * np.eye(2) - m)) <= 1e-12
    assert not sic


@pytest.mark.parametrize("factor", [1e-9, 1e9])
def test_certify_operator_sic_flag_is_scale_free(factor):
    # state independence does not depend on the unit of the weights: bbc21's
    # rays stay flat (dev 1.4e-6 at 1e9) and the pentagon stays not flat
    # (dev 8.5e-10 at 1e-9)
    for inst, rep, flat in ((bbc21(), "complex_rep", True), (kcbs(), "real_rep", False)):
        g = ExclusivityGraph(inst.graph.n, inst.graph.weights * factor, inst.graph.edges)
        assert certify_operator(getattr(inst, rep), g)[2] is flat


def test_certify_operator_single_vertex():
    g = ExclusivityGraph(n=1, weights=np.ones(1), edges=())
    rep = OrthRep("real", 3, np.array([1.0, 0.0, 0.0]), np.array([[0.0, 1.0, 0.0]]))
    operator, spectrum, sic = certify_operator(rep, g)
    assert_allclose(spectrum, [0.0, 0.0, 1.0], atol=1e-14)
    assert not sic

    g1 = ExclusivityGraph(n=1, weights=np.ones(1), edges=())
    rep1 = OrthRep("real", 1, np.array([1.0]), np.array([[1.0]]))
    assert certify_operator(rep1, g1)[2]


def test_rep_value_unitary_invariance_200_trials():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(1, 7))
        rep, g = random_complex_rep(rng, d, n)
        base = rep_value(rep, g)
        u = random_unitary(rng, d)
        rotated = OrthRep("complex", d, u @ rep.handle, rep.vectors @ u.T)
        worst = max(worst, abs(rep_value(rotated, g) - base))
    assert worst <= 1e-10


def test_operator_top_eigenvalue_dominates_rep_value():
    rng = np.random.default_rng(12)
    for _ in range(30):
        rep, g = random_complex_rep(rng, int(rng.integers(2, 5)), int(rng.integers(1, 8)))
        _, spectrum, _ = certify_operator(rep, g)
        assert spectrum[-1] >= rep_value(rep, g) - 1e-10
    # at the stored optima the handle is a top eigenvector, so equality holds
    for inst in (kcbs(), bbc21()):
        rep = inst.real_rep
        _, spectrum, _ = certify_operator(rep, inst.graph)
        assert spectrum[-1] == pytest.approx(rep_value(rep, inst.graph), abs=1e-10)


def test_rep_json_roundtrip_real_and_complex():
    for rep in (kcbs().real_rep, bbc21().complex_rep):
        back = parse_rep(serialize_rep(rep))
        assert back.field == rep.field and back.dim == rep.dim
        assert np.array_equal(back.handle, rep.handle)
        assert np.array_equal(back.vectors, rep.vectors)


def test_rep_json_complex_scalars_are_pairs():
    doc = json.loads(serialize_rep(bbc21().complex_rep))
    assert doc["handle"][0] == [1.0, 0.0]
    assert isinstance(doc["vectors"][3][2], list)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"field": "real", "dim": 1, "handle": [1.0]}', "vectors"),
        ('{"field": "odd", "dim": 1, "handle": [1.0], "vectors": []}', "field"),
        ('{"field": "cplx", "dim": 1, "handle": [[1, 0]], "vectors": [[[1, 0]]]}', "'field'"),
        ('{"field": "real", "dim": 2, "handle": [1.0], "vectors": []}', "handle"),
        ('{"field": "complex", "dim": 1, "handle": [1.0], "vectors": []}', "re, im"),
        ('{"field": "real", "dim": 1, "handle": [2.0], "vectors": []}',
         r"'vectors' must have shape \(n, 1\), got \(0,\)"),
        ('{"field": "real", "dim": 2, "handle": [1e308, 0], "vectors": [[1, 0]]}', "unit"),
        ('{"field": "real", "dim": 2, "handle": [1, 0], "vectors": [[1e308, 1e308]]}', "unit"),
        ('{"field": "real", "dim": 2, "handle": [1, 0], "vectors": [[0, 0]]}',
         r"handle/vectors must be unit norm \(worst deviation 1.000e\+00\)"),
        ('{"field": "real", "dim": 2, "handle": [1, 0], "vectors": [[0, 2]]}',
         r"handle/vectors must be unit norm \(worst deviation 1.000e\+00\)"),
        ('{"field": "real", "dim": 1, "handle": [NaN], "vectors": [[1]]}', "non-finite"),
        ('{"field": "real", "dim": 1, "handle": [1], "vectors": [[Infinity]]}', "non-finite"),
        ('{"field": "real", "dim": 1, "handle": 5, "vectors": [[1]]}',
         r"handle' must have length 1, got shape \(\)"),
        ('{"field": "real", "dim": 2, "handle": [1, 0], "vectors": [[1]]}',
         r"'vectors' must have shape \(n, 2\), got \(1, 1\)"),
        ('{"field": "real", "dim": 1, "handle": [1], "vectors": "x"}',
         r"'vectors' must have shape \(n, 1\), got \(\)"),
        ('{"field": "real", "dim": 1, "handle": [1], "vectors": [[true]]}',
         r"vectors\[0\]\[0\] must be a real number, got True"),
        ('{"field": "real", "dim": 1, "handle": [1], "vectors": [[[1]]]}',
         r"'vectors' must have shape \(n, 1\), got \(1, 1, 1\)"),
        ('{"field": "complex", "dim": 1, "handle": [[1, 0]], "vectors": [[[1, 0]], [[1, 0, 0]]]}',
         r"vectors\[1\]\[0\] must be a \[re, im\] pair, got \[1, 0, 0\]"),
        ('{"field": "complex", "dim": 1, "handle": [[[1, 0]]], "vectors": [[[1, 0]]]}',
         r"handle\[0\] must be a \[re, im\] pair, got \[\[1, 0\]\]"),
        ('{"field": "complex", "dim": 1, "handle": [[1, 0]], "vectors": [[[true, 0]]]}',
         r"vectors\[0\]\[0\]\[0\] must be a real number, got True"),
        ('{"field": "complex", "dim": 1, "handle": [[1, 0]], "vectors": [[[1, 0]], []]}',
         "'vectors' must have rows of one length, got ragged rows"),
        ('{"field": "real", "dim": 1, "handle": [1.0], "vectors": [], "x": 0}', "unknown"),
        ("[1, 2]", "object"),
        pytest.param("[" * 100_000, "malformed", id="deeply-nested-malformed"),
        ('{"field": "real", "dim": 1, "dim": 1, "handle": [1.0], "vectors": [[1.0]]}',
         "duplicate key 'dim'"),
        pytest.param('{"field": "real", "dim": 1' + "0" * 4999 + ', "handle": [1.0], "vectors": []}',
                     "malformed JSON: .*integer string conversion", id="5000-digit-int"),
    ],
)
def test_rep_parse_errors(doc, fragment):
    with pytest.raises(RepFormatError, match=fragment):
        parse_rep(doc)


def test_rep_nesting_past_numpy_dimension_limit_is_named():
    deep = 1.0
    for _ in range(70):  # numpy arrays have at most 64 dimensions
        deep = [deep]
    real = {"field": "real", "dim": 1, "handle": [1.0], "vectors": deep}
    with pytest.raises(RepFormatError, match=r"'vectors' must have shape \(n, 1\), got nesting "
                       "deeper than numpy's maximum number of dimensions"):
        parse_rep(json.dumps(real))
    # a complex document's pairs are walked, which names the first bad entry
    complex_doc = {"field": "complex", "dim": 1, "handle": [[1, 0]], "vectors": deep}
    with pytest.raises(RepFormatError, match=r"vectors\[0\]\[0\] must be a \[re, im\] pair"):
        parse_rep(json.dumps(complex_doc))


def test_orthrep_validates_norms():
    # the constructor refuses only norms that no tol accepts, |norm - 1| >= 1;
    # verify_rep judges unit norm at its own tol
    for handle in ([0.0, 0.0], [2.0, 0.0], [1e200, 1e200]):
        with pytest.raises(ValueError, match="unit"):
            OrthRep("real", 2, np.array(handle), np.eye(2))
    rep = OrthRep("real", 2, np.array([1.0, 1.0]), np.eye(2))
    report = verify_rep(rep, ExclusivityGraph(n=2, weights=np.ones(2), edges=()), tol=0.5)
    assert report.passed and report.max_norm_residual == np.sqrt(2.0) - 1.0


def test_rep_without_vectors_is_rejected_naming_vectors():
    doc = '{"field": "complex", "dim": 2, "handle": [[1, 0], [0, 0]], "vectors": []}'
    with pytest.raises(RepFormatError, match="'vectors'"):
        parse_rep(doc)
    with pytest.raises(ValueError, match="'vectors'"):
        OrthRep("real", 2, np.array([1.0, 0.0]), np.zeros((0, 2)))


@st.composite
def unit_rows(draw, rows, dim, is_complex):
    """(rows, dim) array of unit rows from arbitrary floats in [-1, 1]."""
    entry = st.floats(-1.0, 1.0)
    count = rows * dim * (2 if is_complex else 1)
    a = np.array(draw(st.lists(entry, min_size=count, max_size=count)))
    a = a.reshape(rows, dim, 2) @ [1.0, 1j] if is_complex else a.reshape(rows, dim)
    a[np.linalg.norm(a, axis=1) < 1e-3] = np.eye(dim)[0]
    return a / np.linalg.norm(a, axis=1)[:, None]


@st.composite
def reps(draw):
    is_complex = draw(st.booleans())
    dim = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    handle = draw(unit_rows(1, dim, is_complex))[0]
    vectors = draw(unit_rows(n, dim, is_complex))
    return OrthRep("complex" if is_complex else "real", dim, handle, vectors)


@settings(deadline=None, max_examples=80)
@given(reps())
def test_every_accepted_rep_roundtrips_bitwise(rep):
    back = parse_rep(serialize_rep(rep))
    assert (back.field, back.dim) == (rep.field, rep.dim)
    assert back.handle.dtype == rep.handle.dtype and back.vectors.dtype == rep.vectors.dtype
    assert back.handle.tobytes() == rep.handle.tobytes()
    assert back.vectors.tobytes() == rep.vectors.tobytes()


def test_herm_eig_weighted_ray_sum_is_flat():
    # oracle: the weighted projector sum of the 21-ray complex instance is 29 I
    inst = bbc21()
    operator, _, _ = certify_operator(inst.complex_rep, inst.graph)
    assert_allclose(operator, 29.0 * np.eye(3), atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(operator), [29.0, 29.0, 29.0], atol=1e-12)


def test_herm_eig_rejects_non_hermitian():
    # complex symmetric but not Hermitian: the check every eigensolve runs behind
    with pytest.raises(ValueError, match="Hermitian"):
        _checked_hermitian(np.array([[0.0, 1j], [1j, 0.0]]), DEFAULT_TOL)


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
