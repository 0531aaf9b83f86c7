import numpy as np
import pytest
from numpy.testing import assert_allclose

from loorkit import (
    ExclusivityGraph,
    bbc21,
    gram_from_rep,
    hermitize,
    independence_number,
    kcbs,
    lovasz_theta,
    lovasz_theta_complex,
    weight_objective,
)
from loorkit import theta
from util import (bench_corpus, disjoint_union, gnp, join, odd_cycle, odd_cycle_theta, or_product,
                  phase_rotated, random_graph, report_cases, strong_product, tail_graph)


def weighted_gnp20():
    """G(20, .3) with weights log-uniform over six decades, as in the
    weighted case of the benchmark's SDP corpus."""
    rng = np.random.default_rng(3)
    weights = 10.0 ** rng.uniform(0.0, 6.0, 20)
    return gnp(rng, 20, 0.3, weights)


def assert_certified(sol, tol):
    assert sol.converged
    # the bracket's ends are Python floats, like every other report field
    assert type(sol.lower) is float and type(sol.upper) is float
    assert sol.lower <= sol.upper
    assert sol.upper - sol.lower <= tol * sol.upper
    assert sol.value >= sol.lower - tol * sol.upper
    assert sol.unmet(tol) == {}


def affine_project(x, g):
    """The solver's affine projection, on a copy of ``x``."""
    a = np.array(x, dtype=float)
    return theta._affine_part(a, theta._flat_edges(g))


def assert_hermitian_points_stay_in_the_bracket(sol, g, rng):
    """Why one real solve answers the Hermitian program: D X D^H, for a
    diagonal unitary D, is a Hermitian-feasible point, complex in general;
    its real part is real-feasible with the same objective, so it stays
    below the real solve's upper end."""
    w_obj = weight_objective(g)
    for _ in range(3):
        xh = phase_rotated(sol.X, rng)
        assert np.array_equal(xh, xh.conj().T)
        re = xh.real
        assert abs(float(np.trace(re)) - 1.0) <= 1e-12
        assert all(re[i, j] == 0.0 for i, j in g.edges)
        assert np.linalg.eigvalsh(re)[0] >= -sol.psd_residual - 1e-14
        value = np.sum(w_obj * xh)
        assert abs(value.real - np.sum(w_obj * re)) <= 1e-12 * g.weight_sum
        assert abs(value.imag) <= 1e-12 * g.weight_sum
        assert value.real <= sol.upper


def check_solution_feasibility(sol, g, tol):
    x = sol.X
    assert abs(float(np.trace(x).real) - 1.0) <= max(sol.primal_residual, 1e-12)
    for i, j in g.edges:
        assert abs(x[i, j]) <= max(sol.primal_residual, 1e-12)
    assert np.linalg.eigvalsh(x)[0] >= -sol.psd_residual - 1e-14
    assert sol.primal_residual <= tol and sol.psd_residual <= tol


def test_pentagon_value_is_sqrt5():
    g = kcbs().graph
    sol = lovasz_theta(g)
    assert sol.converged
    assert abs(sol.value - np.sqrt(5.0)) <= 1e-6
    check_solution_feasibility(sol, g, 1e-8)


def test_edgeless_unit_weights():
    g = ExclusivityGraph(n=3, weights=np.ones(3), edges=())
    sol = lovasz_theta(g)
    assert abs(sol.value - 3.0) <= 1e-6
    assert_allclose(sol.X, np.full((3, 3), 1.0 / 3.0), atol=1e-5)
    # no edge, no multiplier: upper is sum(w) lambda_max(W / sum(w)) + n eps
    # sum(w), and the rank-one W / sum(w) has lambda_max 1 up to roundoff
    assert sol.y.shape == (0,)
    assert abs(sol.upper - 3.0) <= 2 * 3 * np.finfo(float).eps * 3.0


def test_single_vertex():
    g = ExclusivityGraph(n=1, weights=np.ones(1), edges=())
    assert abs(lovasz_theta(g).value - 1.0) <= 1e-8


def test_bbc_value_is_29():
    sol = lovasz_theta(bbc21().graph, tol=1e-6)
    assert sol.converged
    assert abs(sol.value - 29.0) <= 1e-4


def test_complex_matches_real_on_pentagon():
    g = kcbs().graph
    sol = lovasz_theta(g, tol=1e-6)
    assert sol.converged
    assert abs(sol.value - np.sqrt(5.0)) <= 1e-5
    assert_hermitian_points_stay_in_the_bracket(sol, g, np.random.default_rng(6))


def test_complex_bbc_value_is_29():
    # the Gram matrix of the stored complex rep is a Hermitian optimum that
    # is not real; it lies in the real solve's bracket
    inst = bbc21()
    sol = lovasz_theta(inst.graph, tol=1e-6)
    xh = gram_from_rep(inst.complex_rep, inst.graph)
    assert np.max(np.abs(xh.imag)) > 0.01
    value = np.sum(weight_objective(inst.graph) * xh)
    assert abs(value - 29.0) <= 1e-12
    assert sol.lower <= value.real <= sol.upper


def test_field_consistency_on_random_graphs():
    # one solve answers both fields, so the complex name is the real solve
    assert lovasz_theta_complex is lovasz_theta
    rng = np.random.default_rng(7)
    for _ in range(5):
        g = random_graph(rng, n_max=8)
        sol = lovasz_theta(g, tol=1e-6)
        assert sol.converged
        assert_hermitian_points_stay_in_the_bracket(sol, g, rng)


def test_affine_project_keeps_feasible_points():
    g = kcbs().graph
    x = np.eye(5) / 5.0
    assert_allclose(affine_project(x, g), x, atol=0)


def test_affine_project_zero_matrix():
    g = kcbs().graph
    assert_allclose(affine_project(np.zeros((5, 5)), g), np.eye(5) / 5.0, atol=0)


def test_affine_project_matches_least_squares_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_graph(rng, n_max=8)
        n = g.n
        x = rng.standard_normal((n, n))
        x = (x + x.T) / 2
        got = affine_project(x, g)

        rows = [np.eye(n).ravel()]
        rhs = [1.0]
        for i, j in g.edges:
            for a, b in ((i, j), (j, i)):
                row = np.zeros(n * n)
                row[a * n + b] = 1.0
                rows.append(row)
                rhs.append(0.0)
        a_mat = np.array(rows)
        rhs = np.array(rhs)
        flat = x.ravel()
        oracle = flat - a_mat.T @ np.linalg.solve(a_mat @ a_mat.T, a_mat @ flat - rhs)
        assert np.max(np.abs(got - oracle.reshape(n, n))) <= 1e-10
        assert float(np.trace(got)) == pytest.approx(1.0, abs=1e-12)
        assert all(got[i, j] == 0.0 for i, j in g.edges)


@pytest.mark.parametrize("n", [5, 7, 9])
def test_odd_cycle_closed_form(n):
    sol = lovasz_theta(odd_cycle(n), tol=1e-7)
    assert abs(sol.value - odd_cycle_theta(n)) <= 1e-5


def test_sandwich_on_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_graph(rng, n_max=10)
        sol = lovasz_theta(g, tol=1e-6)
        alpha, _ = independence_number(g)
        assert alpha - 1e-4 <= sol.value <= g.weight_sum + 1e-6


def test_edge_removal_never_decreases_value():
    rng = np.random.default_rng(10)
    done = 0
    while done < 20:
        g = random_graph(rng, n_max=9)
        if not g.edges:
            continue
        drop = int(rng.integers(len(g.edges)))
        smaller = ExclusivityGraph(
            n=g.n, weights=g.weights,
            edges=tuple(e for k, e in enumerate(g.edges) if k != drop),
        )
        v_full = lovasz_theta(g, tol=1e-6).value
        v_less = lovasz_theta(smaller, tol=1e-6).value
        assert v_less >= v_full - 1e-5
        done += 1


def test_weight_objective_uses_geometric_means():
    g = bbc21().graph
    w = weight_objective(g)
    assert w[0, 0] == pytest.approx(3.0, abs=1e-14)
    assert w[9, 9] == pytest.approx(5.0, abs=1e-14)
    assert w[0, 9] == pytest.approx(np.sqrt(15.0), abs=1e-12)


def test_nonconvergence_is_reported_not_raised():
    sol = lovasz_theta(kcbs().graph, tol=1e-16, max_iters=300)
    assert not sol.converged
    assert sol.iterations == 300
    assert np.isfinite(sol.value)
    assert "relative gap" in sol.unmet(1e-16)


@pytest.mark.parametrize("cap", [1, 2, 3, 7])
@pytest.mark.parametrize("make", [kcbs, bbc21], ids=["kcbs", "bbc21"])
def test_a_cap_between_checks_still_brackets_theta(make, cap):
    # the cap forces a check off the CHECK_EVERY grid.  upper is the best
    # seen; X, value, lower and the residuals come from the capped point, or
    # from the last accepted point when the safeguard rejects the capped
    # one, so the report never comes from a runaway extrapolation
    assert cap % theta.CHECK_EVERY
    inst = make()
    sol = lovasz_theta(inst.graph, max_iters=cap)
    assert not sol.converged
    assert sol.iterations == cap
    assert sol.lower <= inst.theta_reference <= sol.upper
    assert sol.psd_residual < 1
    assert sol.primal_residual < 10


@pytest.mark.parametrize("make", [kcbs, bbc21], ids=["kcbs", "bbc21"])
def test_every_small_cap_reports_a_sane_point(make):
    # caps 1-30: some stop unconverged off the grid, some converge at the
    # capped check, and caps past 25 converge at the first grid check
    inst = make()
    for cap in range(1, 31):
        sol = lovasz_theta(inst.graph, max_iters=cap)
        assert sol.converged or sol.iterations == cap, cap
        assert sol.lower <= inst.theta_reference <= sol.upper, cap
        assert sol.psd_residual < 1, cap
        assert sol.primal_residual < 10, cap


def test_g40_converges_with_a_certified_gap():
    sol = lovasz_theta(gnp(np.random.default_rng(0), 40, 0.3), tol=1e-8)
    assert_certified(sol, 1e-8)
    assert sol.iterations <= 1_000


def test_residual_balancing_keeps_a_slow_solve_short():
    # G(29, .49), 201 edges: 2,675 iterations with residual balancing,
    # 15,050 with rho held at 1
    g = tail_graph(250)
    assert (g.n, len(g.edges)) == (29, 201)
    assert_certified(lovasz_theta(g, tol=1e-8, max_iters=6_000), 1e-8)


REPORT_CASES = report_cases()


@pytest.mark.parametrize("name", REPORT_CASES)
def test_the_reported_point_is_the_one_its_bracket_certifies(name):
    # Each solve once met its lower end at a check on an extrapolation the
    # safeguard rejected, kept that best-seen lower end, and then stopped
    # on a point up to 0.8% below it.  Here theta equals alpha, the
    # independent reference: alpha <= theta <= upper with upper at alpha.
    g = REPORT_CASES[name]
    theta_ref, _ = independence_number(g)
    sol = lovasz_theta(g, tol=1e-8)
    assert_certified(sol, 1e-8)
    assert abs(sol.value - theta_ref) <= 1e-8 * sol.upper


@pytest.mark.parametrize("seed", range(8))
def test_six_decade_weights_converge_within_10k(seed):
    rng = np.random.default_rng(seed)
    weights = 10 ** rng.uniform(0, 6, 20)
    sol = lovasz_theta(gnp(rng, 20, 0.3, weights), tol=1e-8, max_iters=10_000)
    assert_certified(sol, 1e-8)


def test_iterations_count_every_psd_projection(monkeypatch):
    # The third projection is always an extrapolated candidate: the first two
    # are plain steps that fill the memory.  Shifting its output by I leaves
    # the affine step unchanged and adds I to the residual, far above the
    # residual it was extrapolated from, so the safeguard rejects it; the
    # rejected projection must still be counted.  The projection is the
    # factor B of z = B B^T, so appending the columns of I to B adds I to z.
    factor = theta._psd_factor
    calls = []

    def counted(m):
        calls.append(m)
        b = factor(m)
        return np.hstack([b, np.eye(len(m))]) if len(calls) == 3 else b

    monkeypatch.setattr(theta, "_psd_factor", counted)
    sol = lovasz_theta(weighted_gnp20(), tol=1e-8)
    assert_certified(sol, 1e-8)
    assert sol.iterations == len(calls)


REFERENCES = [("kcbs", kcbs().graph, np.sqrt(5.0)), ("bbc21", bbc21().graph, 29.0)] + [
    (f"C{n}", odd_cycle(n), odd_cycle_theta(n)) for n in range(5, 33, 2)
]


@pytest.mark.parametrize("solve", [lovasz_theta, lovasz_theta_complex], ids=["real", "complex"])
@pytest.mark.parametrize("g, reference", [case[1:] for case in REFERENCES],
                         ids=[case[0] for case in REFERENCES])
def test_reference_lies_in_the_bracket(g, reference, solve):
    sol = solve(g)
    assert_certified(sol, 1e-8)
    assert sol.lower <= reference <= sol.upper
    assert sol.iterations <= 100


# Each composite's theta is a function of its factors' thetas that is
# monotone in both (Lovász 1979; Knuth 1994 for the weighted forms), so
# the factors' brackets give a reference bracket for the composite.
COMPOSITES = {
    "union": (disjoint_union, lambda s, t: s + t),
    "join": (join, max),
    "strong": (strong_product, lambda s, t: s * t),
    "or": (or_product, lambda s, t: s * t),
}


@pytest.mark.parametrize("compose", COMPOSITES)
def test_composite_brackets_meet_the_reference_of_their_factors(compose):
    build, combine = COMPOSITES[compose]
    factors = [kcbs().graph, gnp(np.random.default_rng(8), 8, 0.4),
               gnp(np.random.default_rng(9), 9, 0.3)]
    sols = [lovasz_theta(f) for f in factors]
    rng = np.random.default_rng(12)
    for i in range(len(factors)):
        for j in range(i, len(factors)):
            sol = lovasz_theta(build(factors[i], factors[j], rng))
            assert sol.converged, (i, j)
            lower = combine(sols[i].lower, sols[j].lower)
            upper = combine(sols[i].upper, sols[j].upper)
            assert sol.lower <= upper and lower <= sol.upper, (i, j, sol, lower, upper)


# iterations to converge at tol 1e-8: cheaper iterations and checks must
# leave every stop point where it is
PINNED_ITERATIONS = {"kcbs": 25, "bbc21": 25, "gnp20-w": 100} | {
    f"C{n}": 25 if n < 25 else 50 for n in range(5, 33, 2)
}


@pytest.mark.parametrize("name, g", [case[:2] for case in REFERENCES] + [("gnp20-w", weighted_gnp20())],
                         ids=[case[0] for case in REFERENCES] + ["gnp20-w"])
def test_iteration_counts_are_pinned(name, g):
    sol = lovasz_theta(g, tol=1e-8)
    assert sol.converged
    assert sol.iterations == PINNED_ITERATIONS[name]


def _solve_with_certificates(g, monkeypatch, **kwargs):
    """The solve, with every certificate point it formed, in order."""
    made, certificate = [], theta._certificate

    def spy(*args):
        made.append(certificate(*args))
        return made[-1]

    monkeypatch.setattr(theta, "_certificate", spy)
    return lovasz_theta(g, **kwargs), made


# solves whose lower end comes from the certificate: the G(40, .3) of the
# extract tests at two tols, and two tail seeds that the n p loss of the
# shifted lower end kept from converging within 20k iterations; tail seed
# 240 has theta = alpha = 18
CERTIFIED = {
    "g40-1e-8": (lambda: gnp(np.random.default_rng(0), 40, 0.3), 1e-8, 550, None),
    "g40-1e-6": (lambda: gnp(np.random.default_rng(0), 40, 0.3), 1e-6, 325, None),
    "tail238": (lambda: tail_graph(238), 1e-8, 8_850, None),
    "tail240": (lambda: tail_graph(240), 1e-8, 15_625, 18.0),
}


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_certified_lower_end_comes_with_its_exactly_feasible_matrix(name, monkeypatch):
    make, tol, iterations, alpha = CERTIFIED[name]
    g = make()
    sol, made = _solve_with_certificates(g, monkeypatch, tol=tol, max_iters=20_000)
    assert_certified(sol, tol)
    assert sol.iterations == iterations
    assert sol.X is made[-1]
    n, eps = g.n, np.finfo(float).eps
    assert all(sol.X[i, j] == 0.0 and sol.X[j, i] == 0.0 for i, j in g.edges)
    assert np.array_equal(sol.X, sol.X.T)
    assert abs(float(np.trace(sol.X)) - 1.0) <= n * eps
    assert np.linalg.eigvalsh(sol.X)[0] >= -n * eps
    # lower is W . X at that X, less the roundoff allowance n eps sum(w)
    scale = g.weight_sum
    value = scale * float(np.sum(weight_objective(g) / scale * sol.X))
    assert sol.value == value
    assert sol.lower == value - n * eps * scale
    if alpha is not None:
        assert independence_number(g)[0] == alpha
        assert sol.lower <= alpha <= sol.upper


def test_a_certificate_that_misses_backs_off(monkeypatch):
    # tail seed 253 stays capped at 20,000.  From iteration 9,950 every check
    # is gated and every attempt leaves the gap open, so the checks skipped
    # after each attempt double (1, 2, 4, ...): the 43 gated checks up to
    # iteration 11,000 make 6 attempts, at 9,950, 10,000, 10,075, 10,200,
    # 10,425 and 10,850
    sol, made = _solve_with_certificates(tail_graph(253), monkeypatch, tol=1e-8,
                                         max_iters=11_000)
    assert not sol.converged
    assert len(made) == 6


def test_a_certificate_reuses_the_factor_of_its_point(monkeypatch):
    # each attempt of tail seed 253 factors the point its check reads, whose
    # factor the loop formed: one factor per iteration, none per attempt
    factor = theta._psd_factor
    formed = []

    def counted(m):
        formed.append(None)
        return factor(m)

    monkeypatch.setattr(theta, "_psd_factor", counted)
    sol, made = _solve_with_certificates(tail_graph(253), monkeypatch, tol=1e-8,
                                         max_iters=11_000)
    assert len(made) == 6
    assert len(formed) == sol.iterations == 11_000


def test_the_edge_system_is_solved_matrix_free_above_the_dense_size(monkeypatch):
    # above CERT_DENSE_EDGES the m x m system is never formed or solved; CG
    # gives the dense solve's certificate to the tolerance it stops at
    g = gnp(np.random.default_rng(0), 40, 0.3)
    ei, ej = g.edge_arrays()
    b = theta._psd_factor(lovasz_theta(g, tol=1e-6).X)
    dense = theta._certificate(b, b @ b.T, ei, ej)
    monkeypatch.setattr(theta, "CERT_DENSE_EDGES", len(ei) - 1)
    monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("solved the formed system"))
    cg = theta._certificate(b, b @ b.T, ei, ej)
    w = weight_objective(g)
    assert abs(np.sum(w * cg) - np.sum(w * dense)) <= 1e-6 * np.sum(w * dense)
    assert all(cg[i, j] == 0.0 for i, j in g.edges)


def dual_upper(g, y):
    """upper re-derived from (g, y) as the solver derives it: sum(w) times
    lambda_max of W / sum(w) with y_e at both ends of each edge e, plus the
    roundoff allowance n eps sum(w)."""
    scale = g.weight_sum
    ei, ej = g.edge_arrays()
    m = weight_objective(g) / scale
    m[ei, ej] = y
    m[ej, ei] = y
    return scale * float(np.linalg.eigvalsh(m)[-1]) + g.n * np.finfo(float).eps * scale


def _solve_with_duals(g, monkeypatch, **kwargs):
    """The solve, with every dual matrix it handed eigvalsh, in order: the
    matrices that are W / sum(w) off the edges."""
    w = weight_objective(g) / g.weight_sum
    off = np.ones((g.n, g.n), dtype=bool)
    ei, ej = g.edge_arrays()
    off[ei, ej] = off[ej, ei] = False
    duals, eigvalsh = [], np.linalg.eigvalsh

    def spy(a):
        if np.array_equal(a[off], w[off]):
            duals.append(a.copy())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    sol = lovasz_theta(g, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return sol, duals


def y_cases():
    sdp = bench_corpus().sdp_cases(1)
    yield "sdp1", [(c.graph, {"tol": 1e-8, "max_iters": 10_000}) for c in sdp]
    for make in (kcbs, bbc21):
        yield f"{make.__name__}-caps", [(make().graph, {"max_iters": cap}) for cap in range(1, 31)]
    yield "tail253-cap11000", [(tail_graph(253), {"tol": 1e-8, "max_iters": 11_000})]
    # the second of its three dual bounds is its best (see the test below)
    yield "tail245", [(tail_graph(245), {"tol": 1e-8})]


Y_CASES = dict(y_cases())


@pytest.mark.parametrize("name", Y_CASES)
def test_upper_rederives_from_y_bitwise(name):
    for g, kwargs in Y_CASES[name]:
        sol = lovasz_theta(g, **kwargs)
        assert sol.y.shape == (len(g.edges),) and np.isfinite(sol.y).all(), kwargs
        assert dual_upper(g, sol.y) == sol.upper, kwargs


def test_y_proves_the_best_upper_not_the_last(monkeypatch):
    # tail seed 245 converges at iteration 700 after three checks that
    # reached the dual; its last upper is worse than the second, which the
    # report keeps, with its y
    g = tail_graph(245)
    sol, duals = _solve_with_duals(g, monkeypatch, tol=1e-8)
    assert sol.converged and sol.iterations == 700
    ei, ej = g.edge_arrays()
    bounds = [dual_upper(g, m[ej, ei]) for m in duals]
    assert len(bounds) == 3 and bounds[-1] > sol.upper == bounds[1] == min(bounds)
    assert np.array_equal(sol.y, duals[1][ej, ei])


@pytest.mark.parametrize("make", [lambda: kcbs().graph, lambda: tail_graph(245), weighted_gnp20,
                                  lambda: gnp(np.random.default_rng(0), 40, 0.3)],
                         ids=["kcbs", "tail245", "gnp20-w", "g40"])
def test_every_dual_matrix_is_bitwise_symmetric(make, monkeypatch):
    # (t - z)_ij and (t - z)_ji are bitwise equal at every check, so one
    # multiplier per edge, written into both triangles, rebuilds the dual
    # matrix the solver bounded
    sol, duals = _solve_with_duals(make(), monkeypatch, tol=1e-8, max_iters=2_000)
    assert duals
    assert all(np.array_equal(m, m.T) for m in duals)


@pytest.mark.parametrize("g, reference", [case[1:] for case in REFERENCES[:8]],
                         ids=[case[0] for case in REFERENCES[:8]])
def test_any_multipliers_on_the_edges_give_a_lovasz_dual(g, reference):
    # theta <= lambda_max(W + Y) for every Y supported on the edges, so a
    # perturbed y still bounds theta from above: this checks the claim that
    # y proves upper, not the solver
    y = lovasz_theta(g).y
    for e in (0, len(y) // 2, len(y) - 1):
        for delta in (-0.1, -1e-3, 1e-3, 0.1):
            perturbed = y.copy()
            perturbed[e] += delta
            assert dual_upper(g, perturbed) >= reference, (e, delta)


def test_a_check_that_misses_the_primal_residual_solves_no_eigenproblem(monkeypatch):
    # weighted_gnp20 misses tol on the primal residual at its checks at
    # iterations 25 and 50.  A check runs its eigenproblems (the PSD
    # residual, then the dual's lambda_max) only once the primal residual
    # is met, except the forced check at the cap, which runs both
    g = weighted_gnp20()
    assert lovasz_theta(g, tol=1e-8, max_iters=25).primal_residual > 1e-8
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counted(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    sol = lovasz_theta(g, tol=1e-8, max_iters=50)
    assert sol.primal_residual > 1e-8
    assert calls == [(20, 20), (20, 20)]  # the forced check at 50 only
    assert np.isfinite(sol.psd_residual) and np.isfinite(sol.lower) and np.isfinite(sol.upper)
    assert sol.lower <= sol.upper


@pytest.mark.parametrize("g", [bbc21().graph, weighted_gnp20()], ids=["bbc21", "gnp20-w"])
def test_weight_scale_does_not_change_the_solve(g):
    base = lovasz_theta(g)
    assert base.converged
    for factor in (1e3, 1e-3):
        scaled = lovasz_theta(ExclusivityGraph(n=g.n, weights=g.weights * factor, edges=g.edges))
        assert scaled.iterations == base.iterations
        assert scaled.value == pytest.approx(base.value * factor, rel=1e-12, abs=0)
        assert scaled.lower == pytest.approx(base.lower * factor, rel=1e-12, abs=0)
        assert scaled.upper == pytest.approx(base.upper * factor, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", [-100, -10, 2, 10, 100])
def test_weights_times_a_power_of_four_scale_the_solve_exactly(k):
    # scaling by 4^k is exact: sum(w) and sqrt(w_i w_j) scale by 4^k and 2^k
    # with no rounding, so the solve on w / sum(w) is bitwise the same
    for g in (kcbs().graph, bbc21().graph, weighted_gnp20()):
        base = lovasz_theta(g)
        sol = lovasz_theta(ExclusivityGraph(n=g.n, weights=g.weights * 4.0 ** k, edges=g.edges))
        assert sol.iterations == base.iterations
        assert sol.X.tobytes() == base.X.tobytes()
        assert (sol.value, sol.lower, sol.upper) == tuple(
            x * 4.0 ** k for x in (base.value, base.lower, base.upper))


def test_converged_brackets_meet_the_tolerance_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(10):
        g = random_graph(rng, n_max=10, dyadic_weights=False)
        sol = lovasz_theta(g, tol=1e-7)
        assert_certified(sol, 1e-7)
        alpha, _ = independence_number(g)
        assert alpha <= sol.upper


def test_solves_are_deterministic():
    g = bbc21().graph
    a = lovasz_theta(g, tol=1e-6)
    b = lovasz_theta(g, tol=1e-6)
    assert a.value == b.value and a.iterations == b.iterations
    assert np.array_equal(a.X, b.X)


def test_rejects_bad_arguments():
    g = kcbs().graph
    for tol in (0.0, float("inf"), float("nan"), True):
        with pytest.raises(ValueError, match="tol"):
            lovasz_theta(g, tol=tol)
    for max_iters in (0, 2.5, True):
        with pytest.raises(ValueError, match="max_iters"):
            lovasz_theta(g, max_iters=max_iters)


def positive_part(m):
    """The positive part of ``m`` as the solver forms it: its factor B, recomposed as B B^T."""
    b = theta._psd_factor(m)
    return b @ b.T


def test_psd_project_clips_negative_diagonal():
    assert_allclose(positive_part(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_psd_project_fixes_psd_input():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 5))
    m = a @ a.T
    assert np.max(np.abs(positive_part(m) - m)) <= 1e-10 * max(1.0, np.max(np.abs(m)))


def test_psd_project_matches_clipping_oracle_and_is_idempotent():
    rng = np.random.default_rng(2)
    for _ in range(25):
        raw = rng.standard_normal((7, 7))
        m = (raw + raw.T) / 2
        p = positive_part(m)
        assert p.dtype == np.float64
        assert np.array_equal(p, p.T)
        vals, vecs = np.linalg.eigh(m)
        oracle = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        assert np.max(np.abs(p - oracle)) <= 1e-10
        assert np.max(np.abs(positive_part(p) - p)) <= 1e-10
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
    p = positive_part(m)
    assert p.dtype == m.dtype
    assert np.array_equal(p, np.zeros((4, 4)))


def test_psd_part_drops_a_zero_eigenvalue():
    # eigh sorts the spectrum to [-1, 0, 1]; the zero sits on the boundary
    # of the kept positive suffix, and the result is exact either way
    assert np.array_equal(positive_part(np.diag([0.0, 1.0, -1.0])), np.diag([0.0, 1.0, 0.0]))


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
    p = positive_part(m)
    b = vp * np.sqrt(values[pos])
    assert np.array_equal(p, b @ b.T)
    assert np.array_equal(p, p.T)
    assert np.max(np.abs(p - masked)) <= 1e-14 * np.max(np.abs(m))
