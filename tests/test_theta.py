import numpy as np
import pytest
from numpy.testing import assert_allclose

from loorkit import (
    ExclusivityGraph,
    bbc21,
    gram_from_rep,
    independence_number,
    kcbs,
    lovasz_theta,
    lovasz_theta_complex,
    weight_objective,
)
from loorkit import theta
from util import gnp, odd_cycle, odd_cycle_theta, phase_rotated, random_graph, report_cases


def weighted_gnp20():
    """G(20, .3) with weights log-uniform over six decades, as in the
    weighted case of the benchmark's SDP corpus."""
    rng = np.random.default_rng(3)
    weights = 10.0 ** rng.uniform(0.0, 6.0, 20)
    return gnp(rng, 20, 0.3, weights)


def assert_certified(sol, tol):
    assert sol.converged
    assert sol.lower <= sol.upper
    assert sol.upper - sol.lower <= tol * sol.upper
    assert sol.value >= sol.lower - tol * sol.upper
    assert sol.unmet(tol) == {}


def affine_project(x, g):
    """The solver's affine projection, on a copy of ``x``."""
    a = np.array(x, dtype=float)
    return theta._affine_part(a, theta._flat_edges(g), slice(None, None, g.n + 1))


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
    rng = np.random.default_rng(250)
    n = int(rng.integers(20, 45))
    p = float(rng.uniform(0.1, 0.7))
    g = gnp(rng, n, p)
    assert (n, len(g.edges)) == (29, 201)
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
    # rejected projection must still be counted.
    project = theta.psd_part
    calls = []

    def counted(m):
        calls.append(m)
        z = project(m)
        return z + np.eye(len(m)) if len(calls) == 3 else z

    monkeypatch.setattr(theta, "psd_part", counted)
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
