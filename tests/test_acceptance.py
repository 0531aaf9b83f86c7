"""Acceptance suite: one check per release criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion.

Run under pytest (``pytest tests/test_acceptance.py -v``; add ``-s`` to see
the lines as they print) or standalone (``python tests/test_acceptance.py``).
"""

import sys
import time

import numpy as np

from loorkit import (
    bbc21,
    block_embed,
    certify_operator,
    gram_from_rep,
    independence_number,
    kcbs,
    lovasz_theta,
    lovasz_theta_complex,
    projector_realify,
    rep_from_gram,
    rep_value,
    vector_realify,
    verify_rep,
    weight_objective,
)
from util import (
    brute_force_independence,
    edge_residual,
    odd_cycle,
    odd_cycle_theta,
    phase_rotated,
    random_complex_rep,
    random_graph,
)

SQRT5 = float(np.sqrt(5.0))


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d} {status}: {description}{suffix}")
    assert ok, f"criterion {num} failed: {description} {detail}"


def test_criterion_01_pentagon_theta():
    start = time.perf_counter()
    sol = lovasz_theta(kcbs().graph)
    elapsed = time.perf_counter() - start
    dev = abs(sol.value - 2.2360680)
    _report(
        1,
        "theta(pentagon) = 2.2360680 within 1e-6 in under 1 s",
        sol.converged and dev <= 1e-6 and elapsed < 1.0,
        f"value {sol.value:.9f}, dev {dev:.2e}, {elapsed:.3f} s",
    )


def test_criterion_02_bbc_theta():
    start = time.perf_counter()
    sol = lovasz_theta(bbc21().graph, tol=1e-6)
    elapsed = time.perf_counter() - start
    dev = abs(sol.value - 29.0)
    _report(
        2,
        "theta(21-ray, weights 3/5) = 29 within 1e-4 in under 10 s",
        sol.converged and dev <= 1e-4 and elapsed < 10.0,
        f"value {sol.value:.8f}, dev {dev:.2e}, {elapsed:.3f} s",
    )


def test_criterion_03_independence_numbers():
    start = time.perf_counter()
    a5 = independence_number(kcbs().graph)[0]
    a21 = independence_number(bbc21().graph)[0]
    elapsed = time.perf_counter() - start
    _report(
        3,
        "alpha(pentagon) = 2 and alpha(21-ray weighted) = 27, exactly",
        a5 == 2.0 and a21 == 27.0 and elapsed < 1.0,
        f"alpha5 {a5}, alpha21 {a21}, {elapsed:.3f} s",
    )


def test_criterion_04_real_vector_reproduction():
    inst = bbc21()
    out = vector_realify(inst.complex_rep, inst.graph)
    dev = float(np.max(np.abs(out.vectors - inst.real_rep.vectors)))
    dev = max(dev, float(np.max(np.abs(out.handle - inst.real_rep.handle))))
    report = verify_rep(out, inst.graph, tol=1e-10, target=29.0)
    _report(
        4,
        "vector conversion reproduces the 21 five-dim reference vectors to 1e-12 "
        "and verifies at 29",
        out.dim == 5 and dev <= 1e-12 and report.passed and abs(report.value - 29.0) <= 1e-9,
        f"entry dev {dev:.2e}, value {report.value:.10f}",
    )


def test_criterion_05_operator_spectra():
    inst = bbc21()
    op_r, spectrum_r, sic_r = certify_operator(inst.real_rep, inst.graph)
    diag_dev = float(np.max(np.abs(op_r - np.diag(np.diag(op_r)))))
    spectrum_dev = float(
        np.max(np.abs(spectrum_r - np.array([39 / 4, 12.0, 17.0, 77 / 4, 29.0])))
    )
    op_c, _, sic_c = certify_operator(inst.complex_rep, inst.graph)
    flat_dev = float(np.max(np.abs(op_c - 29.0 * np.eye(3))))
    _report(
        5,
        "real operator diagonal {39/4, 12, 17, 77/4, 29} (not flat); "
        "complex operator 29*I (flat)",
        diag_dev <= 1e-12 and spectrum_dev <= 1e-10 and not sic_r
        and flat_dev <= 1e-12 and sic_c,
        f"diag dev {diag_dev:.2e}, spectrum dev {spectrum_dev:.2e}, "
        f"flat dev {flat_dev:.2e}",
    )


def test_criterion_06_field_equality():
    # one real solve answers the Hermitian program: the real part of a
    # Hermitian-feasible X is real-feasible with the same objective.  A
    # phase-rotated optimum D X D^H is such a point, and the Gram matrix of
    # the stored complex 21-ray rep is a Hermitian optimum that is not real.
    graphs = [kcbs().graph, odd_cycle(7), bbc21().graph]
    rng = np.random.default_rng(20)
    graphs += [random_graph(rng, n_max=10) for _ in range(20)]
    sols = [lovasz_theta(g, tol=1e-6) for g in graphs]
    all_converged = all(sol.converged for sol in sols)
    real_parts_feasible = True
    worst_excess = -np.inf  # Hermitian value above the real upper end
    for g, sol in zip(graphs, sols):
        xh = phase_rotated(sol.X, rng)
        re = xh.real
        real_parts_feasible &= (
            abs(float(np.trace(re)) - 1.0) <= 1e-12
            and all(re[i, j] == 0.0 for i, j in g.edges)
            and np.linalg.eigvalsh(re)[0] >= -sol.psd_residual - 1e-14
        )
        worst_excess = max(worst_excess, float(np.sum(weight_objective(g) * xh).real) - sol.upper)
    inst = bbc21()
    xh = gram_from_rep(inst.complex_rep, inst.graph)
    complex_gap = abs(complex(np.sum(weight_objective(inst.graph) * xh)) - sols[2].value)
    _report(
        6,
        "one solve for both fields; the complex 21-ray optimum matches the real "
        "value within 1e-4, and phase-rotated optima of pentagon, 7-cycle, "
        "21-ray and 20 random graphs stay below the real upper end",
        lovasz_theta_complex is lovasz_theta and all_converged and real_parts_feasible
        and worst_excess <= 0.0 and complex_gap <= 1e-4,
        f"complex gap {complex_gap:.2e}, worst excess {worst_excess:.2e}",
    )


def test_criterion_07_embedding_psd_equivalence():
    rng = np.random.default_rng(21)
    disagreements = 0
    worst_doubling = 0.0
    for trial in range(200):
        n = int(rng.integers(1, 11))
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = (z + z.conj().T) / 2
        if trial % 2 == 0:
            h = h @ h.conj().T
            h = (h + h.conj().T) / 2
        lam = np.linalg.eigvalsh(h)
        lam_block = np.linalg.eigvalsh(block_embed(h))
        disagreements += (lam[0] >= -1e-10) != (lam_block[0] >= -1e-10)
        doubled = np.sort(np.concatenate([lam, lam]))
        worst_doubling = max(worst_doubling, float(np.max(np.abs(lam_block - doubled))))
    _report(
        7,
        "PSD(M) iff PSD(block embedding) on 200 random Hermitian matrices; "
        "spectrum doubling holds",
        disagreements == 0 and worst_doubling <= 1e-8,
        f"disagreements {disagreements}, doubling dev {worst_doubling:.2e}",
    )


def test_criterion_08_procedure_equivalence():
    rng = np.random.default_rng(22)
    worst_value = 0.0
    worst_edge = 0.0
    dims_ok = True
    for _ in range(50):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 11))
        rep, g = random_complex_rep(rng, d, n)
        value = rep_value(rep, g)
        vec = vector_realify(rep, g)
        proj = projector_realify(rep, g)
        dims_ok &= vec.dim == 2 * d - 1 and proj.dim == 2 * d
        worst_value = max(
            worst_value,
            abs(rep_value(vec, g) - value),
            abs(rep_value(proj, g) - value),
        )
        worst_edge = max(worst_edge, edge_residual(vec, g), edge_residual(proj, g))
    _report(
        8,
        "both conversions preserve value (1e-9) and exclusivity (1e-10) on 50 "
        "random complex reps; output dims are 2d-1 and 2d",
        dims_ok and worst_value <= 1e-9 and worst_edge <= 1e-10,
        f"value dev {worst_value:.2e}, edge dev {worst_edge:.2e}",
    )


def test_criterion_09_extraction_roundtrip():
    inst = kcbs()
    sol = lovasz_theta(inst.graph)
    rep = rep_from_gram(sol.X, inst.graph)
    value_dev = abs(rep_value(rep, inst.graph) - SQRT5)

    x = gram_from_rep(inst.real_rep, inst.graph)
    w = weight_objective(inst.graph)
    objective_dev = abs(float(np.sum(w * x)) - SQRT5)
    trace_dev = abs(float(np.trace(x)) - 1.0)
    edge_dev = max(abs(x[i, j]) for i, j in inst.graph.edges)
    min_eig = float(np.linalg.eigvalsh(x)[0])
    _report(
        9,
        "pentagon extraction gives d=3 at value sqrt(5) (1e-5); the reference "
        "rep's Gram matrix is feasible (1e-10) with objective sqrt(5) (1e-10)",
        rep.dim == 3 and value_dev <= 1e-5 and objective_dev <= 1e-10
        and trace_dev <= 1e-10 and edge_dev <= 1e-10 and min_eig >= -1e-10,
        f"dim {rep.dim}, value dev {value_dev:.2e}, objective dev {objective_dev:.2e}",
    )


def test_criterion_10_oracle_suites():
    rng = np.random.default_rng(23)
    mwis_ok = all(
        independence_number(g) == brute_force_independence(g)
        for g in (random_graph(rng, n_max=12) for _ in range(100))
    )

    cycle_dev = max(
        abs(lovasz_theta(odd_cycle(n), tol=1e-7).value - odd_cycle_theta(n))
        for n in (5, 7, 9)
    )

    sandwich_ok = True
    for _ in range(50):
        g = random_graph(rng, n_max=12)
        value = lovasz_theta(g, tol=1e-6).value
        alpha, _ = independence_number(g)
        sandwich_ok &= alpha - 1e-4 <= value <= g.weight_sum + 1e-6
    _report(
        10,
        "independence matches 2^n enumeration on 100 graphs; odd-cycle theta "
        "matches the closed form (1e-5); sandwich bound holds on 50 graphs",
        mwis_ok and cycle_dev <= 1e-5 and sandwich_ok,
        f"cycle dev {cycle_dev:.2e}",
    )


def main() -> int:
    criteria = sorted(
        (name, fn) for name, fn in globals().items() if name.startswith("test_criterion")
    )
    failures = 0
    for _, fn in criteria:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(exc, file=sys.stderr)
    print(f"{len(criteria) - failures}/{len(criteria)} acceptance criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
