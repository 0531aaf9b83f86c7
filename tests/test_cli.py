import argparse
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loorkit import (
    ExclusivityGraph, OrthRep, bbc21, cli, graph, independence_number, kcbs, loor, lovasz_theta,
    parse_graph, parse_rep, rep_from_gram, serialize_graph, serialize_rep, theta, verify_rep,
)
from util import bench_corpus, gnp, random_unitary, report_cases, src_env, tail_graph

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, stdin_text=None, monkeypatch=None, capsys=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def pentagon_file(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["instance", "kcbs", "--what", "graph"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    path = tmp_path / "c5.json"
    path.write_text(out)
    return str(path)


@pytest.fixture()
def bbc_file(tmp_path, monkeypatch, capsys):
    code, out, _ = run_cli(["instance", "bbc21", "--what", "graph"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    path = tmp_path / "bbc.json"
    path.write_text(out)
    return str(path)


def test_theta_pentagon(pentagon_file, monkeypatch, capsys):
    code, out, _ = run_cli(["theta", pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert report["converged"]
    assert abs(report["value"] - 2.2360680) <= 1e-6


def test_theta_bbc(bbc_file, monkeypatch, capsys):
    code, out, _ = run_cli(["theta", bbc_file, "--tol", "1e-6"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert abs(json.loads(out)["value"] - 29.0) <= 1e-4


def test_theta_complex_field(pentagon_file, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["theta", pentagon_file, "--field", "complex", "--tol", "1e-6"],
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert abs(json.loads(out)["value"] - np.sqrt(5.0)) <= 1e-5
    _, real_out, _ = run_cli(
        ["theta", pentagon_file, "--field", "real", "--tol", "1e-6"],
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert out == real_out


def test_theta_truncated_json(tmp_path, monkeypatch, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 5, "weights": [1, 1')
    code, _, err = run_cli(["theta", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    assert "error" in err


def test_theta_nonconvergence_exit_code(pentagon_file, monkeypatch, capsys):
    code, out, _ = run_cli(
        ["theta", pentagon_file, "--tol", "1e-16", "--max-iters", "300"],
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 3
    assert json.loads(out)["converged"] is False


@pytest.mark.parametrize("command", ["theta", "extract"])
def test_nonconvergence_names_the_missed_criterion(command, pentagon_file, monkeypatch, capsys):
    code, _, err = run_cli(
        [command, pentagon_file, "--tol", "1e-16", "--max-iters", "300"],
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 3
    # the bracket, widened by its roundoff allowance, never closes to 1e-16
    assert "300 iterations" in err and "relative gap" in err and "1e-16" in err


@pytest.mark.parametrize("command", ["theta", "extract"])
def test_solve_without_max_iters_takes_the_solver_cap(command, pentagon_file, monkeypatch, capsys):
    caps, solve = [], theta.lovasz_theta

    def spy(g, tol, max_iters):
        caps.append(max_iters)
        return solve(g, tol=tol, max_iters=max_iters)

    monkeypatch.setattr(theta, "lovasz_theta", spy)
    code, _, _ = run_cli([command, pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    assert (code, caps) == (0, [theta.DEFAULT_MAX_ITERS])


def test_theta_reports_a_bracket_around_the_value(bbc_file, monkeypatch, capsys):
    code, out, _ = run_cli(["theta", bbc_file], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    report = json.loads(out)
    assert list(report)[:3] == ["value", "lower", "upper"]
    assert report["lower"] <= 29.0 <= report["upper"]
    assert report["upper"] - report["lower"] <= 1e-8 * report["upper"]


def test_alpha_pentagon_and_bbc(pentagon_file, bbc_file, monkeypatch, capsys):
    code, out, _ = run_cli(["alpha", pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["alpha"] == 2.0
    code, out, _ = run_cli(["alpha", bbc_file], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["alpha"] == 27.0


def test_alpha_edgeless(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"n": 4, "weights": [1, 1, 1, 1], "edges": []}')
    code, out, _ = run_cli(["alpha", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out) == {"alpha": 4.0, "witness": [0, 1, 2, 3]}


def test_alpha_past_64_vertices(tmp_path, monkeypatch, capsys):
    path = tmp_path / "g65.json"
    path.write_text(serialize_graph(gnp(np.random.default_rng(65), 65, 0.3)))
    code, out, _ = run_cli(["alpha", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["alpha"] == 12.0


def test_extract_pentagon_roundtrips_through_verify(pentagon_file, tmp_path, monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["extract", pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    rep = parse_rep(rep_doc)
    assert rep.dim == 3
    code, out, _ = run_cli(
        ["verify", "--graph", pentagon_file, "--target", repr(float(np.sqrt(5.0))),
         "--tol", "1e-6"],
        stdin_text=rep_doc, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    assert json.loads(out)["passed"]


@pytest.mark.parametrize("name", ["kcbs", "bbc21"])
def test_extract_emits_a_rep_that_verifies(name, tmp_path, monkeypatch, capsys):
    _, graph_doc, _ = run_cli(["instance", name], capsys=capsys, monkeypatch=monkeypatch)
    path = tmp_path / "g.json"
    path.write_text(graph_doc)
    code, out, err = run_cli(["extract", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    assert verify_rep(parse_rep(out), parse_graph(graph_doc), tol=1e-8).passed


REPORT_CASES = report_cases()


@pytest.mark.parametrize("name", REPORT_CASES)
def test_extract_of_a_reported_optimum_verifies_at_theta(name, tmp_path, monkeypatch, capsys):
    # the solve once reported a point below its own lower end, and extract
    # emitted that rep: value 4.9866 on the weighted K5, where theta is 5
    g = REPORT_CASES[name]
    theta_ref, _ = independence_number(g)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(serialize_graph(g))
    code, rep_doc, err = run_cli(["extract", str(graph_path)], capsys=capsys,
                                 monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    code, out, _ = run_cli(["verify", "--graph", str(graph_path), "--target", repr(theta_ref)],
                           stdin_text=rep_doc, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["passed"]


@pytest.mark.parametrize("factor", [1e-22, 1e22])
def test_extract_is_scale_free(factor, tmp_path, monkeypatch, capsys):
    # theta is 1-homogeneous in w, so tiny or huge weights are still valid input
    pentagon = kcbs().graph
    g = ExclusivityGraph(5, pentagon.weights * factor, pentagon.edges)
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g))
    code, out, err = run_cli(["extract", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and err == ""
    report = verify_rep(parse_rep(out), g, tol=1e-8)
    assert report.passed and report.value == pytest.approx(factor * np.sqrt(5.0), rel=1e-6)


def test_extract_refuses_its_own_output_when_it_fails_verify(tmp_path, monkeypatch, capsys):
    # G(45, .3) converges at tol 1e-6, but the representation extracted
    # from its X has edge residual 2.3e-3, so it must not be emitted
    path = tmp_path / "g45.json"
    path.write_text(serialize_graph(gnp(np.random.default_rng(45), 45, 0.3)))
    code, out, err = run_cli(["extract", str(path), "--tol", "1e-6"],
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "fails verification" in err and "edge residual" in err


# G(n, .3) drawn from default_rng(n), and the G(40, .3) from default_rng(0):
# their solves stop on the certificate point, exactly 0 on every edge, so
# the rank cut is all that stands between X and a representation
EXTRACTED = [("g40", 1e-8), ("g40", 1e-6), (30, 1e-8), (30, 1e-6), (40, 1e-8), (40, 1e-6),
             (50, 1e-8), (100, 1e-8), (100, 1e-6)]


@pytest.mark.parametrize("seed, tol", EXTRACTED, ids=[f"{s}-{t:g}" for s, t in EXTRACTED])
def test_extract_emits_a_rep_that_verifies_inside_the_bracket(seed, tol, tmp_path, monkeypatch,
                                                              capsys):
    g = gnp(np.random.default_rng(0), 40, 0.3) if seed == "g40" else gnp(
        np.random.default_rng(seed), seed, 0.3)
    path = tmp_path / "g.json"
    path.write_text(serialize_graph(g))
    sols, solve = [], theta.lovasz_theta

    def spy(*args, **kwargs):
        sols.append(solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(theta, "lovasz_theta", spy)
    code, rep_doc, err = run_cli(["extract", str(path), "--tol", repr(tol)], capsys=capsys,
                                 monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    code, out, _ = run_cli(["verify", "--graph", str(path), "--tol", repr(tol)],
                           stdin_text=rep_doc, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and json.loads(out)["passed"]
    (sol,) = sols
    assert sol.lower <= json.loads(out)["value"] <= sol.upper


def test_extract_reports_an_unfactorable_optimum_as_a_failure(tmp_path, monkeypatch, capsys):
    # an optimum that rep_from_gram refuses as not PSD is a failure, not an
    # input error
    def refuse(*args, **kwargs):
        raise ValueError("matrix is not positive semidefinite: min eigenvalue -2.190e-06")

    monkeypatch.setattr(loor, "rep_from_gram", refuse)
    n = 13
    path = tmp_path / "c13.json"
    path.write_text(json.dumps({"n": n, "weights": [1.0] * n,
                                "edges": [[i, i + 1] for i in range(n - 1)] + [[0, n - 1]]}))
    code, out, err = run_cli(["extract", str(path), "--tol", "1e-4"],
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    assert "positive semidefinite" in err


def _graphs_refused_as_not_psd_at_loose_tol():
    """The unit-weight 13-cycle, four graphs of the benchmark's sdp corpus
    (seed 1) and G(40, .3), whose optima the Gram factorization refused at
    tol 1e-4 while it ignored the PSD residual the solve had accepted."""
    n = 13
    graphs = [("C13", ExclusivityGraph(n=n, weights=np.ones(n),
                                       edges=tuple((i, (i + 1) % n) for i in range(n))))]
    names = ("gnp0-n11", "gnp2-n20-w", "gnp3-n23", "C25")
    graphs += [(c.name, c.graph) for c in bench_corpus().sdp_cases(1) if c.name in names]
    return graphs + [("G40", gnp(np.random.default_rng(0), 40, 0.3))]


LOOSE_TOL_CASES = _graphs_refused_as_not_psd_at_loose_tol()


@pytest.mark.parametrize("name, g", LOOSE_TOL_CASES, ids=[name for name, _ in LOOSE_TOL_CASES])
def test_extract_accepts_the_psd_residual_of_its_own_solve(name, g, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_graph(g))
    code, out, err = run_cli(["extract", str(path), "--tol", "1e-4"],
                             capsys=capsys, monkeypatch=monkeypatch)
    assert "positive semidefinite" not in err
    if code == 0:
        assert verify_rep(parse_rep(out), g, tol=1e-4).passed
    else:
        assert (code, out) == (1, "")
        assert "fails verification" in err and "edge residual" in err


def _graphs_with_vertices_at_the_noise_level():
    """Optima with diagonal entries X_ii at the solver's noise level, whose
    vertices once got a normalized noise direction that broke edges (edge
    residual 1.0 on tail seed 214): (name, graph, extract's --tol)."""
    cases = [("tail214", tail_graph(214), None)]
    cases += [(f"tail{s}", tail_graph(s), "1e-6") for s in (290, 295)]
    return cases + [(c.name, c.graph, "1e-6") for c in bench_corpus().sdp_cases(1)
                    if c.name == "gnp3-n23"]


NOISE_LEVEL_CASES = _graphs_with_vertices_at_the_noise_level()


@pytest.mark.parametrize("name, g, tol", NOISE_LEVEL_CASES,
                         ids=[name for name, _, _ in NOISE_LEVEL_CASES])
def test_extract_gives_vanishing_vertices_fresh_axes(name, g, tol, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_graph(g))
    tol_args = [] if tol is None else ["--tol", tol]
    code, out, err = run_cli(["extract", str(path), *tol_args], capsys=capsys,
                             monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert verify_rep(parse_rep(out), g, tol=graph.DEFAULT_TOL if tol is None else float(tol)).passed


def _reps_worth_more_than_upper():
    """Graphs whose extracted representation passes verify at extract's
    --tol but is worth more than the solve's certified upper bound, which
    no orthogonal representation can be: (name, graph, extract's --tol)."""
    cases = [("tail292", tail_graph(292), "1e-6")]
    cases += [(c.name, c.graph, "1e-6") for c in bench_corpus().sdp_cases(1) if c.name == "gnp1-n15"]
    return cases + [("G20", gnp(np.random.default_rng(20), 20, 0.3), None)]


ABOVE_UPPER_CASES = _reps_worth_more_than_upper()


@pytest.mark.parametrize("name, g, tol", ABOVE_UPPER_CASES,
                         ids=[name for name, _, _ in ABOVE_UPPER_CASES])
def test_extract_refuses_a_rep_worth_more_than_upper(name, g, tol, tmp_path, monkeypatch, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(serialize_graph(g))
    tol_args = [] if tol is None else ["--tol", tol]
    code, out, err = run_cli(["extract", str(path), *tol_args], capsys=capsys,
                             monkeypatch=monkeypatch)
    assert (code, out) == (1, "")
    sol = lovasz_theta(g, tol=graph.DEFAULT_TOL if tol is None else float(tol))
    value = float(re.search(r"representation's value (\S+) lies outside", err).group(1))
    assert f"the solve's bracket [{sol.lower!r}, {sol.upper!r}]" in err
    assert value > sol.upper


def test_extract_single_vertex(tmp_path, monkeypatch, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"n": 1, "weights": [1], "edges": []}')
    code, out, _ = run_cli(["extract", str(path)], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    rep = parse_rep(out)
    assert rep.dim == 1
    assert abs(abs(rep.handle[0]) - 1.0) <= 1e-9
    assert abs(abs(rep.vectors[0, 0]) - 1.0) <= 1e-9


def test_realify_vector_method_matches_reference(bbc_file, monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                               capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    code, out, _ = run_cli(["realify", "--method", "vector"], stdin_text=rep_doc,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    got = parse_rep(out)
    ref = bbc21().real_rep
    assert got.field == "real" and got.dim == 5
    assert np.max(np.abs(got.vectors - ref.vectors)) <= 1e-12


def test_realify_vector_accepts_handle_unit_within_unit_tol(monkeypatch, capsys):
    rep = bbc21().complex_rep
    scaled = OrthRep("complex", rep.dim, rep.handle * (1 + 5e-9), rep.vectors)
    code, out, err = run_cli(["realify", "--method", "vector"], stdin_text=serialize_rep(scaled),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert parse_rep(out).dim == 5


def kcbs_rep_doc(scale):
    """kcbs's real representation with vector 0 scaled by ``scale``, as a document."""
    rep = kcbs().real_rep
    vectors = rep.vectors.copy()
    vectors[0] *= scale
    return serialize_rep(OrthRep("real", rep.dim, rep.handle, vectors))


def test_rep_off_unit_by_5e_8_is_judged_at_the_callers_tol(pentagon_file, monkeypatch, capsys):
    doc = kcbs_rep_doc(1 + 5e-8)

    def run(args, stdin_text):
        return run_cli(args, stdin_text=stdin_text, capsys=capsys, monkeypatch=monkeypatch)

    verify = ["verify", "--graph", pentagon_file]
    code, out, err = run([*verify, "--tol", "1e-6"], doc)
    assert (code, err) == (0, "")
    code, out, _ = run(verify, doc)
    assert code == 1 and json.loads(out)["max_norm_residual"] == pytest.approx(5e-8, rel=1e-6)
    code, real, err = run(["realify", "--method", "vector"], doc)
    assert (code, err) == (0, "")
    assert run([*verify, "--tol", "1e-6"], real)[0] == 0
    # orthograph judges the norms at its edge threshold
    code, out, err = run(["orthograph"], doc)
    assert (code, out) == (2, "") and "vector 0 is not unit" in err
    code, out, _ = run(["orthograph", "--ortho-tol", "1e-6"], doc)
    assert code == 0 and parse_graph(out).edges == kcbs().graph.edges


@pytest.mark.parametrize("t", [1e-8, 1e-6, 1e-2, 0.9])
@pytest.mark.parametrize("d", [2e-8, 1e-6, 1e-3, 0.5])
def test_verify_passes_a_norm_deviation_exactly_within_tol(d, t, pentagon_file, monkeypatch,
                                                          capsys):
    code, out, err = run_cli(["verify", "--graph", pentagon_file, "--tol", repr(t)],
                             stdin_text=kcbs_rep_doc(1 + d), capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0 if d <= t else 1, "")
    assert json.loads(out)["max_norm_residual"] == pytest.approx(d, rel=1e-6)


@pytest.mark.parametrize("doc", [
    '{"field": "real", "dim": 2, "handle": [1e308, 0], "vectors": [[1, 0]]}',
    '{"field": "real", "dim": 2, "handle": [1, 0], "vectors": [[1e308, 1e308]]}',
    '{"field": "real", "dim": 2, "handle": [1, 0], "vectors": [[0, 0]]}',
], ids=["handle-1e308", "vectors-1e308", "zero-vector"])
def test_norms_no_tol_accepts_exit_2_naming_the_field(doc, pentagon_file, monkeypatch, capsys):
    code, out, err = run_cli(["verify", "--graph", pentagon_file], stdin_text=doc,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: handle/vectors must be unit norm (worst deviation ")


@pytest.mark.parametrize("weight, doc, flags, named", [
    ("1.7976931348623157e308", '{"field": "real", "dim": 1, "handle": [1.000000001], '
     '"vectors": [[1.0]]}', [], "'value'"),
    ("1e308", '{"field": "real", "dim": 2, "handle": [0, 1], "vectors": [[1.9, 0]]}',
     ["--sic"], "operator"),
], ids=["value", "sic-operator"])
def test_verify_overflow_exits_2_naming_it(weight, doc, flags, named, tmp_path, monkeypatch,
                                           capsys):
    graph_path = tmp_path / "g.json"
    graph_path.write_text('{"n": 1, "weights": [%s], "edges": []}' % weight)
    code, out, err = run_cli(["verify", "--graph", str(graph_path), *flags], stdin_text=doc,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {named} ")


def test_orthograph_refuses_weights_that_are_not_numbers(monkeypatch, capsys):
    _, rep_doc, _ = run_cli(["instance", "kcbs", "--what", "rep-real"],
                            capsys=capsys, monkeypatch=monkeypatch)
    code, out, err = run_cli(["orthograph", "-", "--weights", "x"], stdin_text=rep_doc,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: --weights must be comma-separated numbers")


@pytest.mark.parametrize("command", [["realify", "--method", "vector"], ["orthograph"]])
def test_rep_without_vectors_exits_2_naming_vectors(command, monkeypatch, capsys):
    doc = '{"field": "complex", "dim": 2, "handle": [[1, 0], [0, 0]], "vectors": []}'
    code, out, err = run_cli(command, stdin_text=doc, capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert "'vectors'" in err


@pytest.mark.parametrize(
    "command, doc, field",
    [
        (["alpha"], '{"n": 1, "weights": [1%s], "edges": []}', "weights[0]"),
        (["realify", "--method", "vector"],
         '{"field": "real", "dim": 1, "handle": [1%s], "vectors": [[1]]}', "handle[0]"),
    ],
)
def test_integer_literal_beyond_double_range_exits_2(command, doc, field, monkeypatch, capsys):
    code, out, err = run_cli(command, stdin_text=doc % ("0" * 400),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {field} ")


def test_realify_vector_method_on_a_rotated_handle(tmp_path, bbc_file, monkeypatch, capsys):
    # a fixed random unitary moves the handle off e1; the result must still
    # be 2d - 1 = 5 dimensional and reach the quantum value 29
    u = random_unitary(np.random.default_rng(9), 3)
    rep = bbc21().complex_rep
    rotated = OrthRep("complex", 3, u @ rep.handle, rep.vectors @ u.T)
    code, out, err = run_cli(["realify", "--method", "vector"], stdin_text=serialize_rep(rotated),
                             capsys=capsys, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert parse_rep(out).dim == 5
    path = tmp_path / "real5.json"
    path.write_text(out)
    code, _, _ = run_cli(["verify", str(path), "--graph", bbc_file, "--target", "29"],
                         capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0


def test_realify_projector_method(monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                               capsys=capsys, monkeypatch=monkeypatch)
    code, out, _ = run_cli(["realify", "--method", "projector"], stdin_text=rep_doc,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    got = parse_rep(out)
    assert got.dim == 6
    inst = bbc21()
    from loorkit import rep_value

    assert abs(rep_value(got, inst.graph) - 29.0) <= 1e-9


def test_realify_accepts_real_input(monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "kcbs", "--what", "rep-real"],
                               capsys=capsys, monkeypatch=monkeypatch)
    code, out, _ = run_cli(["realify", "--method", "vector"], stdin_text=rep_doc,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    got = parse_rep(out)
    from loorkit import kcbs, rep_value

    inst = kcbs()
    assert abs(rep_value(got, inst.graph) - np.sqrt(5.0)) <= 1e-10


def test_verify_reference_rep_passes(bbc_file, monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "bbc21", "--what", "rep-real"],
                               capsys=capsys, monkeypatch=monkeypatch)
    code, out, _ = run_cli(
        ["verify", "--graph", bbc_file, "--target", "29", "--sic"],
        stdin_text=rep_doc, capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["sic"] is False
    assert len(report["sic_spectrum"]) == 5


def test_verify_perturbed_rep_fails(bbc_file, tmp_path, monkeypatch, capsys):
    inst = bbc21()
    vectors = inst.real_rep.vectors.copy()
    vectors[3, 0] += 1e-3
    vectors[3] /= np.linalg.norm(vectors[3])
    bad = OrthRep("real", 5, inst.real_rep.handle, vectors)
    path = tmp_path / "bad_rep.json"
    path.write_text(serialize_rep(bad))
    code, out, _ = run_cli(
        ["verify", str(path), "--graph", bbc_file, "--target", "29"],
        capsys=capsys, monkeypatch=monkeypatch,
    )
    assert code == 1
    assert json.loads(out)["max_edge_residual"] >= 1e-5


def test_orthograph_recovers_bbc_graph(bbc_file, monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                               capsys=capsys, monkeypatch=monkeypatch)
    weights = ",".join(["3"] * 9 + ["5"] * 12)
    code, out, err = run_cli(["orthograph", "--weights", weights], stdin_text=rep_doc,
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert parse_graph(out) == bbc21().graph
    assert "threshold" in err


def test_orthograph_default_unit_weights(monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "kcbs", "--what", "rep-real"],
                               capsys=capsys, monkeypatch=monkeypatch)
    code, out, _ = run_cli(["orthograph"], stdin_text=rep_doc,
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    g = parse_graph(out)
    assert g.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert np.array_equal(g.weights, np.ones(5))


def test_orthograph_default_threshold_is_graph_default_tol(monkeypatch, capsys):
    rep_doc = serialize_rep(kcbs().real_rep)
    code, _, err = run_cli(["orthograph"], stdin_text=rep_doc, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and err.startswith("orthogonality threshold 1e-08, ")
    assert graph.DEFAULT_TOL == 1e-8


def test_instance_documents(monkeypatch, capsys):
    code, out, _ = run_cli(["instance", "kcbs", "--what", "graph"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert parse_graph(out).n == 5
    code, out, _ = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert parse_rep(out).n == 21


def test_instance_errors(monkeypatch, capsys):
    code, _, err = run_cli(["instance", "nosuch"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2 and "unknown instance" in err
    code, _, err = run_cli(["instance", "kcbs", "--what", "rep-complex"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2


def test_bad_flags_exit_2(monkeypatch, capsys):
    code, _, _ = run_cli(["theta", "--bogus"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2
    code, _, _ = run_cli(["realify", "-"], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2  # --method is required
    code, out, _ = run_cli(["instance", "kcbs", "--format", "text"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")  # --format only where a report is rendered


def test_nonpositive_tolerances_exit_2(pentagon_file, monkeypatch, capsys):
    cases = [(command, flag, value)
             for command, flag in (("theta", "--tol"), ("extract", "--tol"),
                                   ("verify", "--tol"),
                                   ("orthograph", "--ortho-tol"))
             for value in ("-1", "0", "inf", "nan", "abc")]
    cases += [("verify", "--target", value) for value in ("inf", "-inf", "nan", "abc")]
    cases += [("theta", "--max-iters", value) for value in ("0", "-5", "1.5")]
    for command, flag, value in cases:
        extra = ["--graph", pentagon_file] if command == "verify" else []
        code, out, err = run_cli([command, pentagon_file, *extra, flag, value],
                                 capsys=capsys, monkeypatch=monkeypatch)
        assert (code, out) == (2, ""), (command, flag, value)
        assert f"argument {flag}:" in err, (command, flag, value, err)
    # verify has one tolerance, --tol; a value tolerance is no longer an option
    code, out, err = run_cli(["verify", pentagon_file, "--graph", pentagon_file,
                              "--value-tol", "1e-6"], capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "") and "unrecognized arguments: --value-tol" in err


def test_python_dash_m_matches_main(monkeypatch, capsys):
    code, out, _ = run_cli(["instance", "kcbs"], capsys=capsys, monkeypatch=monkeypatch)
    proc = subprocess.run([sys.executable, "-m", "loorkit", "instance", "kcbs"],
                          capture_output=True, text=True, env=src_env(), timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)


# The two ways a user starts the CLI in a fresh process: the console
# script's entry point, and ``python -m loorkit``.
ENTRIES = {"run": ["-c", "from loorkit.cli import run; run()"], "dash-m": ["-m", "loorkit"]}


def _spawn(entry, args, stdout=subprocess.PIPE, env=None, stderr=subprocess.PIPE):
    """(exit code, stdout bytes, stderr text) of one CLI call in a fresh process."""
    proc = subprocess.run([sys.executable, *ENTRIES[entry], *args], stdout=stdout,
                          stderr=stderr, env=env or src_env(), timeout=60)
    return proc.returncode, proc.stdout, None if proc.stderr is None else proc.stderr.decode()


def _contract_args(tmp, pentagon_file):
    """One call per exit code, plus --help: (id, argv)."""
    (tmp / "tampered.json").write_text(kcbs_rep_doc(1 + 5e-8))
    (tmp / "malformed.json").write_text('{"n": 2, "weights": [1, 1], "edges": [[0, 1]]')
    return {
        "exit0-theta": ["theta", pentagon_file],
        "exit1-verify": ["verify", str(tmp / "tampered.json"), "--graph", pentagon_file],
        "exit2-malformed": ["alpha", str(tmp / "malformed.json")],
        "exit3-max-iters": ["theta", pentagon_file, "--max-iters", "1"],
        "help": ["--help"],
    }


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_fresh_process_prints_and_exits_as_main(entry, pentagon_file, tmp_path, monkeypatch,
                                                  capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help at the terminal width
    codes = []
    for name, args in _contract_args(tmp_path, pentagon_file).items():
        expected = run_cli(args, capsys=capsys)
        code, out, err = _spawn(entry, args, env=dict(src_env(), COLUMNS="80"))
        assert (code, out.decode(), err) == expected, name
        codes.append(code)
    assert codes == [0, 1, 2, 3, 0]


@pytest.mark.parametrize("entry", ENTRIES)
def test_a_fresh_process_writes_its_output_file_whole(entry, tmp_path, capsys):
    expected = run_cli(["instance", "bbc21", "--what", "rep-complex"], capsys=capsys)
    target = tmp_path / "rep.json"
    code, out, err = _spawn(entry, ["instance", "bbc21", "--what", "rep-complex",
                                    "--output", str(target)])
    assert (code, out, err) == (0, b"", "")
    assert target.read_text() == expected[1]


# Unbuffered, the failing write raises inside main; block-buffered, only
# run's final flush meets it.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_stdout_that_cannot_be_written_exits_2(entry, unbuffered):
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write gets EPIPE
    try:
        result = _spawn(entry, ["instance", "kcbs"], stdout=write_end, env=env)
    finally:
        os.close(write_end)
    assert result == (2, None, "error: [Errno 32] Broken pipe\n")
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            result = _spawn(entry, ["instance", "kcbs"], stdout=full, env=env)
        assert result == (2, None, "error: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("entry", ENTRIES)
def test_an_input_error_exits_2_when_stderr_cannot_be_written(entry, unbuffered):
    # the "error: ..." line is best effort: its failing write must not turn
    # exit 2 into a traceback's 1 or a failed teardown flush's 120
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    args = ["alpha", "/definitely/not/here.json"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = _spawn(entry, args, stderr=write_end, env=env)
    finally:
        os.close(write_end)
    assert result == (2, b"", None)
    if os.path.exists("/dev/full"):
        with open("/dev/full", "wb") as full:
            assert _spawn(entry, args, stderr=full, env=env) == (2, b"", None)


class _Stream(io.StringIO):
    """A text stream that logs each flush, or fails it with ``error``."""

    def __init__(self, name, log, error=None):
        super().__init__()
        self.name, self.log, self.error = name, log, error

    def flush(self):
        self.log.append(f"flush {self.name}")
        if self.error is not None:
            raise self.error


@pytest.mark.parametrize("args, code", [
    (["instance", "kcbs"], 0),
    (["alpha", "/definitely/not/here.json"], 2),
    (["theta", "-", "--max-iters", "1"], 3),
])
def test_run_flushes_then_hands_mains_code_to_os_exit(args, code, pentagon_file, monkeypatch,
                                                      capsys):
    log = []
    monkeypatch.setattr(sys, "argv", ["loorkit", *args])
    monkeypatch.setattr(sys, "stdin", io.StringIO(Path(pentagon_file).read_text()))
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log))
    monkeypatch.setattr(sys, "stderr", _Stream("stderr", log))
    monkeypatch.setattr(cli.os, "_exit", lambda c: log.append(c))
    cli.run()
    assert log == ["flush stdout", "flush stderr", code]


def test_a_failed_flush_is_named_and_exits_2(monkeypatch):
    log = []
    monkeypatch.setattr(sys, "argv", ["loorkit", "instance", "kcbs"])
    stderr = _Stream("stderr", log)
    monkeypatch.setattr(sys, "stdout", _Stream("stdout", log, BrokenPipeError(32, "Broken pipe")))
    monkeypatch.setattr(sys, "stderr", stderr)
    monkeypatch.setattr(cli.os, "_exit", lambda c: log.append(c))
    cli.run()
    assert log == ["flush stdout", "flush stderr", 2]
    assert stderr.getvalue() == "error: [Errno 32] Broken pipe\n"


def test_an_exception_from_main_never_reaches_os_exit(monkeypatch):
    exits = []

    def broken_main():
        raise RuntimeError("bug")

    monkeypatch.setattr(cli, "main", broken_main)
    monkeypatch.setattr(cli.os, "_exit", exits.append)
    with pytest.raises(RuntimeError, match="bug"):
        cli.run()
    assert exits == []


@pytest.mark.parametrize("entry, hook_runs", [("run()", False), ("sys.exit(main())", True)])
def test_run_skips_interpreter_teardown(entry, hook_runs, capsys):
    # an atexit hook runs at interpreter teardown, which os._exit skips
    code = ("import atexit, sys; atexit.register(print, 'atexit hook ran'); "
            f"from loorkit.cli import main, run; {entry}")
    proc = subprocess.run([sys.executable, "-c", code, "instance", "kcbs"], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    expected = run_cli(["instance", "kcbs"], capsys=capsys)[1]
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == expected + "atexit hook ran\n" * hook_runs


PIPELINE_WITHOUT_NUMPY_MA = """
import sys
from pathlib import Path
from loorkit.cli import main

d = Path(sys.argv[1])
weights = ",".join(["3"] * 9 + ["5"] * 12)
stages = [
    ["instance", "bbc21", "--what", "graph", "--output", str(d / "bbc.json")],
    ["theta", str(d / "bbc.json"), "--tol", "1e-6", "--output", str(d / "theta.json")],
    ["alpha", str(d / "bbc.json"), "--output", str(d / "alpha.json")],
    ["extract", str(d / "bbc.json"), "--output", str(d / "rep.json")],
    ["verify", str(d / "rep.json"), "--graph", str(d / "bbc.json"), "--output", str(d / "v.json")],
    ["instance", "bbc21", "--what", "rep-complex", "--output", str(d / "rc.json")],
    ["realify", str(d / "rc.json"), "--method", "vector", "--output", str(d / "rv.json")],
    ["realify", str(d / "rc.json"), "--method", "projector", "--output", str(d / "rp.json")],
    ["verify", str(d / "rv.json"), "--graph", str(d / "bbc.json"), "--target", "29", "--sic",
     "--output", str(d / "vs.json")],
    ["orthograph", str(d / "rc.json"), "--weights", weights, "--output", str(d / "og.json")],
]
codes = [main(args) for args in stages]
print(codes, "numpy.ma" in sys.modules)
"""


def test_pipeline_stages_do_not_import_numpy_ma(tmp_path):
    # numpy.ma is a lazy import (np.unique pulls it in) that every CLI
    # process would pay for at start-up
    proc = subprocess.run([sys.executable, "-c", PIPELINE_WITHOUT_NUMPY_MA, str(tmp_path)],
                          capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[0] == f"{[0] * 10} False"


def test_run_config_validates(capsys):
    # the run configuration is checked as the flags are parsed, before any command runs
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["extract", "-", "--tol", "0"])
    assert exc.value.code == 2 and "positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["theta", "-", "--max-iters", "0"])
    assert exc.value.code == 2 and "--max-iters" in capsys.readouterr().err
    args = parser.parse_args(["theta", "-", "--tol", "1e-6", "--max-iters", "7"])
    assert (args.tol, args.max_iters) == (1e-6, 7)


def test_weights_whose_sum_overflows_exit_2(monkeypatch, capsys):
    doc = '{"n": 2, "weights": [1e308, 1e308], "edges": []}'
    code, out, err = run_cli(["alpha"], stdin_text=doc, capsys=capsys, monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'weights' ") and "Traceback" not in err


def test_missing_file_exits_2(monkeypatch, capsys):
    code, _, err = run_cli(["alpha", "/definitely/not/here.json"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 2 and "error" in err


def test_output_flag_writes_file(tmp_path, pentagon_file, monkeypatch, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(["alpha", pentagon_file, "--output", str(target)],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["alpha"] == 2.0


def test_runs_are_byte_identical(pentagon_file, monkeypatch, capsys):
    first = run_cli(["theta", pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    second = run_cli(["theta", pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    assert first == second
    first = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                    capsys=capsys, monkeypatch=monkeypatch)
    second = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                     capsys=capsys, monkeypatch=monkeypatch)
    assert first == second


def test_pipeline_composes(bbc_file, monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["instance", "bbc21", "--what", "rep-complex"],
                               capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    code, realified, _ = run_cli(["realify", "--method", "vector"], stdin_text=rep_doc,
                                 capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    code, verdict, _ = run_cli(["verify", "--graph", bbc_file, "--target", "29"],
                               stdin_text=realified, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(verdict)["passed"]


def test_text_format_renders(pentagon_file, monkeypatch, capsys):
    code, out, _ = run_cli(["alpha", pentagon_file, "--format", "text"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert "alpha: 2.0" in out
    _, rep_doc, _ = run_cli(["instance", "kcbs", "--what", "rep-real"],
                            capsys=capsys, monkeypatch=monkeypatch)
    code, out, _ = run_cli(["verify", "--graph", pentagon_file, "--sic", "--format", "text"],
                           stdin_text=rep_doc, capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines["passed"] == "True"
    # a flat list renders as one line of space-separated floats
    assert len([float(x) for x in lines["per_vertex_overlap"].split(" ")]) == 5
    assert len([float(x) for x in lines["sic_spectrum"].split(" ")]) == 3
    code, out, _ = run_cli(["theta", pentagon_file, "--format", "text"],
                           capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    assert "np." not in out
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert lines.pop("converged") == "True"
    assert int(lines.pop("iterations")) >= 1
    assert sorted(lines) == ["lower", "primal_residual", "psd_residual", "upper", "value"]
    assert all(math.isfinite(float(text)) for text in lines.values())


def test_every_default_tol_is_graph_default_tol():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    defaults = {f"{name} --tol": sub.choices[name].get_default("tol")
                for name in ("theta", "extract", "verify")}
    for fn in (lovasz_theta, verify_rep, rep_from_gram):
        defaults[fn.__name__] = inspect.signature(fn).parameters["tol"].default
    assert defaults == dict.fromkeys(defaults, graph.DEFAULT_TOL)


def test_graph_document_roundtrip_through_cli(pentagon_file, monkeypatch, capsys):
    text = Path(pentagon_file).read_text()
    g = parse_graph(text)
    assert serialize_graph(g, indent=2) + "\n" == text


def test_readme_flags_sentence_names_every_long_option():
    sentence = re.search(r"Flags:(.*?)\.\s", (ROOT / "README.md").read_text(), re.S).group(1)
    documented = set(re.findall(r"`(--[a-z-]+)", sentence))
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {opt for p in (parser, *sub.choices.values()) for action in p._actions
               for opt in action.option_strings if opt.startswith("--")}
    assert documented == options - {"--help"}
