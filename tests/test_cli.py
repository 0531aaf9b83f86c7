import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from loorkit import (
    OrthRep, bbc21, cli, parse_graph, parse_rep, serialize_graph, serialize_rep, verify_rep,
)
from util import gnp


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


def test_extract_pentagon_roundtrips_through_verify(pentagon_file, tmp_path, monkeypatch, capsys):
    code, rep_doc, _ = run_cli(["extract", pentagon_file], capsys=capsys, monkeypatch=monkeypatch)
    assert code == 0
    rep = parse_rep(rep_doc)
    assert rep.dim == 3
    code, out, _ = run_cli(
        ["verify", "--graph", pentagon_file, "--target", repr(float(np.sqrt(5.0))),
         "--value-tol", "1e-5", "--tol", "1e-6"],
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


def test_extract_refuses_its_own_output_when_it_fails_verify(tmp_path, monkeypatch, capsys):
    # G(40, .3) converges at tol 1e-6, but the representation extracted
    # from its X has edge overlaps near 0.08, so it must not be emitted
    path = tmp_path / "g40.json"
    path.write_text(serialize_graph(gnp(np.random.default_rng(0), 40, 0.3)))
    code, out, err = run_cli(["extract", str(path), "--tol", "1e-6"],
                             capsys=capsys, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "fails verification" in err and "edge residual" in err


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
             for command, flag in (("theta", "--tol"), ("extract", "--rank-tol"),
                                   ("verify", "--tol"), ("verify", "--value-tol"),
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


def test_python_dash_m_matches_main(monkeypatch, capsys):
    code, out, _ = run_cli(["instance", "kcbs"], capsys=capsys, monkeypatch=monkeypatch)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "loorkit", "instance", "kcbs"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (code, out)


def test_run_config_validates(capsys):
    # the run configuration is checked as the flags are parsed, before any command runs
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["extract", "-", "--rank-tol", "0"])
    assert exc.value.code == 2 and "positive" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(["theta", "-", "--max-iters", "0"])
    assert exc.value.code == 2 and "--max-iters" in capsys.readouterr().err
    args = parser.parse_args(["theta", "-", "--tol", "1e-6", "--max-iters", "7"])
    assert (args.tol, args.max_iters) == (1e-6, 7)


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


def test_graph_document_roundtrip_through_cli(pentagon_file, monkeypatch, capsys):
    text = Path(pentagon_file).read_text()
    g = parse_graph(text)
    assert serialize_graph(g, indent=2) + "\n" == text
