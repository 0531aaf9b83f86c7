"""Tests of the benchmark itself: seeded inputs, metric names, and checks.

Run with the package on the path:  PYTHONPATH=src python -m pytest bench
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import corpus
import hostspeed
import run
import workloads
from loorkit import kcbs
from spans import NullTracer, Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", ["cli", "sdp", "alpha-reps"])
def test_inputs_depend_only_on_the_seed(workload):
    assert corpus.fingerprint(workload, 7) == corpus.fingerprint(workload, 7)
    assert corpus.fingerprint(workload, 7) != corpus.fingerprint(workload, 8)
    assert corpus.fingerprint(workload, -7) != corpus.fingerprint(workload, 7)


def test_benchmark_json_matches_the_metrics_printed():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS) == set(run.NAMED)
    assert set(run.LAYER_SPANS) | {"theta.real", "theta.complex"} == set(workloads.LAYER_FNS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


def _tiny(monkeypatch, workload):
    """A workload with a corpus small enough to run in a test."""
    monkeypatch.setattr(corpus, "SDP_RANDOM_GRAPHS", 2)
    monkeypatch.setattr(corpus, "SDP_N_RANGE", (6, 8))
    monkeypatch.setattr(corpus, "ODD_CYCLES", (5, 7))
    monkeypatch.setattr(corpus, "ALPHA_GRAPHS", 2)
    monkeypatch.setattr(corpus, "REP_INSTANCES", 3)
    wl = workloads.WORKLOADS[workload](run.ROOT, 3)
    wl.setup()
    return wl


def _has_every_metric(values, units):
    assert set(values) == set(units)
    assert all(isinstance(v, float) and math.isfinite(v) for v in values.values())
    printed = run.with_units(values, units)
    assert all(printed[k]["unit"] == units[k] for k in units)


@pytest.mark.parametrize("workload", ["sdp", "alpha-reps"])
def test_in_process_workloads_report_every_metric(monkeypatch, workload):
    wl = _tiny(monkeypatch, workload)
    untraced = [(wl.run_pass(NullTracer()), 1.0)]
    tracer = Tracer()
    traced = [(wl.run_pass(tracer), 1.1)]
    assert all(op.error is None for op in untraced[0][0])
    assert tracer.spans and len({s.op for s in tracer.spans}) == len(traced[0][0])

    e2e = run.end_to_end(workload, untraced, [0.2, 0.3])
    _has_every_metric(e2e, run.END_TO_END)
    _has_every_metric(run.named(workload, untraced), run.NAMED[workload])
    probes = {"interp": [0.02], "import": [0.1]}
    _has_every_metric(run.per_layer(workload, traced, untraced, tracer, probes), run.PER_LAYER)


def test_cli_workload_reports_every_metric():
    ref = hostspeed.REFERENCE_S
    ops = [workloads.Op("cli.theta_real", 0.3, info={"iterations": 600, "capped": False},
                        host=ref),
           workloads.Op("cli.extract", 3.2, "exit 2: error", host=ref),
           workloads.Op("cli.verify", None, "not run: extract failed")]
    tracer = Tracer()
    with tracer.span("op.cli.theta_real"), tracer.span("cli.stage.theta_real"):
        pass
    passes = [(ops, 3.5)]
    _has_every_metric(run.end_to_end("cli", passes, [0.2]), run.END_TO_END)
    _has_every_metric(run.named("cli", passes), run.NAMED["cli"])
    layer = run.per_layer("cli", passes, passes, tracer, {"interp": [0.02], "import": [0.1]})
    _has_every_metric(layer, run.PER_LAYER)
    assert layer["theta.real.iterations"] == 600


def test_operation_times_are_scaled_to_the_reference_host_speed():
    ref = hostspeed.REFERENCE_S
    column = [workloads.Op("theta.real", 0.1, host=ref), workloads.Op("theta.real", 0.5, host=2 * ref),
              workloads.Op("theta.real", 0.3, host=ref)]
    assert run.op_times([([op], 1.0) for op in column]) == pytest.approx([0.25])
    with hostspeed.Stopwatch() as sw:
        pass
    assert sw.seconds >= 0.0 and sw.host > 0.0


def test_theta_check_flags_a_perturbed_value():
    root5 = math.sqrt(5.0)
    assert checks.check_theta(root5, reference=root5) is None
    assert checks.check_theta(root5 * (1 + 1e-4), reference=root5) is not None
    assert checks.check_theta(2.9, alpha=3.0, cover=5.0) is not None
    assert checks.check_theta(5.1, alpha=3.0, cover=5.0) is not None
    assert checks.check_fields_agree(7.0, 7.0 + 1e-3) is not None


def test_sdp_operation_with_a_perturbed_reference_is_wrong(monkeypatch):
    wl = _tiny(monkeypatch, "sdp")
    case = next(c for c in wl.cases if c.name == "kcbs")
    bad = corpus.SolveCase(case.name, case.graph, case.reference * (1 + 1e-3), False)
    layers = workloads.layer_calls(NullTracer())
    assert wl._solve(layers, NullTracer(), case, "real").error is None
    op = wl._solve(layers, NullTracer(), bad, "real")
    assert op.wrong and "reference" in op.error


def test_rep_check_flags_a_rep_that_fails_verification():
    inst = kcbs()
    assert checks.check_rep(inst.real_rep, inst.graph, target=inst.theta_reference) is None
    assert checks.check_rep(inst.real_rep, inst.graph, target=2.0) is not None
    vectors = inst.real_rep.vectors.copy()
    vectors[[0, 1]] = vectors[[1, 0]]  # still unit, no longer orthogonal on edge (1, 2)
    swapped = type(inst.real_rep)("real", 3, inst.real_rep.handle, vectors)
    assert checks.check_rep(swapped, inst.graph) is not None


def test_alpha_check_flags_a_dependent_witness():
    g = kcbs().graph
    assert checks.check_alpha(g, 2.0, (0, 2), reference=2.0) is None
    assert checks.check_alpha(g, 2.0, (0, 1)) is not None
    assert checks.check_alpha(g, 3.0, (0, 2)) is not None


def test_self_times_subtract_children():
    tracer = Tracer()
    with tracer.span("op"):
        with tracer.span("child"):
            pass
    parent, child = tracer.spans
    assert child.parent == parent.id and child.op == parent.op
    times = tracer.self_times()
    assert times["op"] == pytest.approx((parent.end - parent.start) - (child.end - child.start))
    assert np.isclose(times["child"], child.end - child.start)
