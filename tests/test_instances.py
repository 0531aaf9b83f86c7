import numpy as np
import pytest

from loorkit import (
    all_instances,
    bbc21,
    certify_operator,
    independence_number,
    kcbs,
    orthogonality_graph,
    rep_value,
    vector_realify,
    verify_rep,
)
from loorkit.graph import DEFAULT_TOL


@pytest.mark.parametrize("make, field", [(bbc21, "complex"), (kcbs, "real")],
                         ids=["bbc21-rays", "kcbs-real"])
def test_stored_graph_is_the_orthogonality_graph_of_its_rep(make, field):
    # the graphs are stored as literals; each must stay the exclusivity
    # graph of its rays, the contract of the paper
    inst = make()
    rep = inst.complex_rep if field == "complex" else inst.real_rep
    assert orthogonality_graph(rep.vectors, inst.graph.weight_tuple, tol=DEFAULT_TOL) == inst.graph


def test_bbc21_real_form_keeps_every_edge_and_adds_orthogonal_pairs():
    # the five-dimensional real form is an orthogonal representation of the
    # graph, not of its exclusivity structure: a pair whose complex overlap
    # is purely imaginary becomes orthogonal too
    inst = bbc21()
    derived = orthogonality_graph(inst.real_rep.vectors, inst.graph.weight_tuple, tol=DEFAULT_TOL)
    assert set(inst.graph.edges) < set(derived.edges)
    assert len(derived.edges) - len(inst.graph.edges) == 15


def test_every_stored_rep_verifies():
    for inst in all_instances():
        for rep in (inst.complex_rep, inst.real_rep):
            if rep is None:
                continue
            report = verify_rep(rep, inst.graph, tol=1e-10, target=inst.theta_reference)
            assert report.passed, (inst.name, rep.field)
            assert abs(report.value - inst.theta_reference) <= 1e-10, (inst.name, rep.field)


def test_kcbs_structure():
    inst = kcbs()
    assert inst.graph.n == 5
    assert inst.graph.edges == ((0, 1), (0, 4), (1, 2), (2, 3), (3, 4))
    assert inst.complex_rep is None
    assert inst.theta_reference == pytest.approx(np.sqrt(5.0))
    assert inst.alpha_reference == 2.0


def test_kcbs_value_and_alpha():
    inst = kcbs()
    assert rep_value(inst.real_rep, inst.graph) == pytest.approx(np.sqrt(5.0), abs=1e-12)
    assert independence_number(inst.graph)[0] == 2.0


def test_kcbs_neighbor_overlaps_vanish():
    # tau^2 + (1 - tau^2) cos(4 pi / 5) = 0 since cos(4 pi/5) = -(1+sqrt5)/4
    vectors = kcbs().real_rep.vectors
    for j in range(5):
        assert abs(vectors[j] @ vectors[(j + 1) % 5]) <= 1e-12


def test_bbc_weights_and_references():
    inst = bbc21()
    assert inst.graph.n == 21
    assert np.array_equal(inst.graph.weights, [3.0] * 9 + [5.0] * 12)
    assert inst.theta_reference == 29.0 and inst.alpha_reference == 27.0
    assert independence_number(inst.graph)[0] == 27.0


def test_bbc_both_reps_achieve_29():
    inst = bbc21()
    assert rep_value(inst.complex_rep, inst.graph) == pytest.approx(29.0, abs=1e-10)
    assert rep_value(inst.real_rep, inst.graph) == pytest.approx(29.0, abs=1e-10)
    assert verify_rep(inst.complex_rep, inst.graph, tol=1e-10).passed
    assert verify_rep(inst.real_rep, inst.graph, tol=1e-10).passed


def test_bbc_state_independence_lost_in_the_real_form():
    inst = bbc21()
    assert certify_operator(inst.complex_rep, inst.graph)[2]
    assert not certify_operator(inst.real_rep, inst.graph)[2]


def test_bbc_vector_conversion_reproduces_stored_real_rep():
    inst = bbc21()
    out = vector_realify(inst.complex_rep, inst.graph)
    assert np.max(np.abs(out.vectors - inst.real_rep.vectors)) <= 1e-12
