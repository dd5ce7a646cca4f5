import random

import pytest

from luckylab.formula import FormulaError, make_formula
from luckylab.graph import GraphError, complete_graph, cycle_graph, path_graph
from luckylab.labeling import make_lists, verify_additive, weight
from luckylab.oracles import (
    assignment_from_labeling,
    check_equivalence_listcolor,
    check_equivalence_sat,
    check_threshold_inapprox,
    dpll_sat,
    exhaustive_small_formulas,
    labeling_from_assignment,
    labeling_from_coloring,
    list_color_brute,
    naive_eta,
    naive_eta1,
    naive_ptds,
    naive_sigma,
    random_formula,
    sat_brute,
)


def test_sat_brute_examples():
    assert sat_brute(make_formula(3, [(1, 2, 3)])) is not None
    assert sat_brute(make_formula(1, [(1, 1, 1), (-1, -1, -1)])) is None


def test_sat_brute_agrees_with_dpll():
    rng = random.Random(314)
    # the random draws are all satisfiable; the exhaustive two-variable,
    # two-clause formulas hold the unsatisfiable ones
    formulas = [random_formula(rng, 5, rng.randint(1, 8)) for _ in range(50)]
    formulas += exhaustive_small_formulas(2, 2)
    unsat = 0
    for phi in formulas:
        model = dpll_sat(phi)
        assert (sat_brute(phi) is None) == (model is None), phi
        if model is None:
            unsat += 1
        else:
            assert phi.satisfies(model)
    assert 0 < unsat < len(formulas)


def test_list_color_brute():
    k2 = complete_graph(2)
    assert list_color_brute(k2, make_lists({0: {1}, 1: {2}})) == {0: 1, 1: 2}
    assert list_color_brute(complete_graph(3), make_lists({v: {1, 2} for v in range(3)})) is None
    c4 = cycle_graph(4)
    col = list_color_brute(c4, make_lists({v: {1, 2} for v in range(4)}))
    assert col is not None and all(col[u] != col[v] for u, v in c4.edges)


def test_naive_oracles_spot_values():
    assert naive_eta(path_graph(3)) == 1
    assert naive_eta(complete_graph(4)) == 4
    assert naive_eta1(cycle_graph(5)) is None
    assert naive_eta1(cycle_graph(4)) == 1
    assert naive_sigma(complete_graph(4)) == 4
    assert naive_sigma(cycle_graph(4)) == 2
    assert naive_ptds(cycle_graph(4)) == 3
    assert naive_ptds(complete_graph(2)) is None


def test_labeling_from_assignment_round_trip():
    phi = make_formula(3, [(1, 2, 3)])
    gamma = {1: True, 2: True, 3: True}
    lab, red = labeling_from_assignment(phi, gamma)
    assert verify_additive(red.graph, lab, mode="binary") == []
    back = assignment_from_labeling(phi, lab, red)
    assert phi.satisfies(back)


def test_labeling_from_assignment_negated_literal():
    phi = make_formula(2, [(1, -2, 1)])
    lab, red = labeling_from_assignment(phi, {1: True, 2: False})
    assert verify_additive(red.graph, lab, mode="binary") == []


def test_labeling_from_assignment_rejects_unsatisfying():
    phi = make_formula(2, [(1, 2)])
    with pytest.raises(FormulaError, match="does not satisfy"):
        labeling_from_assignment(phi, {1: False, 2: False})


def test_round_trip_over_satisfiable_family():
    # assignment -> labeling -> assignment stays satisfying across the family
    count = 0
    for phi in exhaustive_small_formulas(2, 1):
        gamma = sat_brute(phi)
        if gamma is None:
            continue
        lab, red = labeling_from_assignment(phi, gamma)
        back = assignment_from_labeling(phi, lab, red)
        assert phi.satisfies(back)
        count += 1
    assert count > 10


def test_assignment_from_labeling_all_zero_ports_default_true():
    # a variable absent from every clause can have both ports labeled 0
    phi = make_formula(2, [(1, 1, 1)])
    lab, red = labeling_from_assignment(phi, {1: True, 2: False})
    idx = {name: v for v, name in red.graph.names.items()}
    if lab[idx["x2"]] == 0 and lab[idx["!x2"]] == 0:
        gamma = assignment_from_labeling(phi, lab, red)
        assert gamma[2] is True


def test_assignment_from_labeling_rejects_invalid():
    phi = make_formula(1, [(1,)])
    red_lab, red = labeling_from_assignment(phi, {1: True})
    from luckylab.labeling import Labeling

    bad = Labeling({v: 0 for v in red.graph.vertices()})
    with pytest.raises(FormulaError, match="not a valid"):
        assignment_from_labeling(phi, bad, red)


def test_labeling_from_coloring_triangle():
    tri = complete_graph(3)
    lab, red = labeling_from_coloring(tri, {0: 1, 1: 2, 2: 3}, 16)
    assert verify_additive(red.graph, lab, mode="binary") == []
    assert weight(lab) <= 15


def test_labeling_from_coloring_selector_recipe():
    # color 1 puts the selector mass entirely on p5
    tri = complete_graph(3)
    lab, red = labeling_from_coloring(tri, {0: 1, 1: 2, 2: 3}, 16)
    idx = {name: v for v, name in red.graph.names.items()}
    assert (lab[idx["v0.p4"]], lab[idx["v0.p5"]], lab[idx["v0.p6"]]) == (0, 1, 0)
    assert (lab[idx["v1.p4"]], lab[idx["v1.p5"]], lab[idx["v1.p6"]]) == (0, 1, 1)
    assert (lab[idx["v2.p4"]], lab[idx["v2.p5"]], lab[idx["v2.p6"]]) == (1, 1, 1)


def test_brute_caps_are_enforced():
    with pytest.raises(FormulaError, match="24-variable cap"):
        sat_brute(make_formula(30, [(1, 2, 3)]))
    big = make_lists({v: set(range(1, 30)) for v in range(6)})
    with pytest.raises(GraphError, match="product space"):
        from luckylab.graph import empty_graph

        list_color_brute(empty_graph(6), big)


def test_labeling_from_coloring_rejections():
    with pytest.raises(GraphError, match="colors 1..3"):
        labeling_from_coloring(complete_graph(4), {0: 1, 1: 2, 2: 3, 3: 4}, 21)
    with pytest.raises(GraphError, match="not proper"):
        labeling_from_coloring(complete_graph(2), {0: 1, 1: 1}, 11)


def test_check_sat_verdicts():
    v = check_equivalence_sat(make_formula(3, [(1, 2, 3)]))
    assert v.status == "agree" and v.oracle_answer and v.reduction_answer
    v = check_equivalence_sat(make_formula(1, [(1, 1, 1), (-1, -1, -1)]))
    assert v.status == "agree" and not v.oracle_answer and not v.reduction_answer


def test_check_sat_inconclusive_on_tiny_budget():
    from luckylab.solver import SearchBudget

    phi = make_formula(3, [(1, 2, 3), (-1, -2, -3)])
    v = check_equivalence_sat(phi, SearchBudget(max_nodes=3, max_ms=60_000))
    assert v.status == "inconclusive"
    assert not v.agree


def test_check_listcolor_worked_instances():
    k2 = complete_graph(2)
    v = check_equivalence_listcolor(k2, make_lists({0: {1}, 1: {2}}))
    assert v.status == "agree" and v.oracle_answer and v.reduction_answer
    v = check_equivalence_listcolor(k2, make_lists({0: {1}, 1: {1}}))
    assert v.status == "agree" and not v.oracle_answer and not v.reduction_answer
    v = check_equivalence_listcolor(complete_graph(3), make_lists({v_: {1, 2} for v_ in range(3)}))
    assert v.status == "agree" and not v.oracle_answer


def test_check_threshold_requires_separating_d():
    with pytest.raises(GraphError, match="5n\\+1"):
        check_threshold_inapprox(complete_graph(3), 15)


def test_exhaustive_family_counts():
    fams = exhaustive_small_formulas(2, 2)
    # one variable: 3 clauses over {x1, !x1}; two variables: 14 clauses
    assert len(fams) == (3 + 6) + (14 + 105)
    assert all(1 <= len(f.clauses) <= 2 for f in fams)


def test_verdict_json_round_trip():
    import json

    v = check_equivalence_sat(make_formula(1, [(1,)]))
    parsed = json.loads(json.dumps(v.to_json_dict(), sort_keys=True))
    assert parsed["status"] == "agree"
    assert parsed["oracle_answer"] is True
