import dataclasses
import hashlib
import json
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from luckylab import fileio
from luckylab.cli import main
from luckylab.formula import make_formula
from luckylab.graph import GraphError, complete_graph, is_triangle_free, max_clique, path_graph
from luckylab.labeling import make_lists, verify_additive, verify_from_lists
from luckylab.solver import exists_binary, solve_eta
from luckylab.constructions import gadgets
from luckylab.constructions import (
    build_amplifier_gadget,
    build_clause_gadget,
    build_forcing_gadget,
    build_index_gadget,
    build_inapprox_reduction,
    build_listcoloring_reduction,
    build_sat_reduction,
    build_variable_gadget,
    build_vertex_gadget,
    certify_gadget,
    clique_eta_one,
    corrupted_variable_gadget,
    counterexample_graph,
    gadget_certification_suite,
    normalize_lists,
)


# -- families ---------------------------------------------------------------


def test_counterexample_k1_is_p3():
    g, lab, lists = counterexample_graph(1)
    assert g.n == 3 and g.m == 2
    assert lab.values == {0: 1, 1: 1, 2: 1}
    names = {g.name_of(v) for v in g.vertices()}
    assert names == {"x_1^1", "y_1^1", "t"}
    by_name = {g.name_of(v): v for v in g.vertices()}
    assert sorted(lists[by_name["x_1^1"]]) == [1]
    assert sorted(lists[by_name["y_1^1"]]) == [2]
    assert sorted(lists[by_name["t"]]) == [1]


def test_counterexample_k2_shape():
    g, lab, lists = counterexample_graph(2)
    assert g.n == 13
    assert g.m == 3 * 6 + 6  # three K4 copies plus the hub edges
    assert lab.max_label() == 2
    assert verify_additive(g, lab, mode="positive") == []
    # the shipped labeling is not drawn from the adversarial lists
    assert not verify_from_lists(lab, lists)
    assert all(len(lists[v]) == 3 for v in g.vertices())


def test_counterexample_shipped_labeling_verifies_up_to_k4():
    for k in range(1, 5):
        g, lab, lists = counterexample_graph(k)
        assert g.n == 2 * k * (2 * k - 1) + 1
        assert verify_additive(g, lab, mode="positive") == []
        assert lab.max_label() == k
        assert all(len(lists[v]) == 2 * k - 1 for v in g.vertices())


def test_counterexample_y_membership_fails_for_alpha_ge_beta():
    # y_b^a carries label b but its list starts at 1+a
    g, lab, lists = counterexample_graph(2)
    by_name = {g.name_of(v): v for v in g.vertices()}
    y11 = by_name["y_1^1"]
    assert lab[y11] == 1 and 1 not in lists[y11]


def test_counterexample_hub_neighbor_sum():
    g, lab, _lists = counterexample_graph(1)
    from luckylab.labeling import all_neighbor_sums

    by_name = {g.name_of(v): v for v in g.vertices()}
    # y's neighbors are its clique partner and the hub, both labeled 1
    assert all_neighbor_sums(g, lab)[by_name["y_1^1"]] == 2


def test_clique_eta_one():
    g = clique_eta_one(3)
    assert g.n == 6
    assert sorted(g.degree(v) for v in range(3)) == [2, 3, 4]
    for n in range(1, 6):
        gg = clique_eta_one(n)
        assert gg.n == n * (n + 1) // 2
        assert max_clique(gg)[0] == n
    for n in range(1, 5):
        assert solve_eta(clique_eta_one(n)).value == 1


# -- gadget contracts ---------------------------------------------------------


def test_clause_gadget_contract():
    rep = certify_gadget(build_clause_gadget())
    assert rep.certified
    by_name = {c.name: c for c in rep.cases}
    assert by_name["lit=000"].solutions == 0
    assert by_name["lit=100"].solutions > 0


def test_clause_gadget_collapses_duplicates():
    inst = build_clause_gadget(("x", "x", "x"))
    assert inst.params["num_literals"] == 1
    assert certify_gadget(inst).certified


def test_variable_gadget_contract():
    rep = certify_gadget(build_variable_gadget())
    assert rep.certified
    by_name = {c.name: c for c in rep.cases}
    assert by_name["x=1,!x=1"].solutions == 0
    for nm in ("x=0,!x=0", "x=0,!x=1", "x=1,!x=0"):
        assert by_name[nm].solutions > 0


def test_forcing_gadget_contract():
    rep = certify_gadget(build_forcing_gadget())
    assert rep.certified
    by_name = {c.name: c for c in rep.cases}
    assert by_name["port=1"].solutions == 0
    assert by_name["port=0"].solutions > 0


def test_forcing_gadget_minimal_host():
    # the unit pins its port's sum away from 1, so a bare pendant port has no
    # labeling at all; one slack pendant on the port is the smallest viable host
    inst = build_forcing_gadget()
    assert exists_binary(inst.graph).status == "infeasible"
    from luckylab.graph import build_graph

    g = inst.graph
    host = build_graph(g.n + 1, list(g.edges) + [(inst.ports["v"], g.n)])
    rep = exists_binary(host)
    assert rep.status == "found"
    assert rep.certificate[inst.ports["v"]] == 0
    assert rep.certificate[inst.ports["w"]] == 1


def test_index_gadget_contract():
    for j in (2, 3, 4):
        rep = certify_gadget(build_index_gadget(j), cap=24)
        assert rep.certified, rep.countermodels()
    with pytest.raises(GraphError, match="j >= 2"):
        build_index_gadget(1)


def test_vertex_gadget_contract():
    assert certify_gadget(build_vertex_gadget({2, 3}, 3), cap=40).certified
    assert certify_gadget(build_vertex_gadget({2}, 3), cap=40).certified
    assert certify_gadget(build_vertex_gadget({3}, 3), cap=40).certified
    # nothing excluded means no index gadgets at all
    inst = build_vertex_gadget({2, 3}, 3)
    names = {inst.graph.name_of(v) for v in inst.graph.vertices()}
    assert not any(".u" in nm for nm in names)


def test_vertex_gadget_rejects_bad_lists():
    with pytest.raises(GraphError):
        build_vertex_gadget(set(), 3)
    with pytest.raises(GraphError):
        build_vertex_gadget({1, 2}, 3)


def test_amplifier_contract():
    for d in (1, 2, 3):
        rep = certify_gadget(build_amplifier_gadget(d), cap=30)
        assert rep.certified, rep.countermodels()


def test_amplifier_pair_weight_forced_when_selectors_zero():
    # minimum pendant-pair weight is d when the selector mass is 0
    inst = build_amplifier_gadget(3)
    from luckylab.solver import SearchProblem, enumerate_solutions, SearchBudget

    g = inst.graph
    fixed = {inst.ports[f"p{i}"]: 0 for i in (4, 5, 6)}
    domains = tuple((fixed[v],) if v in fixed else (0, 1) for v in g.vertices())
    best = [None]

    def keep(labels, sums):
        w = sum(labels[a] + labels[b] for a, b in inst.params["pairs"])
        if best[0] is None or w < best[0]:
            best[0] = w

    outcome, _ = enumerate_solutions(
        SearchProblem(g, domains, extra_sum=((inst.ports["v"], 0),)),
        SearchBudget(), keep)
    assert outcome == "exhausted"
    assert best[0] == 3


def test_corrupted_gadget_emits_countermodel():
    rep = certify_gadget(corrupted_variable_gadget())
    assert not rep.certified
    # the first labeling the enumeration reaches is the one rendered, so a
    # change of search order must not change it
    assert [c.solutions for c in rep.cases] == [8192, 11264, 11264, 13312]
    assert rep.countermodels() == [
        "x=1,!x=1: expected infeasible, found labeling {1-labeled: x, !x, x.y2}"]


def test_certification_streams_its_solutions():
    # the corrupted gadget has 44,032 solutions; held in a list they took
    # 11.4 MiB of traced memory, streamed the whole certification stays small
    tracemalloc.start()
    try:
        rep = certify_gadget(corrupted_variable_gadget())
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(c.solutions for c in rep.cases) == 44_032
    assert peak < 1_000_000, peak


def test_list_attainable_catches_an_unreached_list_value():
    # every port sum lies in {2, 3} but only 2 is attained: the per-solution
    # check passes, and only the set of sums seen can tell
    inst = build_vertex_gadget({2}, 3)
    inst.params["lf"] = frozenset({2, 3})
    rep = certify_gadget(inst, cap=40)
    assert rep.countermodels() == [
        "externals-forced-0: list-attainable: port sums attained [2], list is [2, 3]"]


def _mutated(inst, ports=(), **params):
    return dataclasses.replace(inst, ports={**inst.ports, **dict(ports)},
                               params={**inst.params, **params})


def _mutants():
    t, i2, gv = build_forcing_gadget(), build_index_gadget(2), build_vertex_gadget({2}, 3)
    d = build_amplifier_gadget(2)
    d2 = dict(ext_range=(0, 1))  # two boundary cases, so both external masses show
    return {
        "w-forced": _mutated(t, {"w": t.ports["v"]}),
        "u-forced-and-sum": _mutated(i2, j=3),
        "port-sum-in-list": _mutated(gv, lf=frozenset({3})),
        "center-forced": _mutated(d, {"p3": d.ports["p4"]}, **d2),
        "sum-identity": _mutated(d, {"p4": d.ports["r"]}, **d2),
        "pairs-forced-when-selectors-zero": _mutated(
            d, pairs=[*d.params["pairs"], (d.ports["p3"], d.ports["p3"])], **d2),
    }


_MUTANT_COUNTERMODELS = {
    "w-forced": [
        "port=0: w-forced: w labeled 0, expected forced 1 in "
        "{1-labeled: t.w, t.x2, t.y2, t.y4, t.q1, t.q2}"],
    "u-forced-and-sum": [
        "external=0: u-forced-and-sum: sum at u is 2, expected exactly 3 in "
        "{1-labeled: i.t.w, i.t.x2, i.t.y2, i.t.y4, i.t.q1, i.t.q2, i.z1.a2, i.z1.top}",
        "external=1: u-forced-and-sum: sum at u is 3, expected exactly 4 in "
        "{1-labeled: i.t.w, i.t.x2, i.t.y2, i.t.y4, i.t.q1, i.t.q2, i.z1.a2, i.z1.top}"],
    "port-sum-in-list": [
        "externals-forced-0: port-sum-in-list: sum at port is 2, outside the list [3] in "
        "{1-labeled: g.t.w, g.t.x2, g.t.y2, g.t.y4, g.t.q1, g.t.q2, g.i3.t.w, g.i3.t.x2, "
        "g.i3.t.y2, g.i3.t.y4, g.i3.t.q1, g.i3.t.q2, g.i3.z1.a2, g.i3.z1.top, g.i3.z2.a2, "
        "g.i3.z2.top, g.f2}",
        "externals-forced-0: list-attainable: port sums attained [2], list is [3]"],
    "center-forced": [
        "ext=0: center-forced: p3 labeled 1, expected forced 0 in {1-labeled: v, d.p2, d.p4, d.r}",
        "ext=1: center-forced: p3 labeled 1, expected forced 0 in {1-labeled: v, d.p2, d.p4, d.p6}"],
    "sum-identity": [
        "ext=0: sum-identity: center sum 0 != externals 0 + selectors 1 in "
        "{1-labeled: v, d.p2, d.r, d.b1, d.b2}",
        "ext=1: sum-identity: center sum 1 != externals 1 + selectors 1 in "
        "{1-labeled: v, d.p2, d.r, d.b1, d.b2}"],
    "pairs-forced-when-selectors-zero": [
        "ext=0: pairs-forced-when-selectors-zero: selector mass 0 but pair 3 has weight 0 in "
        "{1-labeled: v, d.p2, d.b1, d.a2}",
        "ext=1: pairs-forced-when-selectors-zero: selector mass 0 but pair 3 has weight 0 in "
        "{1-labeled: v, d.p2, d.b1, d.a2}"],
}


@pytest.mark.parametrize("check", sorted(_MUTANT_COUNTERMODELS))
def test_each_solution_check_reports_its_countermodel(check):
    # one mutated T, I, G or D gadget per solution check: the check fails,
    # each case reports the first solution it failed on, and the text pins
    # the external mass and list each check resolves per case
    rep = certify_gadget(_mutants()[check], cap=40)
    assert rep.countermodels() == _MUTANT_COUNTERMODELS[check]


def test_suite_budget_cut_output(capsys):
    # tests/data/check_gadgets_cut5000.jsonl is `luckylab check gadgets --json
    # --budget-nodes 5000`: every B(x) case is cut inside its free tail, after
    # 2,450 solutions, so the count pins where the cut lands
    golden = (Path(__file__).parent / "data" / "check_gadgets_cut5000.jsonl").read_text()
    assert main(["check", "gadgets", "--json", "--budget-nodes", "5000"]) == 2
    assert capsys.readouterr().out == golden


def test_suite_budget_cut_at_a_counted_tail_end(capsys):
    # tests/data/check_gadgets_cut4166.jsonl is `luckylab check gadgets --json
    # --budget-nodes 4166`: every B(x) case's second free tail, the first
    # counted in one step, ends at node 4,166, so the case is cut at its
    # next node after 2,048 solutions
    golden = (Path(__file__).parent / "data" / "check_gadgets_cut4166.jsonl").read_text()
    assert main(["check", "gadgets", "--json", "--budget-nodes", "4166"]) == 2
    assert capsys.readouterr().out == golden


def test_suite_budget_cut_at_the_switching_tail_end(capsys):
    # tests/data/check_gadgets_cut2111.jsonl is `luckylab check gadgets --json
    # --budget-nodes 2111`: every B(x) case switches to counting at its first
    # solution, inside its first free tail, which ends at node 2,112; the
    # rest of that tail would end past the budget, so it is walked and the
    # case is cut at its last leaf after 1,023 solutions
    golden = (Path(__file__).parent / "data" / "check_gadgets_cut2111.jsonl").read_text()
    assert main(["check", "gadgets", "--json", "--budget-nodes", "2111"]) == 2
    assert capsys.readouterr().out == golden


def test_certification_cap():
    inst = build_vertex_gadget({2}, 3)
    with pytest.raises(GraphError, match="enumeration cap"):
        certify_gadget(inst, cap=22)


def test_suite_all_certified():
    # tests/data/check_gadgets.jsonl is `luckylab check gadgets --json` as
    # shipped: every solution count and countermodel, byte for byte
    golden = (Path(__file__).parent / "data" / "check_gadgets.jsonl").read_text().splitlines()
    suite = gadget_certification_suite()
    for name, rep in suite:
        assert rep.certified, (name, rep.countermodels())
    assert [json.dumps({"gadget": name, **rep.to_json_dict()}, sort_keys=True)
            for name, rep in suite] == golden


def test_builders_do_not_enumerate(monkeypatch, tmp_path):
    # building a gadget, alone or through `construct gadget`, runs no search;
    # only certification (here `--verify`) enumerates, under the budget flags
    def forbidden(*args, **kwargs):
        raise AssertionError("a builder enumerated solutions")

    monkeypatch.setattr(gadgets, "enumerate_solutions", forbidden)
    build_clause_gadget()
    build_clause_gadget(("x", "x", "x"))
    build_variable_gadget()
    build_forcing_gadget()
    build_index_gadget(4)
    build_vertex_gadget({2}, 3)
    build_vertex_gadget({2}, 5)
    build_amplifier_gadget(3)
    argv = ["construct", "gadget", "--gadget-kind", "vertex", "--lf", "2", "--s", "5",
            "--out", str(tmp_path / "g5")]
    assert main(argv) == 0
    monkeypatch.undo()
    start = time.perf_counter()
    assert main([*argv, "--verify", "--budget-nodes", "5"]) == 2
    assert time.perf_counter() - start < 5


# -- reductions ---------------------------------------------------------------


def test_sat_reduction_shape():
    phi = make_formula(3, [(1, 2, 3)])
    red = build_sat_reduction(phi)
    assert red.covers_all_vertices()
    assert is_triangle_free(red.graph)
    w1 = red.id_of("c0.w1")
    ports = {red.id_of("x1"), red.id_of("x2"), red.id_of("x3")}
    assert ports <= set(red.graph.neighbors(w1))


def test_sat_reduction_duplicate_literals_single_edge():
    phi = make_formula(1, [(1, 1, 1)])
    red = build_sat_reduction(phi)
    w1 = red.id_of("c0.w1")
    x = red.id_of("x1")
    assert red.graph.neighbors(w1).count(x) == 1
    # w1 keeps its two cycle neighbors plus the one collapsed literal edge
    assert red.graph.degree(w1) == 3


def test_sat_reduction_triangle_free_random():
    rng = random.Random(424242)
    for _ in range(100):
        nv = rng.randint(1, 4)
        clauses = [tuple(rng.choice([1, -1]) * rng.randint(1, nv)
                         for _ in range(rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 4))]
        red = build_sat_reduction(make_formula(nv, clauses))
        assert is_triangle_free(red.graph)


def test_reduction_build_deterministic():
    phi = make_formula(2, [(1, -2), (2, 1)])
    a = fileio.graph_to_text(build_sat_reduction(phi).graph)
    b = fileio.graph_to_text(build_sat_reduction(phi).graph)
    assert a == b
    g, lab, lists = counterexample_graph(2)
    g2, lab2, lists2 = counterexample_graph(2)
    assert fileio.graph_to_text(g) == fileio.graph_to_text(g2)
    assert fileio.labeling_to_text(lab) == fileio.labeling_to_text(lab2)
    assert fileio.lists_to_text(lists) == fileio.lists_to_text(lists2)


def test_normalize_lists():
    lf, f = normalize_lists(make_lists({0: {3, 7}, 1: {7}}))
    assert f == {3: 2, 7: 3}
    assert sorted(lf[0]) == [2, 3] and sorted(lf[1]) == [3]
    lf, f = normalize_lists(make_lists({0: {2, 3, 4}}))
    assert f == {2: 2, 3: 3, 4: 4}


def test_listcolor_reduction_ports_inherit_adjacency():
    k2 = complete_graph(2)
    red = build_listcoloring_reduction(k2, make_lists({0: {1}, 1: {2}}))
    p0, p1 = red.params["ports"]
    assert red.graph.has_edge(p0, p1)
    assert red.covers_all_vertices()


def test_inapprox_reduction_shape():
    k2 = complete_graph(2)
    red = build_inapprox_reduction(k2, 1)
    assert red.graph.n == 20  # two 10-vertex amplifiers for d=1
    c0, c1 = red.params["centers"]
    assert red.graph.has_edge(c0, c1)
    assert red.covers_all_vertices()


# (n, m, sha256 of graph_to_text) of every standalone gadget and of one
# instance of each reduction: pins vertex creation order and names, which
# the contracts and digest-free shape tests do not see
_GOLDEN = {
    "clause-abc": (8, 8, "be4bbf5ba5067939725983bbf2c799f96dd06f7012da60fda28752394580b034"),
    "clause-xxx": (6, 6, "8a6c1746f1d545414868de2374d8639c392780dfb942998efc580e21e0af74e6"),
    "variable": (18, 18, "9dd1864e9fde682baa7d639fd1c79926077bf79d52b68fc473e6e9545c9423f4"),
    "forcing": (11, 12, "63835eb9f9ea6675b3804b6cb8eb8fb1cb00d433d7f3217e42c800e54ff77cfe"),
    "index-2": (15, 17, "d76fc92e0ae69d84ad78974a032c8b2cd78931dd05360ae61433639b11e064e3"),
    "index-3": (19, 22, "39ea73faf1c321aa576cd6747a12be194396b9fc456d9d6b4ce2f2d870bc7856"),
    "index-4": (23, 27, "972376d0ebb800acae7eb9c2d2e55b0a329ad0a78e96e67194868003a55725b3"),
    "vertex-2-3": (33, 39, "baaa33ec755ab1ff8c76161a9699ecb7c4cfaae5d388a27b3adf08b43c46f405"),
    "amplifier-1": (10, 14, "20c39a0b11cbdde3afbda437f8d5c3c379198c1e7bc25d01b0e86f4bed41d4ae"),
    "amplifier-2": (12, 18, "2d511fb4320885f69cbd4ecf1cc6bd493257090af2c79277203f0c17c31fbde3"),
    "amplifier-3": (14, 22, "e1f6a9f9c9ba1c1653df4bdbf8aafd98c636efade74f99ee56ca54baa6236916"),
    "sat-repeats": (74, 81, "d80188071a75f7274ff9d8263d49524b78140f0c35d01e50637179495d065379"),
    "inapprox-k4-d21": (200, 382, "b28c694ac7993798cf7c3b7281878eda2e54ea70c3cb12a97fdb8eb4ee2b6924"),
    "listcolor-p3": (102, 122, "7d1a78075b085991053985e84d6406a2ff04c0cfc0bda8fdaa1290ee278feb67"),
    "counterexample-3": (31, 90, "2309c0590554e67816e68e40b0ab0951cbd810594fc9d43265de5390f1179794"),
}

_EMITTED = {
    "clause-abc": lambda: build_clause_gadget().graph,
    "clause-xxx": lambda: build_clause_gadget(("x", "x", "x")).graph,
    "variable": lambda: build_variable_gadget().graph,
    "forcing": lambda: build_forcing_gadget().graph,
    "index-2": lambda: build_index_gadget(2).graph,
    "index-3": lambda: build_index_gadget(3).graph,
    "index-4": lambda: build_index_gadget(4).graph,
    "vertex-2-3": lambda: build_vertex_gadget({2}, 3).graph,
    "amplifier-1": lambda: build_amplifier_gadget(1).graph,
    "amplifier-2": lambda: build_amplifier_gadget(2).graph,
    "amplifier-3": lambda: build_amplifier_gadget(3).graph,
    "sat-repeats": lambda: build_sat_reduction(
        make_formula(3, [(1, 1, -2), (2, -3), (-1, -1, -1), (3, -2, 3)])).graph,
    "inapprox-k4-d21": lambda: build_inapprox_reduction(complete_graph(4), 21).graph,
    "listcolor-p3": lambda: build_listcoloring_reduction(
        path_graph(3), make_lists({0: [1, 2], 1: [2, 3], 2: [1, 3]})).graph,
    "counterexample-3": lambda: counterexample_graph(3)[0],
}


@pytest.mark.parametrize("name", sorted(_GOLDEN))
def test_emitted_graph_golden(name):
    g = _EMITTED[name]()
    digest = hashlib.sha256(fileio.graph_to_text(g).encode()).hexdigest()
    assert (g.n, g.m, digest) == _GOLDEN[name]


def _counterexample_texts(k):
    _, lab, lists = counterexample_graph(k)
    return {"lab": fileio.labeling_to_text(lab), "lists": fileio.lists_to_text(lists)}


def _reduction_texts(red):
    return {"params": json.dumps(red.params, sort_keys=True),
            "provenance": json.dumps(red.provenance, sort_keys=True)}


# what a construction emits beside its graph: the counterexample's labeling
# and list files, and each reduction's params and provenance as sorted JSON
_ARTIFACT_GOLDEN = {
    ("counterexample-3", "lab"): "1ceea86ac65dafe1e184cac2ee487c42487ec8963874566efe0fd2a46b228c4c",
    ("counterexample-3", "lists"): "b5b1f02ed9020aac9b9aceafa72bfd0fb4846b23b9e08fa5f0300b94acb3a81a",
    ("inapprox-k4-d21", "params"): "e8835e9de16258adf24b7be447dd63fe2262ae1fed597583af4b48a5fa1693b5",
    ("inapprox-k4-d21", "provenance"): "d4d03acae3aacf7a57bf51d23dd141fb28ebee57dbb7300dbc8c4a5031f4c398",
    ("listcolor-p3", "params"): "2dc9f10625586f59a32bac3e4ff5b5c37f58f3d4769090cf4fa53a4aee20606b",
    ("listcolor-p3", "provenance"): "82088bda3fa68398a17a3d2d32927fe28896f2b428f86aae2a5a534e69ae44d2",
}

_ARTIFACTS = {
    "counterexample-3": lambda: _counterexample_texts(3),
    "inapprox-k4-d21": lambda: _reduction_texts(build_inapprox_reduction(complete_graph(4), 21)),
    "listcolor-p3": lambda: _reduction_texts(build_listcoloring_reduction(
        path_graph(3), make_lists({0: [1, 2], 1: [2, 3], 2: [1, 3]}))),
}


@pytest.mark.parametrize("name, part", sorted(_ARTIFACT_GOLDEN))
def test_emitted_artifact_golden(name, part):
    text = _ARTIFACTS[name]()[part]
    assert hashlib.sha256(text.encode()).hexdigest() == _ARTIFACT_GOLDEN[name, part]


def test_certification_counts_match_raw_enumeration():
    # the engine-backed enumeration against a direct scan of all labelings
    import itertools as it

    inst = build_clause_gadget()
    g = inst.graph
    ports = [inst.ports[f"lit{i}"] for i in range(3)]
    internals = [v for v in g.vertices() if v not in ports]
    for bits in it.product((0, 1), repeat=3):
        fixed = dict(zip(ports, bits))
        count = 0
        for vals in it.product((0, 1), repeat=len(internals)):
            labels = dict(fixed)
            labels.update(zip(internals, vals))
            sums = [sum(labels[u] for u in g.neighbors(v)) for v in g.vertices()]
            ok = all(sums[u] != sums[v] for u, v in g.edges
                     if u not in ports and v not in ports)
            count += ok
        rep = certify_gadget(inst)
        case = next(c for c in rep.cases if c.name == "lit=" + "".join(map(str, bits)))
        assert case.solutions == count, (bits, case.solutions, count)
