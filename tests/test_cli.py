import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from luckylab import fileio
from luckylab.cli import main
from luckylab.graph import (
    build_graph,
    complete_graph,
    complete_multipartite,
    cycle_graph,
    path_graph,
    petersen_graph,
)


@pytest.fixture
def p3_file(tmp_path):
    p = tmp_path / "p3.col"
    fileio.write_graph(p, path_graph(3))
    return str(p)


@pytest.fixture
def c5_file(tmp_path):
    p = tmp_path / "c5.col"
    fileio.write_graph(p, cycle_graph(5))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_solve_eta_json(capsys, p3_file):
    code, out = run(capsys, "solve", "eta", "--graph", p3_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 1 and payload["status"] == "found"


def test_solve_infeasible_exit_one(capsys, c5_file):
    code, _ = run(capsys, "solve", "eta1", "--graph", c5_file)
    assert code == 1


def test_solve_listdecide(capsys, tmp_path, p3_file):
    lists = tmp_path / "l.lists"
    lists.write_text("l 1 1\nl 2 2\nl 3 1\n")
    code, _ = run(capsys, "solve", "listdecide", "--graph", p3_file, "--lists", str(lists))
    assert code == 1  # infeasible: both endpoints of the first edge sum to 2


def test_verify_labeling(capsys, tmp_path, p3_file):
    lab = tmp_path / "l.lab"
    lab.write_text("v 1 1\nv 2 1\nv 3 1\n")
    code, out = run(capsys, "verify", "labeling", "--graph", p3_file,
                    "--labeling", str(lab), "--json")
    assert code == 0 and json.loads(out)["valid"]


def test_verify_labeling_violation(capsys, tmp_path):
    g = tmp_path / "k2.col"
    g.write_text("p edge 2 1\ne 1 2\n")
    lab = tmp_path / "l.lab"
    lab.write_text("v 1 1\nv 2 1\n")
    code, out = run(capsys, "verify", "labeling", "--graph", str(g),
                    "--labeling", str(lab), "--json")
    assert code == 1
    assert json.loads(out)["violations"]


@pytest.mark.parametrize("mode, labels, outside", [
    ("binary", "v 1 1\nv 2 1\nv 3 2\n", [{"vertex": 3, "label": 2}]),
    ("positive", "v 1 0\nv 2 1\nv 3 1\n", [{"vertex": 1, "label": 0}]),
    ("any", "v 1 1\nv 2 -1\nv 3 1\n", [{"vertex": 2, "label": -1}]),
])
def test_verify_labeling_outside_mode_is_negative(capsys, tmp_path, p3_file, mode, labels,
                                                  outside):
    # a label the mode forbids is a "no", named by its 1-based file id
    lab = tmp_path / "l.lab"
    lab.write_text(labels)
    code, out = run(capsys, "verify", "labeling", "--graph", p3_file,
                    "--labeling", str(lab), "--mode", mode, "--json")
    payload = json.loads(out)
    assert code == 1 and payload["valid"] is False
    assert payload["outside_mode"] == outside
    code, out = run(capsys, "verify", "labeling", "--graph", p3_file,
                    "--labeling", str(lab), "--mode", mode)
    assert code == 1 and f"at vertex {outside[0]['vertex']} is outside --mode {mode}" in out


def test_verify_labeling_not_total_exit_two(capsys, tmp_path, p3_file):
    lab = tmp_path / "l.lab"
    lab.write_text("v 1 1\nv 2 1\n")
    code = main(["verify", "labeling", "--graph", p3_file, "--labeling", str(lab),
                 "--mode", "binary", "--json"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    # the missing vertex is named by its 1-based file id
    assert captured.err == "error: labeling is not total: vertex 3 has no label\n"


@pytest.mark.parametrize("text, message", [
    ("l 1 1 2\nl 2 1 2\nl 3 1 2\nl 4 1\n", "list attached to unknown vertex 4"),
    ("l 1 1 2\nl 2 1 2\n", "list assignment not total; missing vertices [3]"),
    ("l 2 1 2\n", "list assignment not total; missing vertices [1, 3]"),
    ("l 1 1 2\nl 2 -1 2\nl 3 1 2\n", "line 2: list value -1 is not positive"),
])
@pytest.mark.parametrize("command", [
    ["solve", "listdecide"], ["refute-lists"], ["verify", "lists", "--labeling", "{lab}"],
    ["construct", "listcolor", "--out", "{out}"], ["check", "listcolor"]])
def test_list_errors_use_file_ids(capsys, tmp_path, p3_file, text, message, command):
    lists = tmp_path / "bad.lists"
    lists.write_text(text)
    lab = tmp_path / "p3.lab"
    lab.write_text("v 1 1\nv 2 1\nv 3 1\n")
    argv = [a.format(lab=lab, out=tmp_path / "red") for a in command]
    code = main([*argv, "--graph", p3_file, "--lists", str(lists)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_labeling_violation_uses_file_ids(capsys, tmp_path, p3_file):
    # labels 0 1 1 give every vertex sum 1, so both file edges are violated
    lab = tmp_path / "l.lab"
    lab.write_text("v 1 0\nv 2 1\nv 3 1\n")
    argv = ["verify", "labeling", "--graph", p3_file, "--labeling", str(lab), "--mode", "binary"]
    code, out = run(capsys, *argv, "--json")
    assert code == 1
    assert [v["edge"] for v in json.loads(out)["violations"]] == [[1, 2], [2, 3]]
    code, out = run(capsys, *argv)
    assert code == 1 and out == "2 violated edge(s), first 1-2 with both sums 1\n"


def test_verify_ptds_uses_file_ids(capsys, tmp_path, p3_file):
    # the set names file vertices 1 and 3, not the library's 0 and 2
    lab = tmp_path / "s.lab"
    lab.write_text("v 1 1\nv 2 0\nv 3 1\n")
    code, out = run(capsys, "verify", "ptds", "--graph", p3_file, "--labeling", str(lab), "--json")
    assert code == 1  # file vertex 1's one neighbor, 2, is not in the set
    assert json.loads(out) == {"proper_total_dominating": False, "set": [1, 3]}


@pytest.mark.parametrize("text, message", [
    ("v 1 1\nv 2 7\nv 3 1\n",
     "label 7 at vertex 2 is not 0 or 1: verify ptds reads the set as a 0/1 indicator labeling"),
    ("v 1 1\nv 2 1\n", "labeling is not total: vertex 3 has no label"),
], ids=["label-7", "not-total"])
def test_verify_ptds_reads_a_total_indicator(capsys, tmp_path, p3_file, text, message):
    """A label outside {0, 1}, or a vertex without one, names no set: exit 2, not a verdict."""
    lab = tmp_path / "s.lab"
    lab.write_text(text)
    code = main(["verify", "ptds", "--graph", p3_file, "--labeling", str(lab), "--json"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


def test_solve_ptds_set_uses_file_ids(capsys, tmp_path):
    # the least PTDS of this graph is library vertices {1, 2, 3}
    g = tmp_path / "g.col"
    g.write_text("p edge 5 5\ne 1 2\ne 1 3\ne 2 4\ne 3 4\ne 4 5\n")
    code, out = run(capsys, "solve", "ptds", "--graph", str(g), "--json")
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 3
    assert payload["detail"]["set"] == [2, 3, 4]
    # the same ids the certificate uses
    chosen = [int(line.split()[1]) for line in payload["certificate"].splitlines()
              if line.split()[2] == "1"]
    assert chosen == [2, 3, 4]


@pytest.mark.parametrize("name, text, argv", [
    ("bad.col", "what is this\n", ["solve", "eta", "--graph"]),
    ("empty.cnf", "p cnf 2 0\n", ["check", "sat", "--cnf"]),
    ("p3.col", "p edge 3 2\ne 1 2\ne 2 3\n", ["solve", "eta", "--budget-nodes", "0", "--graph"]),
    ("p3.col", "p edge 3 2\ne 1 2\ne 2 3\n", ["solve", "eta", "--budget-ms", "0", "--graph"]),
    # rejected on the header alone, before any per-vertex array is built
    ("huge.col", "p edge 300000000 0\n", ["solve", "eta", "--graph"]),
], ids=["graph", "cnf-without-clauses", "budget-nodes-0", "budget-ms-0", "absurd-vertex-count"])
def test_malformed_graph_exit_two(capsys, tmp_path, name, text, argv):
    path = tmp_path / name
    path.write_text(text)
    code = main([*argv, str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, message", [
    (["construct", "sat", "--out", "{out}"], "construct sat requires --cnf"),
    (["construct", "inapprox", "--out", "{out}"], "construct inapprox requires --graph"),
    (["construct", "listcolor", "--out", "{out}"], "construct listcolor requires --graph"),
    (["construct", "listcolor", "--graph", "{g}", "--out", "{out}"],
     "construct listcolor requires --lists"),
    (["construct", "gadget", "--out", "{out}"], "construct gadget requires --gadget-kind"),
    (["check", "inapprox"], "check inapprox requires --graph"),
    (["check", "listcolor", "--graph", "{g}"], "check listcolor requires --lists"),
    (["verify", "lists", "--graph", "{g}", "--labeling", "{lab}"], "verify lists requires --lists"),
    (["solve", "listdecide", "--graph", "{g}"], "solve listdecide requires --lists"),
    (["bounds"], "bounds requires --graph"),
])
def test_missing_file_flag_exit_two(capsys, tmp_path, p3_file, argv, message):
    lab = tmp_path / "l.lab"
    lab.write_text("v 1 1\nv 2 1\nv 3 1\n")
    code = main([a.format(g=p3_file, lab=lab, out=tmp_path / "x") for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["solve", "eta"], ["bounds"]])
def test_zero_vertex_graph_exit_two(capsys, tmp_path, command):
    # bounds used to name max_clique, the first search it runs
    path = tmp_path / "empty.col"
    path.write_text("p edge 0 0\n")
    assert main([*command, "--graph", str(path)]) == 2
    assert capsys.readouterr().err == "error: solver requires a graph with at least one vertex\n"


# the 5-wheel and K4 with one pendant vertex are irregular; before the
# premise was checked, both printed a "disagree" verdict and exited 1
_IRREGULAR = {
    "w5": build_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)]),
    "k4-pendant": build_graph(5, [*complete_graph(4).edges, (3, 4)]),
}


@pytest.mark.parametrize("name", sorted(_IRREGULAR))
@pytest.mark.parametrize("command", ["check", "construct"])
def test_inapprox_irregular_source_exit_two(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.col"
    g = _IRREGULAR[name]
    fileio.write_graph(path, g)
    argv = [command, "inapprox", "--graph", str(path), "--d", str(5 * g.n + 1)]
    if command == "construct":
        argv += ["--out", str(tmp_path / "red")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: source graph must be regular")
    assert captured.err.count("\n") == 1


def _complement(g):
    return build_graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                             if not g.has_edge(u, v)])


def _circulant(n, steps):
    return build_graph(n, [(i, (i + s) % n) for i in range(n) for s in steps])


# the complement of C7 and the circulants C10(1,2) and C11(1,2) are 4-regular
# with chromatic number 4: refuted cases besides K4, which the weight-capped
# search itself must decide
@pytest.mark.parametrize("g, refuted_by_search", [
    (complete_graph(3), False), (complete_graph(4), True),
    (complete_multipartite([2, 2, 2]), False), (cycle_graph(4), False), (cycle_graph(5), False),
    (_complement(cycle_graph(7)), True), (_circulant(10, (1, 2)), True),
    (_circulant(11, (1, 2)), True),
], ids=["k3", "k4", "octahedron", "c4", "c5", "c7-complement", "c10-1-2", "c11-1-2"])
def test_inapprox_regular_source_agrees(capsys, tmp_path, g, refuted_by_search):
    path = tmp_path / "g.col"
    fileio.write_graph(path, g)
    argv = ["check", "inapprox", "--graph", str(path), "--d", str(5 * g.n + 1)]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out.endswith(": agree\n")
    if refuted_by_search:
        code, out = run(capsys, *argv, "--json")
        verdict = json.loads(out)
        assert code == 0 and verdict["status"] == "agree"
        assert verdict["stats"]["solver_status"] == "infeasible"


def test_construct_counterexample_verify(capsys, tmp_path):
    out_prefix = str(tmp_path / "ce")
    code, out = run(capsys, "construct", "counterexample", "--k", "1",
                    "--out", out_prefix, "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"]
    assert payload["eta"]["value"] == 1
    assert payload["refutation"]["status"] == "refuted"
    # files round-trip
    g = fileio.read_graph(out_prefix + ".col")
    assert g.n == 3
    lab = fileio.read_labeling(out_prefix + ".lab")
    assert len(lab) == 3


def test_construct_gadget(capsys, tmp_path):
    out_prefix = str(tmp_path / "t")
    code, out = run(capsys, "construct", "gadget", "--gadget-kind", "forcing",
                    "--out", out_prefix, "--verify", "--dot", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["certification"]["certified"]
    assert (tmp_path / "t.dot").exists()


def test_construct_gadget_verify_budget_cut_exit_two(capsys, tmp_path):
    # a certification the budget cut short decides nothing
    code, out = run(capsys, "construct", "gadget", "--gadget-kind", "amplifier", "--d", "3",
                    "--out", str(tmp_path / "amp"), "--verify", "--budget-nodes", "5", "--json")
    certification = json.loads(out)["certification"]
    assert code == 2 and certification["certified"] is False
    assert any("budget exhausted" in m for c in certification["cases"] for m in c["countermodels"])


def test_construct_sat_with_check(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    out_prefix = str(tmp_path / "sat")
    code, out = run(capsys, "construct", "sat", "--cnf", str(cnf),
                    "--out", out_prefix, "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"]["status"] == "agree"
    prov = json.loads((tmp_path / "sat.provenance.json").read_text())
    assert "x1" in prov and "c0" in prov


def _read_construct(tmp_path, prefix, payload):
    """The graph a construct command wrote, checked against its payload and sidecar."""
    g = fileio.read_graph(tmp_path / f"{prefix}.col")
    assert payload["paths"]["graph"] == str(tmp_path / f"{prefix}.col")
    assert g.n == payload["n"]
    if "provenance" in payload["paths"]:
        # every vertex belongs to exactly one named part
        prov = json.loads((tmp_path / f"{prefix}.provenance.json").read_text())
        assert sorted(v for part in prov.values() for v in part) == list(range(g.n))
    return g


def test_construct_clique_example(capsys, tmp_path):
    code, out = run(capsys, "construct", "clique-example", "--n", "4",
                    "--out", str(tmp_path / "clique"), "--json")
    assert code == 0
    g = _read_construct(tmp_path, "clique", json.loads(out))
    assert (g.n, g.m) == (10, 12)


def test_construct_sat_without_check(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 2\n1 2 0\n-1 -2 0\n")
    code, out = run(capsys, "construct", "sat", "--cnf", str(cnf),
                    "--out", str(tmp_path / "sat"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert "verdict" not in payload
    g = _read_construct(tmp_path, "sat", payload)
    assert (g.n, g.m) == (46, 50) == (payload["n"], payload["m"])


def test_construct_inapprox(capsys, tmp_path):
    k4 = tmp_path / "k4.col"
    fileio.write_graph(k4, complete_graph(4))
    code, out = run(capsys, "construct", "inapprox", "--graph", str(k4), "--d", "3",
                    "--out", str(tmp_path / "amp"), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 3
    assert _read_construct(tmp_path, "amp", payload).n == 56


def test_construct_listcolor(capsys, tmp_path, p3_file):
    lists = tmp_path / "p3.lists"
    lists.write_text("l 1 1 2\nl 2 1 2\nl 3 1 2\n")
    code, out = run(capsys, "construct", "listcolor", "--graph", p3_file, "--lists", str(lists),
                    "--out", str(tmp_path / "lc"), "--json")
    assert code == 0
    assert _read_construct(tmp_path, "lc", json.loads(out)).n == 42


def test_check_listcolor_single(capsys, tmp_path, p3_file):
    lists = tmp_path / "p3.lists"
    lists.write_text("l 1 1 2\nl 2 1 2\nl 3 1 2\n")
    code, out = run(capsys, "check", "listcolor", "--graph", p3_file, "--lists", str(lists),
                    "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["status"], payload["oracle_answer"]) == ("agree", True)


@pytest.mark.parametrize("labels, code, ok", [
    ("v 1 1\nv 2 2\nv 3 1\n", 0, True),
    ("v 1 1\nv 2 3\nv 3 1\n", 1, False),
], ids=["from-lists", "outside-list"])
def test_verify_lists(capsys, tmp_path, p3_file, labels, code, ok):
    lab = tmp_path / "p3.lab"
    lab.write_text(labels)
    lists = tmp_path / "p3.lists"
    lists.write_text("l 1 1 2\nl 2 1 2\nl 3 1 2\n")
    got, out = run(capsys, "verify", "lists", "--graph", p3_file, "--labeling", str(lab),
                   "--lists", str(lists), "--json")
    assert (got, json.loads(out)) == (code, {"from_lists": ok})


def test_refute_lists_cli(capsys, tmp_path):
    code, _ = run(capsys, "construct", "counterexample", "--k", "1",
                  "--out", str(tmp_path / "ce"))
    assert code == 0
    code, out = run(capsys, "refute-lists", "--graph", str(tmp_path / "ce.col"),
                    "--lists", str(tmp_path / "ce.lists"), "--json")
    assert code == 0
    assert json.loads(out)["status"] == "refuted"


def test_refute_lists_budget_cut_exit_two(capsys, tmp_path):
    run(capsys, "construct", "counterexample", "--k", "3", "--out", str(tmp_path / "ce"))
    code, out = run(capsys, "refute-lists", "--graph", str(tmp_path / "ce.col"),
                    "--lists", str(tmp_path / "ce.lists"), "--budget-nodes", "1", "--json")
    assert code == 2
    payload = json.loads(out)
    assert (payload["status"], payload["eta_ell_lower_bound"]) == ("budget-exceeded", None)


def test_refute_beaten_exit_one(capsys, tmp_path, p3_file):
    lists = tmp_path / "fat.lists"
    lists.write_text("l 1 1 2\nl 2 1 2\nl 3 1 2\n")
    code, _ = run(capsys, "refute-lists", "--graph", p3_file, "--lists", str(lists))
    assert code == 1


def test_bounds_cli(capsys, p3_file):
    code, out = run(capsys, "bounds", "--graph", p3_file, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["eta"] == 1 and payload["flags"]["eta_le_chi_conjecture"]


def test_bounds_budget_cuts_clique_and_colouring(capsys, tmp_path):
    # the clique and colouring searches run under the command's budget: on
    # this G(60, 0.5) they used to run unbounded, past 30 s
    rng = random.Random(3)
    n = 60
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    path = tmp_path / "g60.col"
    fileio.write_graph(path, g)
    t0 = time.monotonic()
    code, out = run(capsys, "bounds", "--graph", str(path), "--budget-nodes", "1",
                    "--budget-ms", "1", "--json")
    assert time.monotonic() - t0 < 10
    assert code == 2
    payload = json.loads(out)
    assert payload["notes"]["omega"] == payload["notes"]["chi"] == "budget-exceeded"
    assert (payload["omega"], payload["chi"], payload["clique_ratio_bound"]) == (None, None, None)
    assert payload["flags"] == {}


def test_check_sat_single(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 3 1\n1 2 3 0\n")
    code, out = run(capsys, "check", "sat", "--cnf", str(cnf), "--json")
    assert code == 0
    assert json.loads(out)["status"] == "agree"


_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("argv, golden", [
    (["check", "sat", "--exhaustive"], "check_sat_exhaustive.jsonl"),
    (["check", "inapprox", "--graph", str(_DATA / "k4.col"), "--d", "21"],
     "check_inapprox_k4_d21.json"),
    (["check", "inapprox", "--graph", str(_DATA / "c7_complement.col"), "--d", "36"],
     "check_inapprox_c7_complement_d36.json"),
    (["check", "inapprox", "--graph", str(_DATA / "c4.col"), "--d", "21"],
     "check_inapprox_c4_d21.json"),
    (["check", "listcolor", "--random", "25", "--max-n", "4", "--seed", "1"],
     "check_listcolor_random25.jsonl"),
    (["bounds", "--random", "50", "--max-n", "7", "--seed", "1"], "bounds_random50.jsonl"),
    (["check", "solvers", "--random", "300", "--max-n", "8", "--seed", "1"],
     "check_solvers_random300.jsonl"),
], ids=["sat-exhaustive", "inapprox-k4-d21", "inapprox-c7-complement-d36",
        "inapprox-c4-d21", "listcolor-random25", "bounds-random50", "solvers-random300"])
def test_node_carrying_output_golden(capsys, argv, golden):
    # each search's node count, byte for byte against the committed output
    # (it has no timing fields); the K4 and C7-complement inapproximability
    # checks are weight-capped refutations through the forced-pair bound, the
    # C4 one a weight-capped labeling found in 153,556 nodes, the 25
    # list-colouring reductions are uncapped first-solution searches, the
    # bounds sweep pins every exact value and flag of 50 seeded graphs, and
    # the solver sweep every solver value and oracle value of 300
    code, out = run(capsys, *argv, "--json")
    assert code == 0
    assert out == (_DATA / golden).read_text()


def test_bounds_budget_cut_output_golden(capsys):
    # every bound of 50 seeded graphs, each search capped at 20 nodes: eta or
    # eta1 is cut on 7 of them, which pins where each cut lands; a cut exits 2
    code, out = run(capsys, "bounds", "--random", "50", "--max-n", "7", "--seed", "1",
                    "--budget-nodes", "20", "--json")
    assert code == 2
    assert out == (_DATA / "bounds_random50_cut20.jsonl").read_text()


def test_check_all_output_golden(capsys):
    # the human summary line of each battery of `check all`
    code, out = run(capsys, "check", "all", "--seed", "1")
    assert code == 0
    assert out == (_DATA / "check_all_seed1.txt").read_text()


def test_check_all_json_stdout_is_json_lines(capsys):
    # the gadget and threshold lines join the sweep summaries on stderr
    code = main(["check", "all", "--seed", "1", "--json"])
    out, err = capsys.readouterr()
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 146
    assert all(isinstance(json.loads(line), dict) for line in lines)
    assert err.splitlines() == (_DATA / "check_all_seed1.txt").read_text().splitlines()


def test_check_random_requires_seed(capsys):
    code, _ = run(capsys, "check", "sat", "--random", "3")
    assert code == 2


@pytest.mark.parametrize("sat, threshold", [
    ("agree", "disagree"),
    # a disagreement outranks an inconclusive verdict across batteries too
    ("disagree", "inconclusive"),
], ids=["threshold-disagree", "sat-disagree-threshold-inconclusive"])
def test_check_all_threshold_disagreement_exit_one(capsys, monkeypatch, sat, threshold):
    from luckylab import cli
    from luckylab.oracles import EquivalenceVerdict

    def harness(status):
        return lambda *args, **kwargs: EquivalenceVerdict("stub", True, status == "agree", status)

    monkeypatch.setattr(cli, "gadget_certification_suite", lambda budget: [])
    monkeypatch.setattr(cli, "check_equivalence_sat", harness(sat))
    monkeypatch.setattr(cli, "check_equivalence_listcolor", harness("agree"))
    monkeypatch.setattr(cli, "check_threshold_inapprox", harness(threshold))
    code, out = run(capsys, "check", "all", "--seed", "1")
    assert code == 1
    assert f"threshold n=4 d=21: {threshold}" in out


@pytest.mark.parametrize("argv", [
    ["check", "gadgets"],
    ["check", "sat", "--exhaustive"],
    ["check", "listcolor", "--random", "5", "--seed", "1"],
    ["check", "solvers", "--random", "5", "--seed", "1"],
    ["bounds", "--random", "5", "--seed", "1"],
    ["bounds", "--graph", "petersen.col"],
    ["check", "all", "--seed", "1"],
], ids=["gadgets", "sat", "listcolor", "solvers", "bounds-random", "bounds-graph", "all"])
def test_budget_cut_is_inconclusive(capsys, tmp_path, monkeypatch, argv):
    # every search a command starts runs under the budget flags, and a cut
    # is never reported as agreement or success
    monkeypatch.chdir(tmp_path)
    fileio.write_graph(tmp_path / "petersen.col", petersen_graph())
    code, _ = run(capsys, *argv, "--budget-nodes", "1")
    assert code == 2


def test_budget_cut_sweep_identical_across_jobs(capsys):
    args = ["check", "solvers", "--random", "6", "--max-n", "5", "--seed", "1",
            "--budget-nodes", "1", "--json"]
    code1, out1 = run(capsys, *args, "--jobs", "1")
    code2, out2 = run(capsys, *args, "--jobs", "2")
    assert code1 == code2 == 2
    assert out1 == out2
    lines = [json.loads(line) for line in out1.splitlines()]
    assert any(line.get("cut") for line in lines)
    assert not any(line["agree"] for line in lines if line.get("cut"))


def test_os_error_is_usage_error(capsys, tmp_path):
    code = main(["solve", "eta", "--graph", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_imports_without_numpy():
    import luckylab

    src = str(Path(luckylab.__file__).resolve().parents[1])
    code = ("import sys, luckylab.cli, luckylab.oracles, luckylab.bounds; "
            "sys.exit('numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0


def test_bounds_on_a_graph_deeper_than_the_recursion_limit(tmp_path):
    """P3 plus 2,997 isolated vertices: chi's search is 3,000 placements deep.

    Run as a program, so that a RecursionError would show as a traceback.
    """
    import luckylab

    src = str(Path(luckylab.__file__).resolve().parents[1])
    path = tmp_path / "p3_isolated.col"
    path.write_text("p edge 3000 2\ne 1 2\ne 2 3\n")
    proc = subprocess.run(
        [sys.executable, "-m", "luckylab.cli", "bounds", "--graph", str(path),
         "--budget-nodes", "10000"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("n=3000 omega=2 chi=2 ")


def test_check_sat_sweep_deterministic_across_jobs(capsys):
    args = ["check", "sat", "--random", "6", "--vars", "3", "--clauses", "3",
            "--seed", "7", "--json"]
    code1, out1 = run(capsys, *args, "--jobs", "1")
    code2, out2 = run(capsys, *args, "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2




@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces the CLI's multiprocessing.Pool: records each size, maps in-process."""
    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr("luckylab.cli.Pool", RecordingPool)
    return sizes


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_two(capsys, pool_sizes, jobs):
    code = main(["bounds", "--random", "3", "--max-n", "4", "--seed", "1", "--jobs", jobs])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert pool_sizes == []


@pytest.mark.parametrize("argv", [
    ["bounds", "--random", "2", "--max-n", "0", "--seed", "1"],
    ["check", "solvers", "--random", "2", "--max-n", "0", "--seed", "1"],
    ["check", "listcolor", "--random", "2", "--max-n", "-1", "--seed", "1"],
], ids=["bounds", "check-solvers", "check-listcolor"])
def test_max_n_below_one_exit_two(capsys, pool_sizes, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    got = argv[argv.index("--max-n") + 1]
    assert captured.err == f"error: --max-n must be at least 1, got {got}\n"
    assert pool_sizes == []


@pytest.mark.parametrize("argv", [
    ["bounds", "--random", "-1", "--seed", "1"],
    ["bounds", "--random", "0", "--seed", "1"],
    # without --random, `check solvers` runs 200 graphs; 0 is not "unset"
    ["check", "solvers", "--random", "0", "--seed", "1"],
    ["check", "sat", "--random", "0", "--seed", "1"],
], ids=["bounds-minus-1", "bounds-0", "check-solvers-0", "check-sat-0"])
def test_random_below_one_exit_two(capsys, pool_sizes, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    got = argv[argv.index("--random") + 1]
    assert captured.err == f"error: --random must be at least 1, got {got}\n"
    assert pool_sizes == []


@pytest.mark.parametrize("flag, value", [
    ("--vars", "0"), ("--vars", "-2"), ("--clauses", "0"), ("--clauses", "-2"),
], ids=["0", "-2", "clauses-0", "clauses--2"])
def test_vars_below_one_exit_two(capsys, pool_sizes, flag, value):
    code = main(["check", "sat", "--random", "2", flag, value, "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1, got {value}\n"
    assert pool_sizes == []


@pytest.mark.parametrize("flag, value", [
    ("--max-vars", "0"), ("--max-vars", "-1"), ("--max-clauses", "0"), ("--max-clauses", "-1"),
], ids=["max-vars-0", "max-vars--1", "max-clauses-0", "max-clauses--1"])
def test_exhaustive_sweep_size_below_one_exit_two(capsys, pool_sizes, flag, value):
    # an empty exhaustive sweep used to be reported as if --exhaustive were missing
    code = main(["check", "sat", "--exhaustive", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be at least 1, got {value}\n"
    assert pool_sizes == []


@pytest.mark.parametrize("lf", ["x", "2,,3", "2;3"])
def test_vertex_gadget_lf_not_integers_exit_two(capsys, tmp_path, lf):
    code = main(["construct", "gadget", "--gadget-kind", "vertex", "--lf", lf,
                 "--out", str(tmp_path / "a")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --lf must be comma-separated integers, got {lf!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value, shown", [
    ("--budget-nodes", "0", "0"), ("--budget-ms", "0", "0.0"), ("--budget-ms", "nan", "nan"),
], ids=["nodes-0", "ms-0", "ms-nan"])
def test_budget_flag_not_positive_exit_two(capsys, pool_sizes, flag, value, shown):
    # NaN compares false both ways; a check that let it through ran with no time cap
    code = main(["check", "listcolor", "--random", "2", "--max-n", "3", "--seed", "1",
                 flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be positive, got {shown}\n"
    assert pool_sizes == []


@pytest.mark.parametrize("argv, message", [
    (["check", "sat"], "nothing to check: pass --cnf, --exhaustive or --random"),
    (["check", "listcolor"], "nothing to check: pass --graph/--lists or --random"),
], ids=["sat", "listcolor"])
def test_nothing_to_check_exit_two(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cores, instances, want", [
    (3, 5, [3]),     # capped at the cores
    (8, 2, [2]),     # capped at the instances
    (None, 5, []),   # unknown core count: run in-process
    (8, 1, []),      # one instance: run in-process
])
def test_jobs_clamped_before_pool(capsys, monkeypatch, pool_sizes, cores, instances, want):
    monkeypatch.setattr("luckylab.cli.os.cpu_count", lambda: cores)
    code, out = run(capsys, "check", "solvers", "--random", str(instances), "--max-n", "3",
                    "--seed", "1", "--jobs", "64")
    assert code == 0
    assert out.startswith(f"solver-oracle equivalence: {instances}/{instances} agree")
    assert pool_sizes == want


def test_bounds_sweep_cli(capsys):
    code, out = run(capsys, "bounds", "--random", "5", "--max-n", "5", "--seed", "2", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 5
    assert all(all(l["flags"].values()) for l in lines)


def test_check_solvers_cli(capsys):
    code, out = run(capsys, "check", "solvers", "--random", "6", "--max-n", "5",
                    "--seed", "2", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 6 and all(l["agree"] for l in lines)


@pytest.mark.parametrize("seed", [["--seed", "1"], []], ids=["seeded", "unseeded"])
def test_check_solvers_rejects_a_graph_file(capsys, tmp_path, seed):
    """The sweep draws its own graphs, so a --graph file is an error, not
    ignored; an empty graph used to pass as "2/2 agree"."""
    empty = tmp_path / "empty.col"
    empty.write_text("p edge 0 0\n")
    code = main(["check", "solvers", "--graph", str(empty), "--random", "2", *seed])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: check solvers takes no --graph: it sweeps seeded "
                            "random graphs (--random, --max-n, --seed)\n")


@pytest.mark.parametrize("argv, message", [
    (["check", "gadgets", "--graph", "/nonexistent.col"], "check gadgets takes no --graph: "),
    (["check", "sat", "--exhaustive", "--max-vars", "1", "--max-clauses", "1",
      "--graph", "/nonexistent.col"], "check sat takes no --graph: "),
    (["check", "sat", "--exhaustive", "--lists", "/nonexistent.lists"],
     "check sat takes no --lists: "),
    (["check", "inapprox", "--graph", str(_DATA / "k4.col"), "--d", "21",
      "--cnf", "/nonexistent.cnf"], "check inapprox takes no --cnf: "),
    (["check", "listcolor", "--random", "2", "--seed", "1", "--cnf", "/nonexistent.cnf"],
     "check listcolor takes no --cnf: "),
    # the sweep would ignore --lists without --graph
    (["check", "listcolor", "--random", "2", "--seed", "1", "--lists", "/nonexistent.lists"],
     "check listcolor requires --graph\n"),
    (["check", "all", "--seed", "1", "--lists", "/nonexistent"], "check all takes no --lists: "),
    # a file form reads no sweep flag, and a sweep no file
    (["check", "sat", "--cnf", "/nonexistent.cnf", "--exhaustive", "--random", "3", "--seed", "1"],
     "check sat --cnf takes no --random: "),
    (["check", "sat", "--cnf", "/nonexistent.cnf", "--exhaustive"],
     "check sat --cnf takes no --exhaustive: "),
    (["check", "listcolor", "--graph", "/nonexistent.col", "--lists", "/nonexistent.lists",
      "--random", "2", "--seed", "1"], "check listcolor --graph takes no --random: "),
    (["check", "gadgets", "--random", "2", "--seed", "1"], "check gadgets takes no --random: "),
    (["check", "solvers", "--exhaustive"], "check solvers takes no --exhaustive: "),
    (["bounds", "--graph", "/nonexistent.col", "--random", "2", "--seed", "1"],
     "bounds --random takes no --graph: "),
    # the other commands
    (["solve", "eta", "--graph", "/nonexistent.col", "--lists", "/nonexistent.lists"],
     "solve eta takes no --lists: "),
    (["verify", "labeling", "--graph", "/nonexistent.col", "--labeling", "/nonexistent.lab",
      "--lists", "/nonexistent.lists"], "verify labeling takes no --lists: "),
    (["verify", "ptds", "--graph", "/nonexistent.col", "--labeling", "/nonexistent.lab",
      "--lists", "/nonexistent.lists"], "verify ptds takes no --lists: "),
    (["construct", "counterexample", "--out", "/nonexistent/x", "--graph", "X", "--cnf", "Y"],
     "construct counterexample takes no --cnf: "),
    (["construct", "sat", "--out", "/nonexistent/x", "--cnf", "/nonexistent.cnf",
      "--graph", "/nonexistent.col"], "construct sat takes no --graph: "),
    # parameter flags: the parser leaves them unset, so a given one is seen
    (["verify", "ptds", "--graph", "/nonexistent.col", "--labeling", "/nonexistent.lab",
      "--mode", "binary"], "verify ptds takes no --mode: "),
    (["verify", "lists", "--graph", "/nonexistent.col", "--labeling", "/nonexistent.lab",
      "--lists", "/nonexistent.lists", "--mode", "any"], "verify lists takes no --mode: "),
    (["check", "gadgets", "--d", "99", "--vars", "7"], "check gadgets takes no --d: "),
    (["check", "all", "--seed", "1", "--clauses", "4"], "check all takes no --clauses: "),
    (["check", "sat", "--cnf", "/nonexistent.cnf", "--vars", "4"],
     "check sat --cnf takes no --vars: "),
    (["check", "inapprox", "--graph", "/nonexistent.col", "--d", "21", "--vars", "3"],
     "check inapprox takes no --vars: "),
    (["construct", "counterexample", "--out", "/nonexistent/x", "--d", "5"],
     "construct counterexample takes no --d: "),
    # a value the default would give, or one that reads as false, is still given
    (["construct", "counterexample", "--out", "/nonexistent/x", "--k", "1", "--n", "0"],
     "construct counterexample takes no --n: "),
    (["construct", "clique-example", "--out", "/nonexistent/x", "--k", "2"],
     "construct clique-example takes no --k: "),
    (["construct", "sat", "--out", "/nonexistent/x", "--cnf", "/nonexistent.cnf", "--lf", "2"],
     "construct sat takes no --lf: "),
    (["construct", "inapprox", "--out", "/nonexistent/x", "--graph", "/nonexistent.col",
      "--j", "2"], "construct inapprox takes no --j: "),
    # each gadget reads its own parameters
    (["construct", "gadget", "--gadget-kind", "clause", "--out", "/nonexistent/x", "--d", "5"],
     "construct gadget clause takes no --d: "),
    (["construct", "gadget", "--gadget-kind", "index", "--out", "/nonexistent/x", "--s", "4"],
     "construct gadget index takes no --s: "),
    (["construct", "gadget", "--gadget-kind", "vertex", "--out", "/nonexistent/x", "--j", "3"],
     "construct gadget vertex takes no --j: "),
    (["construct", "gadget", "--gadget-kind", "amplifier", "--out", "/nonexistent/x",
      "--lf", "2"], "construct gadget amplifier takes no --lf: "),
    # an input file outranks a parameter: the message stays the command's own
    (["construct", "gadget", "--gadget-kind", "clause", "--out", "/nonexistent/x",
      "--graph", "/nonexistent.col", "--d", "5"], "construct gadget takes no --graph: "),
], ids=["gadgets-graph", "sat-graph", "sat-lists", "inapprox-cnf", "listcolor-cnf",
        "listcolor-lists-alone", "all-lists", "sat-cnf-random", "sat-cnf-exhaustive",
        "listcolor-file-random", "gadgets-random", "solvers-exhaustive", "bounds-sweep-graph",
        "solve-eta-lists", "verify-labeling-lists", "verify-ptds-lists",
        "construct-counterexample-cnf", "construct-sat-graph",
        "verify-ptds-mode", "verify-lists-mode", "gadgets-d", "all-clauses", "sat-cnf-vars",
        "inapprox-vars", "construct-counterexample-d", "construct-counterexample-n-zero",
        "construct-clique-k", "construct-sat-lf", "construct-inapprox-j",
        "construct-gadget-clause-d", "construct-gadget-index-s", "construct-gadget-vertex-j",
        "construct-gadget-amplifier-lf", "construct-gadget-graph-first"])
def test_check_rejects_an_input_file_it_does_not_read(capsys, argv, message):
    """Every command names an input flag it would ignore, before any work: no file is read."""
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: " + message), captured.err


@pytest.mark.parametrize("argv, defaults", [
    (["construct", "counterexample"], ["--k", "1"]),
    (["construct", "clique-example"], ["--n", "3"]),
    (["construct", "gadget", "--gadget-kind", "index"], ["--j", "2"]),
    (["construct", "gadget", "--gadget-kind", "vertex"], ["--s", "3", "--lf", "2"]),
    (["construct", "gadget", "--gadget-kind", "amplifier"], ["--d", "1"]),
    (["construct", "inapprox", "--graph", str(_DATA / "k4.col")], ["--d", "1"]),
    (["check", "inapprox", "--graph", str(_DATA / "c4.col")], ["--d", "16"]),
    (["check", "sat", "--random", "3", "--seed", "2"], ["--vars", "3", "--clauses", "3"]),
], ids=["counterexample", "clique-example", "index", "vertex", "amplifier",
        "construct-inapprox", "check-inapprox", "check-sat"])
def test_parameter_flag_defaults_apply_where_read(capsys, tmp_path, argv, defaults):
    """A parameter flag left out reads as its documented default."""
    out = ["--out", str(tmp_path / "x")] if argv[0] == "construct" else []
    assert run(capsys, *argv, *out, "--json") == run(capsys, *argv, *out, *defaults, "--json")


def test_verify_mode_defaults_to_any(capsys, tmp_path, p3_file):
    lab = tmp_path / "l.lab"
    lab.write_text("v 1 1\nv 2 -1\nv 3 1\n")
    argv = ["verify", "labeling", "--graph", p3_file, "--labeling", str(lab)]
    assert run(capsys, *argv) == run(capsys, *argv, "--mode", "any")
    assert run(capsys, *argv)[0] == 1


def test_check_solvers_honours_max_n(capsys):
    code, out = run(capsys, "check", "solvers", "--random", "40", "--max-n", "8",
                    "--seed", "1", "--json")
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert len(lines) == 40 and all(l["agree"] for l in lines)
    assert max(l["n"] for l in lines) > 6


def test_cli_byte_identical_reruns(capsys, p3_file):
    code1, out1 = run(capsys, "solve", "eta", "--graph", p3_file, "--json")
    code2, out2 = run(capsys, "solve", "eta", "--graph", p3_file, "--json")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b
