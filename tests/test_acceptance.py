"""The acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary.  Budgets are generous but finite; an inconclusive outcome anywhere
is a failure, never a silent pass.
"""

import json
import random
import time

from luckylab import fileio
from luckylab.bounds import bounds_report
from luckylab.cli import main as cli_main
from luckylab.constructions import (
    certify_gadget,
    corrupted_variable_gadget,
    counterexample_graph,
    gadget_certification_suite,
)
from luckylab.graph import build_graph, complete_graph, cycle_graph
from luckylab.labeling import make_lists, verify_additive
from luckylab.oracles import (
    check_equivalence_listcolor,
    check_equivalence_sat,
    check_threshold_inapprox,
    exhaustive_small_formulas,
    naive_eta,
    naive_eta1,
    naive_ptds,
    naive_sigma,
    random_formula,
    random_graph,
    random_list_instance,
)
from luckylab.solver import (
    SearchBudget,
    exists_binary,
    min_ptds,
    refute_lists,
    solve_eta,
    solve_eta1,
    solve_sigma,
)

ACCEPT_BUDGET = SearchBudget(max_nodes=100_000_000, max_ms=300_000)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_counterexample_k1_to_k5(capsys, tmp_path):
    """Separation at k = 1 to 5: eta proven exactly, adversarial lists refuted."""
    timings = []
    for k, limit in ((1, 1.0), (2, 300.0), (3, 300.0), (4, 300.0), (5, 300.0)):
        t0 = time.monotonic()
        out_prefix = str(tmp_path / f"ce{k}")
        code = cli_main(["construct", "counterexample", "--k", str(k),
                         "--out", out_prefix, "--verify", "--json"])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert code == 0, payload
        assert payload["verified"]
        assert payload["eta"]["value"] == k
        assert payload["shipped_labeling_additive"]
        assert payload["shipped_max_label"] == k
        assert payload["refutation"]["status"] == "refuted"
        assert payload["refutation"]["eta_ell_lower_bound"] == 2 * k
        elapsed = time.monotonic() - t0
        assert elapsed < limit, f"k={k} took {elapsed:.1f}s, limit {limit}s"
        timings.append(f"k={k} in {elapsed:.2f}s")
        # double-check through the library: the same refutation, exhaustively
        g, lab, lists = counterexample_graph(k)
        assert verify_additive(g, lab, mode="positive") == []
        res = refute_lists(g, lists, ACCEPT_BUDGET)
        assert res.status == "refuted"
        assert res.eta_ell_lower_bound == 2 * k
    with capsys.disabled():
        report("1 (choosability separation)", "; ".join(timings))


def test_criterion_2_odd_cycles(capsys):
    """Binary labelings exist for even cycles and for no odd cycle."""
    t0 = time.monotonic()
    for n in (3, 5, 7, 9):
        assert exists_binary(cycle_graph(n), ACCEPT_BUDGET).status == "infeasible", n
    for n in (4, 6, 8):
        rep = exists_binary(cycle_graph(n), ACCEPT_BUDGET)
        assert rep.status == "found", n
        assert verify_additive(cycle_graph(n), rep.certificate, mode="binary") == []
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    with capsys.disabled():
        report("2 (odd-cycle infeasibility)", f"7 cycles in {elapsed:.2f}s")


def test_criterion_3_gadget_contract_suite(capsys):
    """Every shipped gadget certifies; a corrupted gadget yields a countermodel."""
    t0 = time.monotonic()
    suite = gadget_certification_suite()
    names = [name for name, _rep in suite]
    for name, rep in suite:
        assert rep.certified, (name, rep.countermodels())
    # boundary-case counts for the clause and variable gadgets
    by_name = dict(suite)
    assert len(by_name["A(c) three literals"].cases) == 8
    assert len(by_name["B(x)"].cases) == 4
    infeasible_cases = [c.name for c in by_name["B(x)"].cases if c.solutions == 0]
    assert infeasible_cases == ["x=1,!x=1"]
    # negative control
    broken = certify_gadget(corrupted_variable_gadget())
    assert not broken.certified
    assert broken.countermodels()
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    with capsys.disabled():
        report("3 (gadget contracts)",
               f"{len(suite)} gadgets + negative control in {elapsed:.1f}s: {', '.join(names)}")


def test_criterion_4_sat_equivalence_sweep(capsys):
    """Exhaustive small-formula family plus 50 seeded random formulas, 100% agreement."""
    t0 = time.monotonic()
    formulas = exhaustive_small_formulas(2, 2)
    rng = random.Random(20260810)
    formulas += [random_formula(rng, 3, 3) for _ in range(50)]
    budget = SearchBudget(max_nodes=100_000_000, max_ms=60_000)
    failures = []
    for phi in formulas:
        verdict = check_equivalence_sat(phi, budget)
        if not verdict.agree:  # inconclusive counts as failure
            failures.append((phi, verdict.status))
    elapsed = time.monotonic() - t0
    assert not failures, failures[:5]
    assert elapsed < 600.0
    with capsys.disabled():
        report("4 (sat equivalence)",
               f"{len(formulas)} formulas (exhaustive {len(formulas) - 50} + random 50), "
               f"100% agreement in {elapsed:.1f}s")


def test_criterion_5_listcolor_equivalence(capsys):
    """Three worked instances plus 25 seeded random ones, 100% agreement."""
    t0 = time.monotonic()
    k2 = complete_graph(2)
    worked = [
        (k2, make_lists({0: {1}, 1: {2}}), True),
        (k2, make_lists({0: {1}, 1: {1}}), False),
        (complete_graph(3), make_lists({v: {1, 2} for v in range(3)}), False),
    ]
    budget = SearchBudget(max_nodes=100_000_000, max_ms=60_000)
    for g, lists, expected in worked:
        verdict = check_equivalence_listcolor(g, lists, budget)
        assert verdict.agree, verdict.status
        assert verdict.oracle_answer is expected
    rng = random.Random(55_2026)
    failures = []
    for _ in range(25):
        g, lists = random_list_instance(rng, 4)
        verdict = check_equivalence_listcolor(g, lists, budget)
        if not verdict.agree:
            failures.append((list(g.edges), verdict.status))
    elapsed = time.monotonic() - t0
    assert not failures, failures
    assert elapsed < 600.0
    with capsys.disabled():
        report("5 (list-coloring equivalence)", f"3 worked + 25 random in {elapsed:.1f}s")


def test_criterion_6_inapprox_threshold(capsys):
    """Weight threshold: triangle both-yes constructively; K4 and the complement
    of C7 (4-regular, chromatic number 4) both-no by refutation."""
    t0 = time.monotonic()
    tri = complete_graph(3)
    verdict = check_threshold_inapprox(tri, 16, ACCEPT_BUDGET)
    assert verdict.status == "agree", verdict.status
    assert verdict.oracle_answer is True and verdict.reduction_answer is True
    assert int(verdict.witnesses["labeling_weight"]) <= 15
    c7 = cycle_graph(7)
    c7_complement = build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7)
                                    if not c7.has_edge(u, v)])
    refuted = []
    for g in (complete_graph(4), c7_complement):
        verdict_no = check_threshold_inapprox(g, 5 * g.n + 1, ACCEPT_BUDGET)
        assert verdict_no.status == "agree", verdict_no.status
        assert verdict_no.oracle_answer is False and verdict_no.reduction_answer is False
        assert verdict_no.stats["nodes"] <= 100_000_000
        refuted.append(verdict_no.stats["nodes"])
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("6 (weight threshold)",
               f"triangle d=16 yes (weight {verdict.witnesses['labeling_weight']}), "
               f"K4 d=21 refuted with {refuted[0]} nodes, "
               f"complement of C7 d=36 refuted with {refuted[1]} nodes in {elapsed:.1f}s")


def test_criterion_7_bounds_sweep(capsys):
    """200 seeded random graphs with n <= 7: every computed bound flag holds."""
    t0 = time.monotonic()
    rng = random.Random(7_2026)
    budget = SearchBudget(max_nodes=20_000_000, max_ms=10_000)
    violations = []
    skipped = 0
    for i in range(200):
        g = random_graph(rng, 1, 7)
        rep = bounds_report(g, budget)
        skipped += len([k for k in rep.notes if k in ("eta", "eta1", "sigma")])
        if not rep.all_flags_hold():
            violations.append((i, list(g.edges), rep.to_json_dict()))
    elapsed = time.monotonic() - t0
    assert not violations, violations[:3]
    assert elapsed < 600.0
    with capsys.disabled():
        report("7 (bounds sweep)",
               f"200 graphs, zero violations, {skipped} budget-skipped fields, {elapsed:.1f}s")


def test_criterion_8_solver_oracle_equivalence(capsys):
    """200 seeded random graphs with n <= 6: solvers match naive enumeration."""
    t0 = time.monotonic()
    rng = random.Random(8_2026)
    for i in range(200):
        g = random_graph(rng, 1, 6)
        assert solve_eta(g, ACCEPT_BUDGET).value == naive_eta(g), (i, g.edges)
        rep = solve_eta1(g, ACCEPT_BUDGET)
        assert (rep.value if rep.status == "found" else None) == naive_eta1(g), (i, g.edges)
        rep = solve_sigma(g, ACCEPT_BUDGET)
        assert rep.value == naive_sigma(g), (i, g.edges)
        rep = min_ptds(g, ACCEPT_BUDGET)
        assert (rep.value if rep.status == "found" else None) == naive_ptds(g), (i, g.edges)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    with capsys.disabled():
        report("8 (solver-oracle equivalence)", f"200 graphs x 4 solvers in {elapsed:.1f}s")


def test_criterion_9_determinism(capsys, tmp_path):
    """Same seed, jobs 1 vs 4: byte-identical outputs; reruns identical modulo timing."""
    t0 = time.monotonic()
    sweep_args = ["check", "sat", "--exhaustive", "--max-vars", "1", "--max-clauses", "2",
                  "--random", "8", "--vars", "3", "--clauses", "3", "--seed", "9", "--json"]
    code1 = cli_main(sweep_args + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    code2 = cli_main(sweep_args + ["--jobs", "4"])
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2

    for other in (
        ["check", "listcolor", "--random", "6", "--max-n", "3", "--seed", "9", "--json"],
        ["check", "solvers", "--random", "20", "--max-n", "6", "--seed", "9", "--json"],
        ["bounds", "--random", "15", "--max-n", "6", "--seed", "9", "--json"],
    ):
        code1 = cli_main(other + ["--jobs", "1"])
        out1 = capsys.readouterr().out
        code2 = cli_main(other + ["--jobs", "4"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0, other
        assert out1 == out2, other

    # solver reruns differ only in the timing field
    g = tmp_path / "c6.col"
    fileio.write_graph(g, cycle_graph(6))
    outs = []
    for _ in range(2):
        code = cli_main(["solve", "eta1", "--graph", str(g), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("elapsed_ms")
        outs.append(payload)
    assert outs[0] == outs[1]
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("9 (determinism)", f"jobs 1 vs 4 byte-identical, reruns stable, {elapsed:.1f}s")
