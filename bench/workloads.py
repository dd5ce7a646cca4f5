"""The benchmark's four workloads: instances, operations and output checks.

Each operation calls luckylab's public functions through module attributes,
so the wrappers in instrument.py see every call.  Checks use the unwrapped
`luckylab.labeling` functions and never count toward any layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import generators
from luckylab import bounds, fileio, labeling, oracles, solver
from luckylab.constructions import families, gadgets, reductions
from luckylab.formula import make_formula
from luckylab.graph import build_graph

# Every solver call gets a node budget, so statuses and node counts are
# deterministic; the millisecond cap (one hour) is far above any operation.
NODE_BUDGET = 10_000_000
MS_CAP = 3_600_000.0
BUDGET = solver.SearchBudget(max_nodes=NODE_BUDGET, max_ms=MS_CAP)

# Exact-search cost is heavy-tailed: redrawing the random formulas or the
# G(n, p) graphs per seed moves the per-pass totals by 20-50 % between seeds.
# Those two pools are therefore drawn once from fixed pool seeds, and the run
# seed sets the order of the closed loop.  reduction_scale, whose cost is set
# by the graph size, draws its formulas from the run seed.
SAT_POOL_SEED = 1
SAT_RANDOM_FORMULAS = 10
GNP_POOL_SEED = 2
GNP_P = 0.3
GNP_SIZES = (17, 18, 19, 20)
GNP_PER_SIZE = 3
# Variable counts of the planted formulas (reduction n = 18 V + 5 C, with
# C = round(3.3 V)): n runs from about 345 to about 2,100.  No size lies near
# n = 1,000, where the recursive engine starts to raise RecursionError, so a
# few wrapper frames more or less cannot flip an operation's outcome.
SCALE_VARS = (10, 13, 16, 19, 22, 26, 32, 40, 48, 56, 61)
SCALE_CLAUSE_RATIO = 3.3

# Exceptions that mean luckylab detected a wrong answer of its own making.
WRONG_ERRORS = frozenset({"AssertionError", "ReconstructionDefect", "CertificationError"})


class CheckFailed(Exception):
    """An output check failed.  `wrong` marks an incorrect answer; a missing
    one (budget cut, inconclusive verdict) is a failure but not incorrect."""

    def __init__(self, reason: str, wrong: bool = True):
        super().__init__(reason)
        self.wrong = wrong


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any, list], None]


@dataclass
class Workload:
    ops: list[Op]
    warm_up: Op


def _recheck_certificates(calls, *expected: str) -> None:
    """Re-verify every labeling a solver call returned.

    `expected` names the solver entries the operation must have called; if
    the wrappers saw none, node counts and layer times would silently drop.
    """
    missing = set(expected) - {c.entry for c in calls}
    if missing:
        raise CheckFailed(f"no {sorted(missing)} call was seen; instrument.py is out of date")
    for c in calls:
        cert = getattr(c.result, "certificate", None)
        if cert is None:
            continue
        mode = "positive" if c.entry in ("solve_eta", "solve_sigma") else "binary"
        bad = labeling.verify_additive(c.graph, cert, mode=mode)
        if bad:
            raise CheckFailed(f"{c.entry} certificate fails verification: {bad[:2]}")


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# sat_equiv: decision search on small reduction graphs.


def _sat_op(name: str, phi) -> Op:
    def check(verdict, calls):
        if verdict.status == "disagree":
            raise CheckFailed(f"oracle {verdict.oracle_answer} vs reduction {verdict.reduction_answer}")
        if verdict.status != "agree":
            raise CheckFailed(verdict.status, wrong=False)
        _recheck_certificates(calls, "exists_binary")

    return Op(name, lambda: oracles.check_equivalence_sat(phi, BUDGET), check)


def sat_equiv(seed: int) -> Workload:
    formulas = list(oracles.exhaustive_small_formulas(2, 2))
    pool = random.Random(SAT_POOL_SEED)
    formulas += [make_formula(*generators.random_3sat(pool, 3, 3))
                 for _ in range(SAT_RANDOM_FORMULAS)]
    ops = [_sat_op(f"sat{i}", phi) for i, phi in enumerate(formulas)]
    return Workload(_shuffled(ops, seed), _sat_op("warm", make_formula(1, [(1,)])))


# ---------------------------------------------------------------------------
# bounds_gnp: branch and bound (eta1, PTDS) and the sigma search.

THEOREM_FLAGS = ("eta_ge_clique_ratio", "eta_ge_regular_bound", "eta1_ge_chi_minus_1", "sigma_le_chi")


def _bounds_op(name: str, g) -> Op:
    def call():
        return bounds.bounds_report(g, BUDGET), solver.min_ptds(g, BUDGET)

    def check(result, calls):
        rep, ptds = result
        cut = [k for k in ("eta", "eta1", "sigma") if k in rep.notes]
        if cut or ptds.status == "budget-exceeded":
            raise CheckFailed(f"budget cut: {cut or 'ptds'}", wrong=False)
        _recheck_certificates(calls, "solve_eta", "solve_eta1", "solve_sigma", "min_ptds")
        broken = [f for f in THEOREM_FLAGS if rep.flags.get(f) is False]
        if broken:
            raise CheckFailed(f"theorem flags violated: {broken}")
        values = {c.entry: c.result.value for c in calls if c.status == "found"}
        if (values.get("solve_eta"), values.get("solve_eta1"), values.get("solve_sigma")) != \
                (rep.eta, rep.eta1, rep.sigma):
            raise CheckFailed("report values differ from the solver certificates")
        if ptds.status == "found":
            chosen = ptds.detail["set"]
            if len(chosen) != ptds.value or not labeling.verify_ptds(g, chosen):
                raise CheckFailed(f"PTDS {chosen} is not a proper total dominating set")

    return Op(name, call, check)


def bounds_gnp(seed: int) -> Workload:
    pool = random.Random(GNP_POOL_SEED)
    ops = []
    for n in GNP_SIZES:
        for i in range(GNP_PER_SIZE):
            g = build_graph(*generators.gnp(pool, n, GNP_P))
            ops.append(_bounds_op(f"gnp{n}.{i}", g))
    warm = build_graph(*generators.gnp(random.Random(seed), 8, GNP_P))
    return Workload(_shuffled(ops, seed), _bounds_op("warm", warm))


# ---------------------------------------------------------------------------
# reduction_scale: large reductions, file round trip, recipe completion.


def _scale_op(name: str, phi, planted: dict) -> Op:
    def call():
        red = reductions.build_sat_reduction(phi)
        parsed = fileio.graph_from_text(fileio.graph_to_text(red.graph))
        red2 = reductions.ReductionOutput(parsed, red.provenance, red.params)
        lab, _ = oracles.labeling_from_assignment(phi, planted, BUDGET, reduction=red2)
        return red.graph, red2, lab, oracles.assignment_from_labeling(phi, lab, reduction=red2)

    def check(result, calls):
        g, red2, lab, gamma = result
        parsed = red2.graph
        if (parsed.n, parsed.edges, parsed.names) != (g.n, g.edges, g.names):
            raise CheckFailed("graph text round trip changed the graph")
        bad = labeling.verify_additive(parsed, lab, mode="binary")
        if bad:
            raise CheckFailed(f"completed labeling fails verification: {bad[:2]}")
        _recheck_certificates(calls, "complete_partial")
        if not phi.satisfies(gamma):
            raise CheckFailed("extracted assignment does not satisfy the formula")

    return Op(name, call, check)


def reduction_scale(seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for v in SCALE_VARS:
        num_vars, clauses, planted = generators.planted_3sat(rng, v, round(SCALE_CLAUSE_RATIO * v))
        ops.append(_scale_op(f"scale{v}", make_formula(num_vars, clauses), planted))
    num_vars, clauses, planted = generators.planted_3sat(rng, 4, 13)
    warm = _scale_op("warm", make_formula(num_vars, clauses), planted)
    return Workload(_shuffled(ops, seed), warm)


# ---------------------------------------------------------------------------
# exhaustive_proofs: solution enumeration and list-refutation proofs.


def _certify_op(name: str, instance, cap: int, expect: bool) -> Op:
    def check(rep, calls):
        _recheck_certificates(calls, "enumerate_solutions")
        if any("budget" in m for m in rep.countermodels()):
            raise CheckFailed("certification budget exhausted", wrong=False)
        if rep.certified != expect:
            raise CheckFailed(f"certified={rep.certified}, expected {expect}")

    return Op(name, lambda: gadgets.certify_gadget(instance, cap=cap, budget=BUDGET), check)


def _refute_op(k: int) -> Op:
    def call():
        g, shipped, lists = families.counterexample_graph(k)
        return g, shipped, solver.refute_lists(g, lists, BUDGET)

    def check(result, calls):
        g, shipped, res = result
        _recheck_certificates(calls, "refute_lists")
        if res.status == "budget-exceeded":
            raise CheckFailed("refutation budget exhausted", wrong=False)
        if res.status != "refuted" or res.eta_ell_lower_bound != 2 * k:
            raise CheckFailed(f"status {res.status}, bound {res.eta_ell_lower_bound}, expected {2 * k}")
        if labeling.verify_additive(g, shipped, mode="positive") or shipped.max_label() != k:
            raise CheckFailed("shipped witness labeling is not additive with labels 1..k")

    return Op(f"refute{k}", call, check)


def exhaustive_proofs(seed: int) -> Workload:
    # the gadget contract suite (as in gadget_certification_suite) plus its
    # negative control, which must fail certification
    suite = [
        ("A3", gadgets.build_clause_gadget(), 40),
        ("A1", gadgets.build_clause_gadget(("x", "x", "x")), 40),
        ("B", gadgets.build_variable_gadget(), 40),
        ("T", gadgets.build_forcing_gadget(), 40),
    ]
    suite += [(f"I{j}", gadgets.build_index_gadget(j), 7 + 4 * j) for j in (2, 3, 4)]
    suite.append(("G", gadgets.build_vertex_gadget({2}, 3), 40))
    suite += [(f"D{d}", gadgets.build_amplifier_gadget(d), 40) for d in (1, 2, 3)]
    ops = [_certify_op(f"certify.{nm}", inst, max(cap, 40), True) for nm, inst, cap in suite]
    ops.append(_certify_op("certify.B-corrupted", gadgets.corrupted_variable_gadget(), 40, False))
    ops += [_refute_op(k) for k in (1, 2, 3, 4)]
    warm = _certify_op("warm", suite[3][1], 40, True)
    return Workload(_shuffled(ops, seed), warm)


WORKLOADS = {
    "sat_equiv": sat_equiv,
    "bounds_gnp": bounds_gnp,
    "reduction_scale": reduction_scale,
    "exhaustive_proofs": exhaustive_proofs,
}
