"""Batch command-line surface for the whole workbench.

Exit codes: 0 for success, agreement or refuted lists; 1 for infeasible,
disagreeing or beaten results (valid outcomes, distinguished in the JSON);
2 for usage errors, malformed files, budget exhaustion or inconclusive
checks.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from collections import Counter
from functools import partial
from multiprocessing import Pool
from pathlib import Path

from . import bounds as bounds_mod
from . import fileio
from .constructions import (
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
    counterexample_graph,
    gadget_certification_suite,
)
from .formula import Cnf3Formula, make_formula
from .graph import complete_graph
from .labeling import (
    all_neighbor_sums,
    equal_sum_edges,
    labels_outside_mode,
    verify_additive,
    verify_from_lists,
    verify_ptds,
    weight,
)
from .oracles import (
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
from .solver import (
    DEFAULT_MAX_MS,
    DEFAULT_MAX_NODES,
    SearchBudget,
    decide_list_additive,
    exists_binary,
    min_ptds,
    refute_lists,
    solve_eta,
    solve_eta1,
    solve_sigma,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

# the exit status of every solver, refutation and verdict status
EXIT_CODE = {
    "found": EXIT_OK, "agree": EXIT_OK, "refuted": EXIT_OK,
    "infeasible": EXIT_NEGATIVE, "disagree": EXIT_NEGATIVE, "beaten": EXIT_NEGATIVE,
    "budget-exceeded": EXIT_ERROR, "inconclusive": EXIT_ERROR,
}


def _worst(codes) -> int:
    """The exit status of several outcomes: a disagreement outranks an inconclusive one."""
    codes = set(codes)
    return EXIT_NEGATIVE if EXIT_NEGATIVE in codes else max(codes, default=EXIT_OK)


def _budget(args) -> SearchBudget:
    """The one budget of a command; every search the command starts gets all of it."""
    return SearchBudget(max_nodes=args.budget_nodes, max_ms=args.budget_ms)


def _certification_code(rep) -> int:
    """2 when the budget cut a boundary case short, else 0 when certified, else 1."""
    return EXIT_ERROR if rep.budget_cut else EXIT_OK if rep.certified else EXIT_NEGATIVE


def _bounds_code(flags: dict, notes: dict) -> int:
    """1 when a bound fails, else 2 when the budget cut a solver, else 0."""
    if not all(flags.values()):
        return EXIT_NEGATIVE
    return EXIT_ERROR if "budget-exceeded" in notes.values() else EXIT_OK


def _cut_note(cut) -> str:
    """The human suffix of an outcome in which the budget cut some search short."""
    return "  [budget exceeded]" if cut else ""


def _required(args, flag: str, cmd: str):
    """The value of a flag that argparse leaves optional but `cmd` cannot run without."""
    value = getattr(args, flag.replace("-", "_"))
    if not value:
        raise ValueError(f"{cmd} requires --{flag}")
    return value


def _read_lists(args, cmd: str, g):
    """The --lists file, checked against g; a wrong vertex is named by its file id."""
    lists = fileio.read_lists(_required(args, "lists", cmd))
    lists.validate_on(g, base=1)
    return lists


def _seeded(args, count: int, draw) -> list:
    """count instances draw(rng) from one generator; a sweep is only reproducible from --seed."""
    if args.seed is None:
        raise ValueError("randomized sweeps require --seed")
    rng = random.Random(args.seed)
    return [draw(rng) for _ in range(count)]


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _emit_verdict(args, verdict) -> int:
    _emit(args, verdict.to_json_dict(), f"{verdict.instance}: {verdict.status}")
    return EXIT_CODE[verdict.status]


def _sweep(args, worker, instances, code_of, summary) -> int:
    """worker(instance, budget) on each instance, each under the command's whole budget.

    Each payload goes out as a JSON line under --json, then summary(n, codes),
    codes counting each payload's code_of, on stdout (on stderr under --json).
    Returns the worst code.
    """
    work = partial(worker, budget=_budget(args))
    # workers beyond the instances or the cores only add start-up cost
    jobs = min(args.jobs, len(instances), os.cpu_count() or 1)
    if jobs > 1:
        with Pool(jobs) as pool:
            payloads = pool.map(work, instances)
    else:
        payloads = [work(i) for i in instances]
    if args.json:
        for payload in payloads:
            print(json.dumps(payload, sort_keys=True))
    codes = Counter(map(code_of, payloads))
    print(summary(len(payloads), codes), file=sys.stderr if args.json else sys.stdout)
    return _worst(codes)


def _verdict_sweep(args, worker, instances, label: str) -> int:
    return _sweep(args, worker, instances, lambda v: EXIT_CODE[v["status"]],
                  lambda n, c: f"{label}: {c[EXIT_OK]}/{n} agree, "
                               f"{c[EXIT_NEGATIVE]} disagree, {c[EXIT_ERROR]} inconclusive")


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--budget-ms", type=float, default=DEFAULT_MAX_MS)
    p.add_argument("--json", action="store_true", help="emit canonical JSON")


# ---------------------------------------------------------------------------
# solve


SOLVERS = {"eta": solve_eta, "eta1": solve_eta1, "binary": exists_binary,
           "sigma": solve_sigma, "ptds": min_ptds}


def cmd_solve(args) -> int:
    g = fileio.read_graph(args.graph)
    budget = _budget(args)
    if args.problem in SOLVERS:
        rep = SOLVERS[args.problem](g, budget)
    else:  # listdecide
        lists = _read_lists(args, "solve listdecide", g)
        rep = decide_list_additive(g, lists, budget)
    payload = rep.to_json_dict()
    if "set" in rep.detail:
        # the PTDS set in 1-based file ids; the report itself stays 0-based
        payload["detail"] = {**rep.detail, "set": [v + 1 for v in rep.detail["set"]]}
    _emit(args, payload, f"{args.problem}: {rep.status}"
          + (f", value {rep.value}" if rep.value is not None else ""))
    return EXIT_CODE[rep.status]


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    g = fileio.read_graph(args.graph)
    lab = fileio.read_labeling(args.labeling)
    # each check reads the labeling against this graph, so a label on a
    # vertex the graph lacks is an input error, named by its file id
    unknown = next((v for v in sorted(lab.values) if not 0 <= v < g.n), None)
    if unknown is not None:
        raise ValueError(f"label attached to unknown vertex {unknown + 1}")
    if args.what == "labeling":
        # one totality scan and one mode scan; vertices are named by their
        # 1-based file ids throughout
        sums = all_neighbor_sums(g, lab, base=1)
        # a label outside --mode answers "no" whatever the sums
        outside = labels_outside_mode(g, lab, args.mode)
        violations = [] if outside else equal_sum_edges(g, sums)
        payload = {
            "valid": not (outside or violations),
            "violations": [
                {"edge": [v.edge[0] + 1, v.edge[1] + 1], "sum_u": v.sum_u, "sum_v": v.sum_v}
                for v in violations
            ],
            "weight": weight(lab),
        }
        if outside:
            payload["outside_mode"] = [{"vertex": v + 1, "label": lab[v]} for v in outside]
            human = f"label {lab[outside[0]]} at vertex {outside[0] + 1} is outside --mode {args.mode}"
        else:
            human = "additive"
            if violations:
                first = payload["violations"][0]
                human = (f"{len(violations)} violated edge(s), first {first['edge'][0]}-"
                         f"{first['edge'][1]} with both sums {first['sum_u']}")
        _emit(args, payload, human)
        return EXIT_OK if payload["valid"] else EXIT_NEGATIVE
    if args.what == "lists":
        lists = _read_lists(args, "verify lists", g)
        ok = verify_from_lists(lab, lists)
        _emit(args, {"from_lists": ok}, "labels drawn from lists" if ok else "label outside its list")
        return EXIT_OK if ok else EXIT_NEGATIVE
    # ptds: the candidate set is given as a 0/1 indicator labeling, total
    # like the others; any other label names no set
    all_neighbor_sums(g, lab, base=1)  # raises on a missing vertex
    outside = labels_outside_mode(g, lab, "binary")
    if outside:
        raise ValueError(f"label {lab[outside[0]]} at vertex {outside[0] + 1} is not 0 or 1: "
                         "verify ptds reads the set as a 0/1 indicator labeling")
    dom = {v for v, x in lab.values.items() if x == 1}
    ok = verify_ptds(g, dom)
    _emit(args, {"proper_total_dominating": ok, "set": [v + 1 for v in sorted(dom)]},
          "proper total dominating set" if ok else "not a proper total dominating set")
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# construct


def _read_lf(args) -> set[int]:
    """The vertex gadget's list, --lf; a malformed one is a usage error that names the flag."""
    try:
        return {int(x) for x in args.lf.split(",")}
    except ValueError:
        raise ValueError(f"--lf must be comma-separated integers, got {args.lf!r}") from None


def cmd_construct(args) -> int:
    """Each kind gives its graph, extra outputs, payload fields, title and maybe a verify step.

    Every output is written before any verification runs.
    """
    budget = _budget(args)
    extra, verify = {}, None
    if args.kind == "counterexample":
        graph, lab, lists = counterexample_graph(args.k)
        extra = {"labeling": (".lab", fileio.labeling_to_text(lab)),
                 "lists": (".lists", fileio.lists_to_text(lists))}
        fields = {"n": graph.n, "m": graph.m, "k": args.k}
        title = f"counterexample k={args.k}: n={graph.n}, m={graph.m}"

        def verify():
            violations = verify_additive(graph, lab, mode="positive")
            eta_rep = solve_eta(graph, budget)
            refutation = refute_lists(graph, lists, budget)
            ok = (not violations and lab.max_label() == args.k
                  and eta_rep.status == "found" and eta_rep.value == args.k
                  and refutation.status == "refuted")
            return ({"shipped_labeling_additive": not violations,
                     "shipped_max_label": lab.max_label(), "eta": eta_rep.to_json_dict(),
                     "refutation": refutation.to_json_dict(), "verified": ok},
                    f"counterexample k={args.k}: n={graph.n}, eta={eta_rep.value}, "
                    f"lists {refutation.status}, choosability > {refutation.max_list_size}"
                    + ("" if ok else "  [VERIFICATION FAILED]"),
                    EXIT_OK if ok else EXIT_ERROR)
    elif args.kind == "clique-example":
        graph = clique_eta_one(args.n)
        fields = {"n": graph.n, "m": graph.m}
        title = f"clique example n={args.n}: {graph.n} vertices"
    elif args.kind == "gadget":
        builders = {
            "clause": lambda: build_clause_gadget(),
            "variable": build_variable_gadget,
            "forcing": build_forcing_gadget,
            "index": lambda: build_index_gadget(args.j),
            "vertex": lambda: build_vertex_gadget(_read_lf(args), args.s),
            "amplifier": lambda: build_amplifier_gadget(args.d),
        }
        inst = builders[_required(args, "gadget-kind", "construct gadget")]()
        graph = inst.graph
        fields = {"kind": inst.kind, "n": graph.n, "ports": inst.ports}
        title = f"gadget {args.gadget_kind}: n={graph.n}"

        def verify():
            rep = certify_gadget(inst, cap=max(40, graph.n), budget=budget)
            return ({"certification": rep.to_json_dict()},
                    f"{title}, certified={rep.certified}" + _cut_note(rep.budget_cut),
                    _certification_code(rep))
    else:
        if args.kind == "sat":
            phi = make_formula(*fileio.read_cnf(_required(args, "cnf", "construct sat")))
            red = build_sat_reduction(phi)
            fields = {"n": red.graph.n, "m": red.graph.m, "params": red.params}
            title = f"sat reduction: n={red.graph.n}"

            def verify():
                verdict = check_equivalence_sat(phi, budget)
                return ({"verdict": verdict.to_json_dict()},
                        f"{title}, verdict {verdict.status}", EXIT_CODE[verdict.status])
        elif args.kind == "inapprox":
            g = fileio.read_graph(_required(args, "graph", "construct inapprox"))
            red = build_inapprox_reduction(g, args.d)
            fields, title = {"n": red.graph.n, "d": args.d}, f"amplifier graph: n={red.graph.n}"
        else:  # listcolor
            g = fileio.read_graph(_required(args, "graph", "construct listcolor"))
            red = build_listcoloring_reduction(g, _read_lists(args, "construct listcolor", g))
            fields = {"n": red.graph.n, "s": red.params["s"]}
            title = f"list-coloring reduction: n={red.graph.n}"
        graph = red.graph
        extra = {"provenance": (".provenance.json", json.dumps(
            {k: list(v) for k, v in red.provenance.items()}, sort_keys=True))}

    outputs = {"graph": (".col", fileio.graph_to_text(graph)), **extra}
    if args.dot:
        outputs["dot"] = (".dot", fileio.dot_export(graph))
    paths = {}
    for kind, (suffix, text) in outputs.items():
        path = Path(args.out).with_suffix(suffix)
        path.write_text(text)
        paths[kind] = str(path)
    payload = {**fields, "paths": paths}
    human, code = f"{title} -> {paths['graph']}", EXIT_OK
    if args.verify and verify:
        verified, human, code = verify()
        payload.update(verified)
    _emit(args, payload, human)
    return code


# ---------------------------------------------------------------------------
# refute-lists / bounds


def cmd_refute_lists(args) -> int:
    g = fileio.read_graph(args.graph)
    lists = _read_lists(args, "refute-lists", g)
    res = refute_lists(g, lists, _budget(args))
    _emit(args, res.to_json_dict(),
          {"refuted": f"lists refuted: additive choosability >= {res.eta_ell_lower_bound}",
           "beaten": "lists beaten: a labeling exists",
           "budget-exceeded": "budget exceeded before the search finished"}[res.status])
    return EXIT_CODE[res.status]


def _bounds_payload(g, budget: SearchBudget) -> dict:
    rep = bounds_mod.bounds_report(g, budget)
    payload = rep.to_json_dict()
    payload["edges"] = [list(e) for e in g.edges]
    return payload


def cmd_bounds(args) -> int:
    if args.random:
        graphs = _seeded(args, args.random, lambda rng: random_graph(rng, 1, args.max_n))
        return _sweep(args, _bounds_payload, graphs,
                      lambda p: _bounds_code(p["flags"], p["notes"]),
                      lambda n, c: f"bounds sweep: {n} graphs, {c[EXIT_NEGATIVE]} flag violations"
                                   + _cut_note(c[EXIT_ERROR]))
    g = fileio.read_graph(_required(args, "graph", "bounds"))
    rep = bounds_mod.bounds_report(g, _budget(args))
    code = _bounds_code(rep.flags, rep.notes)
    _emit(args, rep.to_json_dict(),
          f"n={rep.n} omega={rep.omega} chi={rep.chi} eta={rep.eta} eta1={rep.eta1} "
          f"sigma={rep.sigma} flags={'all hold' if rep.all_flags_hold() else rep.flags}"
          + _cut_note(code == EXIT_ERROR))
    return code


# ---------------------------------------------------------------------------
# check


def _sat_verdict_payload(phi: Cnf3Formula, budget: SearchBudget) -> dict:
    return check_equivalence_sat(phi, budget).to_json_dict()


def _lc_verdict_payload(inst, budget: SearchBudget) -> dict:
    g, lists = inst
    return check_equivalence_listcolor(g, lists, budget).to_json_dict()


_ORACLES = {"eta": naive_eta, "eta1": naive_eta1, "sigma": naive_sigma, "ptds": naive_ptds}


def _solver_oracle_payload(g, budget: SearchBudget) -> dict:
    # a solver sets a value only on "found"
    reps = {name: SOLVERS[name](g, budget) for name in _ORACLES}
    got = {name: rep.value for name, rep in reps.items()}
    want = {name: naive(g) for name, naive in _ORACLES.items()}
    cut = [name for name, rep in reps.items() if rep.status == "budget-exceeded"]
    return {"edges": [list(e) for e in g.edges], "n": g.n, "solver": got, "oracle": want,
            "agree": not cut and got == want, **({"cut": cut} if cut else {})}


# the input flags each command reads, and what it reads instead of the
# others; "<command> --<flag>" is the form a given flag selects, which
# reads only its own inputs.  Any other input flag given is an error, not
# ignored.  A command missing here reads every input flag it has.
_INPUT_FLAGS = ("cnf", "graph", "lists", "random", "exhaustive")
_INPUTS = {
    **{f"solve {problem}": (("graph",), "it solves on the graph alone (--graph)")
       for problem in SOLVERS},
    **{f"verify {what}": (("graph",), "it checks the labeling on the graph (--graph, --labeling)")
       for what in ("labeling", "ptds")},
    **{f"construct {kind}": ((), "it builds a named family or gadget from its parameters")
       for kind in ("counterexample", "clique-example", "gadget")},
    "construct sat": (("cnf",), "it reduces the formula in --cnf"),
    "construct inapprox": (("graph",), "it amplifies the graph in --graph"),
    "construct listcolor": (("graph", "lists"),
                            "it reduces the graph and lists in --graph, --lists"),
    "bounds --random": (("random",), "it sweeps seeded random graphs (--random, --max-n, --seed)"),
    "check gadgets": ((), "it certifies the built-in gadget suite"),
    "check solvers": (("random",), "it sweeps seeded random graphs (--random, --max-n, --seed)"),
    "check sat": (("cnf", "exhaustive", "random"),
                  "it checks a formula (--cnf) or small and seeded random formulas "
                  "(--exhaustive, --random)"),
    "check sat --cnf": (("cnf",), "it checks the one formula in --cnf"),
    "check listcolor": (("graph", "lists", "random"),
                        "it checks a graph with lists (--graph, --lists) "
                        "or seeded random instances (--random)"),
    # selected by --graph alone: --lists with --random still asks for --graph
    "check listcolor --graph": (("graph", "lists"), "it checks the one graph with lists in "
                                                    "--graph, --lists"),
    "check inapprox": (("graph",), "it checks one graph (--graph, --d)"),
    "check all": ((), "it runs the seeded desk-scale battery (--seed)"),
}


def _check_inputs(args) -> None:
    """Reject any input flag that the command, or the form a given flag selects, does not read."""
    given = [flag for flag in _INPUT_FLAGS if getattr(args, flag, None)]
    # the command and its positional choice, if it takes one
    choices = ("problem", "what", "kind", "target")
    command = " ".join([args.command, *(getattr(args, c) for c in choices if hasattr(args, c))])
    for form in (command, *(f"{command} --{flag}" for flag in given)):
        reads, instead = _INPUTS.get(form, (_INPUT_FLAGS, ""))
        for flag in given:
            if flag not in reads:
                raise ValueError(f"{form} takes no --{flag}: {instead}")


def cmd_check(args) -> int:
    if args.target == "gadgets":
        suite = gadget_certification_suite(_budget(args))
        for name, rep in suite:
            _emit(args, {"gadget": name, **rep.to_json_dict()},
                  f"{name}: certified={rep.certified} ({len(rep.cases)} boundary cases, "
                  f"n={rep.internal_size})" + _cut_note(rep.budget_cut))
        return _worst(_certification_code(rep) for _name, rep in suite)

    if args.target == "solvers":
        graphs = _seeded(args, args.random or 200, lambda rng: random_graph(rng, 1, args.max_n))
        # a graph with a cut solver decides nothing
        return _sweep(
            args, _solver_oracle_payload, graphs,
            lambda p: EXIT_ERROR if "cut" in p else EXIT_OK if p["agree"] else EXIT_NEGATIVE,
            lambda n, c: f"solver-oracle equivalence: {c[EXIT_OK]}/{n} agree"
                         + _cut_note(c[EXIT_ERROR]))

    if args.target == "sat":
        if args.cnf:
            phi = make_formula(*fileio.read_cnf(args.cnf))
            return _emit_verdict(args, check_equivalence_sat(phi, _budget(args)))
        instances: list[Cnf3Formula] = []
        if args.exhaustive:
            instances.extend(exhaustive_small_formulas(args.max_vars, args.max_clauses))
        if args.random:
            instances.extend(_seeded(args, args.random,
                                     lambda rng: random_formula(rng, args.vars, args.clauses)))
        if not instances:
            raise ValueError("nothing to check: pass --cnf, --exhaustive or --random")
        return _verdict_sweep(args, _sat_verdict_payload, instances, "sat equivalence")

    if args.target == "listcolor":
        # --lists alone would leave the sweep below ignoring it
        if args.graph or args.lists:
            g = fileio.read_graph(_required(args, "graph", "check listcolor"))
            lists = _read_lists(args, "check listcolor", g)
            return _emit_verdict(args, check_equivalence_listcolor(g, lists, _budget(args)))
        if not args.random:
            raise ValueError("nothing to check: pass --graph/--lists or --random")
        instances = _seeded(args, args.random, lambda rng: random_list_instance(rng, args.max_n))
        return _verdict_sweep(args, _lc_verdict_payload, instances, "list-coloring equivalence")

    if args.target == "inapprox":
        g = fileio.read_graph(_required(args, "graph", "check inapprox"))
        return _emit_verdict(args, check_threshold_inapprox(g, args.d, _budget(args)))

    # all: the desk-scale battery in one shot; every instance is drawn before
    # anything is printed, so a missing --seed prints nothing
    sat = exhaustive_small_formulas(2, 2)
    sat += _seeded(args, 10, lambda rng: random_formula(rng, 3, 3))
    lc = _seeded(args, 8, lambda rng: random_list_instance(rng, 3))
    suite = gadget_certification_suite(_budget(args))
    codes = [_worst(_certification_code(rep) for _name, rep in suite)]
    outcome = {EXIT_OK: "all certified", EXIT_NEGATIVE: "FAILURES"}.get(codes[0], "budget exceeded")
    # under --json, stdout holds only the sweeps' JSON lines
    human = sys.stderr if args.json else sys.stdout
    print(f"gadget contracts: {outcome} ({len(suite)} gadgets)", file=human)
    codes.append(_verdict_sweep(args, _sat_verdict_payload, sat, "sat equivalence"))
    codes.append(_verdict_sweep(args, _lc_verdict_payload, lc, "list-coloring equivalence"))
    for g, d in ((complete_graph(3), 16), (complete_graph(4), 21)):
        verdict = check_threshold_inapprox(g, d, _budget(args))
        print(f"threshold n={g.n} d={d}: {verdict.status}", file=human)
        codes.append(EXIT_CODE[verdict.status])
    return _worst(codes)


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="luckylab",
                                description="Workbench for additive (lucky) graph labelings")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="run an exact solver")
    ps.add_argument("problem", choices=[*SOLVERS, "listdecide"])
    ps.add_argument("--graph", required=True)
    ps.add_argument("--lists")
    _add_budget_flags(ps)
    ps.set_defaults(func=cmd_solve)

    pv = sub.add_parser("verify", help="check a labeling, list membership or dominating set")
    pv.add_argument("what", choices=["labeling", "lists", "ptds"])
    pv.add_argument("--graph", required=True)
    pv.add_argument("--labeling", required=True)
    pv.add_argument("--lists")
    pv.add_argument("--mode", choices=["any", "positive", "binary"], default="any")
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("construct", help="build a named family, gadget or reduction")
    pc.add_argument("kind", choices=["counterexample", "clique-example", "gadget",
                                     "sat", "inapprox", "listcolor"])
    pc.add_argument("--out", required=True, help="output path prefix")
    pc.add_argument("--k", type=int, default=1)
    pc.add_argument("--n", type=int, default=3)
    pc.add_argument("--d", type=int, default=1)
    pc.add_argument("--j", type=int, default=2)
    pc.add_argument("--s", type=int, default=3)
    pc.add_argument("--lf", default="2")
    pc.add_argument("--gadget-kind", choices=["clause", "variable", "forcing",
                                              "index", "vertex", "amplifier"])
    pc.add_argument("--cnf")
    pc.add_argument("--graph")
    pc.add_argument("--lists")
    pc.add_argument("--verify", action="store_true")
    pc.add_argument("--dot", action="store_true")
    _add_budget_flags(pc)
    pc.set_defaults(func=cmd_construct)

    pr = sub.add_parser("refute-lists", help="certify that a list assignment defeats its size")
    pr.add_argument("--graph", required=True)
    pr.add_argument("--lists", required=True)
    _add_budget_flags(pr)
    pr.set_defaults(func=cmd_refute_lists)

    pb = sub.add_parser("bounds", help="compute exact values and check every bound")
    pb.add_argument("--graph")
    pb.add_argument("--random", type=int, help="sweep over seeded random graphs")
    pb.add_argument("--max-n", type=int, default=7)
    pb.add_argument("--seed", type=int)
    pb.add_argument("--jobs", type=int, default=1)
    _add_budget_flags(pb)
    pb.set_defaults(func=cmd_bounds)

    pk = sub.add_parser("check", help="run an equivalence harness or certification suite")
    pk.add_argument("target", choices=["sat", "listcolor", "inapprox", "gadgets", "solvers", "all"])
    pk.add_argument("--cnf")
    pk.add_argument("--graph")
    pk.add_argument("--lists")
    pk.add_argument("--d", type=int, default=16)
    pk.add_argument("--exhaustive", action="store_true")
    pk.add_argument("--max-vars", type=int, default=2)
    pk.add_argument("--max-clauses", type=int, default=2)
    pk.add_argument("--random", type=int)
    pk.add_argument("--vars", type=int, default=3)
    pk.add_argument("--clauses", type=int, default=3)
    pk.add_argument("--max-n", type=int, default=4)
    pk.add_argument("--seed", type=int)
    pk.add_argument("--jobs", type=int, default=1)
    _add_budget_flags(pk)
    pk.set_defaults(func=cmd_check)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("jobs", "max_n", "vars", "clauses", "max_vars", "max_clauses", "random"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise ValueError(f"--{flag.replace('_', '-')} must be at least 1, got {value}")
        # written so that a NaN cap, which compares false both ways, fails it
        for flag in ("budget_nodes", "budget_ms"):
            if not getattr(args, flag, 1) > 0:
                raise ValueError(f"--{flag.replace('_', '-')} must be positive, "
                                 f"got {getattr(args, flag)}")
        _check_inputs(args)
        return args.func(args)
    # every luckylab input error (file format, graph, labeling, formula) and
    # an invalid budget is a ValueError; a path that cannot be read or
    # written is an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
