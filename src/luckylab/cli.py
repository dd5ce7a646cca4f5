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
from .formula import Cnf3Formula
from .graph import complete_graph
from .labeling import (
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


def _seeded_rng(args) -> random.Random:
    """The generator of a randomized sweep, which is only reproducible from a seed."""
    if args.seed is None:
        raise ValueError("randomized sweeps require --seed")
    return random.Random(args.seed)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _emit_verdict(args, verdict) -> int:
    _emit(args, verdict.to_json_dict(), f"{verdict.instance}: {verdict.status}")
    return EXIT_CODE[verdict.status]


def _report_sweep(args, payloads: list[dict], summary: str) -> None:
    """Each payload as a JSON line under --json, then the summary (on stderr under --json)."""
    if args.json:
        for payload in payloads:
            print(json.dumps(payload, sort_keys=True))
    print(summary, file=sys.stderr if args.json else sys.stdout)


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
        lists = fileio.read_lists(_required(args, "lists", "solve listdecide"))
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
        # vertices are named by their 1-based file ids throughout
        missing = next((v for v in g.vertices() if v not in lab), None)
        if missing is not None:
            raise ValueError(f"labeling is not total: vertex {missing + 1} has no label")
        # a label outside --mode answers "no" before any edge is looked at
        outside = labels_outside_mode(g, lab, args.mode)
        violations = [] if outside else verify_additive(g, lab, mode=args.mode)
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
        lists = fileio.read_lists(_required(args, "lists", "verify lists"))
        lists.validate_on(g)
        ok = verify_from_lists(lab, lists)
        _emit(args, {"from_lists": ok}, "labels drawn from lists" if ok else "label outside its list")
        return EXIT_OK if ok else EXIT_NEGATIVE
    # ptds: the candidate set is given as an indicator labeling
    dom = {v for v, x in lab.values.items() if x == 1}
    ok = verify_ptds(g, dom)
    _emit(args, {"proper_total_dominating": ok, "set": [v + 1 for v in sorted(dom)]},
          "proper total dominating set" if ok else "not a proper total dominating set")
    return EXIT_OK if ok else EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# construct


def _write_outputs(prefix: str, graph, labeling=None, lists=None, provenance=None,
                   dot: bool = False) -> dict:
    paths = {}
    base = Path(prefix)
    fileio.write_graph(base.with_suffix(".col"), graph)
    paths["graph"] = str(base.with_suffix(".col"))
    if labeling is not None:
        fileio.write_labeling(base.with_suffix(".lab"), labeling)
        paths["labeling"] = str(base.with_suffix(".lab"))
    if lists is not None:
        fileio.write_lists(base.with_suffix(".lists"), lists)
        paths["lists"] = str(base.with_suffix(".lists"))
    if provenance is not None:
        side = base.with_suffix(".provenance.json")
        side.write_text(json.dumps({k: list(v) for k, v in provenance.items()}, sort_keys=True))
        paths["provenance"] = str(side)
    if dot:
        base.with_suffix(".dot").write_text(fileio.dot_export(graph))
        paths["dot"] = str(base.with_suffix(".dot"))
    return paths


def cmd_construct(args) -> int:
    budget = _budget(args)
    if args.kind == "counterexample":
        g, lab, lists = counterexample_graph(args.k)
        paths = _write_outputs(args.out, g, lab, lists, dot=args.dot)
        payload = {"n": g.n, "m": g.m, "k": args.k, "paths": paths}
        if args.verify:
            violations = verify_additive(g, lab, mode="positive")
            eta_rep = solve_eta(g, budget)
            refutation = refute_lists(g, lists, budget)
            payload["shipped_labeling_additive"] = not violations
            payload["shipped_max_label"] = lab.max_label()
            payload["eta"] = eta_rep.to_json_dict()
            payload["refutation"] = refutation.to_json_dict()
            ok = (not violations and lab.max_label() == args.k
                  and eta_rep.status == "found" and eta_rep.value == args.k
                  and refutation.status == "refuted")
            payload["verified"] = ok
            _emit(args, payload,
                  f"counterexample k={args.k}: n={g.n}, eta={eta_rep.value}, "
                  f"lists {refutation.status}, choosability > {refutation.max_list_size}"
                  + ("" if ok else "  [VERIFICATION FAILED]"))
            return EXIT_OK if ok else EXIT_ERROR
        _emit(args, payload, f"counterexample k={args.k}: n={g.n}, m={g.m} -> {paths['graph']}")
        return EXIT_OK
    if args.kind == "clique-example":
        g = clique_eta_one(args.n)
        paths = _write_outputs(args.out, g, dot=args.dot)
        _emit(args, {"n": g.n, "m": g.m, "paths": paths},
              f"clique example n={args.n}: {g.n} vertices -> {paths['graph']}")
        return EXIT_OK
    if args.kind == "gadget":
        builders = {
            "clause": lambda: build_clause_gadget(),
            "variable": build_variable_gadget,
            "forcing": build_forcing_gadget,
            "index": lambda: build_index_gadget(args.j),
            "vertex": lambda: build_vertex_gadget(set(int(x) for x in args.lf.split(",")), args.s),
            "amplifier": lambda: build_amplifier_gadget(args.d),
        }
        inst = builders[_required(args, "gadget-kind", "construct gadget")]()
        paths = _write_outputs(args.out, inst.graph, dot=args.dot)
        payload = {"kind": inst.kind, "n": inst.graph.n,
                   "ports": {k: v for k, v in inst.ports.items()}, "paths": paths}
        if args.verify:
            rep = certify_gadget(inst, cap=max(40, inst.graph.n), budget=budget)
            payload["certification"] = rep.to_json_dict()
            _emit(args, payload, f"gadget {args.gadget_kind}: n={inst.graph.n}, "
                  f"certified={rep.certified}" + _cut_note(rep.budget_cut))
            return _certification_code(rep)
        _emit(args, payload, f"gadget {args.gadget_kind}: n={inst.graph.n} -> {paths['graph']}")
        return EXIT_OK
    if args.kind == "sat":
        num_vars, clauses = fileio.read_cnf(_required(args, "cnf", "construct sat"))
        phi = Cnf3Formula(num_vars, tuple(clauses))
        red = build_sat_reduction(phi)
        paths = _write_outputs(args.out, red.graph, provenance=red.provenance, dot=args.dot)
        payload = {"n": red.graph.n, "m": red.graph.m, "paths": paths, "params": red.params}
        if args.check:
            verdict = check_equivalence_sat(phi, budget)
            payload["verdict"] = verdict.to_json_dict()
            _emit(args, payload, f"sat reduction: n={red.graph.n}, verdict {verdict.status}")
            return EXIT_CODE[verdict.status]
        _emit(args, payload, f"sat reduction: n={red.graph.n} -> {paths['graph']}")
        return EXIT_OK
    if args.kind == "inapprox":
        g = fileio.read_graph(_required(args, "graph", "construct inapprox"))
        red = build_inapprox_reduction(g, args.d)
        paths = _write_outputs(args.out, red.graph, provenance=red.provenance, dot=args.dot)
        _emit(args, {"n": red.graph.n, "paths": paths, "d": args.d},
              f"amplifier graph: n={red.graph.n} -> {paths['graph']}")
        return EXIT_OK
    # listcolor
    g = fileio.read_graph(_required(args, "graph", "construct listcolor"))
    lists = fileio.read_lists(_required(args, "lists", "construct listcolor"))
    red = build_listcoloring_reduction(g, lists)
    paths = _write_outputs(args.out, red.graph, provenance=red.provenance, dot=args.dot)
    _emit(args, {"n": red.graph.n, "paths": paths, "s": red.params["s"]},
          f"list-coloring reduction: n={red.graph.n} -> {paths['graph']}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# refute-lists / bounds


def cmd_refute_lists(args) -> int:
    g = fileio.read_graph(args.graph)
    lists = fileio.read_lists(args.lists)
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
        rng = _seeded_rng(args)
        graphs = [random_graph(rng, 1, args.max_n) for _ in range(args.random)]
        payloads = _run_sweep(args, _bounds_payload, graphs)
        codes = Counter(_bounds_code(p["flags"], p["notes"]) for p in payloads)
        _report_sweep(args, payloads, f"bounds sweep: {len(payloads)} graphs, "
                      f"{codes[EXIT_NEGATIVE]} flag violations" + _cut_note(codes[EXIT_ERROR]))
        return _worst(codes)
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


def _solver_oracle_payload(g, budget: SearchBudget) -> dict:
    eta = solve_eta(g, budget)
    eta1 = solve_eta1(g, budget)
    sigma = solve_sigma(g, budget)
    ptds = min_ptds(g, budget)
    got = {
        "eta": eta.value,
        "eta1": eta1.value if eta1.status == "found" else None,
        "sigma": sigma.value,
        "ptds": ptds.value if ptds.status == "found" else None,
    }
    want = {
        "eta": naive_eta(g),
        "eta1": naive_eta1(g),
        "sigma": naive_sigma(g),
        "ptds": naive_ptds(g),
    }
    cut = [k for k, rep in zip(got, (eta, eta1, sigma, ptds)) if rep.status == "budget-exceeded"]
    return {"edges": [list(e) for e in g.edges], "n": g.n, "solver": got, "oracle": want,
            "agree": not cut and got == want, **({"cut": cut} if cut else {})}


def _run_sweep(args, worker, instances) -> list[dict]:
    """worker(instance, budget) on each instance, each under the command's whole budget."""
    work = partial(worker, budget=_budget(args))
    # workers beyond the instances or the cores only add start-up cost
    jobs = min(args.jobs, len(instances), os.cpu_count() or 1)
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(work, instances)
    return [work(i) for i in instances]


def _summarize_verdicts(args, verdicts: list[dict], label: str) -> int:
    count = Counter(v["status"] for v in verdicts)
    _report_sweep(args, verdicts, f"{label}: {count['agree']}/{len(verdicts)} agree, "
                  f"{count['disagree']} disagree, {count['inconclusive']} inconclusive")
    return _worst(EXIT_CODE[v["status"]] for v in verdicts)


def cmd_check(args) -> int:
    if args.target == "gadgets":
        suite = gadget_certification_suite(_budget(args))
        for name, rep in suite:
            _emit(args, {"gadget": name, **rep.to_json_dict()},
                  f"{name}: certified={rep.certified} ({len(rep.cases)} boundary cases, "
                  f"n={rep.internal_size})" + _cut_note(rep.budget_cut))
        return _worst(_certification_code(rep) for _name, rep in suite)

    if args.target == "solvers":
        rng = _seeded_rng(args)
        graphs = [random_graph(rng, 1, args.max_n) for _ in range(args.random or 200)]
        payloads = _run_sweep(args, _solver_oracle_payload, graphs)
        # a graph with a cut solver decides nothing
        codes = Counter(EXIT_ERROR if "cut" in p else EXIT_OK if p["agree"] else EXIT_NEGATIVE
                        for p in payloads)
        _report_sweep(args, payloads, f"solver-oracle equivalence: "
                      f"{codes[EXIT_OK]}/{len(payloads)} agree" + _cut_note(codes[EXIT_ERROR]))
        return _worst(codes)

    if args.target == "sat":
        if args.cnf:
            num_vars, clauses = fileio.read_cnf(args.cnf)
            phi = Cnf3Formula(num_vars, tuple(clauses))
            return _emit_verdict(args, check_equivalence_sat(phi, _budget(args)))
        instances: list[Cnf3Formula] = []
        if args.exhaustive:
            instances.extend(exhaustive_small_formulas(args.max_vars, args.max_clauses))
        if args.random:
            rng = _seeded_rng(args)
            instances.extend(random_formula(rng, args.vars, args.clauses)
                             for _ in range(args.random))
        if not instances:
            raise ValueError("nothing to check: pass --cnf, --exhaustive or --random")
        verdicts = _run_sweep(args, _sat_verdict_payload, instances)
        return _summarize_verdicts(args, verdicts, "sat equivalence")

    if args.target == "listcolor":
        if args.graph:
            g = fileio.read_graph(args.graph)
            lists = fileio.read_lists(_required(args, "lists", "check listcolor"))
            return _emit_verdict(args, check_equivalence_listcolor(g, lists, _budget(args)))
        if not args.random:
            raise ValueError("nothing to check: pass --graph/--lists or --random")
        rng = _seeded_rng(args)
        instances = [random_list_instance(rng, args.max_n) for _ in range(args.random)]
        verdicts = _run_sweep(args, _lc_verdict_payload, instances)
        return _summarize_verdicts(args, verdicts, "list-coloring equivalence")

    if args.target == "inapprox":
        g = fileio.read_graph(_required(args, "graph", "check inapprox"))
        return _emit_verdict(args, check_threshold_inapprox(g, args.d, _budget(args)))

    # all: the desk-scale battery in one shot
    rng = _seeded_rng(args)
    suite = gadget_certification_suite(_budget(args))
    code = _worst(_certification_code(rep) for _name, rep in suite)
    outcome = {EXIT_OK: "all certified", EXIT_NEGATIVE: "FAILURES"}.get(code, "budget exceeded")
    print(f"gadget contracts: {outcome} ({len(suite)} gadgets)")
    codes = [code]
    instances = exhaustive_small_formulas(2, 2)
    instances += [random_formula(rng, 3, 3) for _ in range(10)]
    verdicts = _run_sweep(args, _sat_verdict_payload, instances)
    codes.append(_summarize_verdicts(args, verdicts, "sat equivalence"))
    rng = _seeded_rng(args)
    lc = [random_list_instance(rng, 3) for _ in range(8)]
    verdicts = _run_sweep(args, _lc_verdict_payload, lc)
    codes.append(_summarize_verdicts(args, verdicts, "list-coloring equivalence"))
    for g, d in ((complete_graph(3), 16), (complete_graph(4), 21)):
        verdict = check_threshold_inapprox(g, d, _budget(args))
        print(f"threshold n={g.n} d={d}: {verdict.status}")
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
    pc.add_argument("--check", action="store_true")
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
    pb.add_argument("--random", type=int, default=0, help="sweep over seeded random graphs")
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
    pk.add_argument("--random", type=int, default=0)
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
        if getattr(args, "jobs", 1) < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        if getattr(args, "max_n", 1) < 1:
            raise ValueError(f"--max-n must be at least 1, got {args.max_n}")
        return args.func(args)
    # every luckylab input error (file format, graph, labeling, formula) and
    # an invalid budget is a ValueError; a path that cannot be read or
    # written is an OSError
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
