"""Independent brute-force solvers and the reduction-equivalence harnesses.

The brute-force oracles never touch the backtracking engine: they enumerate
their search spaces directly, so agreement between an oracle and a solver
(or a reduction) is evidence, not circularity.  The constructive recipes and
the harnesses do run the engine, and each harness checks its answer against
an oracle.  Every harness reports a verdict with an explicit inconclusive
status whenever a budget ran out; a budget cut is never passed off as
agreement.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Mapping, Optional, Sequence

from . import fileio
from .formula import Cnf3Formula, FormulaError, make_formula
from .graph import BudgetExceeded, Graph, GraphError, build_graph, chromatic_number
from .labeling import (
    Labeling,
    ListAssignment,
    induced_coloring,
    make_lists,
    verify_additive,
    verify_ptds,
    weight,
)
from .solver import SearchBudget, complete_partial, exists_binary
from .constructions.reductions import (
    ReductionOutput,
    build_inapprox_reduction,
    build_listcoloring_reduction,
    build_sat_reduction,
)

__all__ = [
    "Cnf3Formula",
    "EquivalenceVerdict",
    "ReconstructionDefect",
    "assignment_from_labeling",
    "check_equivalence_listcolor",
    "check_equivalence_sat",
    "check_threshold_inapprox",
    "dpll_sat",
    "exhaustive_small_formulas",
    "format_formula",
    "labeling_from_assignment",
    "labeling_from_coloring",
    "list_color_brute",
    "naive_eta",
    "naive_eta1",
    "naive_ptds",
    "naive_sigma",
    "random_formula",
    "random_graph",
    "random_list_instance",
    "sat_brute",
]

SAT_BRUTE_VAR_CAP = 24
LIST_PRODUCT_CAP = 10_000_000


class ReconstructionDefect(RuntimeError):
    """A constructive recipe failed to extend; the gadget reconstruction is suspect."""


# ---------------------------------------------------------------------------
# Naive full-enumeration oracles for the exact solvers (desk scale, n <= ~6).


def _is_additive(adj, edges, labels) -> bool:
    s = [sum(labels[u] for u in nbrs) for nbrs in adj]
    return all(s[u] != s[v] for u, v in edges)


def naive_eta(g: Graph) -> int:
    """Additive number by direct enumeration of {1..k}^n for growing k.

    The loop ends by k = 2^(n-1): labeling vertex v with 2^v is additive,
    since each sum is the binary numeral of a neighbourhood, and adjacent
    u, v have different neighbourhoods (u is in N(v) but not in N(u)).
    """
    adj, edges = g.adjacency(), g.edges
    for k in itertools.count(1):
        for labels in itertools.product(range(1, k + 1), repeat=g.n):
            if _is_additive(adj, edges, labels):
                return k


def _least_weight(n: int, accepts) -> Optional[int]:
    """The fewest ones in a vector of {0,1}^n that accepts takes; None if it takes none."""
    return min((sum(bits) for bits in itertools.product((0, 1), repeat=n) if accepts(bits)),
               default=None)


def naive_eta1(g: Graph) -> Optional[int]:
    """Minimum binary weight by enumerating all 2^n labelings; None if none valid."""
    adj, edges = g.adjacency(), g.edges
    return _least_weight(g.n, lambda labels: _is_additive(adj, edges, labels))


def naive_ptds(g: Graph) -> Optional[int]:
    """Minimum proper total dominating set size over all 2^n subsets."""
    return _least_weight(g.n, lambda bits: verify_ptds(g, {v for v in range(g.n) if bits[v]}))


def _set_partitions(items: Sequence[int]):
    """All set partitions, each a list of lists (first-occurrence order)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


def naive_sigma(g: Graph) -> int:
    """Minimum number of distinct labels, labels drawn from {1..n*maxdeg+1}.

    Enumerates labelings grouped by their level-set partition, fewest groups
    first: for each partition every injective assignment of values to its
    groups is tried, which is exhaustive over the same space as a direct
    product scan.

    The cap N = n*maxdeg + 1 is proven: some labeling with the fewest
    distinct labels uses only labels in {1..N}.  Take an optimal labeling
    and its level-set partition into m = sigma groups, and let
    c(v) count v's neighbors in each group.  The labeling separates every
    edge's sums, so every edge uv has a nonzero difference row
    c(u) - c(v).  Injective group values x in {1..N}^m with
    (c(u) - c(v)) . x != 0 on every edge give an additive labeling with m
    distinct labels, and they exist once N > |E| + C(m, 2): each edge's
    hyperplane, and each equality x_i = x_j, holds on at most N^(m-1) of
    the N^m points.  Also sigma <= chi: the classes of a proper coloring
    have nonzero rows too (an edge uv with v in class b has
    c_b(u) >= 1 > 0 = c_b(v)), so the same count labels them with chi
    distinct values.  With chi <= maxdeg + 1, maxdeg <= n - 1 and
    |E| <= n*maxdeg/2:
    |E| + C(sigma, 2) <= n*maxdeg/2 + maxdeg(maxdeg + 1)/2 <= n*maxdeg < N.
    """
    cap = g.n * g.max_degree() + 1
    adj = g.adjacency()
    for part in sorted(_set_partitions(list(range(g.n))), key=len):
        m = len(part)
        group_of = {v: gi for gi, grp in enumerate(part) for v in grp}
        # coefficient rows: per vertex, how many neighbors sit in each group
        coeff = [[0] * m for _ in range(g.n)]
        for v in range(g.n):
            for u in adj[v]:
                coeff[v][group_of[u]] += 1
        # an edge is violated exactly when the values zero its difference row
        diffs = {tuple(a - b for a, b in zip(coeff[u], coeff[v])) for u, v in g.edges}
        if not all(any(d) for d in diffs):
            continue  # some edge has identical rows: no value choice works
        for combo in itertools.combinations(range(1, cap + 1), m):
            for vals in itertools.permutations(combo):
                if all(sum(c * x for c, x in zip(d, vals)) for d in diffs):
                    return m
    raise AssertionError("singleton partition always admits values")


# ---------------------------------------------------------------------------
# SAT and list-coloring brute oracles.


def sat_brute(phi: Cnf3Formula) -> Optional[dict[int, bool]]:
    """Truth-table scan; returns a satisfying assignment or None."""
    if phi.num_vars > SAT_BRUTE_VAR_CAP:
        raise FormulaError(f"{phi.num_vars} variables exceeds the {SAT_BRUTE_VAR_CAP}-variable cap")
    for bits in itertools.product((False, True), repeat=phi.num_vars):
        gamma = {i + 1: bits[i] for i in range(phi.num_vars)}
        if phi.satisfies(gamma):
            return gamma
    return None


def dpll_sat(phi: Cnf3Formula) -> Optional[dict[int, bool]]:
    """Independent DPLL re-implementation used to cross-check sat_brute."""

    def assign(clauses: list[tuple[int, ...]], lit: int) -> Optional[list[tuple[int, ...]]]:
        """The clauses with lit true, or None once one of them is left empty."""
        nxt = []
        for cl in clauses:
            if lit in cl:
                continue
            reduced = tuple(l for l in cl if l != -lit)
            if not reduced:
                return None
            nxt.append(reduced)
        return nxt

    def solve(clauses: list[tuple[int, ...]], assignment: dict[int, bool]):
        while True:
            unit = next((cl[0] for cl in clauses if len(cl) == 1), None)
            if unit is None:
                break
            assignment[abs(unit)] = unit > 0
            clauses = assign(clauses, unit)
            if clauses is None:
                return None
        if not clauses:
            return assignment
        lit = clauses[0][0]
        for choice in (lit, -lit):
            nxt = assign(clauses, choice)
            if nxt is not None:
                res = solve(nxt, {**assignment, abs(choice): choice > 0})
                if res is not None:
                    return res
        return None

    res = solve(list(phi.clauses), {})
    if res is None:
        return None
    for v in range(1, phi.num_vars + 1):
        res.setdefault(v, True)
    return res


def list_color_brute(g: Graph, lists: ListAssignment) -> Optional[dict[int, int]]:
    """Proper coloring with each color drawn from its vertex's list, or None."""
    lists.validate_on(g)
    space = 1
    for v in g.vertices():
        space *= len(lists[v])
        if space > LIST_PRODUCT_CAP:
            raise GraphError(f"list product space exceeds {LIST_PRODUCT_CAP}")
    adj = g.adjacency()
    colors: dict[int, int] = {}

    def place(v: int) -> bool:
        if v == g.n:
            return True
        for c in sorted(lists[v]):
            if all(colors.get(u) != c for u in adj[v]):
                colors[v] = c
                if place(v + 1):
                    return True
                del colors[v]
        return False

    return dict(colors) if place(0) else None


# ---------------------------------------------------------------------------
# Constructive labelings for the two reductions.


def _complete_recipe(graph: Graph, fixed: dict[int, int], budget: Optional[SearchBudget],
                     weight_cap: Optional[int], failure: str) -> Labeling:
    """The binary completion of a recipe's fixed values, verified additive.

    A completion that is not found raises ReconstructionDefect with
    failure.format(status=...); one that fails verification raises it too.
    """
    rep = complete_partial(graph, fixed, budget, weight_cap=weight_cap)
    if rep.status != "found":
        raise ReconstructionDefect(failure.format(status=rep.status))
    bad = verify_additive(graph, rep.certificate, mode="binary")
    if bad:
        raise ReconstructionDefect(f"completed labeling fails verification: {bad[:3]}")
    return rep.certificate


def labeling_from_assignment(
    phi: Cnf3Formula,
    gamma: Mapping[int, bool],
    budget: Optional[SearchBudget] = None,
    reduction: Optional[ReductionOutput] = None,
) -> tuple[Labeling, ReductionOutput]:
    """Turn a satisfying assignment into a verified labeling of the sat reduction.

    Seeds the quoted recipe (true literal ports and the fixed gadget
    interior values at 1) and lets the exhaustive solver finish the free
    vertices.  A completion failure is raised as a reconstruction defect,
    never repaired silently.
    """
    if not phi.satisfies(gamma):
        raise FormulaError("assignment does not satisfy the formula")
    red = reduction or build_sat_reduction(phi)
    fixed: dict[int, int] = {}
    for i in range(1, phi.num_vars + 1):
        port = red.id_of(f"x{i}") if gamma[i] else red.id_of(f"!x{i}")
        fixed[port] = 1
        for y in (1, 3, 4, 5, 6):
            fixed[red.id_of(f"x{i}.y{y}")] = 1
    for ci in range(len(phi.clauses)):
        for w in (1, 2, 3, 5):
            fixed[red.id_of(f"c{ci}.w{w}")] = 1
    return _complete_recipe(red.graph, fixed, budget, None,
                            "recipe completion {status} on a satisfiable instance; "
                            "the variable/clause gadget reconstruction is defective"), red


def assignment_from_labeling(
    phi: Cnf3Formula,
    lab: Labeling,
    reduction: Optional[ReductionOutput] = None,
) -> dict[int, bool]:
    """Extract a truth assignment from a labeling of the sat reduction.

    Positive literal labeled 1 means true; negated literal labeled 1 means
    false; the all-zero case defaults to true.  The result is checked to
    satisfy the formula before it is returned.
    """
    red = reduction or build_sat_reduction(phi)
    bad = verify_additive(red.graph, lab, mode="binary")
    if bad:
        raise FormulaError(f"labeling is not a valid binary additive labeling: {bad[:3]}")
    gamma: dict[int, bool] = {}
    for i in range(1, phi.num_vars + 1):
        if lab[red.id_of(f"x{i}")] == 1:
            gamma[i] = True
        elif lab[red.id_of(f"!x{i}")] == 1:
            gamma[i] = False
        else:
            gamma[i] = True
    if not phi.satisfies(gamma):
        raise ReconstructionDefect(
            "extracted assignment does not satisfy the formula; "
            "a clause or variable gadget failed to enforce its contract")
    return gamma


def labeling_from_coloring(
    g: Graph,
    coloring: Mapping[int, int],
    d: int,
    budget: Optional[SearchBudget] = None,
    reduction: Optional[ReductionOutput] = None,
) -> tuple[Labeling, ReductionOutput]:
    """Turn a proper 3-coloring into a verified low-weight labeling of the amplifier graph.

    Selector values follow the color recipe (color 1 -> only p5 on, color 2
    -> p5 and p6, color 3 -> all three); the completion is weight-capped at
    5n, so success certifies the constructive bound.
    """
    values = {coloring[v] for v in g.vertices()}
    if not values <= {1, 2, 3}:
        raise GraphError(f"coloring uses values {sorted(values)}; only colors 1..3 are allowed")
    for u, v in g.edges:
        if coloring[u] == coloring[v]:
            raise GraphError(f"coloring is not proper on edge ({u}, {v})")
    red = reduction or build_inapprox_reduction(g, d)
    fixed: dict[int, int] = {}
    recipe = {1: (0, 1, 0), 2: (0, 1, 1), 3: (1, 1, 1)}
    for v in g.vertices():
        fixed[red.id_of(f"v{v}")] = 1
        fixed[red.id_of(f"v{v}.p3")] = 0
        p4, p5, p6 = recipe[coloring[v]]
        fixed[red.id_of(f"v{v}.p4")] = p4
        fixed[red.id_of(f"v{v}.p5")] = p5
        fixed[red.id_of(f"v{v}.p6")] = p6
    cap = 5 * g.n
    return _complete_recipe(red.graph, fixed, budget, cap,
                            f"coloring recipe completion {{status}} within weight {cap}; "
                            "the amplifier reconstruction is defective"), red


# ---------------------------------------------------------------------------
# Equivalence harnesses.


@dataclass
class EquivalenceVerdict:
    """Outcome of one oracle-vs-reduction comparison.

    status is "agree", "disagree" or "inconclusive"; the latter is first
    class and counts as a failure wherever full verification is demanded.
    """

    instance: str
    oracle_answer: Optional[bool]
    reduction_answer: Optional[bool]
    status: str
    witnesses: dict[str, str] = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    @property
    def agree(self) -> bool:
        return self.status == "agree"

    def to_json_dict(self) -> dict:
        return asdict(self)


def _verdict(instance: str, oracle: Optional[bool], reduction: Optional[bool],
             witnesses: dict[str, str], stats: dict) -> EquivalenceVerdict:
    if oracle is None or reduction is None:
        status = "inconclusive"
    elif oracle == reduction:
        status = "agree"
    else:
        status = "disagree"
    return EquivalenceVerdict(instance, oracle, reduction, status, witnesses, stats)


def _reduction_answer(red: ReductionOutput, rep, witnesses: dict[str, str],
                      **extra) -> tuple[Optional[bool], dict]:
    """The reduction side of a check and its stats.

    The answer is None on a budget cut, else whether a labeling exists; a
    found labeling is recorded as the "labeling" witness.  The stats give
    the reduction's size, then extra, then the search's nodes and status.
    """
    stats = {"graph_n": red.graph.n, **extra, "nodes": rep.nodes_explored,
             "solver_status": rep.status}
    if rep.status == "budget-exceeded":
        return None, stats
    if rep.certificate is not None:
        witnesses["labeling"] = fileio.labeling_to_text(rep.certificate)
    return rep.status == "found", stats


def format_formula(phi: Cnf3Formula) -> str:
    def lit(l: int) -> str:
        return f"x{l}" if l > 0 else f"!x{-l}"

    return " & ".join("(" + "|".join(lit(l) for l in cl) + ")" for cl in phi.clauses)


def check_equivalence_sat(phi: Cnf3Formula,
                          budget: Optional[SearchBudget] = None) -> EquivalenceVerdict:
    """Satisfiability vs existence of a binary additive labeling of the reduction."""
    budget = budget or SearchBudget()
    witnesses: dict[str, str] = {}
    gamma = sat_brute(phi)
    oracle = gamma is not None
    if gamma:
        witnesses["assignment"] = " ".join(f"x{v}={int(b)}" for v, b in sorted(gamma.items()))
    red = build_sat_reduction(phi)
    rep = exists_binary(red.graph, budget)
    reduction, stats = _reduction_answer(red, rep, witnesses)
    return _verdict(format_formula(phi), oracle, reduction, witnesses, stats)


def check_equivalence_listcolor(g: Graph, lists: ListAssignment,
                                budget: Optional[SearchBudget] = None) -> EquivalenceVerdict:
    """List colorability vs labeling existence; also checks the end-to-end extraction.

    Whenever a labeling exists, the coloring it induces on the original
    ports must land inside the normalized lists; a violation falsifies the
    construction and is reported as disagreement.
    """
    budget = budget or SearchBudget()
    witnesses: dict[str, str] = {}
    coloring = list_color_brute(g, lists)
    oracle = coloring is not None
    if coloring:
        witnesses["coloring"] = " ".join(f"{v}->{c}" for v, c in sorted(coloring.items()))
    red = build_listcoloring_reduction(g, lists)
    rep = exists_binary(red.graph, budget)
    reduction, stats = _reduction_answer(red, rep, witnesses)
    extraction_bad = None
    if reduction:
        induced = induced_coloring(red.graph, rep.certificate)
        ports = red.params["ports"]
        lf = red.params["lf"]
        for v in g.vertices():
            if induced[ports[v]] not in lf[v]:
                extraction_bad = f"port {v} got sum {induced[ports[v]]}, list {lf[v]}"
                break
    verdict = _verdict(f"n={g.n} edges={list(g.edges)} lists=" +
                       str({v: sorted(lists[v]) for v in g.vertices()}),
                       oracle, reduction, witnesses, stats)
    if extraction_bad and verdict.status == "agree":
        verdict.status = "disagree"
        verdict.witnesses["extraction_violation"] = extraction_bad
    return verdict


def check_threshold_inapprox(g: Graph, d: int,
                             budget: Optional[SearchBudget] = None) -> EquivalenceVerdict:
    """3-colorability vs existence of a weight-(5n) labeling of the amplifier graph.

    Requires a regular source graph (see build_inapprox_reduction; an
    irregular one raises GraphError) and d >= 5n+1 so the two weight
    regimes cannot overlap.  The labeling side runs a weight-capped
    exhaustive search; if that search is cut off and the graph is
    3-colorable, the constructive recipe still settles the question with a
    verified labeling.  The chromatic number is searched under the same
    budget; a cut there leaves the verdict inconclusive.
    """
    cap = 5 * g.n
    if d < cap + 1:
        raise GraphError(f"need d >= 5n+1 = {cap + 1} to separate the weight regimes, got {d}")
    red = build_inapprox_reduction(g, d)
    budget = budget or SearchBudget()
    witnesses: dict[str, str] = {}
    try:
        chi, coloring = chromatic_number(g, budget)
        left = chi <= 3
        witnesses["chromatic_number"] = str(chi)
    except BudgetExceeded:
        left = None  # the colouring side is inconclusive
    tiers = {v: 1 for v in red.params["pair_vertices"]}
    rep = exists_binary(red.graph, budget, weight_cap=cap, tiers=tiers)
    right, stats = _reduction_answer(red, rep, witnesses, d=d, weight_cap=cap)
    if right:
        witnesses["labeling_weight"] = str(rep.value)
    elif right is None and left:
        try:
            lab, _ = labeling_from_coloring(g, coloring, d, budget, reduction=red)
            right = True
            witnesses["labeling"] = fileio.labeling_to_text(lab)
            witnesses["labeling_weight"] = str(weight(lab))
        except ReconstructionDefect:
            pass
    return _verdict(f"n={g.n} edges={list(g.edges)} d={d}", left, right, witnesses, stats)


# ---------------------------------------------------------------------------
# Seeded instance generators for the sweep harnesses.


def random_graph(rng, n_min: int, n_max: int, p: float = 0.5) -> Graph:
    n = rng.randint(n_min, n_max)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def random_formula(rng, num_vars: int, num_clauses: int) -> Cnf3Formula:
    clauses = []
    for _ in range(num_clauses):
        clauses.append(tuple(rng.choice([1, -1]) * rng.randint(1, num_vars) for _ in range(3)))
    return make_formula(num_vars, clauses)


def random_list_instance(rng, n_max: int, universe: Sequence[int] = (1, 2, 3)):
    g = random_graph(rng, 1, n_max)
    lists = make_lists({v: rng.sample(list(universe), rng.randint(1, len(universe)))
                        for v in g.vertices()})
    return g, lists


def exhaustive_small_formulas(max_vars: int = 2, max_clauses: int = 2) -> list[Cnf3Formula]:
    """Every formula with at most max_vars variables and max_clauses clauses.

    Clauses are taken up to literal deduplication and order (a repeated
    literal adds nothing to a clause gadget), and formulas up to clause
    multiset order, which is exactly the granularity the reduction sees.
    """
    formulas = []
    for nv in range(1, max_vars + 1):
        literals = [l for v in range(1, nv + 1) for l in (v, -v)]
        clause_pool = []
        for size in (1, 2, 3):
            clause_pool.extend(itertools.combinations(literals, size))
        for count in range(1, max_clauses + 1):
            for combo in itertools.combinations_with_replacement(clause_pool, count):
                formulas.append(make_formula(nv, combo))
    return formulas
