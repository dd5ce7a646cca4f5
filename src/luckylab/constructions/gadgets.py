"""Gadget constructions and their machine-checked contracts.

The source figures for these gadgets are unavailable, so each gadget is
reconstructed as the smallest edge set consistent with every neighbor-sum
identity its correctness argument states, then repaired where necessary and
certified exhaustively.  The edge sets written in the emitters below are
the canonical records of those reconstructions.  Builders only build;
`certify_gadget` checks one gadget and `gadget_certification_suite` checks
every shipped one, each under the caller's search budget.

Certification model: the gadget's port may have external neighbors in a
host.  A boundary case fixes port labels and/or declares the total label
mass of external neighbors; edges whose endpoint sums depend on undeclared
host structure are excluded.  Solutions are enumerated by the exhaustive
solver, so a "certified" verdict quantifies over every binary labeling
consistent with the boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict, dataclass, field
from typing import Callable, Hashable, Iterable, Optional, Sequence

from ..graph import Graph, GraphError, build_graph
from ..solver import SearchBudget, SearchProblem, enumerate_solutions

DEFAULT_ENUM_CAP = 22


class GadgetBuilder:
    """Incremental graph assembly with stable ids and unique vertex names.

    Edges are kept as added; `build` leaves their checks and normalization
    to build_graph, so an edge added twice, in either orientation, is one
    edge of the graph.
    """

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.edges: list[tuple[int, int]] = []

    def add_vertex(self, name: str) -> int:
        if name in self._index:
            raise GraphError(f"duplicate vertex name {name!r}")
        vid = len(self.names)
        self.names.append(name)
        self._index[name] = vid
        return vid

    def add_edge(self, u: int, v: int) -> None:
        self.edges.append((u, v))

    def __len__(self) -> int:
        return len(self.names)

    def build(self) -> Graph:
        return build_graph(len(self.names), self.edges, dict(enumerate(self.names)))


# ---------------------------------------------------------------------------
# Emitters: the single source of truth for gadget shapes.  Reductions and the
# standalone gadget builders both go through these.


def emit_clause_gadget(b: GadgetBuilder, literal_ports: Sequence[int], prefix: str) -> dict[str, int]:
    """Five-cycle w1 w2 w4 w5 w3 with w1 joined to each literal port.

    With all attached literals labeled 0 the cycle's sums reduce to the bare
    odd-cycle system, which has no binary additive labeling; any literal
    labeled 1 unlocks it.  A repeated port adds the same edge again, so a
    clause may list a literal more than once.
    """
    w = {i: b.add_vertex(f"{prefix}.w{i}") for i in range(1, 6)}
    for a, c in ((1, 2), (2, 4), (4, 5), (5, 3), (3, 1)):
        b.add_edge(w[a], w[c])
    for port in literal_ports:
        b.add_edge(w[1], port)
    return {f"w{i}": w[i] for i in range(1, 6)}


def emit_variable_gadget(b: GadgetBuilder, var: str) -> dict[str, int]:
    """Ports for a variable and its negation, guarded so both cannot be 1.

    Five-cycle y1 y2 y4 y5 y3 plus y6 adjacent to y5 and to both ports: the
    cycle forces y6 = 1, and the case split on y5 rules out both ports being
    labeled 1.  The ports are deliberately not adjacent to each other (that
    edge would close a triangle through y6 and is never used by the
    both-ports-1 argument).  Five slack pendants per port keep the port sums
    tunable when a satisfying assignment is extended to a full labeling.
    """
    x = b.add_vertex(var)
    nx = b.add_vertex(f"!{var}")
    y = {i: b.add_vertex(f"{var}.y{i}") for i in range(1, 7)}
    for a, c in ((1, 2), (2, 4), (4, 5), (5, 3), (3, 1)):
        b.add_edge(y[a], y[c])
    b.add_edge(y[5], y[6])
    b.add_edge(y[6], x)
    b.add_edge(y[6], nx)
    for i in range(1, 6):
        b.add_edge(b.add_vertex(f"{var}.z{i}"), x)
    for i in range(6, 11):
        b.add_edge(b.add_vertex(f"{var}.z{i}"), nx)
    ports = {"x": x, "not_x": nx}
    ports.update({f"y{i}": y[i] for i in range(1, 7)})
    return ports


def _triangle(b: GadgetBuilder, names: Sequence[str]) -> tuple[int, int, int]:
    """The forced-one core: a triangle a1 a2 a3, returned as (a1, a2, a3).

    The caller joins the attach vertex a3 to exactly one more vertex x and
    nothing else to the triangle.  In a binary additive labeling the a1/a2
    edge then forces l(a1) != l(a2), so sum(a3) = 1 + l(x) while sum(a1)
    and sum(a2) are l(a3) and l(a3) + 1 in some order.  With l(a3) = 1 one
    of them equals 1 + l(x) for either l(x), so l(a3) = 0, and then 1 + l(x)
    avoids {0, 1} only with l(x) = 1: x is forced to 1 and sum(a3) to 2.
    """
    a1, a2, a3 = (b.add_vertex(nm) for nm in names)
    b.add_edge(a1, a2)
    b.add_edge(a1, a3)
    b.add_edge(a2, a3)
    return a1, a2, a3


def emit_forcing_unit(b: GadgetBuilder, prefix: str) -> int:
    """The port-zeroing unit: returns its vertex w; the caller joins w to the port.

    Two triangle cores: the x-core forces w = 1 with its attach sum pinned to
    2, the y-core forces y4 = 1.  w's neighbors are exactly the x-attach
    (0), y4 (1) and the port, so the w/x3 edge forces the port label to 0
    and the sum at w to 1.  Two pendants on y4 lift its sum to 3, keeping
    the w/y4 and y3/y4 edges satisfiable.
    """
    w = b.add_vertex(f"{prefix}.w")
    _x1, _x2, x3 = _triangle(b, [f"{prefix}.x{i}" for i in (1, 2, 3)])
    b.add_edge(x3, w)
    _y1, _y2, y3 = _triangle(b, [f"{prefix}.y{i}" for i in (1, 2, 3)])
    y4 = b.add_vertex(f"{prefix}.y4")
    b.add_edge(y3, y4)
    b.add_edge(w, y4)
    b.add_edge(y4, b.add_vertex(f"{prefix}.q1"))
    b.add_edge(y4, b.add_vertex(f"{prefix}.q2"))
    return w


def emit_index_gadget(b: GadgetBuilder, j: int, prefix: str) -> int:
    """Port u with forced sum exactly j (given a forced-0 external neighbor).

    u is joined to one forcing unit, which pins u's own label to 0, and to
    j-1 forced-one vertices (the pendant top of a triangle core); together
    they contribute exactly j.
    """
    if j < 2:
        raise GraphError(f"index gadget needs j >= 2, got {j}")
    u = b.add_vertex(f"{prefix}.u{j}")
    b.add_edge(u, emit_forcing_unit(b, f"{prefix}.t"))
    for i in range(1, j):
        z = f"{prefix}.z{i}"
        _a1, _a2, a3 = _triangle(b, [f"{z}.a{k}" for k in (1, 2, 3)])
        top = b.add_vertex(f"{z}.top")
        b.add_edge(a3, top)
        b.add_edge(u, top)
    return u


def emit_vertex_gadget(b: GadgetBuilder, v: int, lf: frozenset[int], s: int, prefix: str) -> None:
    """Constrain an existing vertex v so its neighbor sum lands exactly in lf.

    One forcing unit pins v to 0 and contributes 1; an index gadget per
    excluded value forbids that sum; s pendants supply the adjustable mass.
    The first two pendants share an edge, which forces exactly one of them
    to 1 and caps the reachable sums at s (without it, all-ones pendants
    would overshoot every list).
    """
    if not lf:
        raise GraphError("list must be nonempty")
    if not lf <= set(range(2, s + 1)):
        raise GraphError(f"list {sorted(lf)} not contained in {{2..{s}}}")
    b.add_edge(v, emit_forcing_unit(b, f"{prefix}.t"))
    for j in sorted(set(range(2, s + 1)) - lf):
        b.add_edge(v, emit_index_gadget(b, j, f"{prefix}.i{j}"))
    pendants = [b.add_vertex(f"{prefix}.f{i}") for i in range(1, s + 1)]
    for p in pendants:
        b.add_edge(v, p)
    b.add_edge(pendants[0], pendants[1])


def emit_amplifier_gadget(b: GadgetBuilder, v: int, d: int, prefix: str) -> dict:
    """Attach the weight amplifier to an existing center vertex v.

    A triangle core (p1 p2 p3) forces v = 1 and p3 = 0.  Selectors p4 p5 p6
    hang on v and carry the color encoding; a shared stabilizer pendant r on
    the selectors keeps their sums clear of the pendant pairs.  Each pair
    (a_i, b_i) has a_i adjacent to all three selectors, so whenever the
    selector mass is 0 the pair edge forces a_i + b_i >= 1.
    """
    if d < 1:
        raise GraphError(f"amplifier needs d >= 1, got {d}")
    p = dict(zip((1, 2, 3), _triangle(b, [f"{prefix}.p{i}" for i in (1, 2, 3)])))
    b.add_edge(p[3], v)
    for i in (4, 5, 6):
        p[i] = b.add_vertex(f"{prefix}.p{i}")
        b.add_edge(v, p[i])
    r = b.add_vertex(f"{prefix}.r")
    for i in (4, 5, 6):
        b.add_edge(r, p[i])
    pairs = []
    for i in range(1, d + 1):
        ai = b.add_vertex(f"{prefix}.a{i}")
        bi = b.add_vertex(f"{prefix}.b{i}")
        b.add_edge(ai, bi)
        for sel in (4, 5, 6):
            b.add_edge(ai, p[sel])
        pairs.append((ai, bi))
    return {"p": p, "r": r, "pairs": pairs}


# ---------------------------------------------------------------------------
# Gadget instances and contracts.


@dataclass(frozen=True)
class GadgetInstance:
    graph: Graph
    ports: dict[str, int]
    kind: str  # "A" | "B" | "T" | "I" | "G" | "D"
    params: dict


@dataclass(frozen=True)
class BoundaryCase:
    """One boundary configuration to certify under.

    fixed: port name -> forced label.  extra: port name -> declared total
    label mass of external neighbors.  unknown_sums: ports whose own sums
    depend on undeclared host structure; their edges are not constrained.
    """

    name: str
    fixed: tuple[tuple[str, int], ...] = ()
    extra: tuple[tuple[str, int], ...] = ()
    unknown_sums: tuple[str, ...] = ()
    expect_feasible: bool = True


# One solution as enumerate_solutions hands it out: labels or neighbor sums,
# each a tuple indexed by vertex id.
Values = tuple[int, ...]
SolutionCheck = Callable[[GadgetInstance, BoundaryCase], Callable[[Values, Values], Optional[str]]]
Observe = Callable[[GadgetInstance], Callable[[Values, Values], Hashable]]
Judge = Callable[[GadgetInstance, BoundaryCase, set], Optional[str]]


@dataclass(frozen=True)
class GadgetContract:
    """Decidable form of a gadget's correctness fact.

    A solution check, given the instance and one boundary case, resolves
    the ports and constants it reads and returns the judge of one solution:
    (labels, sums) -> error or None.  An aggregate check (name, observe,
    judge) reads one value from every solution, through the reader
    observe(instance) returns, and judges the set of values seen, so
    certification never holds the solutions themselves.
    """

    boundary_cases: Callable[[GadgetInstance], list[BoundaryCase]]
    solution_checks: tuple[tuple[str, SolutionCheck], ...] = ()
    aggregate_checks: tuple[tuple[str, Observe, Judge], ...] = ()


_BUDGET_CUT = "search budget exhausted; certification incomplete"


@dataclass
class CaseReport:
    name: str
    expect_feasible: bool
    solutions: int
    countermodels: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.countermodels


@dataclass
class CertificationReport:
    kind: str
    params: dict
    internal_size: int
    cases: list[CaseReport] = field(default_factory=list)

    @property
    def certified(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def budget_cut(self) -> bool:
        """True when the budget stopped some case short, so the report decides nothing."""
        return any(_BUDGET_CUT in c.countermodels for c in self.cases)

    def countermodels(self) -> list[str]:
        return [f"{c.name}: {m}" for c in self.cases for m in c.countermodels]

    def to_json_dict(self) -> dict:
        return {**asdict(self), "certified": self.certified,
                "params": {k: sorted(v) if isinstance(v, (set, frozenset)) else v
                           for k, v in self.params.items()}}


# -- contract definitions ----------------------------------------------------


def _a_cases(inst: GadgetInstance) -> list[BoundaryCase]:
    lits = sorted(nm for nm in inst.ports if nm.startswith("lit"))
    cases = []
    for bits in itertools.product((0, 1), repeat=len(lits)):
        cases.append(BoundaryCase(
            name="lit=" + "".join(map(str, bits)),
            fixed=tuple(zip(lits, bits)),
            unknown_sums=tuple(lits),
            expect_feasible=sum(bits) >= 1,
        ))
    return cases


def _b_cases(inst: GadgetInstance) -> list[BoundaryCase]:
    cases = []
    for bx, bn in itertools.product((0, 1), repeat=2):
        cases.append(BoundaryCase(
            name=f"x={bx},!x={bn}",
            fixed=(("x", bx), ("not_x", bn)),
            unknown_sums=("x", "not_x"),
            expect_feasible=not (bx == 1 and bn == 1),
        ))
    return cases


def _t_check_w(inst, case):
    w = inst.ports["w"]

    def check(labels, sums):
        if labels[w] != 1:
            return f"w labeled {labels[w]}, expected forced 1"
        if sums[w] != 1:
            return f"sum at w is {sums[w]}, expected forced 1"
        return None

    return check


def _t_cases(inst: GadgetInstance) -> list[BoundaryCase]:
    return [
        BoundaryCase(name="port=0", fixed=(("v", 0),), unknown_sums=("v",), expect_feasible=True),
        BoundaryCase(name="port=1", fixed=(("v", 1),), unknown_sums=("v",), expect_feasible=False),
    ]


def _i_checks(inst, case):
    u = inst.ports["u"]
    want = inst.params["j"] + dict(case.extra).get("u", 0)

    def check(labels, sums):
        if labels[u] != 0:
            return f"u labeled {labels[u]}, expected forced 0"
        if sums[u] != want:
            return f"sum at u is {sums[u]}, expected exactly {want}"
        return None

    return check


def _i_cases(inst: GadgetInstance) -> list[BoundaryCase]:
    return [
        BoundaryCase(name="external=0", extra=(("u", 0),), expect_feasible=True),
        BoundaryCase(name="external=1", extra=(("u", 1),), expect_feasible=True),
    ]


def _g_check(inst, case):
    v = inst.ports["v"]
    lf = inst.params["lf"]

    def check(labels, sums):
        if labels[v] != 0:
            return f"port labeled {labels[v]}, expected forced 0"
        if sums[v] not in lf:
            return f"sum at port is {sums[v]}, outside the list {sorted(lf)}"
        return None

    return check


def _g_port_sum(inst):
    v = inst.ports["v"]
    return lambda labels, sums: sums[v]


def _g_attainable(inst, case, got):
    lf = set(inst.params["lf"])
    if got != lf:
        return f"port sums attained {sorted(got)}, list is {sorted(lf)}"
    return None


def _g_cases(inst: GadgetInstance) -> list[BoundaryCase]:
    # externals of the port are other gadget ports, all forced to 0 in a host
    return [BoundaryCase(name="externals-forced-0", extra=(("v", 0),), expect_feasible=True)]


def _d_check_forced(inst, case):
    v, p3 = inst.ports["v"], inst.ports["p3"]

    def check(labels, sums):
        if labels[v] != 1:
            return f"center labeled {labels[v]}, expected forced 1"
        if labels[p3] != 0:
            return f"p3 labeled {labels[p3]}, expected forced 0"
        return None

    return check


def _d_check_sum_identity(inst, case):
    v, p4, p5, p6 = (inst.ports[nm] for nm in ("v", "p4", "p5", "p6"))
    ext = dict(case.extra).get("v", 0)

    def check(labels, sums):
        sel = labels[p4] + labels[p5] + labels[p6]
        if sums[v] != ext + sel:
            return f"center sum {sums[v]} != externals {ext} + selectors {sel}"
        return None

    return check


def _d_check_pairs(inst, case):
    p4, p5, p6 = (inst.ports[nm] for nm in ("p4", "p5", "p6"))
    pairs = tuple(inst.params["pairs"])

    def check(labels, sums):
        if labels[p4] + labels[p5] + labels[p6] != 0:
            return None
        for i, (ai, bi) in enumerate(pairs, start=1):
            if labels[ai] + labels[bi] < 1:
                return f"selector mass 0 but pair {i} has weight 0"
        return None

    return check


def _d_cases(inst: GadgetInstance) -> list[BoundaryCase]:
    lo, hi = inst.params.get("ext_range", (0, 4))
    return [
        BoundaryCase(name=f"ext={s}", extra=(("v", s),), expect_feasible=True)
        for s in range(lo, hi + 1)
    ]


_CONTRACTS: dict[str, GadgetContract] = {
    "A": GadgetContract(_a_cases),
    "B": GadgetContract(_b_cases),
    "T": GadgetContract(_t_cases, solution_checks=(("w-forced", _t_check_w),)),
    "I": GadgetContract(_i_cases, solution_checks=(("u-forced-and-sum", _i_checks),)),
    "G": GadgetContract(_g_cases, solution_checks=(("port-sum-in-list", _g_check),),
                        aggregate_checks=(("list-attainable", _g_port_sum, _g_attainable),)),
    "D": GadgetContract(_d_cases, solution_checks=(
        ("center-forced", _d_check_forced),
        ("sum-identity", _d_check_sum_identity),
        ("pairs-forced-when-selectors-zero", _d_check_pairs),
    )),
}


def certify_gadget(instance: GadgetInstance, cap: int = DEFAULT_ENUM_CAP,
                   budget: Optional[SearchBudget] = None) -> CertificationReport:
    """Exhaustively check a gadget's contract under its boundary model.

    Enumerates every binary labeling of the non-fixed vertices per boundary
    case (complete backtracking search, each case under the whole budget)
    and evaluates the contract on each; any countermodel is reported
    verbatim, and a case the budget cut short reports the cut.  The
    solutions are judged one by one as the search reaches them
    (_certify_case), so memory does not grow with their number; once the
    contract reads no more of them, they are only counted.
    """
    contract = _CONTRACTS.get(instance.kind)
    if contract is None:
        raise GraphError(f"no contract registered for gadget kind {instance.kind!r}")
    budget = budget or SearchBudget()
    g = instance.graph
    cases = contract.boundary_cases(instance)
    internal = g.n - (len(cases[0].fixed) if cases else 0)
    if internal > cap:
        raise GraphError(
            f"gadget has {internal} internal vertices, above the enumeration cap {cap}; "
            f"raise cap= to certify anyway")
    report = CertificationReport(instance.kind, dict(instance.params), internal)
    report.cases = [_certify_case(instance, contract, case, budget) for case in cases]
    return report


def _certify_case(instance: GadgetInstance, contract: GadgetContract, case: BoundaryCase,
                  budget: SearchBudget) -> CaseReport:
    """One boundary case: enumerate its solutions and judge each as it arrives.

    Each solution is a (labels, sums) pair of tuples indexed by vertex id.
    The checks are bound to the case before the search starts, so the
    ports and constants they read are resolved once, not per solution.
    Kept per case: the solution count, the first solution (the one shown
    when an infeasible case has solutions), each solution check's first
    failure (a check that failed is not run again) and each aggregate
    check's set of observed values.  Once no solution check is live and
    the contract has no aggregate check (contracts A and B from their
    first solution on), nothing reads a solution, so the search goes on
    only counting them (enumerate_solutions' on_count); the count and
    the node counts come out as when every solution is handed out.
    """
    g = instance.graph
    fixed = {instance.ports[nm]: val for nm, val in case.fixed}
    extra = {instance.ports[nm]: val for nm, val in case.extra}
    unchecked = frozenset(instance.ports[nm] for nm in case.unknown_sums)
    domains = tuple((fixed[v],) if v in fixed else (0, 1) for v in g.vertices())
    problem = SearchProblem(g, domains,
                            extra_sum=tuple(sorted(extra.items())) or None,
                            unchecked=unchecked)
    first = None
    failed: dict[str, str] = {}
    live = tuple((name, bind(instance, case)) for name, bind in contract.solution_checks)
    observed = [(observe(instance), set()) for _name, observe, _judge in contract.aggregate_checks]
    count = 0

    def on_solution(labels, sums):
        nonlocal first, count, live
        if not count:
            first = labels
        count += 1
        for name, check in live:
            err = check(labels, sums)
            if err:
                failed[name] = f"{name}: {err} in " + _render_labels(instance, labels)
                # the loop goes on over the tuple it started with
                live = tuple(entry for entry in live if entry[0] != name)
        for observe, seen in observed:
            seen.add(observe(labels, sums))
        # once nothing reads a solution, the rest are only counted
        return not live and not observed

    def on_count(m):
        nonlocal count
        count += m

    outcome, _nodes = enumerate_solutions(problem, budget, on_solution, on_count=on_count)
    case_rep = CaseReport(case.name, case.expect_feasible, count)
    if outcome != "exhausted":
        case_rep.countermodels.append(_BUDGET_CUT)
        return case_rep
    if case.expect_feasible and not count:
        case_rep.countermodels.append("expected a feasible labeling, none exists")
    if not case.expect_feasible and count:
        case_rep.countermodels.append(
            "expected infeasible, found labeling " + _render_labels(instance, first))
    case_rep.countermodels += [failed[name] for name, _fn in contract.solution_checks
                               if name in failed]
    for (name, _observe, judge), (_o, seen) in zip(contract.aggregate_checks, observed):
        err = judge(instance, case, seen)
        if err:
            case_rep.countermodels.append(f"{name}: {err}")
    return case_rep


def _render_labels(instance: GadgetInstance, labels: Values) -> str:
    g = instance.graph
    ones = [g.name_of(v) for v, x in enumerate(labels) if x == 1]
    return "{1-labeled: " + ", ".join(ones) + "}"


# ---------------------------------------------------------------------------
# Standalone builders (ports included as stub vertices; certification is
# left to certify_gadget).


def build_clause_gadget(literals: Sequence[str] = ("a", "b", "c")) -> GadgetInstance:
    """A(c)-style clause gadget over up to three (possibly repeated) literals."""
    if not (1 <= len(literals) <= 3):
        raise GraphError("a clause carries 1..3 literals")
    b = GadgetBuilder()
    distinct = list(dict.fromkeys(literals))
    port_ids = {f"lit{i}": b.add_vertex(nm) for i, nm in enumerate(distinct)}
    emit_clause_gadget(b, list(port_ids.values()), "c")
    return GadgetInstance(b.build(), port_ids, "A", {"num_literals": len(distinct)})


def build_variable_gadget() -> GadgetInstance:
    """B(x)-style variable gadget with ports for the literal and its negation."""
    b = GadgetBuilder()
    ids = emit_variable_gadget(b, "x")
    return GadgetInstance(b.build(), {"x": ids["x"], "not_x": ids["not_x"]}, "B", {})


def build_forcing_gadget() -> GadgetInstance:
    """T(w)-style unit: forces its port to 0, its w to 1, and w's sum to 1."""
    b = GadgetBuilder()
    v = b.add_vertex("v")
    w = emit_forcing_unit(b, "t")
    b.add_edge(v, w)
    return GadgetInstance(b.build(), {"v": v, "w": w}, "T", {})


def build_index_gadget(j: int) -> GadgetInstance:
    """I(j)-style unit: port u with sum pinned to j plus its external mass."""
    b = GadgetBuilder()
    u = emit_index_gadget(b, j, "i")
    return GadgetInstance(b.build(), {"u": u}, "I", {"j": j})


def build_vertex_gadget(lf: Iterable[int], s: int) -> GadgetInstance:
    """G(v, L, s)-style unit: port whose neighbor sum is forced into the list."""
    lf = frozenset(lf)
    b = GadgetBuilder()
    v = b.add_vertex("v")
    emit_vertex_gadget(b, v, lf, s, "g")
    return GadgetInstance(b.build(), {"v": v}, "G", {"lf": lf, "s": s})


def build_amplifier_gadget(d: int) -> GadgetInstance:
    """D(v)-style amplifier around a center port.

    With the selector mass at 0 every pendant pair is forced to carry
    weight, which is what blows the weight of any labeling past d.
    """
    b = GadgetBuilder()
    v = b.add_vertex("v")
    ids = emit_amplifier_gadget(b, v, d, "d")
    ports = {"v": v, "r": ids["r"]}
    ports.update({f"p{i}": ids["p"][i] for i in range(1, 7)})
    return GadgetInstance(b.build(), ports, "D", {"d": d, "pairs": ids["pairs"]})


def corrupted_variable_gadget() -> GadgetInstance:
    """A deliberately broken variable gadget (one cycle edge dropped).

    Negative control for the certification machinery: with the y5/y3 edge
    missing, the both-ports-1 boundary becomes satisfiable, so certification
    must emit a countermodel.
    """
    b = GadgetBuilder()
    ids = emit_variable_gadget(b, "x")
    b.edges.remove((ids["y5"], ids["y3"]))
    return GadgetInstance(b.build(), {"x": ids["x"], "not_x": ids["not_x"]}, "B", {"corrupted": True})


def gadget_certification_suite(budget: Optional[SearchBudget] = None
                               ) -> list[tuple[str, CertificationReport]]:
    """The full desk-scale contract suite, one report per shipped gadget.

    Every boundary case of every gadget runs under the whole budget.
    """
    gadgets = [
        ("A(c) three literals", build_clause_gadget()),
        ("A(c) collapsed literal", build_clause_gadget(("x", "x", "x"))),
        ("B(x)", build_variable_gadget()),
        ("T(w)", build_forcing_gadget()),
        *((f"I({j})", build_index_gadget(j)) for j in (2, 3, 4)),
        ("G(v,{2},3)", build_vertex_gadget({2}, 3)),
        *((f"D(v) d={d}", build_amplifier_gadget(d)) for d in (1, 2, 3)),
    ]
    return [(name, certify_gadget(inst, cap=40, budget=budget)) for name, inst in gadgets]
