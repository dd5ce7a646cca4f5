"""Per-layer instrumentation applied from outside luckylab.

The benchmark replaces selected module attributes with wrappers, so calls
into a layer's public function, from the benchmark or from another luckylab
module, pass through one.  Nothing under src/ changes.

Solver entry wrappers always run: they capture each call's status, node
count and result so the benchmark can total `nodes_explored` and recheck
certificates.  Every other wrapper is a pass-through unless tracing is on.
With tracing on, each wrapped call becomes an in-memory span, and every
solver call is replayed after its operation under a one-node budget to
time the engine's setup.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from luckylab import bounds, fileio, oracles, solver
from luckylab.constructions import families, gadgets, reductions

REPLAY_MS_CAP = 3_600_000.0

SOLVER_ENTRIES = ("exists_binary", "solve_eta", "solve_eta1", "solve_sigma", "min_ptds",
                  "refute_lists", "complete_partial", "enumerate_solutions")

# (module, attribute, layer metric prefix).  A name is patched in the module
# that calls it: bounds.py and oracles.py import solver functions by name.
_SOLVER_PATCHES = (
    (oracles, "exists_binary", "solver.exists_binary"),
    (oracles, "complete_partial", "solver.complete_partial"),
    (bounds, "solve_eta", "solver.solve_eta"),
    (bounds, "solve_eta1", "solver.solve_eta1"),
    (bounds, "solve_sigma", "solver.solve_sigma"),
    (solver, "min_ptds", "solver.min_ptds"),
    (solver, "refute_lists", "solver.refute_lists"),
    (gadgets, "enumerate_solutions", "solver.enumerate_solutions"),
)
_LAYER_PATCHES = (
    (bounds, "bounds_report", "bounds.bounds_report"),
    (bounds, "max_clique", "graph.max_clique"),
    (bounds, "chromatic_number", "graph.chromatic_number"),
    (oracles, "check_equivalence_sat", "oracles.check_equivalence_sat"),
    (oracles, "sat_brute", "oracles.sat_brute"),
    (oracles, "labeling_from_assignment", "oracles.labeling_from_assignment"),
    (oracles, "assignment_from_labeling", "oracles.assignment_from_labeling"),
    (oracles, "build_sat_reduction", "constructions.build_sat_reduction"),
    (reductions, "build_sat_reduction", "constructions.build_sat_reduction"),
    (gadgets, "certify_gadget", "constructions.certify_gadget"),
    (families, "counterexample_graph", "constructions.counterexample_graph"),
    (fileio, "graph_to_text", "fileio.graph_to_text"),
    (fileio, "graph_from_text", "fileio.graph_from_text"),
    (fileio, "labeling_to_text", "fileio.labeling_to_text"),
    (oracles, "verify_additive", "labeling.verify_additive"),
    (solver, "verify_additive", "labeling.verify_additive"),
)


def _span_info(name: str, result) -> dict:
    """Work counts recorded on a span, read from the call's return value."""
    if name == "constructions.build_sat_reduction":
        return {"vertices": result.graph.n}
    if name == "fileio.graph_to_text":
        return {"bytes": len(result.encode())}
    if name == "constructions.certify_gadget":
        return {"cases": len(result.cases), "solutions": sum(c.solutions for c in result.cases)}
    return {}


def solver_outcome(entry: str, result) -> tuple[str, int, bool]:
    """(status, nodes_explored, decided) of one solver entry's return value."""
    if entry == "refute_lists":
        return result.status, result.report.nodes_explored, result.status in ("refuted", "beaten")
    if entry == "enumerate_solutions":
        outcome, nodes = result
        return outcome, nodes, outcome == "exhausted"
    return result.status, result.nodes_explored, result.status in ("found", "infeasible")


@dataclass
class SolverCall:
    entry: str
    args: tuple
    kwargs: dict
    elapsed_s: float
    result: Any = None
    status: Optional[str] = None
    nodes: Optional[int] = None
    decided: bool = False
    error: Optional[str] = None
    setup_s: Optional[float] = None

    @property
    def graph(self):
        """The graph the call searched: its first argument, or that problem's graph."""
        return getattr(self.args[0], "graph", self.args[0])


@dataclass
class Span:
    span_id: int
    parent_id: Optional[int]
    op_id: str
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Instrument:
    """Owns the wrappers, the spans of a traced pass and the calls of the current op."""

    def __init__(self):
        self.tracing = False
        self.op_id: Optional[str] = None
        self.spans: list[Span] = []
        self.calls: list[SolverCall] = []
        self.replay_s = 0.0
        self._stack: list[Span] = []
        self._pending: list[tuple[Any, inspect.Signature, SolverCall]] = []

    # -- wrappers ---------------------------------------------------------

    def install(self) -> None:
        """Replace the patched module attributes with wrappers, for the process's life."""
        for module, attr, name in _SOLVER_PATCHES:
            setattr(module, attr, self._solver_wrapper(getattr(module, attr), name))
        for module, attr, name in _LAYER_PATCHES:
            setattr(module, attr, self._layer_wrapper(getattr(module, attr), name))

    def _layer_wrapper(self, fn, name):
        inst = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not inst.tracing or inst.op_id is None:
                return fn(*args, **kwargs)
            span = inst._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                inst._close(span, {"error": type(exc).__name__})
                raise
            inst._close(span, _span_info(name, result))
            return result

        return wrapper

    def _solver_wrapper(self, fn, name):
        inst = self
        entry = name.split(".", 1)[1]
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inst.op_id is None:
                return fn(*args, **kwargs)
            span = inst._open(name) if inst.tracing else None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                call = SolverCall(entry, args, kwargs, time.perf_counter() - t0,
                                  error=type(exc).__name__)
                inst._record(call, span, signature, fn, {"error": call.error})
                raise
            call = SolverCall(entry, args, kwargs, time.perf_counter() - t0, result)
            call.status, call.nodes, call.decided = solver_outcome(entry, result)
            inst._record(call, span, signature, fn, {"nodes": call.nodes, "status": call.status})
            return result

        return wrapper

    def _record(self, call: SolverCall, span, signature, fn, info: dict) -> None:
        self.calls.append(call)
        if span is not None:
            self._close(span, info)
            self._pending.append((fn, signature, call))

    def _replay(self, fn, signature, call: SolverCall) -> float:
        """Engine setup time: the same call under a one-node budget, less one node.

        Runs after its operation, outside every span, so its cost shows only
        in the trace overhead.
        """
        bound = signature.bind(*call.args, **call.kwargs)
        bound.arguments["budget"] = solver.SearchBudget(max_nodes=1, max_ms=REPLAY_MS_CAP)
        if "on_solution" in bound.arguments:
            bound.arguments["on_solution"] = lambda labels, sums: None
        t0 = time.perf_counter()
        fn(*bound.args, **bound.kwargs)
        replay = time.perf_counter() - t0
        self.replay_s += replay
        per_node = 0.0
        if call.nodes and call.nodes > 1:
            per_node = max(call.elapsed_s - replay, 0.0) / (call.nodes - 1)
        return max(replay - per_node, 0.0)

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, self.op_id, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span, info: dict) -> None:
        span.end = time.perf_counter()
        span.info = info
        self._stack.pop()

    def begin_op(self, op_id: str) -> None:
        self.op_id = op_id
        self.calls = []
        if self.tracing:
            self._open("op")

    def end_op(self) -> list[SolverCall]:
        """Close the op and replay its solver calls; returns the calls it made."""
        if self.tracing:
            self._close(self._stack[-1], {})
        self.op_id = None
        for fn, signature, call in self._pending:
            call.setup_s = self._replay(fn, signature, call)
        self._pending = []
        return self.calls


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    own = {s.span_id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent_id is not None:
            own[s.parent_id] -= s.end - s.start
    return own


def per_layer_metrics(inst: Instrument, records, untraced_wall: float,
                      traced_wall: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    m: dict[str, tuple[float, str]] = {}
    busy: dict[str, float] = {}
    count: dict[str, int] = {}
    work: dict[str, float] = {}
    for s in inst.spans:
        busy[s.name] = busy.get(s.name, 0.0) + (s.end - s.start)
        count[s.name] = count.get(s.name, 0) + 1
        for key, value in s.info.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                work[f"{s.name}.{key}"] = work.get(f"{s.name}.{key}", 0) + value
    ops_s = busy.get("op", 0.0)
    calls = [c for r in records for c in r.calls]
    ok_ops = [r for r in records if r.status == "ok"]

    solver_s = 0.0
    for entry in SOLVER_ENTRIES:
        mine = [c for c in calls if c.entry == entry]
        returned = [c for c in mine if c.nodes is not None]  # calls that raised report no nodes
        s = sum(c.elapsed_s for c in mine)
        nodes = sum(c.nodes for c in returned)
        search = sum(max(c.elapsed_s - c.setup_s, 0.0) for c in returned)
        solver_s += s
        key = f"solver.{entry}"
        m[f"{key}.s"] = (s, "s")
        m[f"{key}.calls"] = (len(mine), "count")
        m[f"{key}.nodes"] = (nodes, "count")
        m[f"{key}.us_per_node"] = (search / nodes * 1e6 if nodes else 0.0, "us")
        m[f"{key}.decided_share"] = (sum(c.decided for c in mine) / len(mine) if mine else 0.0,
                                     "share")
    setup_s = sum(c.setup_s or 0.0 for c in calls)
    ok_setup = sum(c.setup_s or 0.0 for r in ok_ops for c in r.calls)
    ok_time = sum(r.seconds for r in ok_ops)
    m["solver.s"] = (solver_s, "s")
    m["solver.share"] = (solver_s / ops_s if ops_s else 0.0, "share")
    m["solver.setup.s"] = (setup_s, "s")
    m["solver.setup.share"] = (setup_s / ops_s if ops_s else 0.0, "share")
    m["solver.setup.ok_share"] = (ok_setup / ok_time if ok_time else 0.0, "share")
    m["solver.complete_partial.errors.RecursionError"] = (
        sum(1 for c in calls if c.entry == "complete_partial" and c.error == "RecursionError"),
        "count")
    m["solver.errors"] = (sum(1 for c in calls if c.error), "count")

    for name, unit_counts in (
        ("constructions.build_sat_reduction", ("vertices",)),
        ("constructions.certify_gadget", ("cases", "solutions")),
        ("constructions.counterexample_graph", ()),
        ("fileio.graph_to_text", ()),
        ("fileio.graph_from_text", ()),
        ("fileio.labeling_to_text", ()),
        ("oracles.check_equivalence_sat", ()),
        ("oracles.sat_brute", ()),
        ("oracles.labeling_from_assignment", ()),
        ("oracles.assignment_from_labeling", ()),
        ("graph.max_clique", ()),
        ("graph.chromatic_number", ()),
        ("bounds.bounds_report", ()),
        ("labeling.verify_additive", ()),
    ):
        m[f"{name}.s"] = (busy.get(name, 0.0), "s")
        for key in unit_counts:
            m[f"{name}.{key}"] = (work.get(f"{name}.{key}", 0), "count")
    m["fileio.bytes"] = (work.get("fileio.graph_to_text.bytes", 0), "bytes")
    m["graph.max_clique.calls"] = (count.get("graph.max_clique", 0), "count")
    m["labeling.verify_additive.calls"] = (count.get("labeling.verify_additive", 0), "count")

    own = self_times(inst.spans)
    m["bounds.self.s"] = (sum(own[s.span_id] for s in inst.spans
                              if s.name == "bounds.bounds_report"), "s")
    m["ops.s"] = (ops_s, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.overhead_share"] = ((traced_wall - untraced_wall) / untraced_wall, "share")
    m["trace.replay_s"] = (inst.replay_s, "s")
    m["trace.spans"] = (len(inst.spans), "count")
    return m
