"""Whole-graph reductions assembled from the certified gadget emitters."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ..formula import Cnf3Formula
from ..graph import Graph, GraphError, is_triangle_free, regularity
from ..labeling import ListAssignment
from .gadgets import (
    GadgetBuilder,
    emit_amplifier_gadget,
    emit_clause_gadget,
    emit_variable_gadget,
    emit_vertex_gadget,
)


@dataclass(frozen=True)
class ReductionOutput:
    """A reduction graph plus the map from source objects to their vertices."""

    graph: Graph
    provenance: dict[str, tuple[int, ...]]
    params: dict

    def covers_all_vertices(self) -> bool:
        covered = set()
        for ids in self.provenance.values():
            covered.update(ids)
        return covered == set(range(self.graph.n))

    @cached_property
    def _ids(self) -> dict[str, int]:
        return {name: v for v, name in (self.graph.names or {}).items()}

    def id_of(self, name: str) -> int:
        return self._ids[name]


def _span(b: GadgetBuilder, start: int) -> tuple[int, ...]:
    return tuple(range(start, len(b)))


def _hub_and_unit(g: Graph, emit_unit: Callable[[GadgetBuilder, int, int], None]
                  ) -> tuple[Graph, dict[str, tuple[int, ...]], tuple[int, ...]]:
    """One hub v{v} per source vertex, followed by its unit; source edges join the hubs.

    emit_unit(b, v, hub) emits vertex v's unit.  Returns the graph, the
    provenance span of each v{v} (hub and unit) and the hub ids.
    """
    b = GadgetBuilder()
    provenance: dict[str, tuple[int, ...]] = {}
    hubs = []
    for v in g.vertices():
        start = len(b)
        hubs.append(b.add_vertex(f"v{v}"))
        emit_unit(b, v, hubs[v])
        provenance[f"v{v}"] = _span(b, start)
    for u, v in g.edges:
        b.add_edge(hubs[u], hubs[v])
    return b.build(), provenance, tuple(hubs)


def build_sat_reduction(phi: Cnf3Formula) -> ReductionOutput:
    """One variable gadget per variable, one clause gadget per clause.

    The clause cycle's w1 is joined to the port of each literal the clause
    contains.  The output is triangle-free, and that is checked here
    rather than assumed.
    """
    b = GadgetBuilder()
    provenance: dict[str, tuple[int, ...]] = {}
    lit_port: dict[int, int] = {}
    for i in range(1, phi.num_vars + 1):
        start = len(b)
        ids = emit_variable_gadget(b, f"x{i}")
        lit_port[i] = ids["x"]
        lit_port[-i] = ids["not_x"]
        provenance[f"x{i}"] = _span(b, start)
    for ci, clause in enumerate(phi.clauses):
        start = len(b)
        emit_clause_gadget(b, [lit_port[lit] for lit in clause], f"c{ci}")
        provenance[f"c{ci}"] = _span(b, start)
    g = b.build()
    if not is_triangle_free(g):
        raise GraphError("sat reduction produced a triangle; construction is broken")
    return ReductionOutput(g, provenance, {"num_vars": phi.num_vars,
                                           "num_clauses": len(phi.clauses)})


def build_inapprox_reduction(g: Graph, d: int) -> ReductionOutput:
    """One amplifier per vertex; centers inherit the source graph's adjacency.

    The source graph must be regular.  Every center is labeled 1, so a
    center's neighbor sum is deg(v) plus its selector mass p4 + p5 + p6;
    only a common degree leaves the selector masses alone to tell adjacent
    centers apart, which is what makes them encode a proper 3-coloring.
    With unequal degrees a non-3-colorable graph can reach weight 5n (the
    5-wheel does), so an irregular source graph raises GraphError.

    The inapproximability argument takes d = 5 * k^(ceil(3/eps)+1), which is
    astronomically large for any interesting eps; here d is a parameter, and
    check_threshold_inapprox needs only d >= 5n+1 to keep the two weight
    regimes apart.
    """
    if g.n < 1:
        raise GraphError("source graph must be nonempty")
    if d < 1:
        raise GraphError(f"d must be positive, got {d}")
    if regularity(g) is None:
        raise GraphError(f"source graph must be regular, got degrees {sorted(set(g.degrees()))}")
    pair_vertices: list[int] = []

    def amplifier(b: GadgetBuilder, v: int, center: int) -> None:
        for ai, bi in emit_amplifier_gadget(b, center, d, f"v{v}")["pairs"]:
            pair_vertices.extend((ai, bi))

    out, provenance, centers = _hub_and_unit(g, amplifier)
    return ReductionOutput(out, provenance, {"d": d, "source_n": g.n, "centers": centers,
                                             "pair_vertices": tuple(pair_vertices)})


def normalize_lists(lists: ListAssignment) -> tuple[ListAssignment, dict[int, int]]:
    """Relabel list values onto {2..|W|+1} by the order-preserving bijection.

    Only bijectivity is required for correctness; order preservation makes
    the output deterministic.
    """
    if not lists.lists:
        raise GraphError("list assignment is empty")
    universe = sorted({x for s in lists.lists.values() for x in s})
    f = {w: i + 2 for i, w in enumerate(universe)}
    lf = ListAssignment({v: frozenset(f[x] for x in s) for v, s in lists.lists.items()})
    return lf, f


def build_listcoloring_reduction(g: Graph, lists: ListAssignment) -> ReductionOutput:
    """One vertex gadget per source vertex; ports inherit the source adjacency.

    The resulting graph has a binary additive labeling exactly when the
    source graph is colorable from the lists.
    """
    if g.n < 1:
        raise GraphError("source graph must be nonempty")
    lists.validate_on(g)
    lf, f = normalize_lists(lists)
    s = len(f) + 1
    out, provenance, ports = _hub_and_unit(
        g, lambda b, v, port: emit_vertex_gadget(b, port, lf[v], s, f"v{v}"))
    return ReductionOutput(out, provenance, {
        "s": s, "f": f, "lf": {v: tuple(sorted(lf[v])) for v in g.vertices()}, "ports": ports})
