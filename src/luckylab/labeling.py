"""Labeling values and the pure verification predicates over them.

Everything here is a total function over immutable inputs; nothing mutates
a graph or a labeling, so concurrent use needs no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .graph import Graph


class LabelingError(ValueError):
    """A labeling or list assignment violates its declared constraints."""


@dataclass(frozen=True)
class Labeling:
    """Vertex -> nonnegative integer label."""

    values: dict[int, int]

    def __getitem__(self, v: int) -> int:
        return self.values[v]

    def __contains__(self, v: int) -> bool:
        return v in self.values

    def __len__(self) -> int:
        return len(self.values)

    def get(self, v: int, default=None):
        return self.values.get(v, default)

    def max_label(self) -> int:
        return max(self.values.values(), default=0)


@dataclass(frozen=True)
class ListAssignment:
    """Vertex -> nonempty finite set of allowed positive labels.

    A value below 1 raises LabelingError on construction; emptiness and
    coverage of a graph are checked by validate_on.
    """

    lists: dict[int, frozenset[int]]

    def __post_init__(self):
        for v, s in self.lists.items():
            least = min(s, default=1)
            if least < 1:
                raise LabelingError(f"list value {least} at vertex {v} is not positive")

    def __getitem__(self, v: int) -> frozenset[int]:
        return self.lists[v]

    def __len__(self) -> int:
        return len(self.lists)

    def max_size(self) -> int:
        return max((len(s) for s in self.lists.values()), default=0)

    def validate_on(self, g: Graph, base: int = 0) -> None:
        """Raise LabelingError unless the lists cover exactly g's vertices, none empty.

        The message names vertex v as v + base (base 1 gives file ids).
        """
        for v, s in self.lists.items():
            if not (0 <= v < g.n):
                raise LabelingError(f"list attached to unknown vertex {v + base}")
            if not s:
                raise LabelingError(f"empty list at vertex {v + base}")
        missing = [v + base for v in g.vertices() if v not in self.lists]
        if missing:
            raise LabelingError(f"list assignment not total; missing vertices {missing}")


def make_lists(lists: Mapping[int, Iterable[int]]) -> ListAssignment:
    return ListAssignment({v: frozenset(s) for v, s in lists.items()})


@dataclass(frozen=True)
class Violation:
    """An edge whose endpoints received equal neighbor sums."""

    edge: tuple[int, int]
    sum_u: int
    sum_v: int


def all_neighbor_sums(g: Graph, lab: Labeling, base: int = 0) -> list[int]:
    """Sum of labels over N(v) for every vertex v; 0 for an isolated vertex.

    A labeling that is not total raises, naming its least unlabeled vertex
    v as v + base (base 1 gives file ids).
    """
    vals = list(map(lab.values.get, g.vertices()))
    if None in vals:
        raise LabelingError(f"labeling is not total: vertex {vals.index(None) + base} has no label")
    return [sum(map(vals.__getitem__, nbrs)) for nbrs in g.adjacency()]


def equal_sum_edges(g: Graph, sums: list[int]) -> list[Violation]:
    """The edges whose endpoints have equal sums, in edge order."""
    return [Violation((u, v), sums[u], sums[v]) for u, v in g.edges if sums[u] == sums[v]]


# each labeling mode's label range: (least, greatest or None)
_MODES = {"any": (0, None), "positive": (1, None), "binary": (0, 1)}


def labels_outside_mode(g: Graph, lab: Labeling, mode: str) -> list[int]:
    """The labeled vertices, ascending, whose label lies outside the mode's range.

    mode selects the label constraint: "any" (nonnegative integers),
    "positive" (the general additive problem, labels >= 1) or "binary"
    (labels in {0, 1}).  An unlabeled vertex is not listed; totality is
    all_neighbor_sums' check.
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    least, greatest = _MODES[mode]
    n = g.n
    return sorted(v for v, x in lab.values.items()
                  if 0 <= v < n and (x < least or (greatest is not None and x > greatest)))


def _sums_and_violations(g: Graph, lab: Labeling, mode: str) -> tuple[list[int], list[Violation]]:
    """The neighbor sums and the edges with equal endpoint sums.

    A labeling that is not total, or a label outside the mode's range, raises.
    """
    sums = all_neighbor_sums(g, lab)
    outside = labels_outside_mode(g, lab, mode)
    if outside:
        v = outside[0]
        raise LabelingError(f"label {lab[v]} at vertex {v} is outside mode {mode!r}")
    return sums, equal_sum_edges(g, sums)


def verify_additive(g: Graph, lab: Labeling, mode: str = "any") -> list[Violation]:
    """All edges with equal endpoint sums; empty list iff lab is additive.

    A labeling that is not total, or a label outside the mode's range (see
    labels_outside_mode), raises.
    """
    return _sums_and_violations(g, lab, mode)[1]


def verify_from_lists(lab: Labeling, lists: ListAssignment) -> bool:
    """True iff every vertex's label belongs to its list."""
    if set(lab.values) != set(lists.lists):
        return False
    return all(lab[v] in lists[v] for v in lists.lists)


def weight(lab: Labeling) -> int:
    """Total label mass, the objective of the binary minimum-weight problem."""
    return sum(lab.values.values())


def induced_coloring(g: Graph, lab: Labeling) -> dict[int, int]:
    """The coloring v -> neighbor sum of v; proper whenever lab is additive.

    Rejects a non-additive labeling, since the induced map would not be a
    proper coloring.
    """
    sums, bad = _sums_and_violations(g, lab, "any")
    if bad:
        raise LabelingError(f"labeling is not additive; {len(bad)} violated edge(s), first {bad[0]}")
    return dict(enumerate(sums))


def verify_ptds(g: Graph, dom: Iterable[int]) -> bool:
    """Proper total dominating set check.

    True iff every vertex has a neighbor in dom and every edge joins
    vertices with different counts of neighbors in dom.
    """
    ds = set(dom)
    for v in ds:
        if not (0 <= v < g.n):
            raise LabelingError(f"dominating-set member {v} is not a vertex")
    counts = [sum(1 for u in g.neighbors(v) if u in ds) for v in g.vertices()]
    if any(c == 0 for c in counts):
        return False
    return all(counts[u] != counts[v] for u, v in g.edges)
