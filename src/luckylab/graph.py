"""Immutable undirected simple graphs and the exact graph parameters the solvers need.

Vertices are dense integer ids 0..n-1; optional display names are metadata
only and never identity.  Adjacency is exposed as sorted tuples so every
traversal in the package is reproducible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional, Sequence

if TYPE_CHECKING:
    from .solver import SearchBudget


class GraphError(ValueError):
    """A construction request violates the simple-graph invariants."""


class BudgetExceeded(Exception):
    """A search ran out of its node or millisecond budget."""


def _node_counter(budget: Optional[SearchBudget]) -> Callable[[], None]:
    """A function to call once per search node; it raises BudgetExceeded past the caps.

    Like the solver engine, it reads the clock only every 2,048 nodes.  No
    budget means no cap.
    """
    if budget is None:
        return lambda: None
    max_nodes = budget.max_nodes
    deadline = time.monotonic() + budget.max_ms / 1000.0
    nodes = 0

    def count() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes or (nodes % 2048 == 0 and time.monotonic() >= deadline):
            raise BudgetExceeded

    return count


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertex ids 0..n-1.

    Each edge is stored once as (u, v) with u < v, in sorted order.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    names: Optional[dict[int, str]] = None
    _adj: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # edges arrive sorted with u < v (build_graph makes every Graph), so
        # each vertex's smaller neighbors come first, in order, then its
        # larger ones: appending in edge order leaves every list sorted
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        object.__setattr__(self, "_adj", tuple(map(tuple, nbrs)))

    @property
    def m(self) -> int:
        return len(self.edges)

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(b) for b in self._adj]

    def max_degree(self) -> int:
        return max((len(b) for b in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u]

    def name_of(self, v: int) -> str:
        if self.names and v in self.names:
            return self.names[v]
        return str(v)


def build_graph(
    n: int,
    edge_list: Iterable[tuple[int, int]],
    names: Optional[Mapping[int, str]] = None,
) -> Graph:
    """Normalize an edge list into a Graph.

    Duplicate pairs (in either orientation) collapse; loops and
    out-of-range endpoints are rejected with the first offending pair in
    input order, as it was given.  edge_list is read once, so it may be a
    generator.
    """
    if n < 0:
        raise GraphError(f"vertex count must be nonnegative, got {n}")
    pairs: list[tuple[int, int]] = []
    for u, v in edge_list:
        if u == v:
            raise GraphError(f"loop edge ({u}, {v}) not allowed in a simple graph")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        pairs.append((u, v) if u < v else (v, u))
    if names:
        for v in names:
            if not (0 <= v < n):
                raise GraphError(f"name attached to unknown vertex {v}")
    return _checked_graph(n, pairs, names)


def _checked_graph(n: int, pairs: list[tuple[int, int]],
                   names: Optional[Mapping[int, str]]) -> Graph:
    """The Graph of pairs already checked: each (u, v) with 0 <= u < v < n, names on 0..n-1.

    build_graph and the graph file reader check their input, each with its
    own messages, and leave the rest to this.  pairs is sorted in place.
    """
    # sorted, a repeated pair sits next to its first copy; the dict keeps
    # one of each in order.  Sorting a list already in order is linear.
    pairs.sort()
    return Graph(n=n, edges=tuple(dict.fromkeys(pairs)), names=dict(names) if names else None)


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent.

    A vertex of degree at most 1 lies in no triangle, so it gets the empty
    set instead of a set of its own: in a SAT reduction those are the
    pendants, 3,430 of the 11,839 vertices the benchmark's reduction_scale
    workload builds in a pass.
    """
    none: frozenset[int] = frozenset()
    sets = [set(b) if len(b) > 1 else none for b in g.adjacency()]
    return all(sets[u].isdisjoint(sets[v]) for u, v in g.edges)


def connected_components(g: Graph) -> list[list[int]]:
    """Components as sorted vertex lists, ordered by smallest member."""
    seen = [False] * g.n
    comps: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        stack, comp = [s], []
        seen[s] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in g.neighbors(v):
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(sorted(comp))
    return comps


def max_clique(g: Graph, budget: Optional[SearchBudget] = None) -> tuple[int, list[int]]:
    """Exact maximum clique via branch and bound on bitset candidate sets.

    Exponential worst case; intended for n up to ~50.  Returns the clique
    number and a sorted witness clique.  Each branch-and-bound call counts
    as a node of `budget`; running out raises BudgetExceeded.  It recurses,
    but each call adds a vertex to the clique, so the depth is at most the
    clique number plus one, whatever n is.
    """
    if g.n < 1:
        raise GraphError("max_clique requires n >= 1")
    n = g.n
    adjb = [0] * n
    for u, v in g.edges:
        adjb[u] |= 1 << v
        adjb[v] |= 1 << u

    best_size = 0
    best_set = 0
    count_node = _node_counter(budget)

    def expand(r: int, r_size: int, p: int):
        nonlocal best_size, best_set
        count_node()
        if p == 0:
            if r_size > best_size:
                best_size = r_size
                best_set = r
            return
        if r_size + bin(p).count("1") <= best_size:
            return
        # pivot: candidate with most candidate-neighbors, ties by lowest id
        pivot, pivot_deg = -1, -1
        q = p
        while q:
            v = (q & -q).bit_length() - 1
            q &= q - 1
            d = bin(adjb[v] & p).count("1")
            if d > pivot_deg:
                pivot, pivot_deg = v, d
        ext = p & ~adjb[pivot]
        while ext:
            v = (ext & -ext).bit_length() - 1
            ext &= ext - 1
            expand(r | (1 << v), r_size + 1, p & adjb[v])
            p &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    witness = [v for v in range(n) if best_set >> v & 1]
    return best_size, witness


def chromatic_number(g: Graph, budget: Optional[SearchBudget] = None) -> tuple[int, dict[int, int]]:
    """Exact chromatic number with a witness coloring (colors 1..chi).

    Tries k = 1, 2, ... and proves each failing k infeasible by exhaustive
    backtracking.  Intended for n up to ~20.  Every placement, over all k,
    counts as a node of `budget`; running out raises BudgetExceeded.  The
    backtracking runs on an explicit stack, so its depth of n is no limit.
    """
    if g.n < 1:
        raise GraphError("chromatic_number requires n >= 1")
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    adj = g.adjacency()
    count_node = _node_counter(budget)

    for k in range(1, n + 1):
        color = [0] * n  # 0 = unassigned, colors are 1..k
        # a depth-first search on an explicit stack, so that no graph is too
        # large for the interpreter's: forbid[i] holds the colors of order[i]'s
        # neighbors when it was reached, and colors 1..used[i] are taken by
        # order[:i]
        forbid: list = []
        used = [0] * (n + 1)
        while True:
            count_node()  # one node per placement of order[len(forbid)]
            i = len(forbid)
            if i == n:
                return k, {v: color[v] for v in range(n)}
            forbid.append({color[u] for u in adj[order[i]] if color[u]})
            # the next color at the deepest vertex that has one left; new
            # colors are interchangeable, so only one fresh color is tried.
            # An exhausted vertex is uncolored and popped.
            while forbid:
                i = len(forbid) - 1
                v, f = order[i], forbid[i]
                c = color[v] + 1
                while c in f:
                    c += 1
                if c <= min(k, used[i] + 1):
                    color[v] = c
                    used[i + 1] = max(used[i], c)
                    break
                color[v] = 0
                forbid.pop()
            else:
                break  # k colors do not suffice
    raise AssertionError("unreachable: n colors always suffice")


def regularity(g: Graph) -> Optional[int]:
    """The common degree if the graph is regular, else None."""
    degs = set(g.degrees())
    if len(degs) == 1:
        return degs.pop()
    return None


# ---------------------------------------------------------------------------
# Small standard families used throughout the tests and harnesses.

def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError(f"cycle needs at least 3 vertices, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def empty_graph(n: int) -> Graph:
    return build_graph(n, [])


def complete_multipartite(sizes: Sequence[int]) -> Graph:
    """Complete multipartite graph; complete_multipartite([2, 2, 2]) is the octahedron."""
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return build_graph(n, edges)


def petersen_graph() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, outer + spokes + inner)
