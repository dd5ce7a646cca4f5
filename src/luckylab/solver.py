"""Exact search for every labeling problem in the workbench.

One engine drives all of them: depth-first assignment over a fixed vertex
order (maximum-cardinality search: a vertex whose neighbors are all ordered
first, then most ordered neighbors, higher degree, lower id; values
ascending) with sum-interval propagation.  A pendant comes first only once
it is its neighbor's last unordered neighbor, when its label decides that
neighbor's sum (_search_order); jumping as soon as its neighbor was placed,
the variable gadget's slack pendants doubled the benchmark's SAT search
(45,130 nodes now, 94,075 before).  Free vertices, whose labels reach
only sums that no constraint reads (isolated vertices among them), come
after all others: placed early, they would make the search repeat the
constrained part under every combination of their labels, as the ten slack
pendants on the variable gadget's unchecked ports would.

Below the first free position F no constraint can fail.  No conflict, edge
watcher, Hall check or nogood involves a free position, and no forced pair
is left (its ends are adjacent checked vertices, so neither is free).  Free
vertices get no twin links either: a search that breaks symmetry stops at
its first leaf or lowers the cap below it, and the tail's first leaf is its
least labeling, so no second tail leaf would pass.  Frames there would only
list the tail's labelings, so _free_tail lists them in one loop over
order[F:] (mixed-radix generation, Knuth, TAOCP 4A, 7.2.1.1, Algorithm M):
in the frames' order, one node per (re)assignment with the same budget and
weight checks, returning the mask frame F would.  So node counts, the
leaves and the leaf at which a budget cut lands stay as they were, under
every leaf hook, branch and bound included.  In the benchmark's
exhaustive_proofs workload 112,530 of the 147,096 nodes of a pass fall in
free tails, all of them in certifying the variable gadget and its
corrupted copy: every core solution of the variable gadget repeats under
the 1,024 labelings of its pendants.

Enumeration hands each leaf out as two tuples, the labels and the sums,
through one call (enumerate_solutions).  A consumer that needs only how
many solutions there are, once it has read some, switches it to counting:
from then on each leaf only adds 1, with no tuples and no call to the
consumer.  The clause and variable gadgets' contracts read only
feasibility and the count, so their certification hands out one solution
per boundary case.  That took about 15 % off the benchmark's
exhaustive_proofs wall time at the same 147,096 nodes a pass
(BENCH_33.json).  A free tail entered while enumeration only counts, with
no weight cap and no budget cut inside it, is counted in one step: prod
|D_j| leaves and the sum_q prod_{j <= q} |D_j| nodes its walk would count
(_free_tail; BENCH_34.json).  So is the rest of the tail in which the
consumer switches, from the switching leaf on (BENCH_35.json); both counts
come from one mixed-radix rank computation.  Node counts and the leaf at
which a cut lands stay as they were, and the variable gadget's free
pendants cost one walk to its first solution and no more.  Of the 112,530
free-tail nodes of an exhaustive_proofs pass the walk advances 70, and
the other 112,460 are counted in one step over 55 tail entries; no other
workload of the benchmark reaches a free tail.  The walk remains because
it keeps a search with many free vertices off the recursion: each free
vertex would otherwise take a frame.

Every vertex v carries lo[v], the least neighbor sum still reachable given
the partial assignment: boundary mass plus the assigned neighbors' labels
plus the least total the unassigned neighbors' domains allow.  The search
order is fixed before the search starts, so v's sum is decided at one
fixed depth, dec[v], the position of its last neighbor with more than one
value (the root, when it has none), and from there on lo[v] is the sum.
A constrained edge whose two endpoints have decided, equal sums can never
be repaired, and neither can a vertex whose greatest reachable sum, lo[v]
plus the domain widths of its neighbors after the current depth, lies
below a required minimum, so either kills the branch.  Each test is made
only at the depth where it can first fail, read from a table built once
per search (_decide_table): an edge's at the later of its two ends'
decisive depths, a minimum's at each depth where the neighbors still open
can no longer make it up.  The frames used to move a greatest sum at
every neighbor on every value and to scan every checked neighbor's
interval; no table of greatest sums is kept now, and the root pass
(_root_cut) reads them as lo plus the domain widths.  At equal node
counts, the table took the benchmark's bounds_gnp wall time from 0.726 s
to 0.507 s (medians over 10 alternating pairs of 26 s runs on a 2-core
VM under CPython 3.11).

An edge can be decided before either sum is.  The common neighbors of u
and w add the same labels to both sums, so sum(u) - sum(w) is fixed once u,
w and the symmetric difference of their neighborhoods are assigned.  For
an edge inside a clique that difference holds only the outside neighbors
the two endpoints do not share, while the intervals wait for the whole
clique.  Such an edge is watched at the vertex that completes that set, a
sum-level analogue of the watched literals of Chaff (Moskewicz et al., DAC
2001), and a zero difference kills the branch with only that set as its
culprits; triangle-free graphs have no watched edge.  Culprits feed
conflict-directed backjumping (Prosser, Comput. Intell. 1993).  Each is a
bitmask of search positions: nbmask[v] holds the positions of v's
neighbors, and at depth d exactly the first d + 1 vertices of the order
are assigned, so a conflict's culprits are one mask operation.

A clique C of checked vertices is one alldifferent constraint.  Its sums
are sum(v) = S_C - l(v) + out(v), with S_C the labels on C and out(v) v's
boundary mass plus its labels outside C, so they differ pairwise exactly
when the values out(v) - l(v) do.  Pairwise reasoning refutes a pigeonhole
there only by search: in counterexample_graph(k) with the hub t at L, copy
a = L asks its 2k members for 2k - 1 values, and refute_lists took 7,193
nodes at k = 4 and 509,174 at k = 6.  So each clique of HALL_MIN_CLIQUE
(5) or more vertices gets a counting Hall check (Regin, AAAI 1994; Puget,
AAAI 1998), watched at one position: its last outside neighbor, or its
first member when it has none, the point where every out(v) is known.  A
member assigned by then offers its value, any other one out(v) - x for
each x in its domain, and fewer candidates than members kill the branch;
the culprits are the positions of the outside neighbors and of the
assigned members.  refute_lists now takes 2k - 1 nodes for k >= 3, one per
label of the hub.  The check sits in the edge watchers' table, so a graph
without such a clique pays nothing per node.  The floor is five because a
K4 cut ends the subtrees that nogoods are learned from: with K4s, the 300
random problems of test_nogood_learning_keeps_every_answer fired 16
nogoods instead of 21, while the one case K4s would speed up, refute_lists
at k = 2 (3 nodes instead of 81), takes 0.5 ms without them.  The cliques
are grown greedily from the edges whose ends share three neighbors, in the
same pass that finds the watched edges.

Every weight check applies one bound (Land & Doig, Econometrica 1960): a
value is tried only while the weight assigned so far, plus the value, plus
rest_min of the next position (the least total the later positions can
carry, a table fixed per search) stays within the cap.  Each check reads the
cap live, so a cap that a minimizing hook lowers binds at the next value
tried, and every leaf the hook sees lies within the cap in force.

A problem with a weight cap fixed before the search starts also counts
forced pairs, edges that must spend one unit above their domain minima, into
its weight lower bound.  Each stacked pair keeps one bit in pair_first, at
the search position of its lower end, and its culprits in pair_culprits at
that position; it stays open until that end is assigned, so at depth d the
open pairs are the set bits of pair_first >> d.  The frame that stacked it
clears its two bits when its assignment is undone.
Refuting a capped labeling needs that bound, even with the nogoods below:
the inapproximability check on K4 at d = 21 takes 928 nodes with it,
186,216 with pairs counted at the root only and 190,405 without it, and on
the complement of C7 at d = 36 it takes 3,183 nodes with it and is cut at
3 M without.  Branch and bound, whose cap starts
unset and only falls as leaves improve it, does not keep the bound: it
explores about 4 % more nodes without it but finishes sooner, since each
node skips the pair scan.

Branch and bound has a slack cut instead, a hitting-set lower bound as in
Max-SAT branch and bound (Li, Manya & Planes, CP 2005) used as cost-based
filtering (Focacci, Lodi & Milano, CP 1999).  A frame's slack is the cap
minus the weight assigned so far minus rest_min of its position: what any
completion within the cap can spend above the domain minima, where each
raised position spends at least one unit.  At slack 0 or 1 the frame first
looks at the all-minimum completion, whose sums are lo.  A checked edge
(u, t) with lo[u] == lo[t] is a deficit, and only a raise in N(u) ^ N(t)
repairs it (the common neighbors move both sums alike); so is a checked
vertex with lo below min_sum, repaired only by a raise in its
neighborhood.  Each deficit's repair set is its unassigned, multi-valued
positions there.  At slack 0 no raise fits, so any deficit cuts the frame;
at slack 1 one raise fits, so the frame is cut once the repair sets share
no position.  A cut counts no node and returns ones_mask, the only
positions whose change frees weight, plus the assigned neighbors of the
deficits that shrank the running intersection of repair sets (at slack 0,
of the first deficit): a position outside those, raised, spends the one
unit and repairs none of them.  The rule runs only under branch and
bound's incumbent cap; a cap fixed up front has the forced-pair bound, and
there the cut ends the subtrees that nogoods are learned from.  On the
twelve G(n, 0.3) graphs of the benchmark it takes eta1 from 241,076 to
165,218 nodes and PTDS from 230,724 to 176,025, and the two searches about
a quarter faster.  Two raises that must hit every repair set (slack 2)
reached about 282k nodes there but were no faster, so the cut stops at
slack 1.  Its deficit tables are built on its first call, so a search
that never reaches slack 1 pays nothing for them.

A search that stops at its first leaf also learns ("dead-end driven
learning", Frost & Dechter, AAAI 1994).  When a frame has tried every
value, its culprit mask M is a nogood: the positions in M, at their current
values, have no completion under the search's constraints, its twin order
and weight cap among them, which stay fixed while the search runs.  The
nogood keeps the pattern of which of those positions sit above their domain
minimum.  That pattern names each value only where a domain has at most two
values, so a mask touching a wider domain (list sizes of three or more, eta
with k >= 3, sigma with m >= 3) is not recorded.  Neither is a whole
prefix, the mask of a subtree that let a leaf pass, since that prefix never
recurs.  A nogood waits for one position to take one bit, so an assignment
visits only the nogoods waiting for it.  One that agrees with the path up to
the position just assigned waits next at the second-highest position of M,
then at the top one, and fires there with M as its culprit mask; this is
checked after the conflict scan, so every earlier conflict and its mask stay
as they were.  One that disagrees at one position waits for that position to
change; one that disagrees at two is forgotten (relevance-bounded learning
with bound 1, Bayardo & Miranker, AAAI 1996).  Kept instead, the nogoods of
the inapproximability check on the Wagner graph at d = 41 (3 M nodes) grew
the process from 20 MB to 216 MB and its time from 14 s to 33 s.  A
search that has recorded more than LEARN_TRIAL (4,096) nogoods stops
learning, and drops its nogoods, while fewer than one in LEARN_FIRE_RATE
(64) of them has fired.  On the SAT reductions and the refuted
inapproximability checks nogoods fire about as often as they are recorded;
the octahedron K(2,2,2) at d = 31 recorded 490,418 and fired 1,130 in 1 M
nodes, and ran about 20 % slower than without learning, until this rule
switched learning off after 11,137 records (23k nodes).  The nogoods die
with their search.  Learning cut the 138 SAT-equivalence
formulas of the benchmark from 99,288 to 45,130 nodes.  Branch and bound
(eta1, PTDS) does not learn: measured and rejected.  On the twelve
G(n, 0.3) graphs of the benchmark, with the slack cut, learning takes
bounds_gnp from 344,261 to 306,756 nodes but its median wall time from
0.748 s to 0.810 s, and from 0.749 s to 0.836 s in a second round; it was
slower in all 8 alternating benchmark pairs (10 s runs on a 2-core VM
under CPython 3.11).  In-process timings of a learning subclass had shown
it about 10 % faster; the benchmark runs do not bear that out.
Enumeration does not learn either, so gadget certification
keeps its node counts; learning there gave the same `check gadgets` output
in 49,565 nodes instead of 58,773.

All searches are complete: "infeasible" always means the whole space was
exhausted, and budget exhaustion is reported as its own status rather than
being passed off as an answer.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from .graph import BudgetExceeded, Graph, GraphError
from .labeling import Labeling, ListAssignment, weight
# not called here; kept as a module attribute because layer tracing that
# wraps solver.verify_additive looks it up by that name
from .labeling import verify_additive  # noqa: F401
from . import fileio

DEFAULT_MAX_NODES = 100_000_000
DEFAULT_MAX_MS = 60_000

# a learning search that has recorded more than LEARN_TRIAL nogoods stops
# learning while fewer than one in LEARN_FIRE_RATE of them has fired
LEARN_TRIAL = 4096
LEARN_FIRE_RATE = 64

# the least clique size that gets a Hall cut (module docstring)
HALL_MIN_CLIQUE = 5

# the nogood lists of a position no nogood has waited at yet, shared
_NO_NOGOODS: tuple = ((), ())


def _wait(watch, p: int, bit: int, ng) -> None:
    """Queue nogood ng at position p for bit, making p's lists on its first nogood."""
    lists = watch[p]
    if lists is _NO_NOGOODS:
        lists = watch[p] = ([], [])
    lists[bit].append(ng)


@dataclass(frozen=True)
class SearchBudget:
    """Caps on a single solver call.  All caps must be positive."""

    max_nodes: int = DEFAULT_MAX_NODES
    max_ms: float = DEFAULT_MAX_MS

    def __post_init__(self):
        # written so that a NaN cap, which compares false both ways, fails it
        if not (self.max_nodes > 0 and self.max_ms > 0):
            raise ValueError("budget caps must be positive")


@dataclass
class SolveReport:
    """Outcome of a solver call.

    status "found" carries a certificate that re-verifies through the
    labeling module; "infeasible" certifies an exhaustive search; a budget
    cut is always reported explicitly.
    """

    status: str  # "found" | "infeasible" | "budget-exceeded"
    value: Optional[int] = None
    certificate: Optional[Labeling] = None
    nodes_explored: int = 0
    elapsed_ms: float = 0.0
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = fileio.labeling_to_text(self.certificate)
        d = {
            "status": self.status,
            "value": self.value,
            "certificate": cert,
            "nodes_explored": self.nodes_explored,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.detail:
            d["detail"] = self.detail
        return d


def _twin_predecessors(adj, sig, order, checked):
    """For each vertex, its predecessor in a class of interchangeable twins.

    Two vertices with equal signatures (domain, boundary mass, checked
    status) are interchangeable when their open neighborhoods coincide
    (non-adjacent twins) or their closed ones do (adjacent twins): swapping
    their labels maps valid labelings to valid labelings and preserves
    weight.  Requiring non-increasing labels along the search order within
    each class keeps one canonical representative per symmetry orbit.
    Solution enumeration must not use this.  Only the vertices in order
    are chained; every other vertex gets no link.

    Returns (prev, strict).  strict[v] marks a link between adjacent twins
    that are both checked; those need strictly decreasing labels.  For
    adjacent twins u and w, N[u] = N[w] and the equal boundary mass give
    sum(u) - sum(w) = l(w) - l(u) in every completion, and with both
    endpoints checked their edge is constrained, so equal labels always
    violate it.  Unchecked twins keep the non-strict order: their edge is
    free and equal labels are allowed.

    Open twins are found by a dict keyed on (sig, adj[v]); adjacency tuples
    are sorted, so equal tuples are equal neighborhoods.  A closed twin of v
    lies in N[v], so it is a neighbor of v with the same degree: v's link is
    the latest such earlier neighbor whose closed neighborhood equals v's,
    found by scanning adj[v].
    """
    # Each group of equal (sig, N(v)) or equal (sig, N[v]) is a whole class,
    # because no vertex v has both an open twin a and a closed twin b:
    # b is in N[b] = N[v], so b is in N(v) = N(a), so a is in N[b] = N[v] and
    # is adjacent to v; but open twins are never adjacent (v in N(a) = N(v)
    # would be a loop).  So each group is chained on its own, in search order.
    n = len(adj)
    prev = [None] * n
    strict = [False] * n
    degree = [len(a) for a in adj]
    rank = [-1] * n  # position in order of each vertex chained so far
    open_last: dict = {}
    for i, v in enumerate(order):
        rank[v] = i
        nb, s = adj[v], sig[v]
        key = (s, nb)
        u = open_last.setdefault(key, v)
        if u != v:  # the latest earlier open twin
            open_last[key] = v
            prev[v] = u
            continue
        d, best = degree[v], -1
        for u in nb:
            if rank[u] > best and degree[u] == d and sig[u] == s and {*adj[u], u} == {*nb, v}:
                best = rank[u]
        if best >= 0:
            prev[v] = order[best]
            strict[v] = checked[v]
    return prev, strict


def _decide_table(cadj, order, dec, lo, domains, min_sum):
    """For each vertex, the checks on its neighbors' sums that assigning it can fail.

    dec[u] is the position of u's last multi-valued neighbor, where u's sum
    is decided, and lo holds the root's least sums.  decide[v] holds
    (u, need, ts) for checked neighbors u of v, in cadj[v] order.  When v
    decides u's sum, ts holds u's checked neighbors t whose sums are
    decided by then (dec[t] <= pos[v]), and a t with lo[t] == lo[u] fails
    the edge; otherwise ts is empty.  lo[u] < need fails u's minimum: need
    is min_sum less the total domain width of u's neighbors after v, so the
    test says that u's greatest reachable sum lies below min_sum.  Without
    min_sum need is u's least sum at the root, which lo[u] never falls
    below.  An entry that can fail neither test is left out, and so is
    every entry at a one-value vertex, whose assignment moves no sum.  A
    vertex with no entry holds the shared empty tuple.  The culprit masks
    are not stored: as long as nbmask, they would make the table quadratic.
    """
    decide: list[tuple] = [()] * len(cadj)
    after = [0] * len(cadj)  # the domain width of the neighbors placed later
    for p in range(len(order) - 1, -1, -1):
        v = order[p]
        width = domains[v][-1] - domains[v][0]
        if not width:
            continue
        entries = []
        for u in cadj[v]:
            if min_sum is None:
                if dec[u] != p:
                    continue
                need = lo[u]
            else:
                need = min_sum - after[u]
                after[u] += width
            ts = tuple([t for t in cadj[u] if dec[t] <= p]) if dec[u] == p else ()
            if ts or need > lo[u]:
                entries.append((u, need, ts))
        if entries:
            decide[v] = tuple(entries)
    return decide


def _edge_watchers(cedges, adj, order, pos, nbmask, multi, unchecked, domains, mass):
    """For each vertex, the checked edges and the cliques that its assignment decides early.

    cedges holds the checked edges; multi holds the positions whose
    domains have more than one value, unchecked those of the unchecked
    vertices, and mass[v] is v's boundary mass.  For a checked edge (u, w),
    the common neighbors cancel out of sum(u) - sum(w), which is

        l(w) - l(u) + sum over N(u) - N[w] of l - sum over N(w) - N[u] of l
        + mass(u) - mass(w).

    So the edge is decided once u, w and D = N(u) ^ N(w) - {u, w} are
    assigned, at the decisive depth, the largest search position in
    D + {u, w}, whose positions are nbmask[u] ^ nbmask[w].  The sum
    checks decide it at the last position in N(u) + N(w) that holds a
    vertex with more than one value; N(u) + N(w) is D + {u, w} plus the
    common neighbors, so the edge is watched, at the vertex of its decisive
    depth, exactly when a common neighbor in multi comes after that depth.
    A one-value vertex stays in D: its label is read only once it is
    assigned.  An edge without a common neighbor (every edge of a
    triangle-free graph) is skipped on a test of nbmask[u] & nbmask[w]
    alone.

    The same pass seeds the Hall cut (module docstring).  An edge whose ends
    share at least HALL_MIN_CLIQUE - 2 neighbors, and that no clique found
    so far holds, grows greedily into a maximal clique of checked vertices:
    each step adds the candidate adjacent to the most other candidates,
    the earliest position on a tie.  Cliques of HALL_MIN_CLIQUE or more
    vertices are kept.

    Returns watch, where watch[v] holds (plus, minus, const, mask) in edge
    order: the edge is violated when const plus the labels of plus
    (N(u) - N(w), w among them) equals the labels of minus (N(w) - N(u)),
    and mask holds the positions of D + {u, w}.  The Hall entries
    (_hall_entry) follow, one per clique, with minus None.  A vertex that
    watches nothing holds the shared empty tuple.
    """
    found: dict[int, list] = {}  # the entries of each vertex that watches any
    cliques: list[int] = []  # as masks of search positions
    covered: dict[int, int] = {}  # the positions of the cliques through a vertex
    for u, w in cedges:
        common = nbmask[u] & nbmask[w]
        if not common:
            continue
        mask = nbmask[u] ^ nbmask[w]
        top = mask.bit_length() - 1
        if (common & multi) >> top + 1:
            plus = tuple(order[p] for p in _positions(nbmask[u] & ~nbmask[w]))
            minus = tuple(order[p] for p in _positions(nbmask[w] & ~nbmask[u]))
            found.setdefault(order[top], []).append((plus, minus, mass[u] - mass[w], mask))
        if (common.bit_count() >= HALL_MIN_CLIQUE - 2
                and not covered.get(u, 0) >> pos[w] & 1):
            clique = _grow_clique(common & ~unchecked, 1 << pos[u] | 1 << pos[w], order, nbmask)
            if clique.bit_count() >= HALL_MIN_CLIQUE:
                cliques.append(clique)
                for p in _positions(clique):
                    covered[order[p]] = covered.get(order[p], 0) | clique
    for clique in cliques:
        at, entry = _hall_entry([order[p] for p in _positions(clique)],
                                adj, pos, domains, mass)
        found.setdefault(at, []).append(entry)
    watch: list[tuple] = [()] * len(adj)
    for v, entries in found.items():
        watch[v] = tuple(entries)
    return watch


def _positions(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _grow_clique(cand: int, clique: int, order, nbmask) -> int:
    """Grow clique greedily from the candidates cand, its checked common neighbors.

    Both are masks of search positions.  Each step adds the candidate with
    the most neighbors among the other candidates (the earliest position on
    a tie) and keeps only its neighbors as candidates.  The result is a
    maximal clique of checked vertices.
    """
    while cand:
        best = max(_positions(cand), key=lambda p: (cand & nbmask[order[p]]).bit_count())
        clique |= 1 << best
        cand &= nbmask[order[best]]
    return clique


def _hall_entry(members, adj, pos, domains, mass):
    """The watching vertex and the watch entry of a clique's Hall cut (module docstring).

    The clique is watched at its last outside neighbor, or at its first
    member when it has none.  The entry is (groups, None, |C|, mask):
    groups holds (outs, mass, v, dom), v's neighbors outside the clique,
    its boundary mass, v and its domain, with dom None for a member
    assigned when the check runs.  Unassigned members with equal outs, mass
    and domain offer the same candidates, so only the first is kept.  mask,
    the culprits, holds the positions of the outside neighbors and of the
    assigned members.
    """
    inside = set(members)
    outs = {v: tuple(x for x in adj[v] if x not in inside) for v in members}
    outside = {x for o in outs.values() for x in o}
    if outside:
        at = max(outside, key=pos.__getitem__)
    else:
        at = min(members, key=pos.__getitem__)
    mask = sum(1 << pos[x] for x in outside)
    groups: dict = {}
    for v in members:
        if pos[v] <= pos[at]:
            mask |= 1 << pos[v]
            groups[v] = (outs[v], mass[v], v, None)
        else:
            groups.setdefault((outs[v], mass[v], domains[v]), (outs[v], mass[v], v, domains[v]))
    return at, (tuple(groups.values()), None, len(members), mask)


def _search_order(n: int, adj, tiers: Optional[Mapping[int, int]] = None) -> list[int]:
    """Deterministic assignment order: maximum-cardinality search seeded by degree.

    A vertex whose neighbors are all already ordered comes immediately (its
    sum is decided, so assigning it closes its constraints on the spot);
    otherwise the vertex with the most already-ordered neighbors wins, with
    ties broken by higher degree, then lower id.  Keeping each vertex near
    its neighbors lets the sum intervals collapse early, which is what makes
    gadget-heavy graphs tractable; a plain global degree order scatters the
    local units across the search depth and provably thrashes on them.

    A pendant is the exception: its own sum is its neighbor's label, decided
    as soon as that neighbor is placed, so what its label can decide is the
    neighbor's sum, and only once it is the neighbor's last unordered
    neighbor.  So a pendant comes immediately only then; before, it sorts by
    count and degree like any other vertex.  Placed at once, each of the
    variable gadget's ten slack pendants would follow its port, and the
    search would branch over pendant labels while nothing yet constrains the
    port.  The amplifier's b_i is a_i's last neighbor (the selectors come
    first), so it still follows a_i at once.  To see a placed neighbor reach
    one unordered neighbor, count[] is kept for placed vertices too; when
    it does, its adjacency is scanned once for that neighbor.

    An optional tier map partitions the vertices into priority classes;
    lower tiers are exhausted first.  Constructions with large repeated
    appendages (the amplifier's pendant pairs) use it to put the globally
    constrained skeleton ahead of the appendages, and the engine puts its
    free vertices into a last tier of their own.  Within a tier an isolated
    vertex sorts first (all of its zero neighbors are ordered); being free,
    it sits in the engine's last tier, so in a search it comes last.

    The selection runs on a lazy-deletion heap (Tarjan & Yannakakis, SIAM J.
    Comput. 1984): each change of a vertex's ordered-neighbor count, and a
    pendant's late turn to come at once, pushes a fresh entry.  A count only
    grows and that turn only comes once, so a vertex's fresh entry sorts
    before all of its older ones, and an entry popped for a placed vertex is
    simply skipped.  A vertex gets at most degree + 2 entries, and each
    vertex's adjacency is scanned at most twice, so the cost is
    O((n + m) log n).

    Each entry is one int, the key (tier, does not come at once, -count,
    -degree, id) packed in mixed radix: every field after the tier
    is shifted into a range [0, radix), with radix 2 for the flag, r =
    max degree + 1 for the count and the degree and n for the id, so the
    ints order as the tuples would and v = key % n.  key[v] holds v's fresh
    entry, and None once v is placed.
    """
    degree = [len(a) for a in adj]
    r = max(degree, default=0) + 1
    step = r * n  # one more ordered neighbor
    flag = r * step  # the "does not come at once" field
    tier = [0] * n
    if tiers:
        for v, t in tiers.items():
            tier[v] = t
    # count 0, so the flag is set unless the vertex is isolated
    key: list = [(2 * t + (d != 0)) * flag + (r - 1) * step + (r - 1 - d) * n + v
                 for v, (t, d) in enumerate(zip(tier, degree))]
    count = [0] * n  # ordered neighbors, kept for placed vertices too
    heap = key[:]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        k = heapq.heappop(heap)
        v = k % n
        if key[v] != k:
            continue  # an older entry of a placed vertex
        key[v] = None
        order.append(v)
        last = count[v] == degree[v] - 1  # v has one unordered neighbor
        for u in adj[v]:
            c = count[u] + 1
            count[u] = c
            k = key[u]
            if k is None:
                if c != degree[u] - 1:
                    continue
                # u, placed, has one unordered neighbor left; if that is a
                # pendant, its label now decides u's sum
                u = next(w for w in adj[u] if key[w] is not None)
                if degree[u] != 1:
                    continue
                k = key[u] - flag
            elif c == degree[u] and (c > 1 or last):
                k -= flag + step
            else:
                k -= step
            key[u] = k
            heapq.heappush(heap, k)
    return order


class _Engine:
    """One exhaustive search over the labelings of a SearchProblem.

    lo holds the least reachable sums of the module docstring: assigning
    val to v moves lo[u] by val - dmin[v] at every neighbor u, since v's
    label replaces its domain minimum, and the free-tail walk moves it the
    same way.  A sum is checked at the fixed depth of its last multi-valued
    neighbor, dec, from decide (_decide_table), so the engine keeps no
    greatest sums: _root_cut reads them as lo plus the neighbors' domain
    widths.
    """

    def __init__(self, problem: SearchProblem, budget: SearchBudget,
                 break_symmetry: bool = True, learn: bool = False):
        g = problem.graph
        n = self.n = g.n
        adj = self.adj = g.adjacency()
        # each distinct domain is normalized once
        norm = {d: tuple(sorted(set(d))) for d in set(problem.domains)}
        domains = self.domains = [norm[d] for d in problem.domains]
        if () in norm.values():
            raise GraphError(f"empty domain at vertex {domains.index(())}")
        self.budget = budget
        # the live weight bound; a minimizing leaf hook lowers it
        self.cap = problem.weight_cap
        self.min_sum = problem.min_sum
        # the checked neighbors of each vertex, in adjacency order, and the
        # checked edges, in edge order: the only ones whose sums constrain
        # anything
        if problem.unchecked:
            checked = [v not in problem.unchecked for v in range(n)]
            cadj = [[u for u in a if checked[u]] for a in adj]
            cedges = [(u, w) for u, w in g.edges if checked[u] and checked[w]]
        else:
            checked, cadj, cedges = [True] * n, adj, g.edges
        self.checked, self.cadj, self.cedges = checked, cadj, cedges
        # free vertices (module docstring) go into a tier after all others.
        # A sum is read by a constraint when its vertex is checked and has a
        # checked neighbor or a min_sum to meet; a vertex is free when no
        # neighbor's sum is read.
        constrained = [c and (self.min_sum is not None or bool(ca))
                       for c, ca in zip(checked, cadj)]
        # each vertex's boundary mass, and in one pass over the edges the
        # least sums and the free flags
        mass = [0] * n
        for v, s in problem.extra_sum or ():
            mass[v] = s
        dmin = self.dmin = [d[0] for d in domains]
        self.label = [0] * n
        lo = self.lo = mass[:]
        free = [True] * n
        for u, w in g.edges:
            lo[u] += dmin[w]
            lo[w] += dmin[u]
            if constrained[u]:
                free[w] = False
            if constrained[w]:
                free[u] = False
        tiers = dict(problem.tiers or ())
        last = max([0, *tiers.values()]) + 1  # untiered vertices sit in tier 0
        tiers.update((v, last) for v in range(n) if free[v])
        order = self.order = _search_order(n, adj, tiers)
        # the free tail order[free_start:], walked by _free_tail (module
        # docstring)
        self.free_start = n
        while self.free_start and free[order[self.free_start - 1]]:
            self.free_start -= 1
        # boundary mass or unchecked status makes a vertex non-interchangeable.
        # Twins are both free or both not, and free ones get no links: the
        # walk's first leaf is the least labeling of the tail, and a search
        # that breaks symmetry stops there or lowers the cap below it.  The
        # links are found before nbmask is built, so that the twin search's
        # temporary dict does not add to nbmask's peak.
        if break_symmetry:
            self.twin_prev, self.twin_strict = _twin_predecessors(
                adj, list(zip(domains, mass, checked)), order[:self.free_start], checked)
        else:
            self.twin_prev, self.twin_strict = [None] * n, [False] * n
        pos = self.pos = [0] * n
        # the search positions of each vertex's neighbors, one bit each; at
        # depth d exactly order[0..d] is assigned, so v's assigned neighbors
        # are nbmask[v] & ((2 << d) - 1).  The same loop records the
        # positions whose domains hold one value (single) and more than two
        # (wide: no nogood touches them), and those of the unchecked vertices.
        # It also records dec[u], the position of u's last multi-valued
        # neighbor, where u's sum is decided (-1: decided at the root).
        nbmask = self.nbmask = [0] * n
        dec = self.dec = [-1] * n
        single = wide = unchecked = 0
        for i, v in enumerate(order):
            pos[v] = i
            b = 1 << i
            for u in adj[v]:
                nbmask[u] |= b
            size = len(domains[v])
            if size == 1:
                single |= b
            else:
                for u in adj[v]:
                    dec[u] = i
                if size > 2:
                    wide |= b
            if not checked[v]:
                unchecked |= b
        # the positions whose domains hold more than one value; negative, as
        # it is only ANDed with masks of positions
        multi = self.multi = ~single
        self.wide = wide
        # rest_min[d]: the least total the positions d and later can carry
        self.rest_min = list(itertools.accumulate(
            reversed([dmin[v] for v in order]), initial=0))[::-1]
        self.decide = _decide_table(cadj, order, dec, lo, domains, self.min_sum)
        self.watch = _edge_watchers(cedges, adj, order, pos, nbmask, multi, unchecked, domains, mass)

        self.ones_mask = 0  # levels assigned above their domain minimum
        # forced-pair weight bound: disjoint edges whose endpoints must jointly
        # exceed their domain minima by one.  paired holds the search
        # positions of both ends of every stacked pair, pair_first the lower
        # end of each, and pair_culprits[p] the culprits of the pair whose
        # lower end is p; a pair is open while that end is unassigned, so at
        # depth d the open pairs are the set bits of pair_first >> d.  Kept
        # only under the problem's own weight cap (module docstring).
        self.paired = self.pair_first = 0
        self.pair_culprits = [0] * n
        self.bounded = problem.weight_cap is not None
        # the slack cut's deficit tables, built on its first call
        self.slack_tables: Optional[tuple[list, list]] = None
        # nogoods (module docstring): ng_watch[p][bit] holds the (mask,
        # pattern, top) triples waiting for position p to take bit bit, and
        # exists only in a learning search; a position's lists are made on
        # its first nogood (_wait).  ng_stored and ng_fired count recorded
        # and fired nogoods
        self.learn = learn
        self.ng_stored = self.ng_fired = 0
        self.ng_watch = [_NO_NOGOODS] * n if learn else None
        self.nodes = 0
        self.deadline = None
        self.on_leaf: Optional[Callable[[int], bool]] = None
        # the leaves counted once enumeration only counts them; None before
        # (enumerate_solutions, _free_tail)
        self.counted: Optional[int] = None

    def _conflict_after(self, v: int) -> Optional[int]:
        """Culprit bitmask for a constraint decided by assigning v, or None.

        A sum is a function of its assigned neighbors' labels plus constants
        (singleton domains, boundary mass), so a conflict at u (and t)
        persists until one of those neighbors is unassigned: its culprits
        are the assigned part of nbmask[u] | nbmask[t], computed only when
        a check fails.  The sum checks of decide[v] come first, then the
        edges whose neighborhood difference assigning v decides, then the
        cliques whose Hall check v completes (module docstring).
        """
        lo, nbmask = self.lo, self.nbmask
        for u, need, ts in self.decide[v]:
            s = lo[u]
            if s < need:
                return nbmask[u] & ((2 << self.pos[v]) - 1)
            for t in ts:
                if lo[t] == s:
                    return (nbmask[u] | nbmask[t]) & ((2 << self.pos[v]) - 1)
        label = self.label
        for plus, minus, diff, mask in self.watch[v]:
            if minus is None:  # a clique: plus holds its groups, diff its size
                if self._hall_short(plus, diff):
                    return mask
                continue
            # plain loops: these sets hold a few vertices each
            for x in plus:
                diff += label[x]
            for x in minus:
                diff -= label[x]
            if not diff:
                return mask
        return None

    def _hall_short(self, groups, size: int) -> bool:
        """Whether a clique's candidate values out(v) - l(v) number fewer than size.

        groups is a Hall entry's (outs, mass, v, dom) tuples (_hall_entry):
        an assigned member offers one value, any other member one per value
        of its domain.  The count stops as soon as it reaches size.
        """
        label = self.label
        seen: set[int] = set()
        for outs, c, v, dom in groups:
            for x in outs:
                c += label[x]
            if dom is None:
                seen.add(c - label[v])
            else:
                seen.update([c - x for x in dom])
            if len(seen) >= size:
                return False
        return True

    # -- nogoods ---------------------------------------------------------------

    def _learn(self, mask: int) -> None:
        """Record the culprit mask of an exhausted frame as a nogood.

        The positions in mask, at their current values, have no completion.
        The pattern keeps which of them sit above their domain minimum; that
        names each value only on a domain of at most two values, so a mask
        touching a wider domain is not recorded.  Neither is a whole prefix
        0..k, the mask of a subtree that let a leaf pass: its prefix is never
        assigned again.  The nogood waits at its top position k.  Past
        LEARN_TRIAL records, a search whose nogoods fire less than once per
        LEARN_FIRE_RATE records stops learning for good.
        """
        if mask & (mask + 1) and not mask & self.wide:
            k = mask.bit_length() - 1
            pattern = self.ones_mask & mask
            _wait(self.ng_watch, k, pattern >> k & 1, (mask, pattern, k))
            self.ng_stored += 1
            if (self.ng_stored > LEARN_TRIAL
                    and self.ng_fired * LEARN_FIRE_RATE < self.ng_stored):
                self.learn = False
                self.ng_watch = [_NO_NOGOODS] * self.n

    def _nogood_after(self, depth: int, bit: int) -> Optional[int]:
        """Culprit mask of a nogood that the assignment at depth completes, or None.

        Only the nogoods waiting for this position and this bit are visited.
        One whose assigned positions all agree with the path fires if depth is
        its top position k; otherwise it waits at its second-highest position,
        or at k once depth has reached that.  One that disagrees at a single
        position q waits for q to change.  One that disagrees at two or more
        is forgotten (relevance bound 1).
        """
        watch = self.ng_watch
        waiting = watch[depth][bit]
        ones = self.ones_mask
        low = (2 << depth) - 1
        for i, ng in enumerate(waiting):
            mask, pattern, k = ng
            diff = (ones ^ pattern) & mask & low
            if not diff:
                if k == depth:
                    del waiting[:i]
                    self.ng_fired += 1
                    return mask
                t = (mask ^ 1 << k).bit_length() - 1
                if depth >= t:
                    t = k
                _wait(watch, t, pattern >> t & 1, ng)
            elif not diff & (diff - 1):
                q = diff.bit_length() - 1
                _wait(watch, q, pattern >> q & 1, ng)
        waiting.clear()
        return None

    # -- forced-pair weight bound --------------------------------------------
    #
    # An edge (u, t), both unassigned, is a forced pair when every other
    # unassigned neighbor of either endpoint has a fixed domain and the two
    # neighbor sums at joint domain minima coincide: labeling both at their
    # minima would violate the edge, so every completion spends at least one
    # extra unit on the pair.  Because all of its surrounding flexibility is
    # frozen, the condition persists until u or t is assigned, making the
    # count a sound addition to the weight lower bound.  "Fixed" is read
    # from masks: each end's only unassigned multi-valued neighbor is the
    # other end, or it has none when the other end has one value.

    def _try_bonus(self, u: int, t: int, assigned_mask: int) -> int:
        """Stack (u, t) if it is a forced pair; returns the positions of its ends, or 0."""
        if self.lo[u] != self.lo[t]:
            return 0
        pu, pt = self.pos[u], self.pos[t]
        bu, bt = 1 << pu, 1 << pt
        nbmask, open_ = self.nbmask, self.multi & ~assigned_mask
        if nbmask[u] & open_ == bt & open_ and nbmask[t] & open_ == bu & open_:
            self.paired |= bu | bt
            self.pair_first |= min(bu, bt)
            self.pair_culprits[min(pu, pt)] = (nbmask[u] | nbmask[t]) & assigned_mask
            return bu | bt
        return 0

    def _scan_bonuses(self, v: int) -> int:
        """Stack the pairs newly forced by assigning v; returns the positions of their ends.

        The frame clears those positions from paired and pair_first once its
        assignment is undone; all of those pairs are open then.
        """
        added = 0
        pos = self.pos
        cadj = self.cadj
        # exactly the positions up to v's are assigned
        pv = pos[v]
        assigned_mask = (2 << pv) - 1
        for u in cadj[v]:
            if pos[u] <= pv or self.paired >> pos[u] & 1:
                continue
            for t in cadj[u]:
                # v itself is assigned, so it is skipped here
                if pos[t] <= pv or self.paired >> pos[t] & 1:
                    continue
                pair = self._try_bonus(u, t, assigned_mask)
                if pair:
                    added |= pair
                    break
        return added

    def _bonus_culprits(self, below: int) -> int:
        """The culprits of every stacked pair whose ends lie outside below."""
        mask = 0
        for p in _positions(self.pair_first & ~below):
            mask |= self.pair_culprits[p]
        return mask

    # -- slack cut ------------------------------------------------------------

    def _slack_cut(self, depth: int, slack: int) -> Optional[int]:
        """Culprit mask when slack raises cannot repair the all-minimum completion, or None.

        Called by a branch-and-bound frame at depth whose slack, the cap
        minus the weight assigned so far minus rest_min[depth], is 0 or 1
        (module docstring).  With every unassigned position at its minimum
        the sums are lo, and each deficit, a checked edge with equal lo or
        a checked vertex with lo below min_sum, needs one raise in its
        repair set: the unassigned, multi-valued positions whose raise moves
        the edge's difference or the vertex's sum.  With slack 0 no raise
        fits, so the first deficit cuts; with slack 1 one raise fits, so
        the cut comes once the repair sets share no position.  The culprits
        are ones_mask and the neighborhoods of the deficits that shrank the
        running intersection, masked to the assigned positions.
        """
        if self.slack_tables is None:
            self.slack_tables = self._build_slack_tables()
        edges, short = self.slack_tables
        lo, nbmask = self.lo, self.nbmask
        below = (1 << depth) - 1
        free = ~below if slack else 0  # the positions one raise may use
        common = -1  # the running intersection of the repair sets
        culprits = 0
        # two plain loops: one loop over chained generators of both kinds of
        # deficit took 1.8 times as long per call
        for u, t, repair in edges:
            if lo[u] == lo[t]:
                repair &= common & free
                if repair != common:
                    common = repair
                    culprits |= nbmask[u] | nbmask[t]
                    if not common:
                        return (self.ones_mask | culprits) & below
        min_sum = self.min_sum
        for u, repair in short:
            if lo[u] < min_sum:
                repair &= common & free
                if repair != common:
                    common = repair
                    culprits |= nbmask[u]
                    if not common:
                        return (self.ones_mask | culprits) & below
        return None

    def _build_slack_tables(self) -> tuple[list, list]:
        """The slack cut's deficits with their repair masks over the multi-valued positions.

        edges holds (u, t, repair) for each checked edge, repair the
        positions of N(u) ^ N(t), u and t among them (the common neighbors
        move both sums alike); short holds (u, repair) for each checked
        vertex when min_sum is set, repair the positions of N(u).
        """
        nbmask, checked, multi = self.nbmask, self.checked, self.multi
        edges = [(u, t, (nbmask[u] ^ nbmask[t]) & multi) for u, t in self.cedges]
        short = []
        if self.min_sum is not None:
            short = [(u, nbmask[u] & multi) for u in range(self.n) if checked[u]]
        return edges, short

    def _root_cut(self) -> bool:
        """Whether the search ends before its first node.

        It ends on a checked sum that can never reach min_sum, on a checked
        edge whose two sums are decided and equal, or when rest_min[0] plus
        the forced pairs already open at the root exceeds the cap.  Under
        the problem's own cap the same pass over the checked edges stacks
        those pairs, in edge order.
        """
        lo, dec, checked, domains = self.lo, self.dec, self.checked, self.domains
        if self.min_sum is not None:
            # a sum's greatest value: every neighbor at its greatest label
            for v, nb in enumerate(self.adj):
                if checked[v] and lo[v] + sum([domains[u][-1] - domains[u][0]
                                               for u in nb]) < self.min_sum:
                    return True
        pos, bounded = self.pos, self.bounded
        for u, t in self.cedges:
            if dec[u] < 0 and dec[t] < 0 and lo[u] == lo[t]:  # decided and equal
                return True
            if bounded and not self.paired & (1 << pos[u] | 1 << pos[t]):
                self._try_bonus(u, t, 0)  # nothing is assigned yet
        return self.cap is not None and self.rest_min[0] + self.pair_first.bit_count() > self.cap

    # -- search -------------------------------------------------------------

    def _dfs(self, depth: int, cur_weight: int) -> Optional[int]:
        """Search with conflict-directed backjumping, one frame per level.

        At the first free position the search goes on in _free_tail, which
        walks the rest without frames and hands every complete labeling to
        the leaf hook, also when no vertex is free.  The hook gets the
        labeling's weight and reads its labels from self.label.  Returns
        None once the hook asks to stop; otherwise returns the bitmask of
        assignment levels (< depth) responsible for the subtree failing.  A
        child whose failure does not involve this level proves the remaining
        values here futile, so the failure is passed straight up.  A leaf the
        hook lets pass returns a full mask, which degrades the search above
        it to chronological backtracking and keeps it complete.

        A value val is tried only while cur_weight + val + rest_min[depth + 1],
        plus the forced pairs still open when they are kept, stays within
        self.cap (module docstring).  The open pairs are the set bits of
        pair_first at depth or later, less v's own pair when val is above
        v's minimum.  The cap is read for each value, so a bound the hook
        lowers holds from the next value on.  Each value meets this one
        check; the pairs an assignment newly forces count from the child
        frame's first value on, and those open at the root were counted by
        _root_cut before frame 0.

        In a learning search, a frame that tried every value hands its
        culprit mask to _learn, and a node that passes the conflict scan asks
        _nogood_after whether a nogood fires, but only when one waits for its
        position and bit.

        Under branch and bound's own cap, a frame whose slack is at most
        one first asks _slack_cut whether one raise can still repair the
        all-minimum completion (module docstring); a cut returns its
        culprits before any node is counted.  The slack is held in the cap
        slot, which the value loop reloads.

        The frame keeps 23 local slots, and a test holds it there.  Under
        CPython 3.11, at 34 slots one more (an unused local was enough)
        slowed the SAT sweep by about 7 % at equal node counts, so
        self.bounded and self.learn are read where they are used rather
        than bound to locals, the open pairs are read from pair_first rather
        than counted, and the culprit masks, the edge watchers and the
        nogoods live in __init__, _conflict_after, _learn and _nogood_after,
        not in this frame.
        """
        if depth == self.free_start:
            return self._free_tail(cur_weight)
        below = (1 << depth) - 1
        v = self.order[depth]
        bit_d = 1 << depth
        adj_v = self.adj[v]
        lo, label = self.lo, self.label
        dmin_v = self.dmin[v]
        rest = self.rest_min[depth + 1]
        cap = self.cap
        if cap is not None and not self.bounded:
            # branch and bound's slack cut; cap holds the slack until the
            # value loop reads the cap again
            cap -= cur_weight + dmin_v + rest
            if cap <= 1:
                r = self._slack_cut(depth, cap)
                if r is not None:
                    return r
        max_nodes = self.budget.max_nodes
        conf = 0
        # canonical orbit representative: twins carry non-increasing labels,
        # strictly decreasing ones along a strict link; top is the largest
        # value the twin allows
        twin = self.twin_prev[v]
        if twin is not None:
            top = label[twin] - 1 if self.twin_strict[v] else label[twin]
        for val in self.domains[v]:
            if twin is not None and val > top:
                conf |= 1 << self.pos[twin]
                break
            cap = self.cap
            if cap is not None:
                # the open forced pairs: a value above the minimum discharges
                # v's own pair, whose bit sits at depth when v is its first
                # end; branch and bound keeps none and skips the count
                if cur_weight + val + rest + (self.pair_first and (
                        self.pair_first >> depth + (val > dmin_v)).bit_count()) > cap:
                    # only levels labeled above their domain minimum, or the
                    # assignments that forced the open pairs, can lower this
                    conf |= (self.ones_mask | (self._bonus_culprits(below)
                                               if self.pair_first else 0)) & below
                    break  # values ascend, so every later value also blows the cap
            self.nodes += 1
            if self.nodes > max_nodes or (
                    self.nodes % 2048 == 0 and time.monotonic() >= self.deadline):
                raise BudgetExceeded
            label[v] = val
            dlo = val - dmin_v
            if dlo:
                self.ones_mask |= bit_d
                for u in adj_v:
                    lo[u] += dlo
            cmask = self._conflict_after(v)
            # the flag first: branch and bound and enumeration skip the lookup
            if cmask is None and self.learn and self.ng_watch[depth][val > dmin_v]:
                cmask = self._nogood_after(depth, val > dmin_v)
            pairs = 0  # the ends of the forced pairs this value stacks
            if cmask is None and self.bounded:
                pairs = self._scan_bonuses(v)
            skip_rest = None
            if cmask is None:
                r = self._dfs(depth + 1, cur_weight + val)
                if r is None:
                    return None  # stopped; state intentionally left assigned
                if not r & bit_d:
                    skip_rest = r & below  # failure below is independent of v
                else:
                    conf |= r
            else:
                conf |= cmask
            if pairs:
                self.paired &= ~pairs
                self.pair_first &= ~pairs
            if dlo:
                for u in adj_v:
                    lo[u] -= dlo
            self.ones_mask &= ~bit_d
            if skip_rest is not None:
                return skip_rest
        conf &= below
        if self.learn:
            self._learn(conf)
        return conf

    def _free_tail(self, weight: int) -> Optional[int]:
        """The search below the first free position F, walked without frames.

        Below F no constraint can fail (module docstring), so frames there
        would only list the tail's labelings: values ascending, the last
        position fastest, each value under the weight cap (no tail vertex
        has a twin link).  This loop lists them in that order, counting one
        node and making the budget check per (re)assignment, and hands each
        leaf and its weight to the hook.  Every leaf of the search leaves
        through here: an empty tail (F = n) hands its one leaf to the hook
        at once, with no walk to set up and no node counted.  It returns
        what frame F would: None on a stop, and otherwise (1 << F) - 1,
        since a leaf passed.  The tail is order[F:] and each step reads its
        domains, so the engine keeps no copy of it.

        idx holds the mixed-radix digits of the leaf reached, each position's
        value as an index into its domain.  The walk starts from the digits
        of rank -1, the leaf before the first: index -1 at position F and
        the last index everywhere after.  From there each step advances the
        last position whose next value fits under the live cap, applying
        the frames' weight bound; the first, all-minimum leaf passes it,
        since the frame at F - 1 has just applied that bound to it, or with
        F = 0 _root_cut has.

        Only label and lo follow the walk, since a leaf hook reads nothing
        else (_search the labels, enumerate_solutions the labels and the
        sums); lo is restored on return, and both are left at the leaf on a
        stop, as the frames leave them.

        Once enumeration only counts (self.counted is set), no hook reads a
        leaf, so the rest of the walk, with no cap to prune it and within
        the node budget, is counted in one step, as for unconstrained
        variables in model counting (Bayardo & Pehoushek, AAAI 2000): the
        rest of a mixed-radix walk is the rank complement of the leaf
        reached (Knuth, TAOCP 4A, 7.2.1.1).  The step is tried once per
        walk: on entry, where rank -1 at every prefix gives prod |D_j|
        leaves and sum_q prod_{j <= q} |D_j| nodes, or else at the leaf
        where the hook switches to counting.  It is refused under a cap,
        past the budget or past the deadline (_count_rest); the tail is
        then walked, and a cut lands where the walk's does.  Nothing reads
        a tail label after the walk returns.  In one pass of the
        benchmark's exhaustive_proofs workload the walk advances 70 of the
        147,096 nodes, and 112,460 are counted in one step over 55 tail
        entries; the other workloads walk no node.
        """
        free_start = self.free_start
        if free_start == self.n:
            return None if self.on_leaf(weight) else (1 << free_start) - 1
        tail = self.order[free_start:]
        domains, dmin, label, lo, adj = self.domains, self.dmin, self.label, self.lo, self.adj
        k = len(tail)
        for v in tail:
            label[v] = dmin[v]  # at its least value; the nodes are counted below
        idx = [len(domains[v]) - 1 for v in tail]
        idx[0] = -1  # rank -1: the leaf before the first
        weight += self.rest_min[free_start]
        nodes, max_nodes, deadline = self.nodes, self.budget.max_nodes, self.deadline
        switch = True  # the step that counts the rest is tried once
        while True:
            if switch and self.counted is not None:
                switch = False
                # the walk's nodes at q after the leaf reached number
                # P_q - R_q - 1, with P_q = prod_{j <= q} |D_j| and R_q the
                # mixed-radix rank of idx[0..q]
                size, rank, rest = 1, 0, 0
                for q, v in enumerate(tail):
                    size *= len(domains[v])
                    rank = rank * len(domains[v]) + idx[q]
                    rest += size - rank - 1
                if self._count_rest(size - rank - 1, rest):
                    break
            # the last position whose next value the cap allows; excess is
            # the weight above the least values after it
            cap = self.cap
            excess = 0
            for p in range(k - 1, -1, -1):
                v = tail[p]
                dom = domains[v]
                i = idx[p] + 1
                if i < len(dom):
                    val = dom[i]
                    if cap is None or weight + val - label[v] - excess <= cap:
                        break
                excess += label[v] - dom[0]
            else:
                break
            # position p takes value val, every later one its least value
            for q in range(p, k):
                nodes += 1
                if nodes > max_nodes or (nodes % 2048 == 0 and time.monotonic() >= deadline):
                    self.nodes = nodes
                    raise BudgetExceeded
                v = tail[q]
                if q > p:
                    i, val = 0, dmin[v]
                d = val - label[v]
                if d:
                    label[v] = val
                    weight += d
                    for u in adj[v]:
                        lo[u] += d
                idx[q] = i
            self.nodes = nodes
            if self.on_leaf(weight):
                return None
        for v in tail:
            d = label[v] - dmin[v]
            for u in adj[v]:
                lo[u] -= d
        return (1 << free_start) - 1

    def _count_rest(self, leaves: int, nodes: int) -> bool:
        """Add leaves and nodes of a free tail to the counts in one step, if no cap or cut stops it.

        It refuses, and the tail is walked, when a weight cap is live, when
        the end passes the node budget, or when the step passes a multiple
        of 2048 nodes, where the walk reads the clock, and the deadline has
        passed: the walk's check then cuts the search where it always did.
        """
        end = self.nodes + nodes
        if self.cap is not None or end > self.budget.max_nodes or (
                end >> 11 != self.nodes >> 11 and time.monotonic() >= self.deadline):
            return False
        self.nodes = end
        self.counted += leaves
        return True

    def run(self, on_leaf: Callable[[int], bool]) -> str:
        """Search the whole space, passing each complete labeling's weight to on_leaf.

        on_leaf returns True to stop the search; it may also lower self.cap,
        or set self.on_leaf to another hook, which gets every later leaf.
        The outcome is "stopped", "done" (the space is exhausted) or
        "budget-exceeded"; _root_cut may end the search before frame 0.
        The forced-pair bound is kept only when the problem itself carries
        a weight cap (module docstring): a cap fixed up front is what makes
        the bound pay.  The hook is dropped on return: it usually refers to
        the engine, and that cycle would keep the engine and its nogoods
        alive until the cyclic collector ran.
        """
        self.on_leaf = on_leaf
        self.deadline = time.monotonic() + self.budget.max_ms / 1000.0
        try:
            if self._root_cut():
                return "done"
            return "done" if self._dfs(0, 0) is not None else "stopped"
        except BudgetExceeded:
            return "budget-exceeded"
        finally:
            self.on_leaf = None


@dataclass(frozen=True)
class SearchProblem:
    """A labeling search instance for the shared engine.

    Every constraint of the search is declared here; the engine reads them
    from the problem.  extra_sum adds a constant to a vertex's neighbor sum
    (the boundary model for gadget certification); vertices in `unchecked`
    have host-dependent sums, so edges touching them are not constrained.
    `tiers` partitions the vertices into assignment-priority classes, lower
    first; the engine puts free vertices after every tier.
    """

    graph: Graph
    domains: tuple[tuple[int, ...], ...]
    weight_cap: Optional[int] = None
    min_sum: Optional[int] = None
    extra_sum: Optional[tuple[tuple[int, int], ...]] = None
    unchecked: frozenset[int] = frozenset()
    tiers: Optional[tuple[tuple[int, int], ...]] = None


def uniform_domains(g: Graph, values: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    vals = tuple(sorted(set(values)))
    return tuple(vals for _ in range(g.n))


def enumerate_solutions(problem: SearchProblem, budget: SearchBudget,
                        on_solution: Callable[[tuple[int, ...], tuple[int, ...]], object],
                        *, on_count: Optional[Callable[[int], None]] = None):
    """Pass every labeling and its neighbor sums to on_solution; returns (outcome, nodes).

    The solutions come in lexicographic order over the engine's search
    order (free vertices last): the vertices in that order, each one's
    values ascending, the last vertex changing fastest.  Each call gets
    two tuples indexed by vertex id, the labels and the neighbor sums
    (boundary mass included): snapshots the callback may keep and cannot
    change.  The outcome is "exhausted" or "budget-exceeded"; a cut hands
    out exactly the solutions reached before it.

    With on_count, on_solution may return a true value once it needs no
    more solutions.  The search then goes on only counting them: the rest
    are neither built nor handed out, and on_count gets their number once
    before this returns, also on a budget cut.  The rest of the free tail
    in which the switch happens, and each free tail entered after it, is
    counted in one step rather than walked, when no weight cap and no cut
    falls inside it (_free_tail); it adds the nodes the walk would, so the
    node count and the leaf at which a cut lands are the same either way.
    Without on_count every solution is handed out, whatever on_solution
    returns.
    """
    # enumeration must visit every solution, so symmetry breaking is off
    eng = _Engine(problem, budget, break_symmetry=False)
    label, lo = eng.label, eng.lo

    def count(_weight: int) -> bool:
        eng.counted += 1
        return False

    def hand_out(_weight: int) -> bool:
        # _free_tail reads the hook at each leaf, so a switch takes effect
        # from the next leaf on: the rest of this tail, and every later
        # tail, is counted in one step where it can be
        if on_solution(tuple(label), tuple(lo)) and on_count is not None:
            eng.on_leaf, eng.counted = count, 0
        return False

    outcome = eng.run(hand_out)
    if on_count is not None:
        on_count(eng.counted or 0)
    return ("exhausted" if outcome == "done" else outcome), eng.nodes


# ---------------------------------------------------------------------------
# Named solver operations.


def _require_nonempty(g: Graph):
    if g.n < 1:
        raise GraphError("solver requires a graph with at least one vertex")


def _finish(report: SolveReport, t0: float) -> SolveReport:
    report.elapsed_ms = (time.monotonic() - t0) * 1000.0
    return report


def _violations(problem: SearchProblem, labels: list[int]) -> list[str]:
    """Every constraint of `problem` that `labels` breaks; empty iff the labeling is valid.

    The constraints are the ones the engine searches under: each label lies
    in its vertex's domain, every edge between checked vertices joins
    different neighbor sums (boundary mass counted in), every checked sum
    reaches min_sum, and the weight stays within its cap.  The cost is one
    pass over the vertices and two over the edges, plus each domain scanned
    up to its vertex's label.
    """
    g = problem.graph
    checked = [v not in problem.unchecked for v in range(g.n)]
    bad = [f"label {x} at vertex {v} is outside its domain"
           for v, x in enumerate(labels) if x not in problem.domains[v]]
    sums = [0] * g.n
    for v, s in problem.extra_sum or ():
        sums[v] += s
    for u, v in g.edges:
        sums[u] += labels[v]
        sums[v] += labels[u]
    bad += [f"edge ({u}, {v}) joins equal sums {sums[u]}"
            for u, v in g.edges if checked[u] and checked[v] and sums[u] == sums[v]]
    if problem.min_sum is not None:
        bad += [f"sum {sums[v]} at vertex {v} is below {problem.min_sum}"
                for v in range(g.n) if checked[v] and sums[v] < problem.min_sum]
    if problem.weight_cap is not None and sum(labels) > problem.weight_cap:
        bad.append(f"weight {sum(labels)} exceeds {problem.weight_cap}")
    return bad


def _search(problem: SearchProblem, budget: Optional[SearchBudget],
            minimize: bool = False, value: Callable[[Labeling], int] = weight) -> SolveReport:
    """Run one engine search and report it.

    A found labeling is rechecked against every constraint of the problem
    before it becomes the certificate, and the report's value is
    `value(certificate)`.  With `minimize` the leaf hook lowers the engine's
    weight bound below each leaf, which the live bound makes a new
    incumbent: a branch and bound on total weight.  A minimizing search cut by its budget keeps the status
    budget-exceeded and no value, since its incumbent is not a proven
    optimum, but reports the incumbent (rechecked the same way) as the
    certificate and its weight as detail["incumbent_weight"].
    """
    _require_nonempty(problem.graph)
    t0 = time.monotonic()
    eng = _Engine(problem, budget or SearchBudget(), learn=not minimize)
    best: list[int] = []

    def on_leaf(w: int) -> bool:
        best[:] = eng.label
        if minimize:
            eng.cap = w - 1
        return not minimize

    outcome = eng.run(on_leaf)
    if outcome == "budget-exceeded":
        status = outcome
    else:
        status = "found" if best else "infeasible"
    rep = SolveReport(status, nodes_explored=eng.nodes)
    if best:
        bad = _violations(problem, best)
        if bad:
            raise AssertionError(f"solver produced an invalid certificate: {bad[:3]}")
        rep.certificate = Labeling(dict(enumerate(best)))
        if status == "found":
            rep.value = value(rep.certificate)
        else:
            rep.detail["incumbent_weight"] = weight(rep.certificate)
    return _finish(rep, t0)


def _least_feasible(g: Graph, budget: Optional[SearchBudget],
                    problem_for: Callable[[int], SearchProblem], decided_key: str) -> SolveReport:
    """Least bound b = 1, 2, ... whose problem_for(b) has a labeling.

    The count ends: every caller's problem is feasible from some bound on
    (eta by k = 2^(n-1), naive_eta; sigma by m = n, solve_sigma), so only a
    budget cut stops it short.  All bounds share one budget, and a cut
    records the last bound proven infeasible in detail[decided_key].
    """
    _require_nonempty(g)
    budget = budget or SearchBudget()
    t0 = time.monotonic()
    spent = 0
    last_decided = 0
    for b in itertools.count(1):
        remaining = budget.max_nodes - spent
        remaining_ms = budget.max_ms - (time.monotonic() - t0) * 1000.0
        if remaining <= 0 or remaining_ms <= 0:
            break
        rep = _search(problem_for(b), SearchBudget(max_nodes=remaining, max_ms=remaining_ms))
        spent += rep.nodes_explored
        if rep.status == "budget-exceeded":
            break
        if rep.status == "found":
            rep.value = b
            rep.nodes_explored = spent
            return _finish(rep, t0)
        last_decided = b
    return _finish(SolveReport("budget-exceeded", nodes_explored=spent,
                               detail={decided_key: last_decided}), t0)


def solve_eta(g: Graph, budget: Optional[SearchBudget] = None) -> SolveReport:
    """Additive number: least k so that labels {1..k} admit an additive labeling.

    Iterates k upward; each k is decided exhaustively before moving on, so a
    reported value carries a solver lower bound as well as a certificate.
    """
    return _least_feasible(
        g, budget, lambda k: SearchProblem(g, uniform_domains(g, range(1, k + 1))),
        "last_decided_k")


def exists_binary(g: Graph, budget: Optional[SearchBudget] = None,
                  weight_cap: Optional[int] = None,
                  tiers: Optional[Mapping[int, int]] = None) -> SolveReport:
    """Decide whether any (0,1)-additive labeling exists (optionally weight-capped).

    `tiers` is a deterministic assignment-priority hint (lower first), used
    by constructions whose repeated appendages would otherwise be
    interleaved with the skeleton they depend on.
    """
    problem = SearchProblem(g, uniform_domains(g, (0, 1)), weight_cap=weight_cap,
                            tiers=tuple(sorted(tiers.items())) if tiers else None)
    rep = _search(problem, budget)
    if weight_cap is not None:
        rep.detail["weight_cap"] = weight_cap
    return rep


def solve_eta1(g: Graph, budget: Optional[SearchBudget] = None) -> SolveReport:
    """Minimum total weight over (0,1)-additive labelings, by branch and bound."""
    return _search(SearchProblem(g, uniform_domains(g, (0, 1))), budget, minimize=True)


def decide_list_additive(g: Graph, lists: ListAssignment,
                         budget: Optional[SearchBudget] = None) -> SolveReport:
    """Decide whether an additive labeling exists with every label drawn from its list."""
    _require_nonempty(g)  # before the lists are checked against g
    lists.validate_on(g)
    domains = tuple(tuple(sorted(lists[v])) for v in g.vertices())
    return _search(SearchProblem(g, domains), budget, value=Labeling.max_label)


@dataclass
class RefutationResult:
    """Outcome of an adversarial-list refutation.

    status "refuted" certifies (by exhaustive search) that no additive
    labeling respects the lists, hence the additive choosability exceeds the
    largest list size.  status "beaten" carries the labeling that defeated
    the lists.
    """

    status: str  # "refuted" | "beaten" | "budget-exceeded"
    max_list_size: int
    eta_ell_lower_bound: Optional[int]
    labeling: Optional[Labeling]
    report: SolveReport

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "max_list_size": self.max_list_size,
            "eta_ell_lower_bound": self.eta_ell_lower_bound,
            "labeling": fileio.labeling_to_text(self.labeling) if self.labeling else None,
            "search": self.report.to_json_dict(),
        }


def refute_lists(g: Graph, lists: ListAssignment,
                 budget: Optional[SearchBudget] = None) -> RefutationResult:
    """Certify that a list assignment defeats its list size, or fail with a labeling."""
    rep = decide_list_additive(g, lists, budget)
    k = lists.max_size()
    if rep.status == "infeasible":
        return RefutationResult("refuted", k, k + 1, None, rep)
    if rep.status == "found":
        return RefutationResult("beaten", k, None, rep.certificate, rep)
    return RefutationResult("budget-exceeded", k, None, None, rep)


def solve_sigma(g: Graph, budget: Optional[SearchBudget] = None) -> SolveReport:
    """Minimum number of distinct labels over additive labelings.

    The bounds m = 1, 2, ... are searched in turn, bound m over the labels
    {1, B, ..., B^(m-1)} with B = max_degree + 1, so a labeling found for m
    has at most m distinct labels.  Conversely, take an additive labeling
    with at most m level sets, number them from 0 and give set i the label
    B^i.  Each neighbor sum becomes the base-B numeral of its vertex's
    neighbor counts per level set, since no count exceeds max_degree < B.
    Adjacent vertices have different count vectors, since equal ones would
    have given them equal sums before, so their new sums differ too: bound
    m is feasible exactly when m >= sigma.  The certificate of the first
    feasible m thus uses exactly m labels.
    """
    base = g.max_degree() + 1
    return _least_feasible(
        g, budget, lambda m: SearchProblem(g, uniform_domains(g, (base ** i for i in range(m)))),
        "last_decided_m")


def min_ptds(g: Graph, budget: Optional[SearchBudget] = None) -> SolveReport:
    """Minimum proper total dominating set.

    Encoded as a minimum-weight (0,1)-additive labeling whose neighbor sums
    are additionally required to be >= 1 everywhere; the certificate is the
    indicator labeling of the set.
    """
    problem = SearchProblem(g, uniform_domains(g, (0, 1)), min_sum=1)
    rep = _search(problem, budget, minimize=True)
    if rep.status == "found":
        rep.detail["set"] = sorted(v for v, x in rep.certificate.values.items() if x == 1)
    return rep


def complete_partial(
    g: Graph,
    fixed: Mapping[int, int],
    budget: Optional[SearchBudget] = None,
    *,
    weight_cap: Optional[int] = None,
) -> SolveReport:
    """Extend a partial labeling to a full additive labeling, or prove it cannot extend.

    Fixed vertices keep their given label; the others range over {0, 1}.
    """
    domains = tuple((fixed[v],) if v in fixed else (0, 1) for v in g.vertices())
    return _search(SearchProblem(g, domains, weight_cap=weight_cap), budget)
