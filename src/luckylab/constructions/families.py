"""Named graph families: the choosability counterexample and the clique example."""

from __future__ import annotations

import itertools

from ..graph import Graph, GraphError, build_graph
from ..labeling import Labeling, ListAssignment


def counterexample_graph(k: int) -> tuple[Graph, Labeling, ListAssignment]:
    """The separation construction: eta stays at k while every size-(2k-1) list family loses.

    2k-1 disjoint copies of K_{2k} on vertices {x_b^a, y_b^a : 1 <= b <= k},
    plus a hub t adjacent to every y vertex.  Ships the witness labeling
    (x_b^a and y_b^a get b, t gets k) and the adversarial list assignment
    (x and t see {1..2k-1}, y_b^a sees {1+a..2k-1+a}).  Copy a holds x_b^a
    at id (a-1)*2k + b-1 and y_b^a k ids later; t comes last.
    """
    if k < 1:
        raise GraphError(f"k must be positive, got {k}")
    t = (2 * k - 1) * 2 * k
    base = frozenset(range(1, 2 * k))
    names, values, lists = {t: "t"}, {t: k}, {t: base}
    edges = []
    for a in range(1, 2 * k):
        first = (a - 1) * 2 * k
        edges.extend(itertools.combinations(range(first, first + 2 * k), 2))
        for b in range(1, k + 1):
            x, y = first + b - 1, first + k + b - 1
            names[x], names[y] = f"x_{b}^{a}", f"y_{b}^{a}"
            values[x] = values[y] = b
            lists[x], lists[y] = base, frozenset(range(1 + a, 2 * k + a))
            edges.append((y, t))
    return build_graph(t + 1, edges, names), Labeling(values), ListAssignment(lists)


def clique_eta_one(n: int) -> Graph:
    """K_n whose i-th clique vertex carries i-1 pendants, separating degrees.

    Clique number n, additive number 1: with every label 1, the neighbor sum
    at each vertex is its degree, and all adjacent degrees differ.
    """
    if n < 1:
        raise GraphError(f"n must be positive, got {n}")
    names = {i: f"v{i + 1}" for i in range(n)}
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    nxt = n
    for i in range(1, n + 1):  # vertex v_i has i-1 pendants u_{i,j}
        for j in range(1, i):
            names[nxt] = f"u_{i},{j}"
            edges.append((i - 1, nxt))
            nxt += 1
    return build_graph(nxt, edges, names)
