import itertools
import random

import pytest

from luckylab.graph import (
    BudgetExceeded,
    GraphError,
    build_graph,
    chromatic_number,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    empty_graph,
    is_triangle_free,
    max_clique,
    path_graph,
    petersen_graph,
    regularity,
)
from luckylab.solver import SearchBudget


def test_build_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.degrees() == [1, 2, 1]
    assert g.neighbors(1) == (0, 2)


def test_duplicate_edges_collapse():
    g = build_graph(2, [(0, 1), (1, 0)])
    assert g.m == 1


def test_loop_rejected():
    with pytest.raises(GraphError, match=r"\(0, 0\)"):
        build_graph(1, [(0, 0)])
    # of several bad pairs, the first in input order is named
    with pytest.raises(GraphError, match=r"^loop edge \(2, 2\)"):
        build_graph(3, [(0, 1), (2, 2), (0, 3)])
    # a generator is read once, and its first bad pair is named
    with pytest.raises(GraphError, match=r"^loop edge \(1, 1\)"):
        build_graph(3, ((u, v) for u, v in [(0, 2), (1, 1), (2, 2)]))
    # a good pair that sorts after the bad one does not move the blame
    with pytest.raises(GraphError, match=r"^loop edge \(0, 0\)"):
        build_graph(3, [(2, 1), (0, 0), (5, 1)])


def test_out_of_range_rejected():
    with pytest.raises(GraphError, match=r"\(0, 3\)"):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphError, match=r"^edge \(4, 0\) has an endpoint outside 0\.\.2$"):
        build_graph(3, [(0, 1), (4, 0), (1, 1)])
    # the first bad pair in input order is named, in its given orientation
    with pytest.raises(GraphError, match=r"^edge \(5, 2\) has an endpoint outside 0\.\.2$"):
        build_graph(3, [(5, 2)])
    with pytest.raises(GraphError, match=r"^edge \(1, -1\) has an endpoint outside 0\.\.2$"):
        build_graph(3, [(0, 1), (1, -1), (2, 7)])
    with pytest.raises(GraphError, match=r"^edge \(0, 3\) has an endpoint outside 0\.\.2$"):
        build_graph(3, ((u, v) for u, v in [(1, 2), (0, 3), (2, 2)]))
    with pytest.raises(GraphError, match=r"^edge \(3, 0\) has an endpoint outside 0\.\.2$"):
        build_graph(3, [(2, 1), (3, 0), (-1, 0)])


def test_build_is_order_insensitive():
    a = build_graph(4, [(0, 1), (2, 3), (1, 2)])
    b = build_graph(4, [(2, 1), (1, 0), (3, 2), (0, 1)])
    assert a == b
    assert build_graph(4, iter([(2, 1), (1, 0), (3, 2)])) == a


def test_degree_sum_is_twice_edges(rng):
    from conftest import random_graph
    for _ in range(50):
        g = random_graph(rng)
        assert sum(g.degrees()) == 2 * g.m


def test_triangle_free():
    assert is_triangle_free(cycle_graph(5))
    assert not is_triangle_free(complete_graph(3))


def _has_triangle(g):
    return any(g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
               for a, b, c in itertools.combinations(g.vertices(), 3))


def test_triangle_free_matches_a_search_of_every_triple():
    """Sparse random cores with pendants, isolated vertices and triangles
    closed through a new degree-2 vertex; pendants and isolated vertices lie
    in no triangle, and is_triangle_free skips their neighborhoods."""
    rng = random.Random(5)
    answers = []
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        for _ in range(rng.randint(0, 4)):  # a pendant, hung on any vertex so far
            edges.append((rng.randrange(n), n))
            n += 1
        if edges and rng.random() < 0.5:  # a triangle through a degree-2 vertex
            u, v = rng.choice(edges)
            edges += [(u, n), (v, n)]
            n += 1
        g = build_graph(n + rng.randint(0, 2), edges)  # and up to two isolated vertices
        answers.append(is_triangle_free(g))
        assert answers[-1] == (not _has_triangle(g)), g.edges
    assert 0 < sum(answers) < len(answers)
    assert is_triangle_free(petersen_graph())


def test_max_clique_small():
    assert max_clique(complete_graph(4))[0] == 4
    size, witness = max_clique(petersen_graph())
    assert size == 2
    # witness is a genuine clique
    assert all(petersen_graph().has_edge(u, v) for u, v in itertools.combinations(witness, 2))


def test_max_clique_matches_enumeration(rng):
    from conftest import random_graph

    def brute(g):
        best = 0
        for r in range(g.n, 0, -1):
            for combo in itertools.combinations(range(g.n), r):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                    return r
        return best

    for _ in range(30):
        g = random_graph(rng, 1, 7)
        assert max_clique(g)[0] == brute(g)


def test_chromatic_number_examples():
    assert chromatic_number(complete_graph(4))[0] == 4
    assert chromatic_number(cycle_graph(5))[0] == 3
    # octahedron: no proper 2-coloring exists (checked by enumeration below)
    octa = complete_multipartite([2, 2, 2])
    chi, witness = chromatic_number(octa)
    assert chi == 3
    for colors in itertools.product((1, 2), repeat=octa.n):
        assert any(colors[u] == colors[v] for u, v in octa.edges)
    assert all(witness[u] != witness[v] for u, v in octa.edges)
    assert len(set(witness.values())) == 3


def test_chromatic_witness_proper(rng):
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng, 1, 7)
        chi, witness = chromatic_number(g)
        assert all(witness[u] != witness[v] for u, v in g.edges)
        assert len(set(witness.values())) == chi


def _chromatic_number_reference(g):
    """The recursive backtracking chromatic_number runs on an explicit stack.

    Returns (chi, coloring, nodes), nodes counting every call of place over
    all k, as the budget counts them.
    """
    n = g.n
    order = sorted(range(n), key=lambda v: (-g.degree(v), v))
    adj = g.adjacency()
    nodes = 0
    for k in range(1, n + 1):
        color = [0] * n

        def place(i, used_max):
            nonlocal nodes
            nodes += 1
            if i == n:
                return True
            v = order[i]
            forbidden = {color[u] for u in adj[v] if color[u]}
            for c in range(1, min(k, used_max + 1) + 1):
                if c in forbidden:
                    continue
                color[v] = c
                if place(i + 1, max(used_max, c)):
                    return True
                color[v] = 0
            return False

        if place(0, 0):
            return k, {v: color[v] for v in range(n)}, nodes


def test_chromatic_number_matches_recursive_reference():
    """Same chi, same coloring, and the budget is first exceeded at the same node."""
    from conftest import random_graph
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, 1, 9, p=rng.choice((0.2, 0.5, 0.8)))
        chi, coloring, nodes = _chromatic_number_reference(g)
        assert chromatic_number(g) == (chi, coloring)
        assert chromatic_number(g, SearchBudget(max_nodes=nodes)) == (chi, coloring)
        with pytest.raises(BudgetExceeded):
            chromatic_number(g, SearchBudget(max_nodes=nodes - 1))


def test_clique_at_most_chromatic(rng):
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng, 1, 7)
        assert max_clique(g)[0] <= chromatic_number(g)[0]


def test_regularity():
    assert regularity(complete_graph(4)) == 3
    assert regularity(path_graph(3)) is None
    assert regularity(petersen_graph()) == 3
    assert regularity(empty_graph(3)) == 0


def test_components():
    g = build_graph(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [[0, 1], [2], [3, 4]]


def test_clique_and_colouring_searches_honour_the_budget():
    rng = random.Random(3)
    n = 60
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
    for search in (max_clique, chromatic_number):
        # the node cap alone, and the clock alone, read every 2,048 nodes
        for budget in (SearchBudget(max_nodes=50), SearchBudget(max_ms=1)):
            with pytest.raises(BudgetExceeded):
                search(g, budget)
    # a budget that suffices changes nothing
    c5 = cycle_graph(5)
    assert chromatic_number(c5, SearchBudget(max_nodes=100)) == chromatic_number(c5)
    assert max_clique(c5, SearchBudget(max_nodes=100)) == max_clique(c5)
