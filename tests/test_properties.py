"""Property-based checks of the structural invariants."""

import itertools
import string

from hypothesis import given, settings, strategies as st

from luckylab.fileio import graph_from_text, graph_to_text
from luckylab.graph import build_graph, connected_components
from luckylab.labeling import (
    Labeling,
    all_neighbor_sums,
    induced_coloring,
    verify_additive,
)
from luckylab.solver import exists_binary, solve_eta1


@st.composite
def graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return build_graph(n, [e for e, keep in zip(pairs, mask) if keep])


# a display name is one to three words joined by single spaces, since the
# reader splits a name line on whitespace and joins the words with one space
_NAMES = st.lists(st.text(string.ascii_letters + string.digits + "_^{}(),'-", min_size=1,
                          max_size=4), min_size=1, max_size=3).map(" ".join)


@st.composite
def named_graphs(draw):
    g = draw(graphs())
    return build_graph(g.n, g.edges, draw(st.dictionaries(st.integers(0, g.n - 1), _NAMES)))


@st.composite
def labeled_graphs(draw, max_label=3):
    g = draw(graphs())
    labels = draw(st.lists(st.integers(min_value=0, max_value=max_label),
                           min_size=g.n, max_size=g.n))
    return g, Labeling(dict(enumerate(labels)))


@st.composite
def pair_lists(draw, max_n=8):
    """A vertex count and a pair list in any order, with repeats and either orientation."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()),
                          max_size=3 * len(pairs)))
    return n, [(v, u) if flip else (u, v) for (u, v), flip in picks]


@given(pair_lists())
@settings(max_examples=100, deadline=None)
def test_build_graph_sorts_edges_and_neighbours(case):
    n, pairs = case
    g = build_graph(n, pairs)
    assert list(g.edges) == sorted({(min(e), max(e)) for e in pairs})
    assert g.adjacency() == tuple(
        tuple(sorted({b for a, b in pairs if a == v} | {a for a, b in pairs if b == v}))
        for v in range(n))


@given(named_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_graph_text_round_trip(g, data):
    text = graph_to_text(g)
    parsed = graph_from_text(text)
    assert parsed == g
    assert graph_to_text(parsed) == text
    # the same fields, re-spaced, with blank and comment lines between and
    # either line ending, parse to the same graph
    pad = st.sampled_from(["", " ", "\t", " \t "])
    lines = []
    for line in text.splitlines():
        lines += data.draw(st.lists(st.sampled_from(["", " \t", "c", "c by hand"]), max_size=2))
        first, *rest = line.split(" ")
        seps = data.draw(st.lists(st.sampled_from([" ", "\t", "   ", " \t "]),
                                  min_size=len(rest), max_size=len(rest)))
        body = first + "".join(sep + field for sep, field in zip(seps, rest))
        lines.append(data.draw(pad) + body + data.draw(pad))
    assert graph_from_text(data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)) == g


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_degree_sum(g):
    assert sum(g.degrees()) == 2 * g.m


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_isolated_vertices_do_not_affect_verification(gl):
    g, lab = gl
    violations = verify_additive(g, lab)
    bigger = build_graph(g.n + 2, g.edges)
    extended = Labeling({**lab.values, g.n: 3, g.n + 1: 0})
    assert verify_additive(bigger, extended) == violations


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_componentwise_verification_equals_whole(gl):
    g, lab = gl
    whole_ok = verify_additive(g, lab) == []
    part_ok = True
    for comp in connected_components(g):
        idx = {v: i for i, v in enumerate(comp)}
        sub = build_graph(len(comp), [(idx[u], idx[v]) for u, v in g.edges if u in idx and v in idx])
        sub_lab = Labeling({idx[v]: lab[v] for v in comp})
        part_ok = part_ok and verify_additive(sub, sub_lab) == []
    assert whole_ok == part_ok


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_found_labelings_induce_proper_colorings(g):
    rep = exists_binary(g)
    if rep.status == "found":
        col = induced_coloring(g, rep.certificate)
        assert all(col[u] != col[v] for u, v in g.edges)


@given(labeled_graphs())
@settings(max_examples=60, deadline=None)
def test_binary_sums_bounded_by_degree(gl):
    g, lab = gl
    binary = Labeling({v: min(1, x) for v, x in lab.values.items()})
    sums = all_neighbor_sums(g, binary)
    assert all(0 <= sums[v] <= g.degree(v) for v in g.vertices())


@given(graphs())
@settings(max_examples=40, deadline=None)
def test_exists_binary_iff_eta1_found(g):
    a = exists_binary(g)
    b = solve_eta1(g)
    assert (a.status == "found") == (b.status == "found")
