import dataclasses
import functools
import hashlib
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from luckylab import oracles, solver
from luckylab.constructions import (
    build_amplifier_gadget,
    build_inapprox_reduction,
    build_sat_reduction,
    build_variable_gadget,
    counterexample_graph,
)
from luckylab.formula import Cnf3Formula
from luckylab.graph import (
    GraphError,
    build_graph,
    complete_graph,
    complete_multipartite,
    connected_components,
    cycle_graph,
    empty_graph,
    path_graph,
    petersen_graph,
)
from luckylab.labeling import (
    Labeling,
    LabelingError,
    make_lists,
    verify_additive,
    verify_from_lists,
    verify_ptds,
    weight,
)
from luckylab.oracles import random_formula
from luckylab.solver import (
    SearchBudget,
    SearchProblem,
    _Engine,
    _search,
    _search_order,
    _violations,
    complete_partial,
    decide_list_additive,
    enumerate_solutions,
    exists_binary,
    min_ptds,
    refute_lists,
    solve_eta,
    solve_eta1,
    solve_sigma,
    uniform_domains,
)


def test_eta_examples():
    assert solve_eta(path_graph(3)).value == 1
    assert solve_eta(complete_graph(4)).value == 4
    rep = solve_eta(cycle_graph(4))
    assert rep.value == 2
    assert verify_additive(cycle_graph(4), rep.certificate, mode="positive") == []


def test_eta_k4_brute_force_floor():
    # every labeling of K4 with labels below 4 repeats a label, and in a
    # clique equal labels mean equal sums
    k4 = complete_graph(4)
    for labels in itertools.product(range(1, 4), repeat=4):
        lab = Labeling(dict(enumerate(labels)))
        assert verify_additive(k4, lab) != []


def test_eta1_examples():
    assert solve_eta1(cycle_graph(5)).status == "infeasible"
    rep = solve_eta1(cycle_graph(4))
    assert rep.status == "found" and rep.value == 1
    assert solve_eta1(empty_graph(5)).value == 0


def test_eta1_c5_all_32_checked():
    c5 = cycle_graph(5)
    for labels in itertools.product((0, 1), repeat=5):
        assert verify_additive(c5, Labeling(dict(enumerate(labels)))) != []


def test_exists_binary_cycles():
    assert exists_binary(cycle_graph(7)).status == "infeasible"
    rep = exists_binary(cycle_graph(6))
    assert rep.status == "found"
    assert verify_additive(cycle_graph(6), rep.certificate, mode="binary") == []
    rep = exists_binary(complete_graph(2))
    assert rep.status == "found"


def test_list_decide_examples():
    p3 = path_graph(3)
    assert decide_list_additive(p3, make_lists({0: {1}, 1: {2}, 2: {1}})).status == "infeasible"
    rep = decide_list_additive(p3, make_lists({0: {1}, 1: {1}, 2: {1}}))
    assert rep.status == "found"


def test_refute_lists():
    p3 = path_graph(3)
    res = refute_lists(p3, make_lists({0: {1}, 1: {2}, 2: {1}}))
    assert res.status == "refuted"
    assert res.eta_ell_lower_bound == 2
    res = refute_lists(p3, make_lists({v: {1, 2} for v in range(3)}))
    assert res.status == "beaten"
    assert verify_additive(p3, res.labeling) == []


def test_refute_lists_budget_cut():
    # a cut search proves no bound; the whole refutation takes 5 nodes
    g, _labeling, lists = counterexample_graph(3)
    res = refute_lists(g, lists, SearchBudget(max_nodes=4))
    assert (res.status, res.eta_ell_lower_bound, res.labeling) == ("budget-exceeded", None, None)
    assert res.report.status == "budget-exceeded"


def test_lists_reject_non_positive_values():
    # labels are positive, so a list value below 1 is refused before any search
    with pytest.raises(LabelingError, match="list value 0 at vertex 0 is not positive"):
        decide_list_additive(path_graph(3), make_lists({0: {0, 2}, 1: {-1, 2}, 2: {1, 2}}))


def test_sigma_examples():
    assert solve_sigma(path_graph(3)).value == 1
    assert solve_sigma(complete_graph(4)).value == 4
    rep = solve_sigma(cycle_graph(4))
    assert rep.value == 2
    assert set(rep.certificate.values.values()) == {1, 3}  # powers of max_degree + 1


def test_ptds_examples():
    rep = min_ptds(cycle_graph(4))
    assert rep.status == "found" and rep.value == 3
    assert verify_ptds(cycle_graph(4), rep.detail["set"])
    assert min_ptds(cycle_graph(5)).status == "infeasible"
    assert min_ptds(complete_graph(2)).status == "infeasible"


def test_ptds_c4_subset_enumeration():
    c4 = cycle_graph(4)
    sizes = [len(s) for r in range(5) for s in itertools.combinations(range(4), r)
             if verify_ptds(c4, s)]
    assert min(sizes) == 3


def test_budget_rejects_a_nan_cap():
    # NaN compares false both ways, so it must fail the check, not slip past it
    with pytest.raises(ValueError, match="budget caps must be positive"):
        SearchBudget(max_ms=float("nan"))


def test_budget_exceeded_is_reported():
    g = complete_graph(6)
    rep = solve_eta(g, SearchBudget(max_nodes=5, max_ms=60_000))
    assert rep.status == "budget-exceeded"
    assert rep.detail["last_decided_k"] < 6  # eta(K6) = 6 was never reached
    # K6 has no outside neighbor, so its Hall cut runs at the first vertex:
    # k = 1 is refuted before any node, k = 2 and k = 3 in k nodes each,
    # and that spends the budget before k = 4 starts
    assert (rep.nodes_explored, rep.detail) == (5, {"last_decided_k": 3})
    # m = 1 is refuted before any node (the graph is regular); m = 2 takes 33
    rep = solve_sigma(petersen_graph(), SearchBudget(max_nodes=20, max_ms=60_000))
    assert rep.status == "budget-exceeded"
    assert rep.nodes_explored == 21
    assert rep.detail == {"last_decided_m": 1}


def _brute_force_exists(g, domains):
    return any(not verify_additive(g, Labeling(dict(enumerate(labels))))
               for labels in itertools.product(*domains))


def test_one_value_domains_match_brute_force(rng):
    # fixed vertices and singleton lists decide a neighbor sum before the
    # neighborhood is assigned, which is where the sum intervals prune
    from conftest import random_graph
    for _ in range(60):
        g = random_graph(rng, 1, 7)
        fixed = {v: rng.randint(0, 1) for v in g.vertices() if rng.random() < 0.4}
        rep = complete_partial(g, fixed)
        domains = [(fixed[v],) if v in fixed else (0, 1) for v in g.vertices()]
        assert (rep.status == "found") == _brute_force_exists(g, domains), (g.edges, fixed)
        if rep.status == "found":
            assert verify_additive(g, rep.certificate) == []
            assert all(rep.certificate[v] in d for v, d in enumerate(domains))
        lists = make_lists({v: rng.sample(range(1, 4), 1 if rng.random() < 0.4 else 2)
                            for v in g.vertices()})
        rep = decide_list_additive(g, lists)
        domains = [sorted(lists[v]) for v in g.vertices()]
        assert (rep.status == "found") == _brute_force_exists(g, domains), (g.edges, domains)
        if rep.status == "found":
            assert verify_additive(g, rep.certificate) == []
            assert verify_from_lists(rep.certificate, lists)


def test_eta_is_max_over_components(rng):
    from conftest import random_graph
    for _ in range(15):
        g = random_graph(rng, 2, 6)
        whole = solve_eta(g).value
        parts = []
        for comp in connected_components(g):
            idx = {v: i for i, v in enumerate(comp)}
            sub = build_graph(len(comp), [(idx[u], idx[v]) for u, v in g.edges
                                          if u in idx and v in idx])
            parts.append(solve_eta(sub).value)
        assert whole == max(parts)


def test_certificates_reverify(rng):
    from conftest import random_graph
    for _ in range(20):
        g = random_graph(rng)
        rep = solve_eta(g)
        assert verify_additive(g, rep.certificate, mode="positive") == []
        assert rep.certificate.max_label() <= rep.value
        rep = solve_eta1(g)
        if rep.status == "found":
            assert verify_additive(g, rep.certificate, mode="binary") == []


def test_report_json_shape():
    rep = solve_eta(path_graph(3))
    d = rep.to_json_dict()
    assert d["status"] == "found" and d["value"] == 1
    assert d["certificate"].startswith("v 1 ")
    assert "elapsed_ms" in d


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        solve_eta(build_graph(0, []))


def test_empty_domain_names_its_first_vertex():
    g = path_graph(4)
    with pytest.raises(GraphError, match="^empty domain at vertex 1$"):
        _Engine(SearchProblem(g, ((0, 1), (), (1,), ())), SearchBudget())


def test_weight_capped_decision_matches_enumeration(rng):
    # the capped decision used by the threshold harness, against brute force
    from conftest import random_graph

    for _ in range(40):
        g = random_graph(rng, 1, 6)
        for cap in (0, 1, 2, 3):
            want = any(not verify_additive(g, Labeling(dict(enumerate(labels))))
                       for labels in itertools.product((0, 1), repeat=g.n) if sum(labels) <= cap)
            rep = exists_binary(g, weight_cap=cap)
            assert (rep.status == "found") == want, (g.edges, cap)
            if rep.status == "found":
                assert rep.value <= cap


def _search_order_reference(n, adj, tiers=None):
    """The quadratic maximum-cardinality search the heap version must reproduce.

    A vertex comes at once when all its neighbors are ordered, except a
    pendant whose neighbor still has another unordered neighbor: the
    pendant's label would decide no sum yet.
    """
    degree = [len(adj[v]) for v in range(n)]
    tier = [(tiers or {}).get(v, 0) for v in range(n)]
    placed = [False] * n
    count = [0] * n
    order = []

    def decides(v):
        if not all(placed[u] for u in adj[v]):
            return False
        return degree[v] != 1 or all(placed[w] for w in adj[adj[v][0]] if w != v)

    def key(v):
        return (-tier[v], decides(v), count[v], degree[v], -v)

    for _ in range(n):
        best = -1
        for v in range(n):
            if placed[v]:
                continue
            if best < 0 or key(v) > key(best):
                best = v
        placed[best] = True
        order.append(best)
        for u in adj[best]:
            count[u] += 1
    return order


@st.composite
def order_instances(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs and draw(st.booleans()):
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = [e for e, keep in zip(pairs, mask) if keep]
    elif pairs:
        # sparse: most vertices stay isolated
        edges = draw(st.lists(st.sampled_from(pairs), max_size=n))
    else:
        edges = []
    tiers = draw(st.none() | st.dictionaries(st.integers(0, n - 1), st.integers(0, 3)))
    return build_graph(n, edges), tiers


@given(order_instances())
@settings(max_examples=300, deadline=None)
def test_search_order_matches_quadratic_reference(inst):
    g, tiers = inst
    assert _search_order(g.n, g.adjacency(), tiers) == \
        _search_order_reference(g.n, g.adjacency(), tiers)


def _twin_predecessors_reference(adj, sig, order, checked):
    """The twin links by definition, one quadratic scan per vertex.

    prev[v] is the last vertex before v in order with v's signature and v's
    open or closed neighborhood; strict[v] marks a closed twin with v checked.
    """
    prev, strict = [None] * len(adj), [False] * len(adj)
    for i, v in enumerate(order):
        for u in reversed(order[:i]):
            if sig[u] == sig[v] and set(adj[u]) == set(adj[v]):
                prev[v] = u
                break
            if sig[u] == sig[v] and {*adj[u], u} == {*adj[v], v}:
                prev[v], strict[v] = u, checked[v]
                break
    return prev, strict


@st.composite
def twin_instances(draw):
    # a blown-up base graph: each base vertex becomes a class of open twins
    # (an independent set) or of closed twins (a clique), and a few extra
    # edges split some classes
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    members, n = [], 0
    for size in sizes:
        members.append(range(n, n + size))
        n += size
    edges = []
    for a, b in itertools.combinations(range(len(sizes)), 2):
        if draw(st.booleans()):
            edges += itertools.product(members[a], members[b])
    for group in members:
        if draw(st.booleans()):
            edges += itertools.combinations(group, 2)
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges += draw(st.lists(st.sampled_from(pairs), max_size=2))
    sig = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    checked = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    # the engine chains only the vertices before its free tail
    order = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    return build_graph(n, edges).adjacency(), sig, order, checked


@given(twin_instances())
@settings(max_examples=300, deadline=None)
def test_twin_links_match_definitional_reference(inst):
    assert solver._twin_predecessors(*inst) == _twin_predecessors_reference(*inst)


def test_search_order_matches_reference_on_sat_reduction():
    g = build_sat_reduction(random_formula(random.Random(1), 32, 106)).graph
    assert g.n > 1_100
    assert _search_order(g.n, g.adjacency(), {}) == _search_order_reference(g.n, g.adjacency())


def _engine_order_and_tiers(monkeypatch, problem):
    """The engine's search order and the tier map it passed to _search_order."""
    seen = []
    real = solver._search_order
    monkeypatch.setattr(solver, "_search_order",
                        lambda n, adj, tiers=None: seen.append(tiers) or real(n, adj, tiers))
    return _Engine(problem, SearchBudget()).order, seen[0]


def test_search_order_matches_reference_on_inapprox_pair_tiers(monkeypatch):
    red = build_inapprox_reduction(complete_graph(4), 21)
    g = red.graph
    pairs = {v: 1 for v in red.params["pair_vertices"]}
    problem = SearchProblem(g, uniform_domains(g, (0, 1)), weight_cap=20,
                            tiers=tuple(sorted(pairs.items())))
    order, tiers = _engine_order_and_tiers(monkeypatch, problem)
    assert pairs.items() <= tiers.items()
    assert order == _search_order_reference(g.n, g.adjacency(), tiers)


def test_search_order_matches_reference_with_a_free_tier(monkeypatch):
    # a SAT reduction plus 40 isolated vertices, which the engine puts in a
    # free tier of their own after the reduction's
    red = build_sat_reduction(random_formula(random.Random(1), 8, 34)).graph
    g = build_graph(red.n + 40, red.edges)
    order, tiers = _engine_order_and_tiers(
        monkeypatch, SearchProblem(g, uniform_domains(g, (0, 1))))
    assert tiers == {v: 1 for v in range(red.n, g.n)}
    assert order == _search_order_reference(g.n, g.adjacency(), tiers)
    assert order[red.n:] == list(range(red.n, g.n))


def test_search_order_takes_each_source_in_turn():
    # the 4-cycle 0-1-3-2-0 and the isolated vertex 4.  The next vertex holds
    # the least of three keys: the least fresh key of the last round, the
    # heap top (fresh keys of earlier rounds) and the head of the sorted
    # count-0 keys.  4 (isolated, so it sorts first) and then 0 come from the
    # sorted keys; 1 is the fresh key of 0's round; 2, pushed in that round,
    # beats the fresh key of 1's round, 3's, on its id; 3, all of whose
    # neighbors are then ordered, is the fresh key of 2's round.
    g = build_graph(5, [(0, 1), (0, 2), (1, 3), (2, 3)])
    adj = g.adjacency()
    order = _search_order(g.n, adj)
    assert order == [4, 0, 1, 2, 3] == _search_order_reference(g.n, adj)
    # each source by definition: a vertex with no ordered neighbor still has
    # its count-0 key; one adjacent to the vertex before it got its key in
    # that vertex's round; any other got its key in an earlier round
    sources = []
    for i, v in enumerate(order):
        if not set(adj[v]) & set(order[:i]):
            sources.append("sorted")
        elif v in adj[order[i - 1]]:
            sources.append("fresh")
        else:
            sources.append("heap")
    assert sources == ["sorted", "sorted", "fresh", "heap", "fresh"]
    # the heap top won over a fresh key: 1's round made one, for 3
    assert 3 in adj[1] and 3 not in order[:3]


def test_search_order_pendant_waits_for_its_neighbors_sum():
    # an amplifier's b_i is a_i's last unordered neighbor, so assigning it
    # decides a_i's sum and it follows a_i at once
    red = build_inapprox_reduction(complete_graph(4), 21)
    pairs = red.params["pair_vertices"]
    order = _search_order(red.graph.n, red.graph.adjacency(), {v: 1 for v in pairs})
    follows = dict(zip(order, order[1:]))
    assert all(follows[a] == b for a, b in zip(pairs[::2], pairs[1::2]))
    # a slack pendant never follows its port while the port has another
    # unordered neighbor: its label would decide no sum yet
    g = build_sat_reduction(random_formula(random.Random(1), 8, 34)).graph
    adj = g.adjacency()
    assert sum(len(a) == 1 for a in adj) == 80  # ten per variable gadget
    order = _search_order(g.n, adj)
    pos = {v: i for i, v in enumerate(order)}
    for port, w in zip(order, order[1:]):
        if adj[w] == (port,):
            assert all(pos[u] < pos[w] for u in adj[port] if u != w), (port, w)


def test_engine_setup_on_large_sat_reduction():
    # n = 5,200: the scale at which a quadratic search order took seconds
    phi = random_formula(random.Random(1), 150, 500)
    red = build_sat_reduction(phi)
    g = red.graph
    assert g.n == 5_200
    # the labeling recipe's fixed vertices, as complete_partial gets them
    names = [f"x{i}" for i in range(1, phi.num_vars + 1)]
    names += [f"x{i}.y{y}" for i in range(1, phi.num_vars + 1) for y in (1, 3, 4, 5, 6)]
    names += [f"c{c}.w{w}" for c in range(len(phi.clauses)) for w in (1, 2, 3, 5)]
    fixed = {red.id_of(name) for name in names}
    recipe = tuple((1,) if v in fixed else (0, 1) for v in g.vertices())
    adj = g.adjacency()
    for domains in (uniform_domains(g, (0, 1)), recipe):
        eng = _Engine(SearchProblem(g, domains), SearchBudget(), learn=True)
        assert sorted(eng.order) == list(range(g.n))
        assert all(eng.order[eng.pos[v]] == v for v in range(g.n))
        assert eng._root_cut() is False
        # every table against a plain recomputation from the graph and the domains
        assert eng.lo == [sum(min(domains[u]) for u in adj[v]) for v in g.vertices()]
        assert eng.dec == [max((eng.pos[u] for u in adj[v] if len(domains[u]) > 1), default=-1)
                           for v in g.vertices()]
        assert eng.nbmask == [sum(1 << eng.pos[u] for u in adj[v]) for v in g.vertices()]
        rest = [0]
        for v in reversed(eng.order):
            rest.append(rest[-1] + min(domains[v]))
        assert eng.rest_min == rest[::-1]
        assert [list(c) for c in eng.cadj] == [list(a) for a in adj]


def _setup_tables(problem, break_symmetry):
    """The repr of every table an engine builds before its first node.

    The root pass runs last, since it stacks the forced pairs it finds.
    """
    eng = _Engine(problem, SearchBudget(), break_symmetry=break_symmetry)
    tables = (eng.order, eng.pos, eng.nbmask, eng.lo, eng.rest_min, eng.decide, eng.watch,
              eng.twin_prev, eng.twin_strict, eng.free_start, eng.wide,
              eng._build_slack_tables())
    cut = eng._root_cut()
    return repr((tables, cut, eng.paired, eng.pair_first))


def _random_setup_problem(rng):
    """A random problem with n <= 12 that exercises every setup table.

    Domains hold one to four values, some without their minimum plus one;
    isolated vertices (free ones), boundary mass, unchecked vertices,
    tiers, min_sum and a weight cap are each drawn at random.  Nothing is
    searched, so the labelings need not be few.
    """
    from conftest import random_graph
    h = random_graph(rng, 3, 10, p=rng.choice((0.15, 0.3, 0.5, 0.7, 0.9)))
    g = build_graph(h.n + rng.randint(0, 2), h.edges)
    choices = ((0,), (1,), (0, 1), (0, 1), (1, 2), (0, 2), (2, 5), (0, 1, 2), (1, 2, 3, 4))
    domains = tuple(rng.choice(choices) for _ in g.vertices())
    return SearchProblem(
        g, domains,
        weight_cap=rng.choice((None, sum(min(d) for d in domains) + rng.randint(0, 3))),
        min_sum=rng.choice((None, None, 1, 2)),
        extra_sum=tuple((v, rng.randint(0, 2)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(v for v in g.vertices() if rng.random() < 0.2),
        tiers=(tuple((v, rng.randint(0, 1)) for v in g.vertices() if rng.random() < 0.3)
               or None),
    )


def _setup_golden_problems():
    g3, _labels, lists = counterexample_graph(3)
    phi = random_formula(random.Random(29), 6, 24)
    sat = build_sat_reduction(phi).graph
    red = build_inapprox_reduction(complete_graph(4), 21)
    pet = petersen_graph()
    matching = build_graph(6, [(0, 1), (2, 3), (4, 5)])
    rng = random.Random(0x5E7)
    return {
        "counterexample_lists": [SearchProblem(g3, tuple(tuple(sorted(lists[v]))
                                                         for v in g3.vertices()))],
        "counterexample_labels": [SearchProblem(g3, uniform_domains(g3, range(1, 4)))],
        "sat_reduction": [SearchProblem(sat, uniform_domains(sat, (0, 1)))],
        "inapprox_k4_d21": [SearchProblem(
            red.graph, uniform_domains(red.graph, (0, 1)), weight_cap=20,
            tiers=tuple((v, 1) for v in sorted(red.params["pair_vertices"])))],
        "petersen_min_sum": [SearchProblem(pet, uniform_domains(pet, (0, 1)), min_sum=1)],
        # three disjoint edges, each a forced pair at the root
        "matching_cap": [SearchProblem(matching, uniform_domains(matching, (0, 1)),
                                       weight_cap=3)],
        "random": [_random_setup_problem(rng) for _ in range(400)],
    }


# sha256 of the setup tables of each family, with symmetry breaking on and off
_SETUP_DIGESTS = {
    "counterexample_lists": "917fcabebe2300f22066ebb67b2677ab85dad274179f419800eb19a29d590a17",
    "counterexample_labels": "92e6b213559cae98385b37ccdc9ceab58051fbbeadee09d52fb5c0be386e5acd",
    "sat_reduction": "ab7949fcb80bbd4f7103fe9dcd10b02e5b7f8b80fdddbdfa69464c606b3da4df",
    "inapprox_k4_d21": "613760576ac4c20425b02deb8b8cf6b6eb401525ab5ca0820992af825400346f",
    "petersen_min_sum": "274c096de11838634af9fcf321416cdb2e95f4ac93b7c7901280e26407c97ad8",
    "matching_cap": "9e476eada1eb2570251b5b555e7416992bf390e884f34626e8ee540e6e3362b7",
    "random": "e2b4786bd5323801974d3cdeb59a1bb0ee8e3a48627cef23b1950f2c13a0add0",
}


def test_setup_tables_golden():
    """Engine setup builds the same tables as before, on every family of problems.

    The digests pin order, pos, nbmask, lo, rest_min, the decide table,
    the watch table (watched edges and Hall entries), the twin links, the
    first free position, wide, the slack cut's deficit tables and the root
    pass with the positions of its stacked pairs.
    """
    got = {}
    for name, problems in _setup_golden_problems().items():
        digest = hashlib.sha256()
        for problem in problems:
            for break_symmetry in (True, False):
                digest.update(_setup_tables(problem, break_symmetry).encode())
        got[name] = digest.hexdigest()
    assert got == _SETUP_DIGESTS


def _per_position_decide_table(cadj, order, dec, lo, domains, min_sum):
    """The reference for _decide_table: a scan of every position, last first.

    At each multi-valued vertex v it walks v's checked neighbors u, in
    cadj[v] order; after[u] sums the domain widths of u's neighbors
    scanned before v, which are those placed after it.
    """
    decide = [()] * len(cadj)
    after = [0] * len(cadj)
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


def test_decide_table_matches_per_position_reference():
    """The decide table, built from the decided side, equals the per-position scan.

    300 random setup problems, among them min_sum, unchecked vertices,
    one-value and wide domains, and SAT reductions with and without
    min_sum, fixed vertices and unchecked ports.
    """
    rng = random.Random(0xDEC1DE5)
    problems = [_random_setup_problem(rng) for _ in range(300)]
    # every case the table tells apart is drawn
    assert sum(p.min_sum is not None for p in problems) > 100
    assert sum(bool(p.unchecked) for p in problems) > 100
    assert sum(any(len(d) == 1 for d in p.domains) for p in problems) > 100
    assert sum(any(len(d) > 2 for d in p.domains) for p in problems) > 100
    for seed in (1, 2, 3):
        red = build_sat_reduction(random_formula(random.Random(seed), 8, 34))
        g = red.graph
        ports = frozenset(red.id_of(f"x{i}") for i in range(1, 9))
        recipe = tuple((1,) if v in ports else (0, 1) for v in g.vertices())
        problems += [SearchProblem(g, uniform_domains(g, (0, 1))),
                     SearchProblem(g, uniform_domains(g, (0, 1)), min_sum=1),
                     SearchProblem(g, recipe),
                     SearchProblem(g, uniform_domains(g, (0, 1)), unchecked=ports)]
    entries = 0
    for problem in problems:
        eng = _Engine(problem, SearchBudget())
        assert eng.decide == _per_position_decide_table(
            eng.cadj, eng.order, eng.dec, eng.lo, eng.domains, eng.min_sum), problem
        entries += sum(len(row) > 1 for row in eng.decide)
    # rows of several entries pin their order
    assert entries > 500, entries


def test_setup_peak_stays_near_what_the_engine_keeps():
    """Setup builds no second table as large as nbmask, the engine's largest.

    nbmask holds one int per vertex, as long as that vertex's latest
    neighbor position, so it is quadratic in n; a temporary table of the
    same shape doubled the peak.  On the SAT reduction at v = 250
    (n = 8,625) the traced peak must stay within 1.25 times what the built
    engine holds.
    """
    phi = random_formula(random.Random(250), 250, 825)
    g = build_sat_reduction(phi).graph
    assert g.n == 8_625
    problem = SearchProblem(g, uniform_domains(g, (0, 1)))
    tracemalloc.start()
    try:
        eng = _Engine(problem, SearchBudget(), learn=True)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eng.n == g.n
    assert peak <= 1.25 * held, (peak, held)


_PIN_FORMULA = Cnf3Formula(3, ((1, 2, -3), (-1, 2, 3), (1, -2, 3)))


def _amplifier_enumeration_nodes():
    inst = build_amplifier_gadget(2)
    g = inst.graph
    return _enumerated(SearchProblem(g, uniform_domains(g, (0, 1)),
                                     extra_sum=((inst.ports["v"], 0),)))[1]


def _variable_gadget_problem(pendant=(0, 1)):
    # boundary case x=0,!x=0 of B(x): the ten pendants z1..z10 are free and
    # get the domain pendant
    inst = build_variable_gadget()
    g = inst.graph
    ports = (inst.ports["x"], inst.ports["not_x"])
    domains = tuple((0,) if v in ports else pendant if g.degree(v) == 1 else (0, 1)
                    for v in g.vertices())
    return SearchProblem(g, domains, unchecked=frozenset(ports))


def _counterexample_refutation_nodes(k):
    g, _labeling, lists = counterexample_graph(k)
    res = refute_lists(g, lists)
    assert (res.status, res.eta_ell_lower_bound) == ("refuted", 2 * k)
    return res.report.nodes_explored


def _gnp(seed, n, p):
    rng = random.Random(seed)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _gnp_eta1_nodes():
    # G(18, 0.3) has triangles, so edge watchers fire; Petersen has none
    rep = solve_eta1(_gnp(2, 18, 0.3))
    assert (rep.status, rep.value) == ("found", 8)
    return rep.nodes_explored


def _gnp_ptds_nodes():
    # PTDS on the graph of _gnp_eta1_nodes: min_sum 1, under branch and bound
    rep = min_ptds(_gnp(2, 18, 0.3))
    assert (rep.status, rep.value) == ("found", 12)
    return rep.nodes_explored


def _gnp_min_sum2_nodes():
    # min_sum 2 on G(14, 0.5) under branch and bound: a sum can fall short
    # of 2 while one of its neighbors is still open
    g = _gnp(1, 14, 0.5)
    rep = _search(SearchProblem(g, uniform_domains(g, (0, 1)), min_sum=2), None, minimize=True)
    assert (rep.status, rep.value) == ("found", 10)
    return rep.nodes_explored


def _recipe_completion_nodes(monkeypatch):
    reports = []

    def recorded(*args, **kwargs):
        reports.append(complete_partial(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(oracles, "complete_partial", recorded)
    oracles.labeling_from_assignment(_PIN_FORMULA, {1: True, 2: True, 3: True})
    return reports[0].nodes_explored


def _sat5_binary_nodes():
    # the first 5-variable, 10-clause formula of random.Random(5): n = 140,
    # satisfiable; without nogoods the search takes 11,170 nodes
    red = build_sat_reduction(random_formula(random.Random(5), 5, 10))
    rep = exists_binary(red.graph, SearchBudget(max_nodes=2_000_000))
    assert (red.graph.n, rep.status) == (140, "found")
    return rep.nodes_explored


def _sat16_threshold_binary_nodes():
    # 16 variables at clause ratio 4.25, near the 3-SAT threshold: n = 628,
    # unsatisfiable; with each slack pendant placed right after its port the
    # search was cut at 3 M nodes
    red = build_sat_reduction(random_formula(random.Random(16002), 16, 68))
    rep = exists_binary(red.graph, SearchBudget(max_nodes=3_000_000))
    assert (red.graph.n, rep.status) == (628, "infeasible")
    return rep.nodes_explored


def _c7_complement_inapprox_nodes():
    # 4-regular with chromatic number 4, refuted by the weight-capped search
    c7 = cycle_graph(7)
    g = build_graph(7, [(u, v) for u in range(7) for v in range(u + 1, 7) if not c7.has_edge(u, v)])
    verdict = oracles.check_threshold_inapprox(g, 36)
    assert (verdict.status, verdict.stats["solver_status"]) == ("agree", "infeasible")
    return verdict.stats["nodes"]


def _capped_binary_nodes(cap, status):
    # a weight cap from the start, without a minimizing hook
    rep = exists_binary(petersen_graph(), weight_cap=cap)
    assert rep.status == status
    return rep.nodes_explored


def _k5_pendant_capped_nodes():
    # K5 plus a pendant under cap 2: the next position's least value is cut
    # by its strict twin link, whose single culprit lets the search jump back
    # further than the weight bound's culprits would
    g = build_graph(6, [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(1, 5)])
    rep = exists_binary(g, weight_cap=2)
    assert rep.status == "infeasible"
    return rep.nodes_explored


def _three_pairs_capped_nodes(cap, status):
    # three disjoint edges: each is a forced pair at the root, so the root's
    # pair count alone decides cap 2
    rep = exists_binary(build_graph(6, [(0, 1), (2, 3), (4, 5)]), weight_cap=cap)
    assert rep.status == status
    return rep.nodes_explored


@pytest.mark.parametrize("search, nodes", [
    (lambda mp: solve_eta(petersen_graph()).nodes_explored, 33),
    (lambda mp: solve_eta1(petersen_graph()).nodes_explored, 38),
    (lambda mp: solve_sigma(petersen_graph()).nodes_explored, 33),
    (lambda mp: min_ptds(petersen_graph()).nodes_explored, 479),
    (lambda mp: exists_binary(build_sat_reduction(_PIN_FORMULA).graph).nodes_explored, 545),
    (lambda mp: _sat5_binary_nodes(), 1_326),
    (lambda mp: _sat16_threshold_binary_nodes(), 48_210),
    (lambda mp: _counterexample_refutation_nodes(2), 81),
    # from k = 3 on, the hub comes first and every K_2k copy's Hall check
    # runs there: with the hub at L, copy a = L asks its 2k members for
    # 2k - 1 values, so each of the hub's 2k - 1 labels is cut at once
    (lambda mp: _counterexample_refutation_nodes(3), 5),
    (lambda mp: _counterexample_refutation_nodes(4), 7),
    (lambda mp: _counterexample_refutation_nodes(5), 9),
    (lambda mp: _counterexample_refutation_nodes(6), 11),
    (lambda mp: _gnp_eta1_nodes(), 6_223),
    (lambda mp: _gnp_ptds_nodes(), 8_408),
    (lambda mp: _gnp_min_sum2_nodes(), 2_439),
    (lambda mp: _amplifier_enumeration_nodes(), 978),
    (lambda mp: _enumerated(_variable_gadget_problem())[1], 8_289),
    (_recipe_completion_nodes, 84),
    (lambda mp: _capped_binary_nodes(3, "found"), 33),
    (lambda mp: _capped_binary_nodes(2, "infeasible"), 143),
    (lambda mp: oracles.check_threshold_inapprox(complete_graph(4), 21).stats["nodes"], 928),
    (lambda mp: _c7_complement_inapprox_nodes(), 3_183),
    (lambda mp: _k5_pendant_capped_nodes(), 4),
    (lambda mp: _three_pairs_capped_nodes(2, "infeasible"), 0),
    (lambda mp: _three_pairs_capped_nodes(3, "found"), 9),
], ids=["eta-petersen", "eta1-petersen", "sigma-petersen", "ptds-petersen",
        "binary-sat3", "binary-sat5", "binary-sat16-threshold", "refute-counterexample2",
        "refute-counterexample3", "refute-counterexample4", "refute-counterexample5",
        "refute-counterexample6",
        "eta1-gnp18", "ptds-gnp18", "min-sum2-gnp14",
        "enumerate-amplifier2",
        "enumerate-variable-gadget", "recipe-completion",
        "binary-cap3-petersen", "binary-cap2-petersen", "inapprox-k4-d21",
        "inapprox-c7-complement-d36", "binary-cap2-k5-pendant", "binary-cap2-three-pairs",
        "binary-cap3-three-pairs"])
def test_node_counts_pinned(monkeypatch, search, nodes):
    # node counts are deterministic; a change here changes the search itself
    assert search(monkeypatch) == nodes


def test_dfs_frame_keeps_its_local_slots():
    # one more local in the search frame slowed the SAT sweep at equal node
    # counts (_Engine._dfs docstring); a new one needs a benchmark check and
    # that docstring's number moved with this bound
    assert _Engine._dfs.__code__.co_nlocals <= 23


class _IntervalScan(_Engine):
    """The engine, checked at its nodes against the sum-interval scan.

    The reference rebuilds its own lo and hi at each check from the boundary
    mass, the labels of the assigned prefix and the least and greatest
    values of the other domains.  So it depends on no earlier call, and a
    call skipped cannot leave it stale.  Its conflict scan is the one the
    decide table replaced: at each checked neighbor u of v, a hi below
    min_sum fails u, and a decided sum (lo == hi) fails an edge to a
    decided equal sum.  The table, followed by the edge watchers and Hall
    entries, must give the same culprit mask or None; the forced-pair test
    must agree with its hi - lo form.  With sparse set, a vertex with no
    decide and no watch entry gets no check and no conflict, as in an
    engine that skips the call there.
    """

    counts: dict = {}
    sparse = False

    def __init__(self, problem, *args, **kwargs):
        super().__init__(problem, *args, **kwargs)
        self.mass = dict(problem.extra_sum or ())

    def _intervals(self, depth):
        """The reference lo and hi with the positions before depth assigned."""
        lo = [self.mass.get(v, 0) for v in range(self.n)]
        hi = lo[:]
        for p, v in enumerate(self.order):
            dom = (self.label[v],) if p < depth else self.domains[v]
            for u in self.adj[v]:
                lo[u] += dom[0]
                hi[u] += dom[-1]
        return lo, hi

    def _interval_scan(self, v, lo, hi):
        min_sum = self.min_sum
        assigned = (2 << self.pos[v]) - 1
        for u in self.cadj[v]:
            s = hi[u]
            if min_sum is not None and s < min_sum:
                self.counts["short"] = self.counts.get("short", 0) + (lo[u] < s)
                return self.nbmask[u] & assigned
            if lo[u] == s:
                for t in self.cadj[u]:
                    if lo[t] == s and hi[t] == s:
                        self.counts["edge"] = self.counts.get("edge", 0) + 1
                        return (self.nbmask[u] | self.nbmask[t]) & assigned
        return None

    def _conflict_after(self, v):
        if self.sparse and not (self.decide[v] or self.watch[v]):
            return None
        lo, hi = self._intervals(self.pos[v] + 1)
        assert self.lo == lo
        want = self._interval_scan(v, lo, hi)
        if want is None:  # the edge watchers and Hall entries alone
            table, self.decide = self.decide, [()] * self.n
            want = super()._conflict_after(v)
            self.decide = table
        got = super()._conflict_after(v)
        assert got == want, (v, got, want)
        self.counts["nodes"] = self.counts.get("nodes", 0) + 1
        return got

    def _try_bonus(self, u, t, assigned_mask):
        lo, hi = self._intervals(assigned_mask.bit_length())
        du, dt = self.domains[u], self.domains[t]
        want = (hi[u] - lo[u] == dt[-1] - dt[0] and hi[t] - lo[t] == du[-1] - du[0]
                and lo[u] == lo[t])
        got = super()._try_bonus(u, t, assigned_mask)
        assert got == (want and 1 << self.pos[u] | 1 << self.pos[t]), (u, t, assigned_mask)
        self.counts["pairs"] = self.counts.get("pairs", 0) + want
        return got


def _random_interval_problem(rng):
    """A random problem with n from 4 to 9 over the domains the sum checks must handle.

    Domains are (0,), (0, 1), (0, 2), (2, 5), (0, 1, 2) and (1..4);
    min_sum is None, 1 or 2, and boundary mass, unchecked vertices and a
    weight cap are each drawn at random.
    """
    from conftest import random_graph
    g = random_graph(rng, 4, 9, p=rng.choice((0.3, 0.5, 0.7)))
    choices = ((0,), (0, 1), (0, 1), (0, 2), (2, 5), (0, 1, 2), (1, 2, 3, 4))
    domains = tuple(rng.choice(choices) for _ in g.vertices())
    return SearchProblem(
        g, domains,
        weight_cap=rng.choice((None, sum(min(d) for d in domains) + rng.randint(0, 4))),
        min_sum=rng.choice((None, 1, 2, 2)),
        extra_sum=tuple((v, rng.randint(0, 2)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(v for v in g.vertices() if rng.random() < 0.2),
    )


def test_decide_table_matches_the_interval_scan():
    """Each node's conflict mask and each forced-pair test match the interval scan.

    300 seeded problems, each searched to its first leaf with learning, in
    full, and by branch and bound, within 3,000 nodes each.  They run twice:
    checked at every node, and checked only at the nodes whose vertex has a
    decide or watch entry, where the second run must find the same cuts.
    """
    runs = []
    for sparse in (False, True):
        _IntervalScan.counts, _IntervalScan.sparse = {}, sparse
        rng = random.Random(0xDEC1DE)
        for _ in range(300):
            problem = _random_interval_problem(rng)
            for mode in ("first", "all", "minimize"):
                eng = _IntervalScan(problem, SearchBudget(max_nodes=3_000),
                                    break_symmetry=mode != "all", learn=mode == "first")

                def on_leaf(w, eng=eng, mode=mode):
                    if mode == "minimize":
                        eng.cap = w - 1
                    return mode == "first"

                eng.run(on_leaf)
        runs.append(_IntervalScan.counts)
    counts, sparse = runs
    # every kind of check fires: a sum short of min_sum before it is decided,
    # a decided edge, and a forced pair
    assert counts["nodes"] > 40_000 and counts["short"] > 50, counts
    assert counts["edge"] > 5_000 and counts["pairs"] > 50, counts
    # the sparse run checks fewer nodes, unless the engine itself skips them
    assert dict(sparse, nodes=counts["nodes"]) == counts, (sparse, counts)


def test_forced_pairs_kept_only_in_weight_bounded_searches(monkeypatch):
    engines = []

    class Recorded(_Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(solver, "_Engine", Recorded)
    # the edge of K2 is a forced pair from the start: both endpoints at 0
    # would give both sums 0
    k2 = complete_graph(2)
    assert exists_binary(k2).status == "found"
    assert refute_lists(k2, make_lists({0: {1, 2}, 1: {1, 2}})).status == "beaten"
    assert refute_lists(path_graph(3), make_lists({0: {1}, 1: {2}, 2: {1}})).status == "refuted"
    # branch and bound starts without a cap, so it keeps no pairs either
    rep = solve_eta1(k2)
    assert (rep.status, rep.value) == ("found", 1)
    assert len(engines) == 4
    assert all(eng.paired == eng.pair_first == 0 for eng in engines)
    engines.clear()
    assert exists_binary(k2, weight_cap=1).status == "found"
    # one pair: the search positions of both ends, forced before any
    # assignment, so with no culprits at its first end
    eng = engines[0]
    assert (eng.paired, eng.pair_first, eng.pair_culprits) == (0b11, 0b1, [0, 0])


def _slack_state(weight_cap, cap):
    """An engine on a seven-vertex forest-like graph with its first three positions assigned.

    The search order is 6, 0, 2, 1, 4, 5, 3, and positions 0 to 2 carry
    labels 0, 0, 1, so the weight so far is 1 and the sums at the
    all-minimum completion are lo = 1 0 0 0 0 0 0.  Three checked edges
    tie there, in scan order: (1, 4), whose repair set is positions 3 and
    4; (1, 6), positions 3 to 5; and (3, 5), positions 5 and 6.
    """
    g = build_graph(7, [(0, 2), (0, 6), (1, 4), (1, 6), (3, 5), (5, 6)])
    eng = _Engine(SearchProblem(g, uniform_domains(g, (0, 1)), weight_cap=weight_cap),
                  SearchBudget())
    assert eng.order == [6, 0, 2, 1, 4, 5, 3]
    for p, val in enumerate((0, 0, 1)):
        v = eng.order[p]
        eng.label[v] = val
        for u in eng.adj[v]:
            eng.lo[u] += val
    eng.ones_mask = 0b100
    eng.cap = cap
    eng.deadline = math.inf
    eng.on_leaf = lambda _weight: False
    return eng


def test_slack_cut_on_a_hand_built_frame():
    """Branch and bound's slack cut: the frame returns its culprits without counting a node.

    At cap 1 (slack 0) no raise fits, so the first tie, (1, 4), cuts: the
    culprits are ones_mask (position 2) and the assigned neighbors of 1
    and 4 (position 0, vertex 6).  At cap 2 (slack 1) one raise must
    repair every tie: (1, 4) leaves positions 3 and 4, (1, 6) shrinks
    nothing, so its neighbors (vertex 0 at position 1 among them) are not
    culprits, and (3, 5) leaves none.  Raising vertex 0 costs the one unit
    and repairs neither (1, 4) nor (3, 5), which is why position 1 may be
    jumped over.  At cap 3 (slack 2), or under a weight cap fixed by the
    problem, the frame searches on and counts nodes.
    """
    for cap in (1, 2):
        eng = _slack_state(None, cap)
        assert (eng._dfs(3, 1), eng.nodes) == (0b101, 0), cap
    eng = _slack_state(None, 3)
    eng._dfs(3, 1)
    assert eng.nodes > 0
    for cap in (1, 2):
        eng = _slack_state(cap, cap)
        eng._dfs(3, 1)
        assert eng.nodes > 0, cap


def _random_slack_problem(rng):
    """A random problem with n <= 9 for branch and bound: no weight cap of its own.

    Domains hold one to three values, some of them without their minimum
    plus one ((0, 2), (2, 5)), so a raise may cost more than the slack;
    boundary mass, unchecked vertices and min_sum 1 or 2 are each drawn at
    random.  The labelings number at most 2,048.
    """
    from conftest import random_graph
    g = random_graph(rng, 3, 9, p=rng.choice((0.3, 0.5, 0.7)))
    choices = ((0,), (1,), (0, 1), (0, 1), (0, 1), (1, 2), (0, 2), (2, 5), (0, 1, 2))
    domains = [rng.choice(choices) for _ in g.vertices()]
    while math.prod(map(len, domains)) > 2_048:
        v = rng.choice([v for v, d in enumerate(domains) if len(d) > 1])
        domains[v] = (rng.choice(domains[v]),)
    return SearchProblem(
        g, tuple(domains),
        min_sum=rng.choice((None, None, 1, 2)),
        extra_sum=tuple((v, rng.randint(1, 2)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(v for v in g.vertices() if rng.random() < 0.2),
    )


def test_slack_cut_keeps_every_minimum(monkeypatch):
    """Branch and bound with the slack cut reaches the brute-force least weight.

    On 300 seeded problems, _search(minimize=True) must match the least
    weight over every valid labeling, and solve_eta1 and min_ptds on the
    same graphs must match naive_eta1 and naive_ptds.  The cut must fire
    often, at both slacks, for the comparison to mean anything.
    """
    rng = random.Random(0x51AC)
    fired: dict[int, int] = {}  # cuts per slack
    slack_cut = _Engine._slack_cut

    def counted(self, depth, slack):
        mask = slack_cut(self, depth, slack)
        fired[slack] = fired.get(slack, 0) + (mask is not None)
        return mask

    monkeypatch.setattr(_Engine, "_slack_cut", counted)
    for _ in range(300):
        problem = _random_slack_problem(rng)
        want = _brute_force_solutions(problem)
        rep = _search(problem, None, minimize=True)
        assert rep.value == (min(sum(labels) for labels, _ in want) if want else None), problem
        g = problem.graph
        assert solve_eta1(g).value == oracles.naive_eta1(g), g.edges
        assert min_ptds(g).value == oracles.naive_ptds(g), g.edges
    assert fired.get(0, 0) > 200 and fired.get(1, 0) > 200, fired


def test_violations_cover_every_constraint():
    # P3 labeled 1 0 1 has neighbor sums 0 2 0, additive on its own
    p3 = path_graph(3)
    labels = [1, 0, 1]
    base = SearchProblem(p3, uniform_domains(p3, (0, 1)))
    assert _violations(base, labels) == []
    # boundary mass 2 at vertex 0 makes its sum equal its neighbor's
    boundary = dataclasses.replace(base, extra_sum=((0, 2),))
    assert _violations(boundary, labels) == ["edge (0, 1) joins equal sums 2"]
    assert _violations(dataclasses.replace(boundary, unchecked=frozenset({1})), labels) == []
    assert _violations(dataclasses.replace(base, domains=((0, 1), (0,), (0,))), labels) == [
        "label 1 at vertex 2 is outside its domain"]
    assert _violations(dataclasses.replace(base, min_sum=1), labels) == [
        "sum 0 at vertex 0 is below 1", "sum 0 at vertex 2 is below 1"]
    assert _violations(dataclasses.replace(base, min_sum=1, unchecked=frozenset({0, 2})),
                       labels) == []
    assert _violations(dataclasses.replace(base, weight_cap=1), labels) == ["weight 2 exceeds 1"]


def test_unchecked_adjacent_twins_may_share_a_label():
    # the two ends of K2 are adjacent twins; unchecked, their edge is free,
    # so the one labeling 1 1 is valid and strict twin order must not cut it
    k2 = complete_graph(2)
    problem = SearchProblem(k2, ((1,), (1,)), unchecked=frozenset({0, 1}))
    rep = _search(problem, None)
    assert rep.status == "found" and rep.certificate.values == {0: 1, 1: 1}
    assert _search(dataclasses.replace(problem, unchecked=frozenset()), None).status == "infeasible"


def _outcome(rep):
    cert = rep.certificate.values if rep.certificate is not None else None
    return rep.status, rep.value, cert, rep.nodes_explored


def _planted_twin_graph(rng):
    """A random graph plus copies of some vertices: adjacent twins or non-adjacent ones."""
    from conftest import random_graph
    g = random_graph(rng, 1, 6)
    edges = list(g.edges)
    n = g.n
    for _ in range(rng.randint(1, 3)):
        v = rng.randrange(n)
        nbrs = {u for e in edges for u in e if v in e} - {v}
        edges += [(u, n) for u in nbrs]
        if rng.random() < 0.6:
            edges.append((v, n))  # equal N[.]
        n += 1
    return build_graph(n, edges)


def _twin_planted_calls(rng, g):
    """Every solver entry on g, plus direct searches under boundary mass and caps.

    Returns (call, optimal) pairs: optimal says the reported value is an optimum
    rather than a property of whichever labeling the search found first.
    """
    lists = [rng.sample(range(1, 5), 2)] * 2
    lists += [rng.sample(range(1, 5), rng.randint(1, 3)) for _ in range(2)]
    lists = make_lists({v: rng.choice(lists) for v in g.vertices()})
    fixed = {v: rng.randint(0, 2) for v in g.vertices() if rng.random() < 0.3}
    calls = [
        (lambda: solve_eta(g), True),
        (lambda: exists_binary(g), False),
        (lambda: exists_binary(g, weight_cap=g.n // 3), False),
        (lambda: solve_eta1(g), True),
        (lambda: min_ptds(g), True),
        (lambda: decide_list_additive(g, lists), False),
        (functools.partial(_search, SearchProblem(g, tuple(
            (fixed[v],) if v in fixed else (0, 1, 2) for v in g.vertices())), None), False),
    ]
    if g.n <= 6:
        calls.append((lambda: solve_sigma(g), True))
    # most vertices share one domain, so most planted copies stay twins
    shared = tuple(rng.sample(range(4), rng.randint(2, 3)))
    domains = tuple(shared if rng.random() < 0.8 else tuple(rng.sample(range(4), 2))
                    for _ in g.vertices())
    extra = tuple((v, rng.randint(1, 2)) for v in g.vertices() if rng.random() < 0.3)
    unchecked = frozenset(v for v in g.vertices() if rng.random() < 0.3)
    for kw in ({"extra_sum": extra}, {"unchecked": unchecked},
               {"extra_sum": extra, "unchecked": unchecked, "min_sum": 1},
               {"weight_cap": g.n}):
        problem = SearchProblem(g, domains, **kw)
        calls.append((functools.partial(_search, problem, None), False))
        calls.append((functools.partial(_search, problem, None, minimize=True), True))
    return calls


def test_strict_twin_order_keeps_every_answer(monkeypatch):
    """Strict order for adjacent checked twins changes no answer and adds no node.

    Each call runs three ways: as shipped, with every twin link non-strict
    (the order before strict links existed) and with no symmetry breaking.
    Against the non-strict order the status, value and certificate must
    match and the node count may only fall.  Without symmetry breaking the
    first labeling found can differ, so the status must match, and the
    value too where it is an optimum.
    """
    rng = random.Random(0x7E1)
    twins = solver._twin_predecessors

    def non_strict(*args):
        return twins(*args)[0], [False] * len(args[0])

    fewer = 0
    for _ in range(40):
        g = _planted_twin_graph(rng)
        for call, optimal in _twin_planted_calls(rng, g):
            strict = _outcome(call())
            with monkeypatch.context() as m:
                m.setattr(solver, "_twin_predecessors", non_strict)
                loose = _outcome(call())
            with monkeypatch.context() as m:
                m.setattr(solver, "_Engine", functools.partial(_Engine, break_symmetry=False))
                off = _outcome(call())
            assert strict[:3] == loose[:3], (g.edges, strict, loose)
            assert strict[3] <= loose[3], (g.edges, strict, loose)
            assert strict[:2 if optimal else 1] == off[:2 if optimal else 1], (g.edges, strict, off)
            fewer += strict[3] < loose[3]
    assert fewer > 100  # strict links do fire on these graphs


def test_free_vertices_last_keeps_every_answer(monkeypatch):
    """Searching free vertices last changes no answer and no solution set.

    A free vertex has no neighbor whose sum a constraint reads; isolated
    vertices are planted so that every graph may have some.  Each call runs
    as shipped and with the free tier off (the plain maximum-cardinality
    order).  Status and value must match, and enumeration must reach the
    same set of (labels, sums).  Node counts may move either way: a branch
    and bound visits a free vertex at each of its leaves.
    """
    from conftest import random_graph
    rng = random.Random(0xF4EE)
    order = solver._search_order
    fewer = 0
    for _ in range(300):
        h = random_graph(rng, 1, 8)
        g = build_graph(h.n + rng.randint(0, 2), h.edges)
        unchecked = frozenset(v for v in g.vertices() if rng.random() < 0.3)
        binary = uniform_domains(g, (0, 1))
        cap = rng.randint(0, g.n)
        calls = [
            lambda: solve_eta(g),
            lambda: solve_eta1(g),
            lambda: exists_binary(g),
            lambda: exists_binary(g, weight_cap=cap),
            lambda: min_ptds(g),
            lambda: solve_sigma(g),
            lambda: _search(SearchProblem(g, binary, unchecked=unchecked), None, minimize=True),
            lambda: _search(SearchProblem(g, binary, unchecked=unchecked, min_sum=1), None,
                            minimize=True),
        ]
        for call in calls:
            got = call()
            with monkeypatch.context() as m:
                m.setattr(solver, "_search_order", lambda n, adj, tiers=None: order(n, adj))
                old = call()
            assert (got.status, got.value) == (old.status, old.value), (g.n, g.edges, unchecked)
            fewer += got.nodes_explored < old.nodes_explored
        problem = SearchProblem(g, binary, unchecked=unchecked)
        got, nodes = _enumerated(problem)
        with monkeypatch.context() as m:
            m.setattr(solver, "_search_order", lambda n, adj, tiers=None: order(n, adj))
            old, old_nodes = _enumerated(problem)
        assert got == old, (g.n, g.edges, unchecked)
        fewer += nodes < old_nodes
    assert fewer > 300  # the free tier does move these searches


def test_enumeration_hands_out_fresh_copies():
    # a callback keeps what it is given and tries to overwrite it: what it
    # kept must never change, and neither may later solutions or the search
    c5 = cycle_graph(5)
    problem = SearchProblem(c5, uniform_domains(c5, (0, 1)), unchecked=frozenset({0}))
    plain = []
    outcome, nodes = enumerate_solutions(problem, SearchBudget(),
                                         lambda labels, sums: plain.append((labels, sums)))
    kept = []

    def overwrite(labels, sums):
        kept.append((labels, sums, list(labels), list(sums)))
        for values in (labels, sums):
            with pytest.raises(TypeError):
                values[0] = -1

    assert enumerate_solutions(problem, SearchBudget(), overwrite) == (outcome, nodes)
    assert outcome == "exhausted" and len(plain) > 1
    assert all(list(labels) == at_labels and list(sums) == at_sums
               for labels, sums, at_labels, at_sums in kept)
    assert [(labels, sums) for labels, sums, *_ in kept] == plain
    assert all(type(labels) is tuple and type(sums) is tuple for labels, sums in plain)
    assert all(len(labels) == len(sums) == c5.n for labels, sums in plain)


def _wheel(rim):
    return build_graph(rim + 1, [(i, (i + 1) % rim) for i in range(rim)] + [(i, rim) for i in range(rim)])


def test_sigma_power_labels_match_naive(rng):
    """Labels {1, B, ..., B^(m-1)}, B = max_degree + 1, give naive_sigma's value.

    The certificate is additive, uses exactly sigma distinct labels and
    draws every label from the powers of B.
    """
    from conftest import random_graph
    graphs = [complete_graph(4), complete_graph(5), cycle_graph(5), cycle_graph(7),
              _wheel(5), _wheel(7), petersen_graph()]
    graphs += [random_graph(rng, 1, 7) for _ in range(40)]
    values = []
    for g in graphs:
        rep = solve_sigma(g)
        assert rep.status == "found"
        assert rep.value == oracles.naive_sigma(g), g.edges
        labels = set(rep.certificate.values.values())
        assert verify_additive(g, rep.certificate, mode="positive") == []
        assert len(labels) == rep.value, g.edges
        base = g.max_degree() + 1
        assert labels <= {base ** i for i in range(rep.value)}, g.edges
        values.append(rep.value)
    assert min(values[:6]) >= 3  # K4, K5, C5, C7 and the odd wheels


def test_sigma_decides_dense_cliques():
    # K8 needs all 8 labels; over the powers of 8 a few hundred nodes decide it
    rep = solve_sigma(complete_graph(8), SearchBudget(max_nodes=10_000))
    assert (rep.status, rep.value) == ("found", 8)


def test_budget_cut_keeps_the_incumbent():
    """A minimizing search cut by its budget reports its best labeling, not a value."""
    rng = random.Random(0)
    n = 16
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35])
    rep = solve_eta1(g, SearchBudget(max_nodes=100))
    assert (rep.status, rep.certificate, rep.detail) == ("budget-exceeded", None, {})
    for solve, max_nodes in ((solve_eta1, 200), (min_ptds, 400)):
        rep = solve(g, SearchBudget(max_nodes=max_nodes))
        assert (rep.status, rep.value) == ("budget-exceeded", None)
        assert verify_additive(g, rep.certificate, mode="binary") == []
        assert rep.detail == {"incumbent_weight": weight(rep.certificate)}
        assert rep.detail["incumbent_weight"] > solve(g).value  # not yet optimal here
        assert rep.to_json_dict()["certificate"] is not None
    chosen = [v for v, x in rep.certificate.values.items() if x == 1]
    assert verify_ptds(g, chosen)


def _watchers_off(_edges, adj, *_rest):
    return [[] for _ in adj]


def _random_watch_problem(rng):
    """A random problem with n <= 9 under the side constraints the watchers must respect.

    Dense graphs have triangles, so edges get watched.  Domains are one,
    two or three values up to {1..3}; boundary mass, unchecked vertices,
    min_sum and the weight cap are each drawn at random.  The labelings
    number at most 2,048, so brute force can list them all.
    """
    from conftest import random_graph
    g = random_graph(rng, 3, 9, p=rng.choice((0.4, 0.6, 0.8)))
    choices = ((0,), (1,), (2,), (0, 1), (0, 1), (1, 2), (0, 2), (1, 2, 3))
    domains = [rng.choice(choices) for _ in g.vertices()]
    while math.prod(map(len, domains)) > 2_048:
        v = rng.choice([v for v, d in enumerate(domains) if len(d) > 1])
        domains[v] = (rng.choice(domains[v]),)
    return SearchProblem(
        g, tuple(domains),
        weight_cap=rng.choice((None, None, sum(min(d) for d in domains) + rng.randint(0, 3))),
        min_sum=rng.choice((None, None, None, 1, 2)),
        extra_sum=tuple((v, rng.randint(1, 2)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(v for v in g.vertices() if rng.random() < 0.2),
    )


def _brute_force_solutions(problem):
    """Every (labels, sums) pair of a valid labeling, by listing all labelings."""
    g = problem.graph
    extra = dict(problem.extra_sum or ())
    checked = [v not in problem.unchecked for v in g.vertices()]
    found = set()
    for labels in itertools.product(*problem.domains):
        sums = [extra.get(v, 0) + sum(labels[u] for u in g.neighbors(v)) for v in g.vertices()]
        if any(checked[u] and checked[v] and sums[u] == sums[v] for u, v in g.edges):
            continue
        if problem.min_sum is not None and any(
                checked[v] and sums[v] < problem.min_sum for v in g.vertices()):
            continue
        if problem.weight_cap is not None and sum(labels) > problem.weight_cap:
            continue
        found.add((labels, tuple(sums)))
    return found


def _enumerated(problem):
    sols = set()
    outcome, nodes = enumerate_solutions(
        problem, SearchBudget(),
        lambda labels, sums: sols.add((labels, sums)))
    assert outcome == "exhausted"
    return sols, nodes


def test_edge_watchers_match_brute_force():
    """With edge watchers on, the engine agrees with a listing of every labeling.

    On 300 random problems, enumeration must reach exactly the valid
    (labels, sums) pairs, a first-solution search must find one exactly
    when one exists, and branch and bound must reach the least weight.
    """
    rng = random.Random(0x3A7C)
    watched = 0
    for _ in range(300):
        problem = _random_watch_problem(rng)
        want = _brute_force_solutions(problem)
        eng = _Engine(problem, SearchBudget())
        watched += any(eng.watch)
        assert _enumerated(problem)[0] == want, problem
        rep = _search(problem, None)
        assert (rep.status == "found") == bool(want), problem
        rep = _search(problem, None, minimize=True)
        assert rep.value == (min(sum(labels) for labels, _ in want) if want else None), problem
    assert watched > 100  # these problems do have watched edges


def test_edge_watchers_keep_every_answer(monkeypatch):
    """Edge watchers change no answer and no solution set, and cut nodes overall.

    Each solver entry runs on 300 random graphs with watchers on and with
    them monkeypatched off; status and value must match.  Enumeration under
    boundary mass and unchecked vertices must reach the same solutions.
    Node counts may rise where a different first conflict changes a
    backjump, so only the total is required to fall; the calls that rose
    are listed in the failure message.
    """
    from conftest import random_graph
    rng = random.Random(0xED6E)
    totals = [0, 0]
    rose = []
    for i in range(300):
        g = random_graph(rng, 1, 9 if i % 3 else 7, p=rng.choice((0.4, 0.6)))
        cap = rng.randint(0, g.n)
        lists = make_lists({v: rng.sample(range(1, 5), rng.randint(1, 3)) for v in g.vertices()})
        problem = _random_watch_problem(rng)
        calls = [
            ("eta", lambda: solve_eta(g)),
            ("eta1", lambda: solve_eta1(g)),
            ("binary", lambda: exists_binary(g)),
            ("binary-cap", lambda: exists_binary(g, weight_cap=cap)),
            ("ptds", lambda: min_ptds(g)),
            ("lists", lambda: decide_list_additive(g, lists)),
        ]
        if g.n <= 7:
            calls.append(("sigma", lambda: solve_sigma(g)))
        runs = []
        for watch in (solver._edge_watchers, _watchers_off):
            with monkeypatch.context() as m:
                m.setattr(solver, "_edge_watchers", watch)
                reps = [(name, call()) for name, call in calls]
                sols, nodes = _enumerated(problem)
            runs.append(([(name, r.status, r.value, r.nodes_explored) for name, r in reps]
                         + [("enumerate", None, None, nodes)], sols))
        (on, on_sols), (off, off_sols) = runs
        assert on_sols == off_sols, problem
        for (name, *answer, nodes), (_, *old_answer, old_nodes) in zip(on, off):
            assert answer == old_answer, (name, g.edges)
            totals[0] += nodes
            totals[1] += old_nodes
            if nodes > old_nodes:
                rose.append((i, name, old_nodes, nodes))
    assert totals[0] < totals[1], rose


def _random_clique_problem(rng):
    """A random problem with n <= 9 whose graph holds a clique of five or more vertices.

    A clique on five to n random vertices is laid over G(n, p).  Domains
    are lists of one to four values from 0 to 5, so clique members often
    offer too few distinct values for a Hall check to pass; boundary mass,
    unchecked vertices, min_sum and a weight cap are each drawn at random.
    The labelings number at most 2,048, so brute force can list them all.
    """
    n = rng.randint(5, 9)
    clique = sorted(rng.sample(range(n), rng.randint(5, n)))
    p = rng.choice((0.2, 0.4, 0.6))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    edges.update(itertools.combinations(clique, 2))
    g = build_graph(n, sorted(edges))
    choices = ((0,), (1,), (0, 1), (0, 1), (0, 1), (1, 2), (0, 2), (1, 2, 3), (0, 2, 3), (2, 3, 4, 5))
    domains = [rng.choice(choices) for _ in g.vertices()]
    while math.prod(map(len, domains)) > 2_048:
        v = rng.choice([v for v, d in enumerate(domains) if len(d) > 1])
        domains[v] = (rng.choice(domains[v]),)
    return SearchProblem(
        g, tuple(domains),
        weight_cap=rng.choice((None, None, sum(min(d) for d in domains) + rng.randint(0, 4))),
        min_sum=rng.choice((None, None, None, 1, 3)),
        extra_sum=tuple((v, rng.randint(1, 3)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(v for v in g.vertices() if rng.random() < 0.1),
    )


class _HallCounted(_Engine):
    """The shipped engine, counting the branches its Hall checks cut."""

    cuts = 0

    def _hall_short(self, groups, size):
        short = super()._hall_short(groups, size)
        _HallCounted.cuts += short
        return short


def test_hall_cut_matches_brute_force(monkeypatch):
    """With the Hall cut on, every search agrees with a listing of every labeling.

    On 300 random problems holding a clique of five or more vertices,
    enumeration must reach exactly the valid (labels, sums) pairs, a
    first-solution search (which learns) must find one exactly when one
    exists, and branch and bound must reach the least weight.
    """
    rng = random.Random(0x4A11)
    monkeypatch.setattr(solver, "_Engine", _HallCounted)
    _HallCounted.cuts = 0
    for _ in range(300):
        problem = _random_clique_problem(rng)
        want = _brute_force_solutions(problem)
        assert _enumerated(problem)[0] == want, problem
        rep = _search(problem, None)
        assert rep.status == ("found" if want else "infeasible"), problem
        rep = _search(problem, None, minimize=True)
        assert rep.value == (min(sum(labels) for labels, _ in want) if want else None), problem
    assert _HallCounted.cuts > 100  # the cut does fire on these problems


def test_hall_entries_watch_one_position():
    def engine(g):
        return _Engine(SearchProblem(g, uniform_domains(g, (1, 2, 3))), SearchBudget())

    # a triangle-free graph watches nothing, and every vertex shares one tuple
    eng = engine(petersen_graph())
    assert all(w is eng.watch[0] for w in eng.watch) and eng.watch[0] == ()
    # counterexample k = 3: one entry per K6 copy, at the hub (position 0),
    # with the hub as its only culprit; the hub and a copy's y vertices form
    # a K4, below the size floor
    g = counterexample_graph(3)[0]
    eng = engine(g)
    hall = [(e[2], e[3]) for w in eng.watch for e in w if e[1] is None]
    assert eng.order[0] == g.n - 1 and hall == [(6, 1)] * 5
    assert len([e for e in eng.watch[g.n - 1] if e[1] is None]) == 5
    # counterexample k = 2 has only K4 copies: no Hall entry at all
    eng = engine(counterexample_graph(2)[0])
    assert not any(e[1] is None for w in eng.watch for e in w)


def _random_learning_problem(rng):
    """A random problem with n <= 9 whose domains mostly hold one or two values.

    The two-value domains include pairs other than {0, 1}.  One problem in
    four also gives one vertex three values, a position that learning must
    leave out.  Boundary mass, unchecked vertices, min_sum and a weight cap
    are each drawn at random.
    """
    from conftest import random_graph
    g = random_graph(rng, 3, 9, p=rng.choice((0.5, 0.6, 0.7)))
    choices = ((0,), (1,), (0, 1), (0, 1), (0, 1), (0, 1), (0, 1), (1, 2), (0, 2), (2, 5))
    domains = [rng.choice(choices) for _ in g.vertices()]
    if rng.random() < 0.25:
        domains[rng.randrange(g.n)] = (0, 1, 2)
    return SearchProblem(
        g, tuple(domains),
        weight_cap=rng.choice((None, None, None, sum(min(d) for d in domains) + rng.randint(0, 3))),
        min_sum=rng.choice((None, None, None, 1, 2)),
        extra_sum=tuple((v, rng.randint(1, 2)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(v for v in g.vertices() if rng.random() < 0.1),
    )


class _CheckedLearning(_Engine):
    """An engine that checks every nogood it records and every one it visits."""

    fired = 0

    def _stored(self):
        return [ng for pair in self.ng_watch for waiting in pair for ng in waiting]

    def _learn(self, mask):
        before = len(self._stored())
        super()._learn(mask)
        if len(self._stored()) > before:
            wide = sum(1 << self.pos[v] for v, d in enumerate(self.domains) if len(d) > 2)
            assert mask & (mask + 1), f"whole prefix {mask:b} recorded"
            assert not mask & wide, f"{mask:b} touches a domain of more than two values"

    def _nogood_after(self, depth, bit):
        waiting = list(self.ng_watch[depth][bit])
        ones, low = self.ones_mask, (2 << depth) - 1
        mask = super()._nogood_after(depth, bit)
        if mask is not None:
            _CheckedLearning.fired += 1
            # the visit stops at the nogood that fires, which stays
            waiting = waiting[:len(waiting) - len(self.ng_watch[depth][bit]) + 1]
        kept = {id(ng) for ng in self._stored()}
        for ng in waiting:
            m, pattern, _k = ng
            diff = (ones ^ pattern) & m & low
            if diff & (diff - 1):
                assert id(ng) not in kept, f"nogood {m:b} kept past two mismatches"
            elif diff:
                q = diff.bit_length() - 1
                assert any(x is ng for x in self.ng_watch[q][pattern >> q & 1])
        return mask


def test_nogood_learning_keeps_every_answer(monkeypatch):
    """Nogood learning changes no answer, and only first-solution searches learn.

    300 random problems run with learning on, under an engine that checks
    each recorded and each visited nogood, and with it monkeypatched off.
    The first-solution search must give the same status and certificate
    both ways, found exactly when a listing of every labeling finds one;
    branch and bound, eta1, PTDS and enumeration must explore exactly the
    same nodes.
    """
    rng = random.Random(0x90D)
    _CheckedLearning.fired = 0
    totals = [0, 0]
    for _ in range(300):
        problem = _random_learning_problem(rng)
        g = problem.graph
        runs = []
        for learn in (True, False):
            with monkeypatch.context() as m:
                if learn:
                    m.setattr(solver, "_Engine", _CheckedLearning)
                else:
                    m.setattr(_Engine, "_learn", lambda self, mask: None)
                first = _search(problem, None)
                others = [_search(problem, None, minimize=True), solve_eta1(g), min_ptds(g)]
                _sols, enum_nodes = _enumerated(problem)
            runs.append(first)
            totals[not learn] += first.nodes_explored
            runs.append([r.nodes_explored for r in others] + [enum_nodes])
        on, on_nodes, off, off_nodes = runs
        assert _outcome(on)[:3] == _outcome(off)[:3], problem
        assert (on.status == "found") == bool(_brute_force_solutions(problem)), problem
        if on.certificate is not None:
            assert _violations(problem, [on.certificate[v] for v in g.vertices()]) == []
        assert on_nodes == off_nodes, problem
    # nogoods do fire on these problems, and they cut nodes overall
    assert _CheckedLearning.fired > 20 and totals[0] < totals[1], (_CheckedLearning.fired, totals)


def test_learning_stops_when_nogoods_do_not_fire(monkeypatch):
    """A search whose nogoods rarely fire stops learning and drops them.

    The weight-capped search of the octahedron K(2,2,2) at d = 31 records
    thousands of nogoods and fires few of them (learning switches off after
    about 23k nodes).  The 5-variable SAT reduction of the binary-sat5 pin
    fires its nogoods often (117 fires for 306 records), so it keeps
    learning, and keeps its pinned node count, even when the trial is cut
    from 4,096 records to 256.
    """
    engines = []

    class Recording(_Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(solver, "_Engine", Recording)
    oracles.check_threshold_inapprox(complete_multipartite([2, 2, 2]), 31,
                                     SearchBudget(max_nodes=40_000))
    eng = engines[0]
    assert not eng.learn and eng.ng_stored > solver.LEARN_TRIAL
    assert eng.ng_fired * solver.LEARN_FIRE_RATE < eng.ng_stored
    assert not any(waiting for pair in eng.ng_watch for waiting in pair)
    engines.clear()
    monkeypatch.setattr(solver, "LEARN_TRIAL", 256)
    assert _sat5_binary_nodes() == 1_326
    (eng,) = engines
    assert eng.learn and eng.ng_stored > solver.LEARN_TRIAL, eng.ng_stored


def _random_tail_problem(rng):
    """A random problem with n from 3 to 10 whose last positions are often free.

    Pendants hang on unchecked vertices and isolated vertices are added, so
    many problems end in free vertices.  Domains hold one to three values;
    boundary mass, unchecked vertices, min_sum and a weight cap are each
    drawn at random.  The labelings number at most 4,096.
    """
    from conftest import random_graph
    h = random_graph(rng, 3, 7)
    n, edges = h.n, list(h.edges)
    unchecked = {v for v in range(n) if rng.random() < 0.4}
    for _ in range(rng.randint(1, 10 - n) if rng.random() < 0.7 else 0):
        if unchecked and rng.random() < 0.7:
            edges.append((rng.choice(sorted(unchecked)), n))
        n += 1
    g = build_graph(n, edges)
    choices = ((0,), (1,), (0, 1), (0, 1), (0, 1), (0, 1), (1, 2), (0, 2), (0, 1, 2), (1, 2, 4))
    domains = [rng.choice(choices) for _ in g.vertices()]
    while math.prod(map(len, domains)) > 4_096:
        v = rng.choice([v for v, d in enumerate(domains) if len(d) > 1])
        domains[v] = (rng.choice(domains[v]),)
    return SearchProblem(
        g, tuple(domains),
        weight_cap=rng.choice((None, None, sum(min(d) for d in domains) + rng.randint(0, 4))),
        min_sum=rng.choice((None, None, None, 1)),
        extra_sum=tuple((v, rng.randint(1, 2)) for v in g.vertices() if rng.random() < 0.3),
        unchecked=frozenset(unchecked | {v for v in g.vertices() if rng.random() < 0.1}),
    )


class _TailChecked(_Engine):
    """The shipped engine, checking why no constraint can fail on its free tail.

    Each walk must return None on a stop, and otherwise (1 << F) - 1, the
    mask the frames return at the first free position F once a leaf has
    passed, with lo restored.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        tail = set(self.order[self.free_start:])
        assert not any(self.watch[v] for v in tail)
        assert all(self.twin_prev[v] is None and not self.twin_strict[v] for v in tail)
        for v in tail:
            # no constrained neighbor: no checked neighbor with a checked
            # neighbor of its own, nor, under min_sum, any checked neighbor
            for u in self.cadj[v]:
                assert self.min_sum is None and not self.cadj[u]

    def _free_tail(self, weight):
        before = self.lo[:]
        mask = super()._free_tail(weight)
        assert mask is None or (mask, self.lo) == ((1 << self.free_start) - 1, before)
        return mask


class _Frames(_Engine):
    """The engine with one frame per free vertex."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # the search reaches depth n through frames, and the walk there gets
        # an empty tail, so that it hands out the leaf and walks nothing
        self.free_start = self.n


def _tail_runs(problem):
    """What each kind of search hands out on problem, under the current _Engine."""
    runs = {}
    sols = []
    runs["enumerated"] = enumerate_solutions(
        problem, SearchBudget(), lambda labels, sums: sols.append((labels, sums))), sols
    nodes = runs["enumerated"][0][1]
    runs["cut"] = []
    for max_nodes in (1, 5, 17, 60, max(1, nodes // 2), max(1, nodes - 1)):
        got = []
        outcome = enumerate_solutions(problem, SearchBudget(max_nodes=max_nodes),
                                      lambda labels, sums: got.append(labels))
        runs["cut"].append((outcome, len(got)))
    # every leaf under twin order: a hook that neither stops nor lowers the
    # cap, logging each leaf's labels, weight and sums
    eng = solver._Engine(problem, SearchBudget())
    leaves = []
    eng.run(lambda w: leaves.append((eng.label[:], w, eng.lo[:])) is None and False)
    runs["leaves"] = leaves, eng.nodes
    # a minimizing hook, logging each leaf's weight and the cap in force
    eng = solver._Engine(problem, SearchBudget())
    lowered = []

    def lower(w):
        lowered.append((w, eng.cap))
        eng.cap = w - 1
        return False

    eng.run(lower)
    runs["lowered"] = lowered, eng.nodes
    runs["first"] = _outcome(_search(problem, None))
    runs["bnb"] = _outcome(_search(problem, None, minimize=True))
    return runs


def test_free_tail_walk_matches_frames(monkeypatch):
    """The free-tail walk hands out the frames' leaves, in order, at equal nodes.

    300 random problems run with the walk and with one frame per free
    vertex.  Both apply one weight bound to the live cap, so they must
    agree exactly.  Enumeration must give the same (labels, sums) sequence
    and node count, and the same number of solutions under node budgets
    that cut it; a first-solution search and branch and bound the same
    status, value, certificate and nodes; a hook that neither stops nor
    lowers the cap the same leaves under twin order; a hook that lowers
    the cap below each leaf the same leaves, none of them above the cap in
    force when it is reached.  Each walk must return the mask the frames
    return at the first free position (_TailChecked).
    """
    rng = random.Random(0x7A11)
    tails = cut = 0
    for _ in range(300):
        problem = _random_tail_problem(rng)
        tails += _Engine(problem, SearchBudget()).free_start < problem.graph.n
        both = []
        for engine in (_TailChecked, _Frames):
            with monkeypatch.context() as m:
                m.setattr(solver, "_Engine", engine)
                both.append(_tail_runs(problem))
        walk, frames = both
        for run in (walk, frames):
            assert all(cap is None or w <= cap for w, cap in run["lowered"][0]), problem
        for key in ("enumerated", "cut", "leaves", "lowered", "first", "bnb"):
            assert walk[key] == frames[key], (key, problem)
        cut += sum(0 < got < len(walk["enumerated"][1]) for _outcome, got in walk["cut"])
    assert tails > 100 and cut > 100, (tails, cut)


def test_free_tail_walk_counts_in_closed_form():
    """The walk counts one node per (re)assignment over the tail order.

    On an edgeless graph every vertex is free, so the whole search is the
    walk: prod |D_j| solutions in sum_q prod_{j <= q} |D_j| nodes, the i-th
    reached at node sum_q (i // prod_{j > q} |D_j| + 1), and a budget cut
    hands out exactly the solutions reached.  On the variable gadget each
    visit to the ten free pendants takes 2,046 nodes and hands out 1,024
    solutions, against 10 nodes and one solution with one-value pendants;
    the search before the tail is the same.
    """
    domains = ((0, 1), (0, 1, 2), (1,), (0, 2, 5))
    problem = SearchProblem(build_graph(4, []), domains)
    sols = list(itertools.product(*domains))
    reached = [sum(i // math.prod(map(len, domains[q + 1:])) + 1 for q in range(4))
               for i in range(len(sols))]
    nodes = sum(math.prod(map(len, domains[:q + 1])) for q in range(4))
    assert (len(sols), nodes, reached[-1]) == (18, 32, 32)
    for max_nodes in range(1, nodes + 2):
        got = []
        outcome = enumerate_solutions(problem, SearchBudget(max_nodes=max_nodes),
                                      lambda labels, _sums: got.append(labels))
        # a cut counts the node past the budget
        assert outcome == (("exhausted", nodes) if max_nodes >= nodes
                           else ("budget-exceeded", max_nodes + 1)), max_nodes
        assert got == sols[:sum(r <= max_nodes for r in reached)], max_nodes
    # with one-value pendants each visit hands out one solution
    (full, full_nodes), (single, single_nodes) = (
        _enumerated(_variable_gadget_problem(pendant)) for pendant in ((0, 1), (0,)))
    visits = len(single)
    assert visits == 4
    assert (len(full), full_nodes - single_nodes) == (1_024 * visits, (2_046 - 10) * visits)


@pytest.mark.parametrize("solve, nodes", [
    (solve_eta, 3_000), (exists_binary, 3_002), (solve_eta1, 3_002), (solve_sigma, 3_000)],
    ids=["eta", "binary", "eta1", "sigma"])
def test_free_tail_walk_keeps_deep_searches_off_the_recursion(solve, nodes):
    """P3 plus 2,997 isolated vertices: every search finds value 1 without RecursionError.

    The isolated vertices are free, so the search frames only the three
    vertices of P3 and walks the rest (_free_tail).  With one frame per
    free vertex (_Frames) each of these searches would recurse about 3,000
    frames deep, past the interpreter's default limit of 1,000.
    """
    rep = solve(build_graph(3_000, [(0, 1), (1, 2)]))
    assert (rep.status, rep.value, rep.nodes_explored) == ("found", 1, nodes)


def _edgeless_problem():
    # the 18-labeling problem of test_free_tail_walk_counts_in_closed_form
    return SearchProblem(build_graph(4, []), ((0, 1), (0, 1, 2), (1,), (0, 2, 5)))


def _full_hand_out(problem, max_nodes):
    sols = []
    result = enumerate_solutions(problem, SearchBudget(max_nodes=max_nodes),
                                 lambda labels, sums: sols.append((labels, sums)))
    return result, sols


@pytest.mark.parametrize("make, dense", [(_edgeless_problem, None), (_variable_gadget_problem, 150)],
                         ids=["edgeless", "variable-gadget-x=0,!x=0"])
def test_counting_mode_matches_a_full_hand_out(make, dense):
    """on_solution switches enumeration to counting by returning a true value.

    Under each budget from 1 to nodes + 1, and for a switch after the first
    and after the third solution, the search gives the same (outcome,
    nodes) as a full hand-out; the solutions handed out are the full
    hand-out's first ones, and with the count on_count gets, called once
    also on a cut, they make up all of them.  Every budget of the variable
    gadget case would take about 45 s, so there the budgets are each one
    up to `dense` (the core search, the switch and the start of the first
    free tail) and then every 53rd.
    """
    problem = make()
    (_outcome, nodes), _sols = _full_hand_out(problem, 10**9)
    budgets = range(1, nodes + 2)
    if dense is not None:
        budgets = sorted({*range(1, dense), *range(dense, nodes + 2, 53), nodes, nodes + 1})
    switched = 0
    for max_nodes in budgets:
        want, sols = _full_hand_out(problem, max_nodes)
        for after in (1, 3):
            handed, counts = [], []

            def on_solution(labels, sums):
                handed.append((labels, sums))
                return len(handed) >= after

            got = enumerate_solutions(problem, SearchBudget(max_nodes=max_nodes), on_solution,
                                      on_count=counts.append)
            assert got == want, (max_nodes, after)
            assert handed == sols[:after] and len(counts) == 1, (max_nodes, after)
            assert len(handed) + counts[0] == len(sols), (max_nodes, after)
            switched += counts[0] > 0 and got[0] == "budget-exceeded"
    # some cut landed after the switch, so the count was passed on a cut
    assert switched


def test_counting_mode_needs_on_count():
    """Without on_count a true return value switches nothing: every solution is handed out."""
    for problem in (_edgeless_problem(), _variable_gadget_problem()):
        want = _full_hand_out(problem, 10**9)
        sols = []
        got = enumerate_solutions(problem, SearchBudget(),
                                  lambda labels, sums: sols.append((labels, sums)) or True)
        assert (got, sols) == want
        assert len(sols) in (18, 4_096)


def _counted_after(problem, budget, after):
    """enumerate_solutions switched to counting at its after-th solution.

    Returns the result, the solutions handed out, the count on_count got,
    and each one-step count the engine made, as (first node, last node).
    The logging engine subclasses the one in force, so that a caller's
    patched engine (_tail_ends) still runs.
    """
    handed, counts, steps = [], [], []

    class Logged(solver._Engine):
        def _count_rest(self, leaves, nodes):
            start = self.nodes
            counted = super()._count_rest(leaves, nodes)
            if counted:
                steps.append((start + 1, self.nodes))
            return counted

    def on_solution(labels, sums):
        handed.append((labels, sums))
        return len(handed) >= after

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_Engine", Logged)
        got = enumerate_solutions(problem, budget, on_solution, on_count=counts.append)
    assert len(counts) == 1
    return got, handed, counts[0], steps


def _counted_at_first(problem, budget):
    """enumerate_solutions switched to counting at its first solution: (result, count)."""
    got, _handed, counted, _steps = _counted_after(problem, budget, 1)
    return got, counted


def _tail_ends(problem):
    """The node count at which each free tail of an uncut counted enumeration ends,
    for the tails entered once the search only counts."""
    ends = []

    class Logged(_Engine):
        def _free_tail(self, weight):
            counting = self.counted is not None
            mask = super()._free_tail(weight)
            if counting:
                ends.append(self.nodes)
            return mask

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_Engine", Logged)
        _counted_at_first(problem, SearchBudget())
    return ends


def test_counted_tails_match_a_full_hand_out_at_their_ends():
    """A tail counted in one step ends, and a budget cuts around it, where the walk's does.

    Case x=0,!x=0 of the variable gadget, switched to counting at its
    first solution (inside its first free tail): each later tail is
    counted in one step.  Under a budget of one node less than such a
    tail's end the walk must cut inside it; at its end and one node past
    it the tail is counted whole and the next node is cut.  Each gives the
    (outcome, nodes) of a full hand-out, and its one handed-out solution
    plus the count make up the hand-out's solutions.
    """
    problem = _variable_gadget_problem()
    ends = _tail_ends(problem)
    assert ends == [4_166, 6_238, 8_288]
    for end in ends:
        for max_nodes in (end - 1, end, end + 1):
            want, sols = _full_hand_out(problem, max_nodes)
            got, counted = _counted_at_first(problem, SearchBudget(max_nodes=max_nodes))
            assert got == want, max_nodes
            assert 1 + counted == len(sols), max_nodes


def test_counting_under_a_weight_cap_matches_a_full_hand_out():
    """A weight cap prunes the free tails, so none is counted in one step.

    At cap 8 the variable gadget's case x=0,!x=0 has 1,628 of its 4,096
    solutions; counting every tail whole would count 4,096.
    """
    problem = dataclasses.replace(_variable_gadget_problem(), weight_cap=8)
    want, sols = _full_hand_out(problem, 10**9)
    got, counted = _counted_at_first(problem, SearchBudget())
    assert (got, 1 + counted, len(sols)) == (want, 1_628, 1_628)


def test_counted_tails_keep_the_time_cap(monkeypatch):
    """A tail counted in one step checks the clock where the walk would.

    The clock reads 0 for the deadline and for the check at node 2,048, in
    the first tail (the step that counts the rest of that tail from the
    switch at node 76 passes it), and far past the deadline from then on.
    The second tail (nodes 2,121 to 4,166) is counted in one step; it
    passes node 4,096, so the step checks the clock and the search is cut
    at node 4,096, as a full hand-out is.
    """
    def clocked(enumerate_once):
        reads = itertools.count()
        monkeypatch.setattr(solver.time, "monotonic", lambda: 0.0 if next(reads) < 2 else 1e9)
        return enumerate_once()

    problem = _variable_gadget_problem()
    budget = SearchBudget(max_ms=1.0)
    sols = []
    want = clocked(lambda: enumerate_solutions(problem, budget,
                                               lambda labels, _sums: sols.append(labels)))
    got, counted = clocked(lambda: _counted_at_first(problem, budget))
    assert want == ("budget-exceeded", 4_096)
    assert (got, 1 + counted) == (want, len(sols))


@pytest.mark.parametrize("after, leaf", [(1, 76), (3, 79), (1_024, 2_112)])
def test_switching_tail_is_counted_from_the_switch(after, leaf):
    """The rest of the tail in which enumeration switches to counting is counted in one step.

    Case x=0,!x=0 of the variable gadget: its first free tail, nodes 67 to
    2,112, holds its first 1,024 solutions, the first at node 76 and the
    third at node 79.  A switch at either leaves the rest of the tail to
    one step; a switch at the 1,024th, the tail's last leaf (node 2,112),
    leaves nothing to count.  Under a budget of 2,111 the step would end
    past it, so the walk goes on and cuts at the tail's last leaf; at
    2,112 and 2,113 the step counts the tail whole.  Each budget, and no
    cut, gives the (outcome, nodes) of a full hand-out; its first
    solutions are handed out, and with the count they make up all of them.
    """
    problem = _variable_gadget_problem()
    for max_nodes in (2_111, 2_112, 2_113, 10**9):
        want, sols = _full_hand_out(problem, max_nodes)
        got, handed, counted, steps = _counted_after(problem, SearchBudget(max_nodes=max_nodes),
                                                     after)
        assert got == want, max_nodes
        assert handed == sols[:after] and len(handed) + counted == len(sols), max_nodes
        # the walk stops at the switch; a refused step walks on to the cut
        assert (steps[:1] == [(leaf + 1, 2_112)]) == (max_nodes > 2_111), (max_nodes, steps)
    assert want == ("exhausted", 8_289) and len(sols) == 4_096


def test_switching_tail_keeps_the_time_cap(monkeypatch):
    """A step from the switching leaf that passes node 2,048 reads the clock first.

    The clock reads 0 for the deadline and far past it from then on, so it
    has expired when enumeration switches at its first solution (node 76).
    The rest of the first tail would pass node 2,048, so the step reads the
    clock and is refused; the walk goes on and is cut at node 2,048, as a
    full hand-out is.
    """
    def clocked(enumerate_once):
        reads = itertools.count()
        monkeypatch.setattr(solver.time, "monotonic", lambda: 0.0 if next(reads) < 1 else 1e9)
        return enumerate_once()

    problem = _variable_gadget_problem()
    budget = SearchBudget(max_ms=1.0)
    sols = []
    want = clocked(lambda: enumerate_solutions(problem, budget,
                                               lambda labels, _sums: sols.append(labels)))
    got, handed, counted, steps = clocked(lambda: _counted_after(problem, budget, 1))
    assert want == ("budget-exceeded", 2_048)
    assert (got, len(handed) + counted, steps) == (want, len(sols), [])


def test_switching_tail_under_a_weight_cap_is_walked():
    """A weight cap prunes the rest of the switching tail, so no step counts it.

    At cap 8 the first tail of case x=0,!x=0 holds 638 of the case's 1,628
    solutions; counting the rest of it whole after the third would make
    them 1,024.  (test_counting_under_a_weight_cap_matches_a_full_hand_out
    switches at the first.)
    """
    problem = dataclasses.replace(_variable_gadget_problem(), weight_cap=8)
    want, sols = _full_hand_out(problem, 10**9)
    got, handed, counted, steps = _counted_after(problem, SearchBudget(), 3)
    assert (got, len(handed) + counted, steps) == (want, 1_628, [])
    assert handed == sols[:3]
