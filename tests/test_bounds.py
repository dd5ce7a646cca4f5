from luckylab.bounds import bounds_report, clique_ratio_bound, regular_bound
from luckylab.constructions import clique_eta_one
from luckylab.graph import complete_graph, cycle_graph, max_clique, path_graph, petersen_graph


def test_clique_ratio_bound_values():
    assert clique_ratio_bound(complete_graph(5), 5) == 5
    assert clique_ratio_bound(cycle_graph(5), 2) == 1
    g = clique_eta_one(4)
    assert g.n == 10 and max_clique(g)[0] == 4
    assert clique_ratio_bound(g, 4) == 1


def test_clique_ratio_bound_equals_n_on_complete():
    for n in (1, 2, 3, 5):
        assert clique_ratio_bound(complete_graph(n), n) == n


def test_regular_bound():
    assert regular_bound(complete_graph(4), 4) == 3   # 3-regular, 3*4 > 4+4
    assert regular_bound(petersen_graph(), 2) is None  # omega=2 fails the threshold
    assert regular_bound(path_graph(3), 2) is None     # not regular


def test_bounds_report_k4():
    rep = bounds_report(complete_graph(4))
    assert rep.omega == 4 and rep.chi == 4
    assert rep.eta == 4 and rep.sigma == 4
    assert rep.clique_ratio_bound == 4
    assert rep.regular_bound == 3
    assert rep.all_flags_hold()
    assert rep.flags["eta_le_chi_conjecture"]


def test_bounds_report_c5():
    rep = bounds_report(cycle_graph(5))
    assert rep.eta1 is None and rep.eta1_infeasible
    assert rep.sigma == 3 and rep.chi == 3
    assert "eta1_ge_chi_minus_1" not in rep.flags
    assert rep.all_flags_hold()


def test_bounds_report_sweep_small(rng):
    from conftest import random_graph
    for _ in range(25):
        g = random_graph(rng, 1, 6)
        rep = bounds_report(g)
        assert rep.all_flags_hold(), (g.edges, rep.to_json_dict())


def test_bounds_json():
    import json

    rep = bounds_report(path_graph(3))
    d = json.loads(json.dumps(rep.to_json_dict(), sort_keys=True))
    assert d["eta"] == 1 and d["chi"] == 2


def test_bounds_report_computes_omega_once(monkeypatch):
    import luckylab.bounds as bounds_mod

    calls = []
    real = bounds_mod.max_clique

    def counting(g, budget=None):
        calls.append(g)
        return real(g, budget)

    monkeypatch.setattr(bounds_mod, "max_clique", counting)
    for g in (complete_graph(4), petersen_graph(), path_graph(3)):
        calls.clear()
        bounds_report(g)
        assert len(calls) == 1
