import pytest

from luckylab.graph import build_graph, complete_graph, cycle_graph, path_graph
from luckylab.labeling import (
    Labeling,
    LabelingError,
    all_neighbor_sums,
    induced_coloring,
    labels_outside_mode,
    make_lists,
    verify_additive,
    verify_from_lists,
    verify_ptds,
    weight,
)


def test_neighbor_sum_path():
    g = path_graph(3)
    assert all_neighbor_sums(g, Labeling({0: 1, 1: 1, 2: 1})) == [1, 2, 1]


def test_neighbor_sum_isolated():
    g = build_graph(2, [])
    assert all_neighbor_sums(g, Labeling({0: 5, 1: 7})) == [0, 0]


def test_neighbor_sum_missing_label_names_vertex():
    g = path_graph(2)
    with pytest.raises(LabelingError, match="vertex 1 has no label"):
        verify_additive(g, Labeling({0: 1}))
    # of several unlabeled vertices, the least is named
    with pytest.raises(LabelingError, match="^labeling is not total: vertex 2 has no label$"):
        all_neighbor_sums(path_graph(5), Labeling({4: 1, 3: 1, 0: 1}), base=1)


def test_labels_outside_mode_ascending_and_within_the_graph():
    # insertion order does not matter, and labels on vertices the graph lacks are ignored
    lab = Labeling({7: 5, 3: 2, 2: 1, 1: 0, 0: 4, -1: 9})
    assert labels_outside_mode(path_graph(4), lab, "binary") == [0, 3]
    assert labels_outside_mode(path_graph(4), lab, "positive") == [1]
    assert labels_outside_mode(path_graph(4), lab, "any") == []


def test_verify_additive_path_all_ones():
    assert verify_additive(path_graph(3), Labeling({0: 1, 1: 1, 2: 1})) == []


def test_verify_additive_k2_violation():
    vio = verify_additive(complete_graph(2), Labeling({0: 1, 1: 1}))
    assert len(vio) == 1
    assert vio[0].edge == (0, 1)
    assert vio[0].sum_u == vio[0].sum_v == 1


def test_verify_additive_c4():
    # sums are 3,2,3,2: no adjacent pair collides
    assert verify_additive(cycle_graph(4), Labeling({0: 1, 1: 1, 2: 1, 3: 2})) == []


def test_mode_flags():
    g = path_graph(2)
    with pytest.raises(LabelingError):
        verify_additive(g, Labeling({0: 0, 1: 1}), mode="positive")
    with pytest.raises(LabelingError):
        verify_additive(g, Labeling({0: 2, 1: 1}), mode="binary")
    with pytest.raises(LabelingError):
        verify_additive(g, Labeling({0: -1, 1: 1}))


def test_verify_from_lists():
    lab = Labeling({0: 1, 1: 1})
    assert verify_from_lists(lab, make_lists({0: {1, 2}, 1: {1}}))
    assert not verify_from_lists(Labeling({0: 3, 1: 1}), make_lists({0: {1, 2}, 1: {1}}))
    # differing vertex domains never pass
    assert not verify_from_lists(Labeling({0: 1}), make_lists({0: {1}, 1: {1}}))


def test_weight():
    assert weight(Labeling({0: 0, 1: 0})) == 0
    assert weight(Labeling({v: 1 for v in range(4)})) == 4


def test_induced_coloring_path():
    assert induced_coloring(path_graph(3), Labeling({0: 1, 1: 1, 2: 1})) == {0: 1, 1: 2, 2: 1}


def test_induced_coloring_k3():
    col = induced_coloring(complete_graph(3), Labeling({0: 1, 1: 2, 2: 3}))
    assert col == {0: 5, 1: 4, 2: 3}


def test_induced_coloring_rejects_invalid():
    with pytest.raises(LabelingError, match="not additive"):
        induced_coloring(complete_graph(2), Labeling({0: 1, 1: 1}))


def test_ptds_examples():
    assert verify_ptds(cycle_graph(4), {1, 2, 3})
    assert not verify_ptds(path_graph(3), set())
    assert not verify_ptds(complete_graph(2), {0})
    # equal counts on an edge fail even when domination holds
    assert not verify_ptds(complete_graph(2), {0, 1})
