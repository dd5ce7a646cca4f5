import pytest

from luckylab import fileio
from luckylab.fileio import FileFormatError
from luckylab.graph import build_graph, petersen_graph
from luckylab.labeling import Labeling, make_lists


def test_graph_round_trip_bit_exact():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)], {0: "start", 3: "end"})
    text = fileio.graph_to_text(g)
    again = fileio.graph_from_text(text)
    assert again == g
    assert fileio.graph_to_text(again) == text


def test_graph_text_shape():
    g = build_graph(3, [(0, 1)], {1: "w_c^1"})
    text = fileio.graph_to_text(g)
    assert text.splitlines()[0] == "p edge 3 1"
    assert "c name 2 w_c^1" in text
    assert "e 1 2" in text


def test_graph_errors_carry_line_numbers():
    with pytest.raises(FileFormatError, match="line 1"):
        fileio.graph_from_text("nonsense\n")
    with pytest.raises(FileFormatError, match="line 2"):
        fileio.graph_from_text("p edge 2 1\ne 1\n")
    with pytest.raises(FileFormatError, match="edge line before"):
        fileio.graph_from_text("e 1 2\np edge 2 1\n")
    with pytest.raises(FileFormatError, match="declares"):
        fileio.graph_from_text("p edge 2 5\ne 1 2\n")


@pytest.mark.parametrize("text, message", [
    ("c x\np edge 3 1\ne 1 9\n", "line 3: edge (1, 9) has an endpoint outside 1..3"),
    ("p edge 3 2\ne 1 2\ne 2 2\n", "line 3: loop edge (2, 2) not allowed in a simple graph"),
    ("p edge 3 0\nc name 1 a\nc name 7 foo\n", "line 3: name attached to unknown vertex 7"),
    ("c x\np edge 3 2\ne 1 2\n", "line 2: problem line declares 2 edges, file has 1"),
    ("c x\np edge -1 0\n", "line 2: vertex count must be nonnegative, got -1"),
    # the graph builder checks every edge before any name
    ("p edge 2 1\nc name 5 x\ne 1 3\n", "line 3: edge (1, 3) has an endpoint outside 1..2"),
], ids=["endpoint", "loop", "name", "edge-count", "vertex-count", "edge-before-name"])
def test_graph_errors_name_the_offending_line_in_file_ids(text, message):
    with pytest.raises(FileFormatError) as err:
        fileio.graph_from_text(text)
    assert str(err.value) == message


def test_labeling_round_trip():
    lab = Labeling({0: 1, 1: 0, 2: 7})
    text = fileio.labeling_to_text(lab)
    assert text == "v 1 1\nv 2 0\nv 3 7\n"
    assert fileio.labeling_from_text(text) == lab
    with pytest.raises(FileFormatError, match="duplicate"):
        fileio.labeling_from_text("v 1 1\nv 1 2\n")


def test_lists_round_trip():
    lists = make_lists({0: {2, 1}, 1: {3}})
    text = fileio.lists_to_text(lists)
    assert text == "l 1 1 2\nl 2 3\n"
    assert fileio.lists_from_text(text) == lists


@pytest.mark.parametrize("text, line", [
    ("l 1 0 2\nl 2 1 2\nl 3 1 2\n", 1),
    ("l 1 1 2\nl 2 -1 2\nl 3 1 2\n", 2),
    ("l 1 1 2\nl 2 1 2\nl 3 2 0\n", 3),
])
def test_lists_reject_non_positive_values(text, line):
    # a list holds labels, and labels are positive
    with pytest.raises(FileFormatError, match=f"^line {line}: list value -?[01] is not positive$"):
        fileio.lists_from_text(text)


def test_cnf_round_trip():
    text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 0\n"
    nv, clauses = fileio.cnf_from_text(text)
    assert nv == 3
    assert clauses == [(1, -2, 3), (-1, 2)]
    assert fileio.cnf_from_text(fileio.cnf_to_text(nv, clauses)) == (nv, clauses)


def test_cnf_rejects_long_clause():
    with pytest.raises(FileFormatError, match="at most 3"):
        fileio.cnf_from_text("p cnf 4 1\n1 2 3 4 0\n")


def test_cnf_long_last_clause_names_its_line():
    # the last clause may end without its 0
    with pytest.raises(FileFormatError, match="^line 2: clause has 4 literals"):
        fileio.cnf_from_text("p cnf 4 1\n1 2 3 4\n")
    with pytest.raises(FileFormatError, match="^line 3: clause has 4 literals"):
        fileio.cnf_from_text("p cnf 4 1\n1 2\n3 4\nc done\n")


def test_dot_export_mentions_names():
    g = build_graph(2, [(0, 1)], {0: "hub"})
    dot = fileio.dot_export(g)
    assert 'label="hub"' in dot
    assert "0 -- 1;" in dot


def test_path_helpers(tmp_path):
    g = petersen_graph()
    p = tmp_path / "pet.col"
    fileio.write_graph(p, g)
    assert fileio.read_graph(p) == g
