import hashlib
import random

import pytest

from luckylab import fileio
from luckylab.constructions import build_sat_reduction
from luckylab.fileio import FileFormatError
from luckylab.graph import build_graph, petersen_graph
from luckylab.labeling import Labeling, make_lists
from luckylab.oracles import random_formula


def test_graph_round_trip_bit_exact():
    g = build_graph(4, [(0, 1), (2, 3), (1, 2)], {0: "start", 3: "end"})
    text = fileio.graph_to_text(g)
    again = fileio.graph_from_text(text)
    assert again == g
    assert fileio.graph_to_text(again) == text


def test_sat_reduction_text_pinned_at_volume():
    """A reduction of the benchmark's largest size writes the same bytes and reads back whole."""
    g = build_sat_reduction(random_formula(random.Random(61), 61, 201)).graph
    assert (g.n, g.m) == (2_103, 2_702)
    text = fileio.graph_to_text(g)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9b8a0bc1d5033bed0a7c27809db295c34b8bfc367c89e391d4c94ff8cc7f00bc")
    again = fileio.graph_from_text(text)
    assert (again.n, again.edges, again.names) == (g.n, g.edges, g.names)
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
    ("p edge 2 1\nc name 1 a\nc name 1 b\ne 1 2\n", "line 3: duplicate name for vertex 1"),
    # every other line is checked as it is read, so the first bad one is named
    ("p edge 3 1\ne 2 2\nnonsense\n", "line 2: loop edge (2, 2) not allowed in a simple graph"),
    ("p edge -1 0\nnonsense\n", "line 1: vertex count must be nonnegative, got -1"),
    ("p edge 3 -1\n", "line 1: edge count must be nonnegative, got -1"),
    ("p edge 3 -1\nnonsense\n", "line 1: edge count must be nonnegative, got -1"),
    ("p edge 2 1\ne 1 x\n", "line 2: non-integer endpoint in 'e 1 x'"),
    ("p edge 2 1\nc name x a\ne 1 2\n", "line 2: non-integer vertex id in 'c name x a'"),
    # fields are split on any whitespace; an error quotes its line stripped
    ("  p edge 2 1  \r\n\te 1 x\t\r\n", "line 2: non-integer endpoint in 'e 1 x'"),
    ("p edge 3 1\r\n c  name\tx a \r\n", "line 2: non-integer vertex id in 'c  name\\tx a'"),
    ("\t p edge 3\r\n", "line 1: expected 'p edge <n> <m>', got 'p edge 3'"),
    ("p edge 2 1\n  e 1 2 3 \n", "line 2: expected 'e <u> <v>', got 'e 1 2 3'"),
    (" \t\r\n  nonsense  here \r\n", "line 2: unrecognized line 'nonsense  here'"),
    ("p edge 2 1\r\n\r\n  e  1\t1 \r\n", "line 3: loop edge (1, 1) not allowed in a simple graph"),
    ("\tp edge 3 1 \r\n\tp edge 3 1\r\n", "line 2: duplicate problem line"),
], ids=["endpoint", "loop", "name", "edge-count", "vertex-count", "edge-before-name",
        "duplicate-name", "loop-before-bad-line", "vertex-count-before-bad-line",
        "edge-count-negative", "edge-count-before-bad-line", "non-integer-endpoint",
        "non-integer-name-id", "spaced-non-integer-endpoint", "spaced-non-integer-name-id",
        "spaced-problem-line", "spaced-edge-line", "spaced-unrecognized", "spaced-loop",
        "spaced-duplicate-problem-line"])
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


@pytest.mark.parametrize("read, text, message", [
    (fileio.labeling_from_text, " v 1 1 \r\n\tv 2\r\n",
     "line 2: expected 'v <vertex-id> <label>', got 'v 2'"),
    (fileio.labeling_from_text, "c x\r\n  v 1  y \r\n", "line 2: non-integer field in 'v 1  y'"),
    (fileio.labeling_from_text, "v 1 1\r\n  v\t1 2 \r\n", "line 2: duplicate label for vertex 1"),
    (fileio.lists_from_text, "  l 1 1 2\r\n\tl 2\r\n",
     "line 2: expected 'l <vertex-id> <a> <b> ...', got 'l 2'"),
    (fileio.lists_from_text, "l 1 1\t x \r\n", "line 1: non-integer field in 'l 1 1\\t x'"),
], ids=["labeling-short", "labeling-non-integer", "labeling-duplicate", "lists-short",
        "lists-non-integer"])
def test_labeling_and_list_errors_quote_the_stripped_line(read, text, message):
    with pytest.raises(FileFormatError) as err:
        read(text)
    assert str(err.value) == message


def test_lists_round_trip():
    lists = make_lists({0: {2, 1}, 1: {3}})
    text = fileio.lists_to_text(lists)
    assert text == "l 1 1 2\nl 2 3\n"
    assert fileio.lists_from_text(text) == lists


@pytest.mark.parametrize("text, line", [
    ("l 1 0 2\nl 2 1 2\nl 3 1 2\n", 1),
    ("l 1 1 2\nl 2 -1 2\nl 3 1 2\n", 2),
    ("l 1 1 2\nl 2 1 2\nl 3 2 0\n", 3),
    ("\tl 1 1 2 \r\n l 2 1 2\r\n\r\n  l 3 0 2\r\n", 4),
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


def test_cnf_rejects_long_clause():
    with pytest.raises(FileFormatError, match="at most 3"):
        fileio.cnf_from_text("p cnf 4 1\n1 2 3 4 0\n")


def test_cnf_long_last_clause_names_its_line():
    # the last clause may end without its 0
    with pytest.raises(FileFormatError, match="^line 2: clause has 4 literals"):
        fileio.cnf_from_text("p cnf 4 1\n1 2 3 4\n")
    with pytest.raises(FileFormatError, match="^line 3: clause has 4 literals"):
        fileio.cnf_from_text("p cnf 4 1\n1 2\n3 4\nc done\n")


@pytest.mark.parametrize("text, message", [
    # a clause closed by its 0 is reported at the line of the 0
    ("p cnf 4 1\n1 2\n3 4\n0\n", "line 4: clause has 4 literals; at most 3 allowed"),
    ("p cnf 2 2\n1 0\n\n0\n", "line 4: empty clause"),
    # an unterminated last clause is reported at the line of its last literal
    ("p cnf 4 2\n1 0 2\n3 4\n1\nc end\n", "line 4: clause has 4 literals; at most 3 allowed"),
    ("p cnf 4 1\r\n 1 2 \r\n\t3 4\r\n 0 \r\n", "line 4: clause has 4 literals; at most 3 allowed"),
], ids=["long-at-terminator", "empty-at-terminator", "long-unterminated", "spaced-long"])
def test_cnf_clause_errors_name_where_the_clause_closes(text, message):
    with pytest.raises(FileFormatError) as err:
        fileio.cnf_from_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text, message", [
    # a literal before the problem line is checked once the line is read
    ("c header below\n1 5 0\np cnf 3 1\n", "line 2: literal 5 exceeds declared variable count"),
    ("c one clause\np cnf 3 5\n1 0\n", "line 2: problem line declares 5 clauses, file has 1"),
    ("p cnf 3 x\n1 0\n", "line 1: non-integer count in 'p cnf 3 x'"),
    ("p cnf -2 1\n1 0\n", "line 1: negative count in 'p cnf -2 1'"),
    ("p cnf 2 -1\n1 0\n", "line 1: negative count in 'p cnf 2 -1'"),
    # the clause count is checked against the clauses before a `%` line
    ("p cnf 2 2\n1 2 0\n%\n0\n2 0\n", "line 1: problem line declares 2 clauses, file has 1"),
    # fields are split on any whitespace; an error quotes its line stripped
    ("  p cnf 3 x\n1 0\n", "line 1: non-integer count in 'p cnf 3 x'"),
    ("\tp cnf -2 1 \r\n1 0\r\n", "line 1: negative count in 'p cnf -2 1'"),
    (" p  cnf 3\r\n", "line 1: expected 'p cnf <vars> <clauses>', got 'p  cnf 3'"),
    ("p cnf 2 1\r\n 1 y 0 \r\n", "line 2: non-integer literal in '1 y 0'"),
    ("  c x\r\n\t1 5 0 \r\n p cnf 3 1\r\n", "line 2: literal 5 exceeds declared variable count"),
], ids=["literal-before-header", "clause-count", "non-integer-clause-count",
        "negative-variables", "negative-clauses", "clause-count-before-trailer",
        "spaced-non-integer-count", "spaced-negative-count", "spaced-problem-line",
        "spaced-non-integer-literal", "spaced-literal-before-header"])
def test_cnf_header_is_checked(text, message):
    with pytest.raises(FileFormatError) as err:
        fileio.cnf_from_text(text)
    assert str(err.value) == message


@pytest.mark.parametrize("text", ["p cnf 2 1\n1 2 0\n%\n0\n", "p cnf 2 1\r\n1 2 0\r\n  %\r\n0\r\n"],
                         ids=["lf", "crlf-indented"])
def test_cnf_satlib_trailer_ends_the_clause_list(text):
    # SATLIB files end in `%` and then `0`; the 0 closes no clause
    assert fileio.cnf_from_text(text) == (2, [(1, 2)])


def test_cnf_without_problem_line_infers_variables():
    assert fileio.cnf_from_text("1 5 0\n-2 0\n") == (5, [(1, 5), (-2,)])


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
