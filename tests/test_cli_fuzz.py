"""Malformed input files through the command line, in process.

Each drawn file is malformed by construction: one corruption is planted in
an otherwise valid graph, labeling, list or CNF file, among blank lines,
comments and stray indentation.  Whatever the corruption and wherever it
sits, the command must exit 2 with a single `error:` line on stderr, and
nothing may escape `cli.main` as an exception.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from luckylab.cli import main
from luckylab.fileio import MAX_VERTICES

# a token holds no whitespace and no line break, so it stays one token
_TOKEN = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zs", "Zl", "Zp")),
                 min_size=1, max_size=6)
_SMALL = st.integers(-2, 9).map(str)


def _is_int(tok: str) -> bool:
    try:
        int(tok)
    except ValueError:
        return False
    return True


_NOT_INT = _TOKEN.filter(lambda t: not _is_int(t))


@st.composite
def _noisy(draw, lines: list[str], bad: str) -> str:
    """lines with bad planted at any position, then blank and comment lines and indentation."""
    lines = list(lines)
    lines.insert(draw(st.integers(0, len(lines))), bad)
    for _ in range(draw(st.integers(0, 3))):
        words = draw(st.lists(_TOKEN.filter(lambda t: t != "name"), max_size=3))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(["c", *words]))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    pad = st.sampled_from(["", " ", "\t", "  "])
    return "".join(draw(pad) + line + draw(pad) + "\n" for line in lines)


@st.composite
def malformed_graphs(draw) -> str:
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    named = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    body = [f"e {u} {v}" for u, v in edges] + [f"c name {v} {draw(_TOKEN)}" for v in named]
    body = draw(st.permutations(body))
    header = f"p edge {n} {len(edges)}"
    outside = st.sampled_from([0, -1, n + 1, n + 2])
    kind = draw(st.sampled_from(["junk", "arity", "not-int", "endpoint", "loop", "count",
                                 "name", "header", "duplicate", "duplicate-name", "missing",
                                 "too-many"]))
    if kind == "junk":
        first = draw(_TOKEN.filter(lambda t: t not in ("p", "c", "e")))
        bad = " ".join([first, *draw(st.lists(_SMALL, max_size=3))])
    elif kind == "arity":
        bad = " ".join(["e", *draw(st.lists(_SMALL, max_size=4).filter(lambda t: len(t) != 2))])
    elif kind == "not-int":
        bad = draw(st.sampled_from(["e {x} 1", "e 1 {x}", "c name {x} v"])).format(x=draw(_NOT_INT))
    elif kind == "endpoint":
        bad = f"e {draw(outside)} {draw(st.integers(1, n))}"
    elif kind == "loop":
        u = draw(st.integers(1, n))
        bad = f"e {u} {u}"
    elif kind == "count":
        header = f"p edge {n} {draw(st.integers(0, 20).filter(lambda m: m != len(edges)))}"
        bad = ""
    elif kind == "name":
        bad = f"c name {draw(outside)} {draw(_TOKEN)}"
    elif kind == "header":
        header = draw(st.sampled_from([f"p edgy {n} {len(edges)}", f"p edge {n}",
                                       f"p edge {n} {len(edges)} 0", f"p edge {n} x",
                                       f"p edge -{n} 0", "p"]))
        bad = ""
    elif kind == "duplicate":
        bad = header
    elif kind == "duplicate-name":
        v = draw(st.integers(1, n))
        if v not in named:
            body.append(f"c name {v} {draw(_TOKEN)}")
        bad = f"c name {v} {draw(_TOKEN)}"
    elif kind == "missing":
        header, bad = "", ""
    else:
        header = f"p edge {draw(st.integers(MAX_VERTICES + 1, 10 * MAX_VERTICES))} 0"
        bad = ""
    return draw(_noisy([header, *body] if header else body, bad))


@st.composite
def malformed_labelings(draw) -> tuple[str, bool]:
    """A labeling of P3 and whether only `verify labeling` rejects it (it misses a vertex)."""
    values = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    body = draw(st.permutations([f"v {v} {x}" for v, x in enumerate(values, start=1)]))
    kind = draw(st.sampled_from(["junk", "arity", "not-int", "duplicate", "unknown", "missing"]))
    if kind == "junk":
        first = draw(_TOKEN.filter(lambda t: t != "v" and not t.startswith("c")))
        bad = " ".join([first, *draw(st.lists(_SMALL, max_size=3))])
    elif kind == "arity":
        bad = " ".join(["v", *draw(st.lists(_SMALL, max_size=4).filter(lambda t: len(t) != 2))])
    elif kind == "not-int":
        bad = draw(st.sampled_from(["v {x} 1", "v 1 {x}"])).format(x=draw(_NOT_INT))
    elif kind == "duplicate":
        bad = f"v {draw(st.integers(1, 3))} {draw(st.integers(0, 2))}"
    elif kind == "unknown":
        bad = f"v {draw(st.sampled_from([0, -1, 4, 5]))} {draw(st.integers(0, 2))}"
    else:
        body.pop(draw(st.integers(0, 2)))
        bad = ""
    return draw(_noisy(body, bad)), kind == "missing"


@st.composite
def malformed_lists(draw) -> str:
    """A list assignment for P3."""
    lists = draw(st.lists(st.lists(st.integers(1, 4), min_size=1, max_size=3),
                          min_size=3, max_size=3))
    body = [" ".join(["l", str(v), *map(str, vals)]) for v, vals in enumerate(lists, start=1)]
    body = draw(st.permutations(body))
    kind = draw(st.sampled_from(["junk", "arity", "not-int", "duplicate", "unknown",
                                 "non-positive", "missing"]))
    if kind == "junk":
        first = draw(_TOKEN.filter(lambda t: t != "l" and not t.startswith("c")))
        bad = " ".join([first, *draw(st.lists(_SMALL, max_size=3))])
    elif kind == "arity":
        bad = " ".join(["l", *draw(st.lists(_SMALL, max_size=1))])
    elif kind == "not-int":
        bad = draw(st.sampled_from(["l {x} 1", "l 1 {x}", "l 2 1 {x}"])).format(x=draw(_NOT_INT))
    elif kind == "duplicate":
        bad = f"l {draw(st.integers(1, 3))} {draw(st.integers(1, 4))}"
    elif kind == "unknown":
        bad = f"l {draw(st.sampled_from([0, -1, 4, 5]))} {draw(st.integers(1, 4))}"
    elif kind == "non-positive":
        row = draw(st.integers(0, 2))
        body[row] += f" {draw(st.integers(-2, 0))}"
        bad = ""
    else:
        body.pop(draw(st.integers(0, 2)))
        bad = ""
    return draw(_noisy(body, bad))


@st.composite
def malformed_cnfs(draw) -> tuple[str, bool]:
    """A CNF file and whether it is rejected only for exceeding the search's variable cap."""
    num_vars = draw(st.integers(1, 5))
    literal = st.integers(1, num_vars).flatmap(lambda v: st.sampled_from([v, -v]))
    clauses = draw(st.lists(st.lists(literal, min_size=1, max_size=3), min_size=1, max_size=4))
    body = [" ".join(map(str, [*cl, 0])) for cl in clauses]
    header = f"p cnf {num_vars} {len(clauses)}"
    kind = draw(st.sampled_from(["junk", "long", "empty", "exceeds", "header", "duplicate",
                                 "no-clauses", "too-many-vars"]))
    bad = ""
    if kind == "junk":
        tok = draw(_NOT_INT.filter(lambda t: not t.startswith(("c", "%", "p"))))
        bad = " ".join([*draw(st.lists(_SMALL.filter(lambda t: t != "0"), max_size=2)), tok, "0"])
    elif kind == "long":
        bad = " ".join(map(str, [*draw(st.lists(literal, min_size=4, max_size=6)), 0]))
    elif kind == "empty":
        bad = "0"
    elif kind == "exceeds":
        # among the clauses, so after the header that declares the count
        body.insert(draw(st.integers(0, len(body))), f"{num_vars + draw(st.integers(1, 3))} 0")
    elif kind == "header":
        header = draw(st.sampled_from([f"p dnf {num_vars} 1", f"p cnf {num_vars}",
                                       f"p cnf x {len(clauses)}", "p"]))
    elif kind == "duplicate":
        bad = header
    elif kind == "no-clauses":
        body = []
    else:
        header = f"p cnf {draw(st.integers(25, 40))} 1"
        body = ["25 0"]
    return draw(_noisy([header, *body], bad)), kind == "too-many-vars"


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_usage_error(argv):
    code, _out, err = _run(argv)
    assert code == 2, (argv, err)
    assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A scratch directory holding P3 with a valid labeling and valid lists for it."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "p3.col").write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    (d / "p3.lab").write_text("v 1 1\nv 2 1\nv 3 1\n")
    (d / "p3.lists").write_text("l 1 1 2\nl 2 1 2\nl 3 1 2\n")
    return d


_SETTINGS = settings(max_examples=200, deadline=None)


@given(text=malformed_graphs(), command=st.sampled_from([
    ["solve", "eta"], ["bounds"], ["check", "inapprox", "--d", "6"]]))
@_SETTINGS
def test_malformed_graph_file_exit_two(files, text, command):
    (files / "bad.col").write_text(text)
    _assert_usage_error([*command, "--graph", str(files / "bad.col")])


@given(drawn=malformed_labelings(), what=st.sampled_from(["labeling", "ptds", "lists"]))
@_SETTINGS
def test_malformed_labeling_file_exit_two(files, drawn, what):
    text, misses_a_vertex = drawn
    if misses_a_vertex and what == "lists":
        # only the checks of the labeling and of its set need a label on
        # every vertex
        what = "labeling"
    (files / "bad.lab").write_text(text)
    # only verify lists reads --lists; the others would reject it unread
    lists = ["--lists", str(files / "p3.lists")] if what == "lists" else []
    _assert_usage_error(["verify", what, "--graph", str(files / "p3.col"),
                         "--labeling", str(files / "bad.lab"), *lists])


@given(text=malformed_lists(), command=st.sampled_from(["solve", "verify"]))
@_SETTINGS
def test_malformed_list_file_exit_two(files, text, command):
    (files / "bad.lists").write_text(text)
    argv = ["solve", "listdecide"] if command == "solve" else [
        "verify", "lists", "--labeling", str(files / "p3.lab")]
    _assert_usage_error([*argv, "--graph", str(files / "p3.col"), "--lists", str(files / "bad.lists")])


@given(drawn=malformed_cnfs(), command=st.sampled_from(["check", "construct"]))
@_SETTINGS
def test_malformed_cnf_file_exit_two(files, drawn, command):
    text, too_many_vars = drawn
    if too_many_vars:
        # the variable cap belongs to the equivalence check, not to the format
        command = "check"
    (files / "bad.cnf").write_text(text)
    argv = ["check", "sat"] if command == "check" else [
        "construct", "sat", "--out", str(files / "red")]
    _assert_usage_error([*argv, "--cnf", str(files / "bad.cnf")])
