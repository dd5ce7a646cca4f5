"""Text formats: DIMACS-style graphs, labeling/list files, DIMACS CNF, DOT export.

All writers are canonical (sorted, 1-based ids) so identical objects always
serialize to identical bytes; readers report errors with line numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from .graph import Graph, GraphError, build_graph
from .labeling import Labeling, ListAssignment, make_lists


class FileFormatError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


# ---------------------------------------------------------------------------
# Graph files: `p edge <n> <m>`, then `c name <u> <string>` lines, then
# `e <u> <v>` lines, all ids 1-based.

# the most vertices a graph file may declare; a larger count is rejected
# before anything is allocated for it, since every consumer of a graph builds
# per-vertex arrays
MAX_VERTICES = 1_000_000


def graph_to_text(g: Graph) -> str:
    out = [f"p edge {g.n} {g.m}"]
    if g.names:
        for v in sorted(g.names):
            out.append(f"c name {v + 1} {g.names[v]}")
    for u, v in g.edges:
        out.append(f"e {u + 1} {v + 1}")
    return "\n".join(out) + "\n"


def graph_from_text(text: str) -> Graph:
    n = None
    m_declared = p_line = None
    edges: list[tuple[int, int]] = []
    names: dict[int, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FileFormatError(line_no, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FileFormatError(line_no, f"expected 'p edge <n> <m>', got {line!r}")
            try:
                n, m_declared = int(parts[2]), int(parts[3])
            except ValueError:
                raise FileFormatError(line_no, f"non-integer counts in {line!r}") from None
            p_line = line_no
            if n > MAX_VERTICES:
                raise FileFormatError(line_no,
                                      f"vertex count {n} exceeds the limit of {MAX_VERTICES:,}")
        elif parts[0] == "c":
            if len(parts) >= 4 and parts[1] == "name":
                try:
                    v = int(parts[2]) - 1
                except ValueError:
                    raise FileFormatError(line_no, f"non-integer vertex id in {line!r}") from None
                names[v] = " ".join(parts[3:])
            # other comments are ignored
        elif parts[0] == "e":
            if n is None:
                raise FileFormatError(line_no, "edge line before problem line")
            if len(parts) != 3:
                raise FileFormatError(line_no, f"expected 'e <u> <v>', got {line!r}")
            try:
                u, v = int(parts[1]) - 1, int(parts[2]) - 1
            except ValueError:
                raise FileFormatError(line_no, f"non-integer endpoint in {line!r}") from None
            edges.append((u, v))
        else:
            raise FileFormatError(line_no, f"unrecognized line {line!r}")
    if n is None:
        raise FileFormatError(1, "missing problem line 'p edge <n> <m>'")
    try:
        g = build_graph(n, edges, names or None)
    except GraphError as exc:
        raise _graph_line_error(text, n, p_line, exc) from None
    if g.m != m_declared:
        raise FileFormatError(p_line, f"problem line declares {m_declared} edges, file has {g.m}")
    return g


def _graph_line_error(text: str, n: int, p_line: int, exc: GraphError) -> FileFormatError:
    """The error build_graph raised on a parsed graph file, at its line and in 1-based ids.

    build_graph checks the vertex count, then each edge in file order, then
    the names, so the first line that fails the same check is the one it
    names.  The file is scanned again only here, once it has failed.
    """
    if n < 0:
        return FileFormatError(p_line, str(exc))
    name_error = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if parts[:1] == ["e"]:
            u, v = int(parts[1]), int(parts[2])
            if u == v:
                return FileFormatError(line_no, f"loop edge ({u}, {v}) not allowed in a simple graph")
            if not (1 <= u <= n and 1 <= v <= n):
                return FileFormatError(line_no, f"edge ({u}, {v}) has an endpoint outside 1..{n}")
        elif parts[:2] == ["c", "name"] and len(parts) >= 4 and name_error is None:
            v = int(parts[2])
            if not 1 <= v <= n:
                name_error = FileFormatError(line_no, f"name attached to unknown vertex {v}")
    return name_error


# ---------------------------------------------------------------------------
# Labeling files: `v <vertex-id> <label>`, 1-based ids.

def labeling_to_text(lab: Labeling) -> str:
    return "".join(f"v {v + 1} {lab[v]}\n" for v in sorted(lab.values))


def labeling_from_text(text: str) -> Labeling:
    values: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "v" or len(parts) != 3:
            raise FileFormatError(line_no, f"expected 'v <vertex-id> <label>', got {line!r}")
        try:
            v, x = int(parts[1]) - 1, int(parts[2])
        except ValueError:
            raise FileFormatError(line_no, f"non-integer field in {line!r}") from None
        if v in values:
            raise FileFormatError(line_no, f"duplicate label for vertex {v + 1}")
        values[v] = x
    return Labeling(values)


# ---------------------------------------------------------------------------
# List-assignment files: `l <vertex-id> <a> <b> ...`, 1-based ids.

def lists_to_text(lists: ListAssignment) -> str:
    out = []
    for v in sorted(lists.lists):
        vals = " ".join(str(x) for x in sorted(lists[v]))
        out.append(f"l {v + 1} {vals}\n")
    return "".join(out)


def lists_from_text(text: str) -> ListAssignment:
    lists: dict[int, list[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] != "l" or len(parts) < 3:
            raise FileFormatError(line_no, f"expected 'l <vertex-id> <a> <b> ...', got {line!r}")
        try:
            v = int(parts[1]) - 1
            vals = [int(x) for x in parts[2:]]
        except ValueError:
            raise FileFormatError(line_no, f"non-integer field in {line!r}") from None
        if v in lists:
            raise FileFormatError(line_no, f"duplicate list for vertex {v + 1}")
        bad = next((x for x in vals if x < 1), None)
        if bad is not None:
            # lists hold labels, and labels are positive
            raise FileFormatError(line_no, f"list value {bad} is not positive")
        lists[v] = vals
    return make_lists(lists)


# ---------------------------------------------------------------------------
# DIMACS CNF.  Clauses are validated to 1..3 literals.

def cnf_from_text(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Parse DIMACS cnf into (num_vars, clauses of signed 1-based literals)."""
    num_vars = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    last_line = 0  # the line of the last literal read
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("c", "%")):
            continue
        if line.startswith("p"):
            if num_vars is not None:
                raise FileFormatError(line_no, "duplicate problem line")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise FileFormatError(line_no, f"expected 'p cnf <vars> <clauses>', got {line!r}")
            try:
                num_vars = int(parts[2])
            except ValueError:
                raise FileFormatError(line_no, f"non-integer count in {line!r}") from None
            continue
        try:
            lits = [int(tok) for tok in line.split()]
        except ValueError:
            raise FileFormatError(line_no, f"non-integer literal in {line!r}") from None
        for lit in lits:
            if lit == 0:
                if not pending:
                    raise FileFormatError(line_no, "empty clause")
                if len(pending) > 3:
                    raise FileFormatError(line_no, f"clause has {len(pending)} literals; at most 3 allowed")
                clauses.append(tuple(pending))
                pending = []
            else:
                if num_vars is not None and abs(lit) > num_vars:
                    raise FileFormatError(line_no, f"literal {lit} exceeds declared variable count")
                pending.append(lit)
                last_line = line_no
    if pending:
        if len(pending) > 3:
            raise FileFormatError(last_line, f"clause has {len(pending)} literals; at most 3 allowed")
        clauses.append(tuple(pending))
    if num_vars is None:
        num_vars = max((abs(l) for cl in clauses for l in cl), default=0)
    return num_vars, clauses


def cnf_to_text(num_vars: int, clauses: list[tuple[int, ...]]) -> str:
    out = [f"p cnf {num_vars} {len(clauses)}"]
    for cl in clauses:
        out.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# DOT export (write-only, for eyeballing gadgets).

def dot_export(g: Graph) -> str:
    out = ["graph G {"]
    for v in g.vertices():
        out.append(f'  {v} [label="{g.name_of(v)}"];')
    for u, v in g.edges:
        out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Path helpers.

PathLike = Union[str, Path]


def read_graph(path: PathLike) -> Graph:
    return graph_from_text(Path(path).read_text())


def write_graph(path: PathLike, g: Graph) -> None:
    Path(path).write_text(graph_to_text(g))


def read_labeling(path: PathLike) -> Labeling:
    return labeling_from_text(Path(path).read_text())


def write_labeling(path: PathLike, lab: Labeling) -> None:
    Path(path).write_text(labeling_to_text(lab))


def read_lists(path: PathLike) -> ListAssignment:
    return lists_from_text(Path(path).read_text())


def write_lists(path: PathLike, lists: ListAssignment) -> None:
    Path(path).write_text(lists_to_text(lists))


def read_cnf(path: PathLike) -> tuple[int, list[tuple[int, ...]]]:
    return cnf_from_text(Path(path).read_text())
