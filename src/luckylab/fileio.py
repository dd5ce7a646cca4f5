"""Text formats: DIMACS-style graphs, labeling/list files, DIMACS CNF, DOT export.

All writers are canonical (sorted, 1-based ids) so identical objects always
serialize to identical bytes; readers report errors with line numbers.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Union

from .graph import Graph, _checked_graph
from .labeling import Labeling, ListAssignment, make_lists


class FileFormatError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _records(text: str) -> Iterator[tuple[int, str, list[str]]]:
    """(line_no, line, fields) for each nonblank line of a labeling, list or CNF file.

    Comment lines, those whose first field starts with "c", are skipped.
    line is the raw line, unstripped: strip it only to quote it in an error.
    """
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if fields and not fields[0].startswith("c"):
            yield line_no, line, fields


def _non_integer(line_no: int, line: str, what: str) -> FileFormatError:
    return FileFormatError(line_no, f"non-integer {what} in {line.strip()!r}")


def _ints(line_no: int, line: str, fields: list[str], what: str) -> list[int]:
    """fields as integers; a field that is not one raises FileFormatError naming `what`."""
    try:
        return [int(x) for x in fields]
    except ValueError:
        raise _non_integer(line_no, line, what) from None


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
        out += [f"c name {v + 1} {g.names[v]}" for v in sorted(g.names)]
    out += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(out) + "\n"


def graph_from_text(text: str) -> Graph:
    """Parse a graph file; an error names the first offending line in file order.

    Each line is checked as it is read, except name lines: their vertex ids
    are checked once every line is read, since a name may come before the
    problem line.  Checked, the pairs go straight to the normaliser that
    build_graph ends in, so no pair is checked twice.
    """
    n = None
    m_declared = p_line = None
    edges: list[tuple[int, int]] = []
    names: dict[int, str] = {}
    name_lines: dict[int, int] = {}
    # edge lines and then name lines are most of a file, so they are tested
    # first and convert their ids inline; the other paths are cold
    for line_no, line in enumerate(text.splitlines(), 1):
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "e":
            if n is None:
                raise FileFormatError(line_no, "edge line before problem line")
            if len(parts) != 3:
                raise FileFormatError(line_no, f"expected 'e <u> <v>', got {line.strip()!r}")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise _non_integer(line_no, line, "endpoint") from None
            if u == v:
                raise FileFormatError(line_no, f"loop edge ({u}, {v}) not allowed in a simple graph")
            if not (1 <= u <= n and 1 <= v <= n):
                raise FileFormatError(line_no, f"edge ({u}, {v}) has an endpoint outside 1..{n}")
            edges.append((u - 1, v - 1) if u < v else (v - 1, u - 1))
        elif tag == "c":
            if len(parts) >= 4 and parts[1] == "name":
                try:
                    v = int(parts[2]) - 1
                except ValueError:
                    raise _non_integer(line_no, line, "vertex id") from None
                if v in names:
                    raise FileFormatError(line_no, f"duplicate name for vertex {v + 1}")
                names[v] = parts[3] if len(parts) == 4 else " ".join(parts[3:])
                name_lines[v] = line_no
            # other comments are ignored
        elif tag == "p":
            if n is not None:
                raise FileFormatError(line_no, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge":
                raise FileFormatError(line_no, f"expected 'p edge <n> <m>', got {line.strip()!r}")
            n, m_declared = _ints(line_no, line, parts[2:], "counts")
            p_line = line_no
            for what, count in (("vertex", n), ("edge", m_declared)):
                if count < 0:
                    raise FileFormatError(line_no, f"{what} count must be nonnegative, got {count}")
            if n > MAX_VERTICES:
                raise FileFormatError(line_no,
                                      f"vertex count {n} exceeds the limit of {MAX_VERTICES:,}")
        else:
            raise FileFormatError(line_no, f"unrecognized line {line.strip()!r}")
    if n is None:
        raise FileFormatError(1, "missing problem line 'p edge <n> <m>'")
    for v, line_no in name_lines.items():
        if not 0 <= v < n:
            raise FileFormatError(line_no, f"name attached to unknown vertex {v + 1}")
    g = _checked_graph(n, edges, names)
    if g.m != m_declared:
        raise FileFormatError(p_line, f"problem line declares {m_declared} edges, file has {g.m}")
    return g


# ---------------------------------------------------------------------------
# Labeling files: `v <vertex-id> <label>`, 1-based ids.

def labeling_to_text(lab: Labeling) -> str:
    return "".join(f"v {v + 1} {lab[v]}\n" for v in sorted(lab.values))


def labeling_from_text(text: str) -> Labeling:
    values: dict[int, int] = {}
    for line_no, line, parts in _records(text):
        if parts[0] != "v" or len(parts) != 3:
            raise FileFormatError(line_no,
                                  f"expected 'v <vertex-id> <label>', got {line.strip()!r}")
        v, x = _ints(line_no, line, parts[1:], "field")
        if v - 1 in values:
            raise FileFormatError(line_no, f"duplicate label for vertex {v}")
        values[v - 1] = x
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
    for line_no, line, parts in _records(text):
        if parts[0] != "l" or len(parts) < 3:
            raise FileFormatError(line_no,
                                  f"expected 'l <vertex-id> <a> <b> ...', got {line.strip()!r}")
        v, *vals = _ints(line_no, line, parts[1:], "field")
        if v - 1 in lists:
            raise FileFormatError(line_no, f"duplicate list for vertex {v}")
        bad = next((x for x in vals if x < 1), None)
        if bad is not None:
            # lists hold labels, and labels are positive
            raise FileFormatError(line_no, f"list value {bad} is not positive")
        lists[v - 1] = vals
    return make_lists(lists)


# ---------------------------------------------------------------------------
# DIMACS CNF.  Clauses are validated to 1..3 literals.

def cnf_from_text(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """Parse DIMACS cnf into (num_vars, clauses of signed 1-based literals).

    The `p cnf <vars> <clauses>` line is optional; without it the variable
    count is the largest variable used.  With it, every literal, before the
    line or after it, must lie within the declared variable count, and the
    file must hold the declared number of clauses.  A line starting with `%`
    ends the clause list, as in SATLIB files, which end in `%` and then `0`:
    the rest of the file is not read.
    """
    num_vars = num_clauses = p_line = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    last_line = 0  # the line of the last literal read
    early: list[tuple[int, int]] = []  # (line, literal) read before the problem line

    def close(line_no: int) -> None:
        """Close the pending clause; an empty or overlong one is reported at line_no."""
        if not pending:
            raise FileFormatError(line_no, "empty clause")
        if len(pending) > 3:
            raise FileFormatError(line_no, f"clause has {len(pending)} literals; at most 3 allowed")
        clauses.append(tuple(pending))
        pending.clear()

    for line_no, line, parts in _records(text):
        if parts[0].startswith("%"):
            break
        if parts[0].startswith("p"):
            if num_vars is not None:
                raise FileFormatError(line_no, "duplicate problem line")
            if len(parts) != 4 or parts[1] != "cnf":
                raise FileFormatError(line_no,
                                      f"expected 'p cnf <vars> <clauses>', got {line.strip()!r}")
            num_vars, num_clauses = _ints(line_no, line, parts[2:], "count")
            if num_vars < 0 or num_clauses < 0:
                raise FileFormatError(line_no, f"negative count in {line.strip()!r}")
            p_line = line_no
            for early_line, lit in early:
                if abs(lit) > num_vars:
                    raise FileFormatError(early_line,
                                          f"literal {lit} exceeds declared variable count")
            continue
        for lit in _ints(line_no, line, parts, "literal"):
            if lit == 0:
                close(line_no)
            else:
                if num_vars is None:
                    early.append((line_no, lit))
                elif abs(lit) > num_vars:
                    raise FileFormatError(line_no, f"literal {lit} exceeds declared variable count")
                pending.append(lit)
                last_line = line_no
    if pending:  # an unterminated last clause ends at its last literal
        close(last_line)
    if num_vars is None:
        num_vars = max((abs(l) for cl in clauses for l in cl), default=0)
    elif len(clauses) != num_clauses:
        raise FileFormatError(p_line, f"problem line declares {num_clauses} clauses, "
                                      f"file has {len(clauses)}")
    return num_vars, clauses


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


def read_lists(path: PathLike) -> ListAssignment:
    return lists_from_text(Path(path).read_text())


def read_cnf(path: PathLike) -> tuple[int, list[tuple[int, ...]]]:
    return cnf_from_text(Path(path).read_text())
