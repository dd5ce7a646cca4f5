"""Count the code lines of each module of src/luckylab.

    python3 tools/code_lines.py [PACKAGE_DIR]

A code line is a line that holds at least one token which is neither a
comment nor part of a docstring.  A docstring is a string literal that is
the first statement of a module, class or function.  Blank lines, comment
lines and docstring lines do not count; a multi-line string that is not a
docstring counts every line it spans.  Prints one line per module (its path
relative to the package directory, then its count), then the total.
Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "luckylab"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(source: str) -> list[tuple[int, int]]:
    """(first line, last line) of each docstring in source."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append((first.lineno, first.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in one module's source text."""
    spans = _docstring_spans(source)
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start[0] and tok.end[0] <= b
                                               for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.relative_to(package).as_posix()} {count}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
