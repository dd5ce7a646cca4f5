"""tools/code_lines.py, the code-line counter of src/luckylab."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MODULE = '''"""Module docstring,
over two lines."""

# a comment line

X = """a string that is
not a docstring"""


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        return 1  # a trailing comment


def g(): return 2
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skip_comments_blanks_and_docstrings():
    tool = _load_tool()
    # X's two lines, class A, def f, return 1, def g
    assert tool.code_lines(MODULE) == 6


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "sub" / "b.py").write_text("# only a comment\ny = 1\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "a.py 6\nsub/b.py 1\ntotal 7\n"
