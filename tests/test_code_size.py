"""tools/code_size.py on a synthetic module whose code lines are counted by hand."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_size.py"

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment leaves its line a code line

# a comment line

X = 1
"""Attribute docstring."""
Y = """a string that is assigned,
not a docstring"""


def outer(a,
          b):
    """Function docstring."""

    def inner():
        """Nested docstring."""
        return a
    return inner() + b


class Box:
    """Class docstring,

    with a blank line inside."""

    async def method(self):
        return math.pi
'''

# import, X, Y (2), outer's def (2), inner's def, return a, return inner(),
# class, the method's def, return math.pi
CODE_LINES = 12
FUNCTIONS = 3  # outer, the nested inner and the async method


def _tool():
    spec = importlib.util.spec_from_file_location("code_size", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_measure_counts_code_lines_and_functions(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SOURCE)
    assert _tool().measure(path) == (CODE_LINES, FUNCTIONS)


def test_main_prints_one_row_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\n')
    _tool().main([str(tmp_path)])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["module", "code", "lines", "functions"],
        ["a.py", str(CODE_LINES), str(FUNCTIONS)],
        ["b.py", "0", "0"],
        ["total", str(CODE_LINES), str(FUNCTIONS)],
    ]
