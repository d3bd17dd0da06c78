"""Code size of the pideq package: code lines and functions per module.

A code line is a source line that holds a token other than a comment, a
docstring or a line break; blank lines, comment lines and docstrings (every
bare string statement: the leading string of a module, class or function
and the string under an assignment) do not count.  Functions
are ``def`` statements, methods and nested functions included.

Run from the repository root:

    python tools/code_size.py [DIR]

DIR defaults to ``src/pideq``.  The last line gives the totals.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """Line numbers covered by bare string statements: docstrings, attribute docstrings included."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def measure(path):
    """(code lines, functions) of one Python source file."""
    source = Path(path).read_text()
    tree = ast.parse(source)
    docs = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    functions = sum(isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) for n in ast.walk(tree))
    return len(code), functions


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else "src/pideq")
    total_lines = total_functions = 0
    print(f"{'module':<16}{'code lines':>12}{'functions':>11}")
    for path in sorted(root.glob("*.py")):
        lines, functions = measure(path)
        total_lines += lines
        total_functions += functions
        print(f"{path.name:<16}{lines:>12}{functions:>11}")
    print(f"{'total':<16}{total_lines:>12}{total_functions:>11}")


if __name__ == "__main__":
    main()
