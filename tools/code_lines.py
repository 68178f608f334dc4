"""Print the code lines of each module of a package, and their total.

    python tools/code_lines.py [PACKAGE_DIR]

A code line holds some of a statement: blank lines, lines holding only a
comment, and the lines of a docstring (the string that opens a module, a
class or a function) do not count.  A line of a string that is not a
docstring counts.  This is the size by which a change that keeps the
program's behaviour is weighed.  PACKAGE_DIR defaults to
``src/recruitcast`` beside this script's directory; each ``*.py`` file
directly inside it is one module.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "recruitcast"
# tokens that hold no statement, and so make no line a code line
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """How many lines of ``source`` are code lines."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        sys.exit(__doc__)
    package = Path(argv[0]) if argv else _PACKAGE
    modules = sorted(package.glob("*.py"))
    if not modules:
        sys.exit(f"no modules in {package}")
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<20} {count:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
