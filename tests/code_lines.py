"""Count the code lines of each ``src/ordsgp/*.py`` and their total.

A code line is a line that holds at least one token of code.  Blank lines,
comment lines and the lines of module, class and function docstrings do not
count; a line with code and a trailing comment does.

Run from the repository root:

    python tests/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ordsgp"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.name}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
