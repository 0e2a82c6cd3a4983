#!/usr/bin/env python3
"""Count the code lines of the centralspin package, per file and in total.

Usage:
    python scripts/code_lines.py

A code line is a line that holds a Python token other than a comment
or a docstring; blank lines, comment lines and docstrings do not count.
A docstring is the string-literal statement that opens a module, class
or function body.  One line per file of src/centralspin, sorted by
name, reads "<count>  <file>", and the last reads "<total>  total".
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a module's bodies."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of source that hold a code token."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> None:
    package = ROOT / "src" / "centralspin"
    counts = {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}
    for name, count in counts.items():
        print(f"{count}  {name}")
    print(f"{sum(counts.values())}  total")


if __name__ == "__main__":
    main()
