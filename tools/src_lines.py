"""Count the lines of udmlab's source: per module and in total.

A code line is a line of ``src/udmlab/*.py`` that holds a token other than a
comment, with docstrings (the leading string of a module, class or function,
found with ``ast``) left out; comments and blank lines are found with
``tokenize``. The raw count is every line of the file. Standard library only.

Usage: python tools/src_lines.py
"""
from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of text that hold code: no docstring, comment or blank line."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main() -> None:
    src = Path(__file__).resolve().parents[1] / "src" / "udmlab"
    total_code = total_raw = 0
    print(f"{'module':<16}{'code':>6}{'raw':>6}")
    for path in sorted(src.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, raw = code_lines(text), len(text.splitlines())
        total_code, total_raw = total_code + code, total_raw + raw
        print(f"{path.stem:<16}{code:>6}{raw:>6}")
    print(f"{'total':<16}{total_code:>6}{total_raw:>6}")


if __name__ == "__main__":
    main()
