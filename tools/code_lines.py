"""Count the code lines of each module of mixedbvp.

    python tools/code_lines.py [<tree>]

prints "<module> <count>" for each module under <tree>/src/mixedbvp
(default: the tree this script sits in) and the total.  A code line
holds at least one token that is not a comment; blank lines, comment
lines and the lines of module, class and function docstrings do not
count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
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
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(tree: Path) -> None:
    total = 0
    for path in sorted((tree / "src" / "mixedbvp").glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")


if __name__ == "__main__":
    if len(sys.argv) > 2:
        sys.exit("usage: python tools/code_lines.py [<tree>]")
    main(Path(sys.argv[1] if len(sys.argv) == 2 else Path(__file__).parent.parent).resolve())
