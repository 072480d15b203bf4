"""Print the code lines of each module of a package and their total.

A code line is a non-blank line that is neither a comment nor part of a
docstring (of a module, class or function).  Lines inside any other string
literal count.

    python3 tools/code_lines.py [PACKAGE_DIR]

``PACKAGE_DIR`` defaults to ``src/slisemap``.  One line per module, sorted
by name, then ``total``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    rows = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                rows.difference_update(
                    range(first.lineno, first.end_lineno + 1))
    lines = source.splitlines()
    return sum(1 for r in rows if lines[r - 1].strip())


def main(argv) -> int:
    package = Path(argv[0]) if argv else _ROOT / "src" / "slisemap"
    counts = {p.name: code_lines(p.read_text())
              for p in sorted(package.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    for name, n in counts.items():
        print(f"{name:<{width}} {n:>5}")
    print(f"{'total':<{width}} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
