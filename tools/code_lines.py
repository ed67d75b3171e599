"""Count code lines: lines that hold a token other than a comment, leaving
out docstrings and blank lines.

Usage: python tools/code_lines.py [DIR ...]   (default: src/cake)
Prints one line per module, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(path.read_bytes())):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    with path.open("rb") as fh:
        return len({line for tok in tokenize.tokenize(fh.readline) if tok.type not in SKIP
                    for line in range(tok.start[0], tok.end[0] + 1)} - docstrings)


if __name__ == "__main__":
    total = 0
    for root in sys.argv[1:] or ["src/cake"]:
        for path in sorted(Path(root).rglob("*.py")):
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
