#!/usr/bin/env python3
"""Physical lines and code lines of each module in src/frheo.

    python3 tools/code_lines.py [--root DIR] [--against DIR2]

Prints one row per module of DIR/src/frheo (default: this checkout) and
a total row: the physical lines (as `cat src/frheo/*.py | wc -l` counts
them) and the code lines, the lines that hold a token of the tokenize
module other than a comment, a line break, an indent or a dedent, less
the lines of docstrings (a string statement that opens a module, class
or function body). A token that spans lines counts on each of them.

With --against DIR2 each row also gives DIR2's two counts and the
change DIR - DIR2 of each, so that a pull request's size change reads

    python3 tools/code_lines.py --against <parent checkout>
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple:
    """(physical lines, code lines) of one source file."""
    src = path.read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(src, str(path))):
        first = node.body[0] if isinstance(node, BODIES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            docs.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return src.count("\n"), len(code - docs)


def table(root: Path) -> dict:
    """Module name -> counts, with a "total" row."""
    rows = {p.name: counts(p) for p in sorted((root / "src" / "frheo").glob("*.py"))}
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    return rows


ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
ap.add_argument("--against", type=Path, help="a second checkout to compare counts with")
args = ap.parse_args()

mine = table(args.root)
if args.against is None:
    print(f"{'module':<14}{'lines':>7}{'code':>7}")
    for name, (lines, code) in mine.items():
        print(f"{name:<14}{lines:>7}{code:>7}")
else:
    other = table(args.against)
    print(f"{'module':<14}{'lines':>7}{'code':>7}{'lines2':>8}{'code2':>7}{'dlines':>8}{'dcode':>7}")
    for name in sorted(mine.keys() | other.keys(), key=lambda n: (n == "total", n)):
        (a, b), (c, d) = mine.get(name, (0, 0)), other.get(name, (0, 0))
        print(f"{name:<14}{a:>7}{b:>7}{c:>8}{d:>7}{a - c:>+8}{b - d:>+7}")
