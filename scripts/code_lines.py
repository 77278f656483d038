"""Count code lines: lines that are not blank, a comment or a docstring.

    python scripts/code_lines.py src/repro/management src/repro/routing

prints one count per path (a directory counts every ``*.py`` below it) and,
for more than one path, their total.  A string that is a statement of its
own (a module, class or function docstring, or any bare string expression)
counts as a docstring.  ``--max N`` exits non-zero when the total is above
``N``.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

#: Tokens that are no code (NEWLINE is kept: it ends a statement).
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in one Python file."""
    with path.open("rb") as source:
        tokens = [t for t in tokenize.tokenize(source.readline) if t.type not in _LAYOUT]
    lines = set()
    for i, token in enumerate(tokens):
        if token.type == tokenize.NEWLINE:
            continue
        statement_start = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        statement_end = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if token.type == tokenize.STRING and statement_start and statement_end:
            continue  # a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def count(path: Path) -> int:
    files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return sum(code_lines(f) for f in files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--max", type=int, help="bound on the total count")
    args = parser.parse_args(argv)
    counts = [count(path) for path in args.paths]
    for path, n in zip(args.paths, counts):
        print(f"{n:7d} {path}")
    total = sum(counts)
    if len(counts) > 1:
        print(f"{total:7d} total")
    if args.max is not None and total > args.max:
        names = " + ".join(map(str, args.paths))
        print(f"{names}: {total} code lines, bound {args.max}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
