"""Count the code lines of Python files.

Usage: python3 scripts/count_lines.py [FILE ...]

The default is every ``src/nufd/*.py`` of this checkout.  A code line is a
line on which a token starts.  These never count: blank lines, comments,
docstrings (a string that forms a whole statement by itself, as the first
statement of a module, class or function does), the continuation lines of
a string that spans several lines, and lines that hold only closing
brackets.  The script prints the count of each file, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER, tokenize.ENCODING}
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
_FSTRING_START = getattr(tokenize, "FSTRING_START", None)
_FSTRING_END = getattr(tokenize, "FSTRING_END", None)


def code_lines(path: Path) -> int:
    """The number of lines of ``path`` on which a token other than a closing bracket starts."""
    with tokenize.open(path) as fh:
        tokens = [t for t in tokenize.generate_tokens(fh.readline) if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    previous, fstrings = tokenize.NEWLINE, 0
    for t, following in zip(tokens, tokens[1:] + tokens[-1:]):
        docstring = t.type == tokenize.STRING and previous in _STATEMENT_START and following.type == tokenize.NEWLINE
        if t.type not in _SKIPPED and not docstring and not fstrings and t.string not in (")", "]", "}"):
            lines.add(t.start[0])
        # From Python 3.12 an f-string is split into tokens; they belong to its first line.
        fstrings += (t.type == _FSTRING_START) - (t.type == _FSTRING_END)
        previous = t.type
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parents[1]
    paths = [Path(a) for a in argv] or [p.relative_to(root) for p in sorted((root / "src" / "nufd").glob("*.py"))]
    counts = {p: code_lines(p if argv else root / p) for p in paths}
    width = max(len(str(p)) for p in paths)
    for p, n in counts.items():
        print(f"{str(p):<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
