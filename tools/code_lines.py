"""Count the lines of each ``src/raghpo`` module by kind: code, docstring, comment, blank.

Usage: ``python3 tools/code_lines.py [FILE.py ...]`` (default: every module
of ``src/raghpo``). Prints one row per module and a total.

Each line is counted once:

* docstring -- a line of a module, class or function docstring (found with
  ``ast``) that is not blank;
* code -- any other line that holds more than a comment (tokens found with
  ``tokenize``), so every line of a multi-line expression or string is code;
* comment -- a line that holds a comment and nothing else;
* blank -- an empty or whitespace-only line outside code.

So the four kinds of a file sum to its number of lines, as ``wc -l`` counts them.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> dict[str, int]:
    """The lines of ``source`` by kind, plus ``lines``, their sum."""
    docstring, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstring.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        rows = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.COMMENT:
            comment.update(rows)
        elif token.type not in _LAYOUT:
            code.update(rows)
    counts = dict.fromkeys(KINDS, 0)
    for row, text in enumerate(source.split("\n")[:-1], 1):  # the lines that end in "\n"
        if row in docstring:
            kind = "docstring" if text.strip() else "blank"
        elif row in code or (text.strip() and row not in comment):
            kind = "code"
        else:
            kind = "comment" if row in comment else "blank"
        counts[kind] += 1
    return {"lines": sum(counts.values()), **counts}


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "raghpo").glob("*.py")
    )
    header = ("module", "lines", *KINDS)
    print(f"{header[0]:<16}" + "".join(f"{name:>10}" for name in header[1:]))
    total = dict.fromkeys(header[1:], 0)
    for path in paths:
        counts = count(path.read_text(encoding="utf-8"))
        print(f"{path.stem:<16}" + "".join(f"{counts[name]:>10,}" for name in header[1:]))
        for name in total:
            total[name] += counts[name]
    print(f"{'total':<16}" + "".join(f"{total[name]:>10,}" for name in header[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
