#!/usr/bin/env python3
"""Count code-only lines: non-blank, non-comment, non-docstring.

``python tools/code_lines.py src tests`` prints one ``<dir> <count>``
line per directory, over its ``*.py`` files. This is the number
CHANGES.md and the simplicity issues quote, so anyone can re-run it.
"""

import ast
import sys
import tokenize
from pathlib import Path

#: Tokens that put no code on their line.
_SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """Lines of ``path`` holding a token that is not comment or docstring."""
    with tokenize.open(path) as handle:
        source = handle.read()
    lines: set[int] = set()
    for token in tokenize.generate_tokens(iter(source.splitlines(True)).__next__):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    for root in sys.argv[1:]:
        print(root, sum(code_lines(p) for p in sorted(Path(root).rglob("*.py"))))
