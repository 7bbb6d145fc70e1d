"""Count the code lines of the package: lines that are not blank, not
comments and not docstrings.

Run from the root of a checkout:

    python3 tools/code_lines.py [directory]

It prints the count of every .py module under the directory (src/ by
default), then the total.  A line counts when it holds a token other than
a comment, a line break or indentation, and lies outside the docstring of
a module, class or function.  It needs the standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers of the docstrings in a module's syntax tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    root = Path(argv[1] if len(argv) > 1 else "src")
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
