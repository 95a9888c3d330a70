"""Print the physical and code line counts of the Python files under a
directory (default src/).

Code lines are the lines that hold a token of code: blank lines,
comment lines and the lines of docstrings (a string that opens a
module, class or function body) do not count.

    python tools/code_lines.py [DIR]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1)
                         if n not in skip)
    return len(lines)


def main(root: str = "src") -> None:
    physical = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        source = path.read_text()
        physical += len(source.splitlines())
        code += code_lines(source)
    print(f"{root}: {physical} physical lines, {code} code lines")


if __name__ == "__main__":
    main(*sys.argv[1:])
