"""Print the size of ``src/``: its line count and its settable values.

A settable value is a parameter of a ``def`` other than ``self`` or ``cls``
(``*args`` and ``**kwargs`` count, lambdas do not) or an annotated field in
a class body.  Run from the repository root::

    python tools/src_size.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def settable_values(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            count += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef):
            count += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return count


def main(root: str = "src") -> int:
    lines = values = 0
    for path in sorted(Path(root).rglob("*.py")):
        text = path.read_text()
        lines += len(text.splitlines())
        values += settable_values(ast.parse(text))
    print(f"{root}/: {lines} lines, {values} settable values")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
