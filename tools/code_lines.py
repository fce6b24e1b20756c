"""Count the code lines of the ampo package, per module and in total.

A code line is a line of a .py file under src/ampo that is not blank, not
only a comment, and not part of a docstring (a module's, class's or
function's first statement when it is a string, found with ast).

Run from anywhere: python tools/code_lines.py [package_dir]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ampo"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by every docstring in `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(
        1 for number, line in enumerate(source.splitlines(), 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def count(package: Path) -> dict[str, int]:
    """Code lines per module, by path relative to `package`, sorted by path."""
    return {
        path.relative_to(package).as_posix(): code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else PACKAGE
    counts = count(package)
    width = max(map(len, counts), default=5)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>6,}")
    print(f"{'total':<{width}}  {sum(counts.values()):>6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
