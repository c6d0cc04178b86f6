"""Print the code lines of each module in src/pggwave and their total.

A code line is a line that is not blank, not a comment alone and not part
of a module, class or function docstring; a ``def`` line counts.  Run from
anywhere: ``python tools/code_lines.py``.
"""

import ast
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), 1)
               if i not in skip and line.strip()
               and not line.lstrip().startswith("#"))


def main() -> None:
    package = Path(__file__).resolve().parent.parent / "src" / "pggwave"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16s} {count:5d}")
    print(f"{'total':16s} {total:5d}")


if __name__ == "__main__":
    main()
