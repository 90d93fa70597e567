"""Print the total lines and the code lines of each bftprob module.

Code lines are the non-blank lines that are neither comments nor part of a
docstring (the first string statement of a module, class or function).

    python tests/src_lines.py [--against REF] [source directory]

The directory defaults to this checkout's src/bftprob.  With --against, each
module is also read at the git ref REF (with `git show`), and the code lines
are printed before (at REF), after (in the directory) and as a delta.
"""

import argparse
import ast
import io
import subprocess
import tokenize
from pathlib import Path


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    skip = _docstring_lines(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - skip)


def _git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                          check=True).stdout


def _at_ref(root: Path, ref: str) -> dict[str, str]:
    """The source of each module in `root` at the git ref, by file name."""
    names = _git(root, "ls-tree", "--name-only", ref, "./").split()
    return {name: _git(root, "show", f"{ref}:./{name}") for name in names if name.endswith(".py")}


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src" / "bftprob")
    parser.add_argument("--against", metavar="REF", help="also count each module at this git ref")
    args = parser.parse_args(argv)
    after = {path.name: path.read_text() for path in sorted(args.root.glob("*.py"))}
    rows = {name: count(source) for name, source in after.items()}
    if args.against is None:
        print(f"{'module':<16}{'lines':>8}{'code':>8}")
        for name, (lines, code) in [*rows.items(), ("total", tuple(map(sum, zip(*rows.values()))))]:
            print(f"{name:<16}{lines:>8}{code:>8}")
        return
    before = {name: count(source)[1] for name, source in _at_ref(args.root, args.against).items()}
    names = sorted(before.keys() | rows.keys())
    table = [(name, before.get(name, 0), rows.get(name, (0, 0))[1]) for name in names]
    table.append(("total", sum(row[1] for row in table), sum(row[2] for row in table)))
    print(f"code lines against {args.against}")
    print(f"{'module':<16}{'before':>8}{'after':>8}{'delta':>8}")
    for name, old, new in table:
        print(f"{name:<16}{old:>8}{new:>8}{new - old:>+8}")


if __name__ == "__main__":
    main()
