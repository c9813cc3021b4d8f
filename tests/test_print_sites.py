"""Only cob3.cli.main writes to stdout: every print call of cob3 is in it."""

import ast
from pathlib import Path

import cob3


def _print_calls(tree):
    """(dotted name of the enclosing function, line) of each print call."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "print"
            ):
                found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_cli_main_prints():
    sites = []
    for path in sorted(Path(cob3.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        sites += [(f"{path.stem}.{fn}", line) for fn, line in _print_calls(tree)]
    assert sites, "cli.main prints each command's result"
    stray = [(where, line) for where, line in sites if where != "cli.main"]
    assert not stray, f"print outside cob3.cli.main (function, line): {stray}"
