"""Every public module-level function and class of srcodes is used by the
program: its name is referred to in a srcodes module, a demo, or the
benchmark harness.  Tests do not count, nor does a re-export in the
package's __init__.py, so code kept alive only by its own tests or its
export is reported here.  Names are matched as identifiers, not by what
they resolve to, so a shared name hides a dead definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [ROOT / "src" / "srcodes", ROOT / "demos", ROOT / "perfbench"]
# tests/gf_reference.py, the scalar oracle, is built on gf_mul
EXEMPT = {"gf256.gf_mul"}


def _used(tree: ast.AST) -> set[str]:
    """Names a module refers to: plain names, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _is_command(node: ast.AST) -> bool:
    """A click command callback, @main.command(...): click calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def test_public_code_has_a_use():
    trees = {path: ast.parse(path.read_text())
             for folder in PROGRAM for path in sorted(folder.glob("*.py"))}
    used = set().union(*(_used(tree) for path, tree in trees.items()
                         if path != PROGRAM[0] / "__init__.py"))
    dead = [f"{path.stem}.{node.name}"
            for path, tree in trees.items() if path.parent == PROGRAM[0]
            for node in tree.body
            if isinstance(node, ast.FunctionDef | ast.ClassDef)
            and not node.name.startswith("_") and not _is_command(node)
            and f"{path.stem}.{node.name}" not in EXEMPT
            and node.name not in used]
    assert dead == []
