"""Every public module-level function and class of srcodes is used by the
program: its name is referred to in a srcodes module, a demo, or the
benchmark harness; and every dataclass field in srcodes is read as an
attribute there.  Tests do not count, nor does a re-export in the
package's __init__.py, so code kept alive only by its own tests or its
export is reported here.  Names are matched as identifiers, not by what
they resolve to, so a shared name hides a dead definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [ROOT / "src" / "srcodes", ROOT / "demos", ROOT / "perfbench"]


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


def _program() -> dict[Path, ast.AST]:
    return {path: ast.parse(path.read_text())
            for folder in PROGRAM for path in sorted(folder.glob("*.py"))}


def test_public_code_has_a_use():
    trees = _program()
    used = set().union(*(_used(tree) for path, tree in trees.items()
                         if path != PROGRAM[0] / "__init__.py"))
    dead = [f"{path.stem}.{node.name}"
            for path, tree in trees.items() if path.parent == PROGRAM[0]
            for node in tree.body
            if isinstance(node, ast.FunctionDef | ast.ClassDef)
            and not node.name.startswith("_") and not _is_command(node)
            and node.name not in used]
    assert dead == []


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in node.decorator_list)


def test_dataclass_fields_are_read():
    trees = _program()
    read = {node.attr for path, tree in trees.items()
            if path != PROGRAM[0] / "__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{cls.name}.{stmt.target.id}"
              for path, tree in trees.items() if path.parent == PROGRAM[0]
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)
              and stmt.target.id not in read]
    assert unread == []
