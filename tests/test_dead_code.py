"""Every module-level function, class and constant of srcodes is used
by the program: its name is referred to in a srcodes module, a demo,
or the benchmark harness; every dataclass field in srcodes is read as
an attribute there; and every parameter default of a srcodes function
is overridden by some call there and relied on by another.  Tests do
not count, nor does a re-export in the package's __init__.py, so code
kept alive only by its own tests or its export is reported here.  Names
are matched as identifiers, not by what they resolve to, so a shared
name hides a dead definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [ROOT / "src" / "srcodes", ROOT / "demos", ROOT / "perfbench"]


def _used(tree: ast.AST) -> set[str]:
    """Names a module refers to: plain names read, attributes and imports."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def _is_command(node: ast.AST) -> bool:
    """A click command callback, @main.command(...): click calls it."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr == "command" for d in node.decorator_list)


def _program() -> dict[Path, ast.AST]:
    return {path: ast.parse(path.read_text())
            for folder in PROGRAM for path in sorted(folder.glob("*.py"))}


def _names(node: ast.stmt) -> list[str]:
    """The names, dunders such as __all__ aside, that a module-level
    statement defines: a function, a class or an assigned constant."""
    if isinstance(node, ast.FunctionDef | ast.ClassDef):
        names = [node.name]
    elif isinstance(node, ast.Assign | ast.AnnAssign):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if not name.startswith("__")]


def test_public_code_has_a_use():
    trees = _program()
    used = set().union(*(_used(tree) for path, tree in trees.items()
                         if path != PROGRAM[0] / "__init__.py"))
    dead = [f"{path.stem}.{name}"
            for path, tree in trees.items() if path.parent == PROGRAM[0]
            for node in tree.body if not _is_command(node)
            for name in _names(node)
            if not name.startswith("_") and name not in used]
    assert dead == []


def test_private_code_has_a_use():
    # a helper left behind when its last caller goes
    trees = _program()
    used = set().union(*(_used(tree) for path, tree in trees.items()
                         if path != PROGRAM[0] / "__init__.py"))
    dead = [f"{path.stem}.{name}"
            for path, tree in trees.items() if path.parent == PROGRAM[0]
            for node in tree.body for name in _names(node)
            if name.startswith("_") and name not in used]
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


def _defaults(tree: ast.AST) -> list[tuple[str, str, int | None]]:
    """(the name a call uses, parameter, its position in a call or None
    if keyword-only) per parameter default of a function in tree; a
    method's self or cls takes no position, and __init__ is called by
    its class's name."""
    out = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
                continue
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                name = cls if child.name == "__init__" else child.name
                for i, arg in enumerate(positional):
                    if i >= len(positional) - len(a.defaults):
                        out.append((name, arg.arg, i - (cls is not None)))
                out.extend((name, arg.arg, None) for arg, d in
                           zip(a.kwonlyargs, a.kw_defaults) if d is not None)
            visit(child, None)

    visit(tree, None)
    return out


def _overrides(call: ast.Call, param: str, position: int | None) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
            kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return position is not None and len(call.args) > position


def _default_uses() -> list[tuple[str, list[bool]]]:
    """Per parameter default of a srcodes function, its name and, per
    call of that name in the program, whether the call overrides it."""
    trees = _program()
    calls: dict[str, list[ast.Call]] = {}
    for path, tree in trees.items():
        if path != PROGRAM[0] / "__init__.py":
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", getattr(func, "attr", None))
                    calls.setdefault(name, []).append(node)
    return [(f"{path.stem}.{name}({param}=)",
             [_overrides(call, param, position)
              for call in calls.get(name, [])])
            for path, tree in trees.items() if path.parent == PROGRAM[0]
            for name, param, position in _defaults(tree)]


def test_parameter_defaults_are_overridden():
    # a default that no call in the program overrides, by keyword, by
    # position or through ** or *, is a knob nothing turns: its value
    # belongs in the body
    assert [name for name, overrides in _default_uses()
            if not any(overrides)] == []


def test_parameter_defaults_are_relied_on():
    # a default that every call in the program overrides is never used:
    # the parameter is required
    assert [name for name, overrides in _default_uses()
            if overrides and all(overrides)] == []


def _thread_makers(node: ast.AST, where: str):
    """Where node's subtree constructs a thread: the dotted name of the
    innermost function or class around each threading.Thread or
    ThreadPoolExecutor call."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, ast.FunctionDef | ast.AsyncFunctionDef
                      | ast.ClassDef):
            inner = f"{where}.{child.name}"
        elif isinstance(child, ast.Call) and getattr(
                child.func, "attr", getattr(child.func, "id", None)) \
                in ("Thread", "ThreadPoolExecutor"):
            yield where
        yield from _thread_makers(child, inner)


def test_one_function_starts_threads():
    # the writer thread of encode, decode and repair is _pipeline's: a
    # second write-behind path would start its own
    makers = [m for path, tree in _program().items()
              if path.parent == PROGRAM[0]
              for m in _thread_makers(tree, path.stem)]
    assert makers == ["shards._pipeline"]
