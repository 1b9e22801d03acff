"""One construction path: only the constructors build a Hyperstructure.

Every bond reaches a tower through `core.add_bonds`, which freezes the parts
it grew with `core.assemble`. A second path that grows levels or re-sorts the
bond registry by hand would call `Hyperstructure(...)` or pass `levels=`,
`bonds=` or `order=` to `_replace`. These tests parse every module of the
package, subpackages included, with `ast` and refuse both.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperstruct"
CONSTRUCTORS = {"hyperstruct.core.assemble", "hyperstruct.core.new_hyperstructure", "hyperstruct.core.Hyperstructure.empty"}
SHAPE_FIELDS = {"levels", "bonds", "order"}


def _walk(node, scope: list[str]):
    """Each call below node, with the dotted name of the scope it sits in."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _walk(child, scope + [child.name])
            continue
        if isinstance(child, ast.Call):
            yield ".".join(scope), child
        yield from _walk(child, scope)


def _modules():
    """Each module of the package, subpackages included, by dotted module path, with its syntax tree."""
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        yield ".".join(parts[:-1] if parts[-1] == "__init__" else parts), ast.parse(path.read_text(encoding="utf-8"), str(path))


def _calls():
    for module, tree in _modules():
        yield from _walk(tree, [module])


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def test_subpackages_are_walked():
    assert {"hyperstruct", "hyperstruct.commands", "hyperstruct.commands.install"} <= {module for module, _ in _modules()}


def test_only_the_constructors_call_hyperstructure():
    builders = {
        scope
        for scope, call in _calls()
        if _callee(call) == "Hyperstructure" or (_callee(call) == "cls" and ".Hyperstructure." in f".{scope}.")
    }
    assert builders == CONSTRUCTORS


def test_no_replace_changes_a_towers_shape():
    reshaped = sorted(
        f"{scope}: _replace({', '.join(sorted(kw.arg for kw in call.keywords if kw.arg in SHAPE_FIELDS))})"
        for scope, call in _calls()
        if _callee(call) == "_replace" and any(kw.arg in SHAPE_FIELDS for kw in call.keywords)
    )
    assert reshaped == []
