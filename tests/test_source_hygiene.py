"""Static checks on the package source: no dead imports, no orphaned
private helpers.  Only the standard library's ``ast`` is used."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lgqsmooth"


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(SRC.glob("*.py"))}


def _annotations(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, (ast.arg, ast.AnnAssign)) and sub.annotation:
            yield sub.annotation
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and sub.returns:
            yield sub.returns


def _names(node: ast.AST) -> set[str]:
    """Identifiers a subtree reads: bare names, attribute names and the
    names inside quoted annotations."""
    out = {sub.id if isinstance(sub, ast.Name) else sub.attr
           for sub in ast.walk(node)
           if isinstance(sub, (ast.Name, ast.Attribute))}
    for annotation in _annotations(node):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                out |= _names(ast.parse(sub.value, mode="eval"))
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_import_is_used():
    unused = []
    for name, tree in _modules().items():
        used = _names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in used:
                        unused.append(f"{name}:{node.lineno} {bound}")
    assert unused == []


def test_every_private_function_is_referenced():
    modules = _modules()
    orphans = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) \
                    or not node.name.startswith("_") \
                    or node.name.startswith("__"):
                continue
            # a reference from the function's own body does not count
            seen = any(node.name in _names(other)
                       for mod in modules.values() for other in mod.body
                       if other is not node)
            if not seen:
                orphans.append(f"{name}:{node.lineno} {node.name}")
    assert orphans == []


def _relative_sources(node: ast.ImportFrom) -> set[str]:
    """The package modules a relative ``from`` import reads: ``.x`` for
    ``from .x import a`` and for ``from . import x``."""
    if not node.level:
        return set()
    if node.module:
        return {"." * node.level + node.module}
    return {"." * node.level + alias.name for alias in node.names}


def test_no_function_defers_an_import_made_at_top_level():
    # a module imported at the top avoids no import cycle when a function
    # imports from it again, and the benchmark tracer rebinds only
    # module-level names
    deferred = []
    for name, tree in _modules().items():
        top = set().union(*(_relative_sources(node) for node in tree.body
                            if isinstance(node, ast.ImportFrom)))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom) \
                        and _relative_sources(node) & top:
                    deferred.append(f"{name}:{node.lineno} {func.name}")
    assert deferred == []
