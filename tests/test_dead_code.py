"""The package carries no unused import, no orphaned private helper and no unread constant.

The checks read the source with the stdlib ``ast`` module and import
nothing.  An imported name counts as used when its module loads it as
a name anywhere or lists it in ``__all__``; ``from __future__`` imports
are not names.  A module-level private ``def`` or ``class`` counts as
used when some module of the package loads its name, reads it as an
attribute, or imports it.  A module-level constant (an upper-case name,
private or not, assigned at the top of a module) counts as read when
some module of the package loads its name or reads it as an attribute.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "centralspin"
MODULES = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, bound name) of every import in the module, at any depth."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    return bound


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = _loaded_names(tree) | _exported(tree)
    unused = [f"{name}:{line} {bound}" for line, bound in _imported(tree) if bound not in used]
    assert not unused, f"unused imports: {unused}"


def test_every_private_helper_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced |= {a.name for a in node.names}
    orphans = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and node.name not in referenced
    ]
    assert not orphans, f"private helpers nothing references: {orphans}"


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def test_every_constant_is_read():
    read = set()
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    constants = [
        (f"{name}:{node.lineno}", target.id)
        for name, tree in MODULES.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and CONSTANT.fullmatch(target.id)
    ]
    assert len(constants) >= 20  # the scan sees the package's constants (25 of them)
    unread = [f"{where} {constant}" for where, constant in constants if constant not in read]
    assert not unread, f"constants no package code reads: {unread}"
