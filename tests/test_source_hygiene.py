"""Source hygiene of ``src/repro``: no module keeps an import it never
reads.

Parsed with :mod:`ast`.  A module-level import (outside ``__init__.py``,
which re-exports) counts as read when its bound name appears as a name
anywhere in the module — annotations included, string annotations and
quoted names in a subscripted type parsed — or is listed in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")


def _module_imports(body: List[ast.stmt]) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of each import at module level (inside
    module-level ``if``/``try`` blocks too, not inside a def or class)."""
    for node in body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        for block in ("body", "orelse", "finalbody"):
            if isinstance(node, (ast.If, ast.Try)):
                yield from _module_imports(getattr(node, block, []))
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                yield from _module_imports(handler.body)


def _annotations(tree: ast.AST) -> Iterator[ast.expr]:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _forward_refs(tree: ast.AST) -> Iterator[str]:
    """String annotations, and strings inside a subscript (a type alias
    such as ``Union[str, "os.PathLike[str]"]``)."""
    scopes = [*_annotations(tree),
              *(node.slice for node in ast.walk(tree) if isinstance(node, ast.Subscript))]
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield node.value


def _names_read(tree: ast.AST) -> Set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ref in _forward_refs(tree):
        try:
            names |= _names_read(ast.parse(ref, mode="eval"))
        except SyntaxError:
            pass  # a string key, not a type
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names |= {elt.value for elt in ast.walk(node.value)
                      if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path: Path) -> List[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    read = _names_read(tree)
    return [f"{name} (line {line})" for name, line in _module_imports(tree.body)
            if name not in read]


def test_modules_are_found():
    assert len(MODULES) > 50


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_imports(path):
    assert unused_imports(path) == []


def test_the_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from typing import Callable, List\nimport numpy as np\n"
                      "def f(x: 'np.ndarray') -> List[int]:\n    return []\n")
    assert unused_imports(module) == ["Callable (line 1)"]
