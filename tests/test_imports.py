"""Import hygiene, checked with the standard library's ast: every name a
package module imports is used in that module, and every public name
resolves."""

import ast
from pathlib import Path

import catspire

PACKAGE = Path(catspire.__file__).parent


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a re-export listed in __all__ counts as a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_detected():
    source = "from typing import List, Sequence\nimport os\n\nx: List[int] = []\n"
    assert _unused_imports(source) == [(1, "Sequence"), (2, "os")]
    assert _unused_imports("from . import a\n__all__ = ['a']\n") == []


def test_every_import_in_the_package_is_used():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_every_public_name_resolves():
    missing = [name for name in catspire.__all__ if not hasattr(catspire, name)]
    assert missing == []
    assert len(set(catspire.__all__)) == len(catspire.__all__)
