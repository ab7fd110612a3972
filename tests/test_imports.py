"""Import and parameter hygiene, checked with the standard library's ast:
every name a package module imports is used in that module, every
parameter is read in its function's body, and every public name
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


def _unused_parameters(source: str):
    """(line, function, parameter) for each parameter its function never reads.

    self, cls and functions whose body only raises NotImplementedError are
    exempt: an interface's parameters belong to its implementations.
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = [stmt for stmt in node.body if not (
            isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))]
        if len(body) == 1 and isinstance(body[0], ast.Raise):
            exc = body[0].exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [(node.lineno, node.name, a.arg) for a in params
                if a.arg not in ("self", "cls") and a.arg not in read]
    return sorted(out)


def test_unused_parameters_are_detected():
    source = (
        "def f(a, b, *rest, c=1, **kw):\n    return a + c\n\n"
        "class M:\n"
        "    def mass(self, x):\n        raise NotImplementedError\n\n"
        "    def g(self, y):\n        def inner(z):\n            return y\n        return inner\n"
    )
    assert _unused_parameters(source) == [
        (1, "f", "b"), (1, "f", "kw"), (1, "f", "rest"), (9, "inner", "z")
    ]


def test_every_parameter_in_the_package_is_read():
    unused = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _unused_parameters(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


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
