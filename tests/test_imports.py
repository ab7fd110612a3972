"""Import and parameter hygiene, checked with the standard library's ast:
every name a package module imports is used in that module, every
parameter is read in its function's body, no module reads another
module's private attributes, graphs.bits is the package's only low-bit
member walk, and every public name resolves."""

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


def _foreign_private_reads(source: str):
    """(line, attribute) for each single-underscore attribute the module reads
    but does not define.  Defining is self._x = ..., a __slots__ entry, a
    def, a class or an assignment."""
    tree = ast.parse(source)
    defined = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            defined.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
        ):
            defined |= {c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and node.attr.startswith("_") and not node.attr.endswith("__")
        and node.attr not in defined
    )


def test_foreign_private_reads_are_detected():
    source = (
        "class G:\n    __slots__ = ('_adj',)\n\n"
        "class H:\n    def __init__(self):\n        self._memo = {}\n\n"
        "    def _walk(self):\n        return self._memo, self._walk, self.__class__\n\n"
        "def f(g, h):\n    g._adj[0] ^= 1\n    h._cache = {}\n"
        "    return h._cache, Fraction._normalize\n"
    )
    assert _foreign_private_reads(source) == [(14, "_cache"), (14, "_normalize")]


def test_no_module_reads_a_foreign_private_attribute():
    found = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if (reads := _foreign_private_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def _low_bit_walks(source: str):
    """(line, function) for each while loop that takes x & -x and also does
    x ^= ... on the same name x, named by its innermost function."""
    def lowest_of(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
            for a, b in ((node.left, node.right), (node.right, node.left)):
                if (isinstance(a, ast.Name) and isinstance(b, ast.UnaryOp)
                        and isinstance(b.op, ast.USub) and isinstance(b.operand, ast.Name)
                        and b.operand.id == a.id):
                    return a.id
        return None

    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.While):
                continue
            nodes = list(ast.walk(loop))
            lowest = {lowest_of(n) for n in nodes} - {None}
            xored = {n.target.id for n in nodes if isinstance(n, ast.AugAssign)
                     and isinstance(n.op, ast.BitXor) and isinstance(n.target, ast.Name)}
            if lowest & xored:
                found[loop.lineno] = fn.name  # ast.walk reaches inner functions last
    return sorted(found.items())


def test_low_bit_walks_are_detected():
    source = (
        "def walk(m):\n    out = []\n    while m:\n        low = m & -m\n"
        "        out.append(low)\n        m ^= low\n    return out\n\n"
        "def peel(rest, flood):\n    while rest:\n        rest &= ~flood(rest & -rest)\n\n"
        "def least(m):\n    return (m & -m).bit_length() - 1\n\n"
        "def outer(a, b):\n    def inner(p):\n        while p:\n            q = -p & p\n"
        "            p ^= q\n    while a:\n        low = a & -a\n        b ^= low\n"
        "        a -= low\n"
    )
    assert _low_bit_walks(source) == [(3, "walk"), (18, "inner")]


def test_bits_is_the_only_low_bit_walk():
    found = {
        path.name: [name for _, name in walks]
        for path in sorted(PACKAGE.glob("*.py"))
        if (walks := _low_bit_walks(path.read_text(encoding="utf-8")))
    }
    assert found == {"graphs.py": ["bits"]}


def test_every_public_name_resolves():
    missing = [name for name in catspire.__all__ if not hasattr(catspire, name)]
    assert missing == []
    assert len(set(catspire.__all__)) == len(catspire.__all__)
