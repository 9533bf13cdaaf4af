"""Source checks on src/lieshift: tuples on hot paths are built at their size,
and the raw domain values of field elements are read only in ``fields``.

``tuple(<generator>)``, ``tuple(map(...))`` and ``f(*<generator>)`` cannot
know the length of what they consume, so CPython allocates a 10-slot tuple
and shrinks it. When the result is freed it goes onto the free list for its
final length, which its allocation never took from: every such call grows
that list by one, up to 2000 tuples per length, and only a full (generation
2) collection empties the lists. Code that allocates few tracked objects
rarely triggers one, so the lists, and the process's peak memory, creep
with the number of calls. ``tuple([...])`` and ``f(*[...])`` build the tuple
from a list of known length and leave the lists flat.

What a ``FieldElement`` wraps (``.raw``: a Fraction, or a sympy fraction
field element) and the sympy domain of a ``Field`` (``.domain``) are the
private format of ``fields``. Every other module passes elements, and the
kernels compute on the cleared values of ``Field.clear``, so no other module
may read either attribute, nor the sympy ring API that reads inside a value
(``.LC``, ``.numer``, ``.denom``, ``.quo_ground``, ``.monic``): a basis
scale or a sign is a ``Field`` method. For the same reason only ``fields``
imports sympy, at any depth: the gcd fallback for sympy's heuristic stays
there.

Every name a module imports is read in it (``__init__`` re-exports, so it is
exempt): a deletion that leaves an import behind fails here. Likewise every
private function or class (``_name``, dunders exempt) is read by some module
of the package outside its own body: a deletion that orphans a helper fails
here.

Every public function or class, and every public method of a module-level
class, is read by some module of the package other than ``__init__``,
outside its own body: a re-export is not a use, so a deletion that leaves a
public function without callers fails here. A public name kept for users
alone is listed in ``PUBLIC_API`` with its reason, and the list holds no
name that has since gained a reader or been deleted.

A ``LieAlgebra`` stores only the values that more than one caller reads:
``kernel_brackets``, ``_validation`` and ``_nilradical_lower`` are the only
``cached_property`` in the package. Every other structure fact is a function
of the algebra, so a new cache has to be added to ``KEPT`` with its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lieshift"
FILES = sorted(SRC.glob("*.py"))


def _offences(tree):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == "tuple" and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.GeneratorExp):
                yield node.lineno, "tuple(<generator>)"
            elif (
                isinstance(arg, ast.Call)
                and isinstance(arg.func, ast.Name)
                and arg.func.id == "map"
            ):
                yield node.lineno, "tuple(map(...))"
        for arg in node.args:
            if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                yield node.lineno, "*<generator> argument"


def test_source_files_found():
    assert len(FILES) >= 10


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_tuples_are_built_at_their_size(path):
    found = list(_offences(ast.parse(path.read_text(), str(path))))
    assert not found, "%s: %s" % (path.name, found)


def test_checker_catches_each_pattern():
    src = "tuple(x for x in y)\ntuple(map(f, y))\ng(*(x for x in y))\ntuple([x for x in y])\n"
    assert [line for line, _ in _offences(ast.parse(src))] == [1, 2, 3]


FORMAT_ATTRS = ("raw", "domain", "LC", "numer", "denom", "quo_ground", "monic")


def _format_reads(tree):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in FORMAT_ATTRS
            and isinstance(node.ctx, ast.Load)
        ):
            yield node.lineno, "." + node.attr


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "fields.py"], ids=lambda p: p.name
)
def test_raw_values_stay_inside_fields(path):
    found = list(_format_reads(ast.parse(path.read_text(), str(path))))
    assert not found, "%s: %s" % (path.name, found)


def test_format_checker_catches_each_read():
    src = "c.raw\nf.domain.one\nx.raw = 1\ny = raw\ng(e.field.domain)\n"
    assert [line for line, _ in _format_reads(ast.parse(src))] == [1, 2, 5]
    src = (
        "lead = a.LC\nn = e.numer * 2\nf(x.denom)\nb = a.quo_ground(lc)\nm = g.monic()\n"
        "x.LC = 1\nLC = monic\nq.numerator\n"
    )
    assert [what for _, what in sorted(_format_reads(ast.parse(src)))] == [
        ".LC", ".numer", ".denom", ".quo_ground", ".monic"
    ]


def _sympy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            yield node.lineno


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "fields.py"], ids=lambda p: p.name
)
def test_only_fields_imports_sympy(path):
    found = list(_sympy_imports(ast.parse(path.read_text(), str(path))))
    assert not found, "%s: lines %s" % (path.name, found)


def test_import_checker_catches_each_form():
    src = (
        "import sympy\nfrom sympy.polys import ring\nimport sympyx, os\n"
        "from . import sympy\ndef f():\n    import os, sympy.polys.rings as r\n"
    )
    assert list(_sympy_imports(ast.parse(src))) == [1, 2, 6]


def _unused_imports(tree):
    """(line, name) of each name an import binds that the module never reads;
    ``from __future__`` imports bind no name."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize(
    "path", [p for p in FILES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_import_is_read(path):
    found = _unused_imports(ast.parse(path.read_text(), str(path)))
    assert not found, "%s: %s" % (path.name, found)


def test_unused_import_checker_catches_each_form():
    src = (
        "from __future__ import annotations\nimport os, sys\nimport a.b as c\n"
        "from .m import f, g as h, u\ndef k():\n    import json\n    return sys.argv, h\n"
        "x: f = os.sep\n"
    )
    assert _unused_imports(ast.parse(src)) == [(3, "c"), (4, "u"), (6, "json")]


def _unread_private_definitions(trees):
    """(module, line, name) of each ``_name`` function or class, at any depth,
    whose name no module of ``trees`` (name -> ast) reads, as a name or as an
    attribute, outside the definition's own lines; dunders are exempt."""
    defs, reads = [], []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs.append((mod, node.lineno, node.end_lineno, name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.lineno, node.attr))
    return [
        (mod, first, name)
        for mod, first, last, name in defs
        if not any(
            n == name and (m != mod or not first <= line <= last) for m, line, n in reads
        )
    ]


def test_every_private_definition_is_read():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in FILES}
    assert _unread_private_definitions(trees) == []


def test_private_definition_checker_catches_each_form():
    trees = {
        "a.py": ast.parse(
            "def _helper():\n    pass\ndef _orphan():\n    return _orphan()\n"
            "class _Kept:\n    def _m(self):\n        pass\n    def __init__(self):\n"
            "        self._n = 1\n    def _n(self):\n        pass\n"
        ),
        "b.py": ast.parse("from .a import _helper, _Kept\n_helper(), _Kept()._m\n"),
    }
    assert _unread_private_definitions(trees) == [("a.py", 3, "_orphan"), ("a.py", 10, "_n")]


# (module, name): each public definition that no library code reads, kept
# for users
PUBLIC_API = {
    ("algfile.py", "write_algebra"): "the pair of read_algebra: writes a file it reads back",
    ("fields.py", "FieldElement.inverse"): "arithmetic API, 1 / x by name",
    ("invariants.py", "is_regular"): "the regularity test of a form, exported by __init__",
    ("liealg.py", "bracket"): "the bracket of two coordinate vectors; exported by __init__",
    ("liealg.py", "direct_sum"): "builds q1 + q2; exported by __init__",
    ("liealg.py", "is_reductive"): "the reductivity test by name; exported by __init__",
    ("liealg.py", "LieAlgebra.bracket_basis"): "reads the table by basis pair",
    ("polyring.py", "PolyElement.constant"): "the pair of PolyElement.variable",
    ("presets.py", "preset_names"): "lists the registered presets",
}


def _unread_public_definitions(trees):
    """(module, line, name) of each public function or class, and each public
    method (``Class.name``) of a module-level class, whose own name no
    module of ``trees`` other than ``__init__.py`` reads, as a name or as an
    attribute, outside the definition's own lines."""
    defs, reads = [], []
    for mod, tree in trees.items():
        scopes = [(None, tree.body)] + [
            (node.name, node.body) for node in tree.body if isinstance(node, ast.ClassDef)
        ]
        for cls, body in scopes:
            for node in body:
                if (
                    isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                ):
                    qual = node.name if cls is None else "%s.%s" % (cls, node.name)
                    defs.append((mod, node.lineno, node.end_lineno, node.name, qual))
        if mod == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.append((mod, node.lineno, node.attr))
    return [
        (mod, first, qual)
        for mod, first, last, name, qual in defs
        if not any(
            n == name and (m != mod or not first <= line <= last) for m, line, n in reads
        )
    ]


def test_every_public_definition_is_read_or_kept():
    trees = {p.name: ast.parse(p.read_text(), str(p)) for p in FILES}
    found = sorted((mod, name) for mod, _, name in _unread_public_definitions(trees))
    assert found == sorted(PUBLIC_API)


def test_public_definition_checker_catches_each_form():
    trees = {
        "a.py": ast.parse(
            "def used():\n    pass\ndef orphan():\n    pass\n"
            "def solve(x):\n    return solve(x)\n"
            "class C:\n    def m(self):\n        pass\n    def n(self):\n        pass\n"
            "    def __init__(self):\n        pass\n    def _p(self):\n        pass\n"
        ),
        "b.py": ast.parse("from .a import used, C\nused(), C().m\n"),
        "__init__.py": ast.parse(
            "from .a import orphan, solve\n__all__ = [f.__name__ for f in (orphan, solve)]\n"
        ),
    }
    assert _unread_public_definitions(trees) == [
        ("a.py", 3, "orphan"), ("a.py", 5, "solve"), ("a.py", 10, "C.n"),
    ]


# (class, method): each value the package keeps once computed
KEPT = {
    ("LieAlgebra", "kernel_brackets"),  # every bracket kernel reads it
    ("LieAlgebra", "_validation"),  # load_algebra, construct and the CLI share it
    ("LieAlgebra", "_nilradical_lower"),  # n's lower central series in q: validate builds it, classify reads it
}


def _cached_properties(tree):
    """(line, where) of each use of ``cached_property``, other than its import,
    that is not the decorator of a method in ``KEPT``."""
    allowed = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and (cls.name, fn.name) in KEPT:
                    allowed.update(id(d) for d in fn.decorator_list)
    for node in ast.walk(tree):
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if name == "cached_property" and id(node) not in allowed:
            yield node.lineno, "cached_property"


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_only_the_kept_values_are_cached(path):
    found = list(_cached_properties(ast.parse(path.read_text(), str(path))))
    assert not found, "%s: %s" % (path.name, found)


def test_cache_checker_catches_each_form():
    src = (
        "from functools import cached_property\nimport functools\n"
        "class LieAlgebra:\n    @cached_property\n    def center(self):\n        pass\n"
        "    @cached_property\n    def kernel_brackets(self):\n        pass\n"
        "    @functools.cached_property\n    def derived(self):\n        pass\n"
        "    lower = cached_property(f)\n"
        "class Other:\n    @cached_property\n    def _validation(self):\n        pass\n"
    )
    assert sorted(line for line, _ in _cached_properties(ast.parse(src))) == [4, 10, 13, 15]
