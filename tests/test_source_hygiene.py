"""Source checks on src/lieshift: tuples on hot paths are built at their size.

``tuple(<generator>)``, ``tuple(map(...))`` and ``f(*<generator>)`` cannot
know the length of what they consume, so CPython allocates a 10-slot tuple
and shrinks it. When the result is freed it goes onto the free list for its
final length, which its allocation never took from: every such call grows
that list by one, up to 2000 tuples per length, and only a full (generation
2) collection empties the lists. Code that allocates few tracked objects
rarely triggers one, so the lists, and the process's peak memory, creep
with the number of calls. ``tuple([...])`` and ``f(*[...])`` build the tuple
from a list of known length and leave the lists flat.
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
