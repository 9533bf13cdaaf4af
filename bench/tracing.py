"""Spans around the public functions of each lieshift module, installed from outside.

``Tracer.install`` replaces every public module-level function of the
modules in ``MODULES`` (plus the ``Subspace`` membership methods) with a
timing wrapper. A name is patched in every ``lieshift`` module that holds
it, so ``lieshift.construct.commutator`` is wrapped as well as
``lieshift.pbw.commutator``. ``Tracer.remove`` puts the originals back.

Each call records a span ``[name, start, end, parent, tag, outermost]``
in memory; the tag is the field level of a linalg call, the pair of a
commutator or the algebra of a ``b_of`` call. A span's self time is its duration minus the durations of its children;
a function's total time counts only spans with no enclosing span of the
same name, so recursion is not counted twice.

Field arithmetic is far too frequent to wrap in spans (about 1.2M
multiplications in one heisenberg10 construction), so ``OpCounter``
counts ``FieldElement`` additions and multiplications in a separate pass.
"""

import inspect
import sys
import time

MODULES = (
    "fields",
    "linalg",
    "liealg",
    "polyring",
    "pbw",
    "invariants",
    "construct",
    "algfile",
    "cli",
)
METHODS = (("liealg", "Subspace", "contains"), ("liealg", "Subspace", "coordinates"))
MARK = "_bench_original"


def lieshift_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "lieshift" or name.startswith("lieshift.")) and m is not None]


def _level_tag(args):
    """Tower level of the field a linalg call works over."""
    head = args[0]
    field = getattr(head, "field", head)
    return getattr(field, "level", 0)


def _algebra_key(L):
    return (
        L.field,
        L.labels,
        frozenset((ij, frozenset(row.items())) for ij, row in L.table.items()),
    )


# per-call tags: which field level, which pair, which algebra
TAGGERS = {
    "linalg.rref": _level_tag,
    "linalg.solve": _level_tag,
    "linalg.rank": _level_tag,
    "linalg.kernel_basis": _level_tag,
    "pbw.commutator": lambda args: frozenset(args[:2]),
    "invariants.b_of": lambda args: _algebra_key(args[0]),
}


def _mul_cache_entries(cert):
    algs = {id(g.alg): g.alg for g in cert.generators.elements}
    return sum(len(getattr(a, "_mul_cache", ())) for a in algs.values())


class Tracer:
    def __init__(self):
        self.spans = []
        self.mul_cache_entries = 0
        self._stack = []
        self._active = {}
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter
        tagger = TAGGERS.get(name)
        is_construct = name == "construct.construct_theorem"

        def traced(*args, **kwargs):
            tag = tagger(args) if tagger and args else None
            depth = active.get(name, 0)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tag, depth == 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] = depth + 1
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] = depth
                stack.pop()
            if is_construct and depth == 0:
                self.mul_cache_entries += _mul_cache_entries(out)
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        setattr(traced, MARK, fn)
        return traced

    def install(self):
        mods = lieshift_modules()
        for short in MODULES:
            mod = sys.modules.get("lieshift." + short)
            if mod is None:
                continue
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap("%s.%s" % (short, attr), fn)
                for m in mods:
                    for held, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, held, fn))
                            setattr(m, held, wrapper)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules["lieshift." + short], cls_name)
            fn = cls.__dict__[meth]
            self._patched.append((cls, meth, fn))
            setattr(cls, meth, self._wrap("%s.%s.%s" % (short, cls_name, meth), fn))

    def remove(self):
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def summary(self):
        """Per span name: calls, total_s, self_s, and per-tag detail."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, tag, outer in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for k, (name, start, end, parent, tag, outer) in enumerate(spans):
            row = out.get(name)
            if row is None:
                row = out[name] = {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "level0_s": 0.0, "tower_s": 0.0, "tags": set()}
            dur = end - start
            row["calls"] += 1
            row["self_s"] += dur - child_time[k]
            if outer:
                row["total_s"] += dur
                if isinstance(tag, int):
                    row["level0_s" if tag == 0 else "tower_s"] += dur
            if tag is not None and not isinstance(tag, int):
                row["tags"].add(tag)
        for row in out.values():
            row["distinct"] = len(row.pop("tags"))
        return out

    def compact_spans(self):
        """Spans as [name, start, end, parent] rows, times relative to the first."""
        if not self.spans:
            return []
        t0 = self.spans[0][1]
        return [[s[0], round(s[1] - t0, 7), round(s[2] - t0, 7), s[3]] for s in self.spans]


class OpCounter:
    """Counts FieldElement additions and multiplications by tower level."""

    OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")

    def __init__(self):
        self.counts = [0, 0]
        self._patched = []

    def _wrap(self, fn):
        counts = self.counts

        def counted(a, b):
            counts[a.field.level > 0] += 1
            return fn(a, b)

        setattr(counted, MARK, fn)
        return counted

    def install(self):
        from lieshift.fields import FieldElement

        for op in self.OPS:
            fn = FieldElement.__dict__[op]
            self._patched.append((op, fn))
            setattr(FieldElement, op, self._wrap(fn))

    def remove(self):
        from lieshift.fields import FieldElement

        for op, fn in reversed(self._patched):
            setattr(FieldElement, op, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()


def leftover_wrappers():
    """Names in lieshift modules or classes that still hold a benchmark wrapper."""
    found = []
    for m in lieshift_modules():
        for attr, val in vars(m).items():
            if hasattr(val, MARK):
                found.append("%s.%s" % (m.__name__, attr))
            if inspect.isclass(val) and val.__module__ == m.__name__:
                for meth, fn in vars(val).items():
                    if hasattr(fn, MARK):
                        found.append("%s.%s.%s" % (m.__name__, attr, meth))
    return sorted(set(found))
