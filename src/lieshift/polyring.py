"""Polynomials on the dual space, with the Lie-Poisson bracket, and the term
container they share with enveloping-algebra elements.

Elements of the symmetric algebra S(q) are sparse exponent-vector dicts over
the algebra's tower field. Negative exponents are allowed only at explicitly
flagged (central) indices, mirroring the localized enveloping algebra; the
formal inverse obeys z * z^-1 = 1 eagerly through exponent addition.

``_Terms`` is the one container for S(q) and U(q) (``pbw.PBWElement``): a map
from exponent tuples to nonzero ``FieldElement``s, with the operations that
read only the terms (+, -, scalar *, ==, degree, the top-degree part). Caller
input is checked once, by ``_checked_terms`` in the public constructors, and
each scalar by ``Field.coerce``. Every result of arithmetic on checked
elements is built by a trusted constructor that runs no check. Both print
through ``fields._render_terms``, the printer of tower scalars too.

The Poisson and shift kernels compute on cleared values, numerators over
one common denominator (``Field.clear``: integers at level 0, polynomials
above), and wrap each result coefficient once.

``monomials_of_degree`` lists the exponent tuples of one total degree, the
columns of the invariant and centralizer kernels. ``coefficient_rows``
writes elements of one S(q) or U(q) as coefficient vectors over their joint
monomials, so that a span question is one ``liealg.Subspace`` membership.
"""

from __future__ import annotations

import itertools

from .fields import FieldElement, FieldError, _exponent, _render_terms


def _checked_terms(field, nvars, laurent, terms):
    """Caller-supplied terms as a dict of well-formed exponent tuples and
    nonzero coefficients of field, equal exponents summed: the one check of
    integer exponents, vector length, negative exponents only at Laurent
    indices, and coefficient field."""
    clean = {}
    for exps, c in terms.items():
        exps = tuple(exps)  # a tuple is kept, not copied
        if len(exps) != nvars:
            raise FieldError("exponent vector has length %d, want %d" % (len(exps), nvars))
        for i, e in enumerate(exps):
            if _exponent(e) < 0 and i not in laurent:
                raise FieldError("negative exponent at non-Laurent index %d" % i)
        c = field.coerce(c)
        if c:
            _acc(clean, exps, c)
    return clean


def _index(i, n):
    """A caller's variable index, checked to lie in range(n): an index past
    either end would name no variable, or the wrong one."""
    if not isinstance(i, int) or not 0 <= i < n:
        raise FieldError("variable index %r is not in range(%d)" % (i, n))
    return i


def _coerced(field, coords, n, what):
    """n caller-given coordinates as elements of field."""
    if len(coords) != n:
        raise FieldError("%s has %d coordinates, want %d" % (what, len(coords), n))
    return [field.coerce(c) for c in coords]


def _wrapped(field, values, den):
    """{exponents: numerator} over den as {exponents: FieldElement}."""
    return {e: field.from_cleared(n, den) for e, n in values.items()}


class _Terms:
    """A sparse sum of terms c x^e; ``terms`` maps exponent tuples to nonzero
    FieldElements. A subclass names its ambient: ``_ambient``, the key two
    elements share to be combined or equal; ``_ring``, the pair (field,
    number of variables); ``_like(terms, other)``, a result in this ambient
    (joined with other's), built trusted; and ``_product``."""

    __slots__ = ()

    def _check(self, other):
        if self._ambient != other._ambient:
            raise FieldError(self._MIXED)

    def _operand(self, other):
        """The terms of an operand of + or -: an element of the same class,
        or an int or FieldElement as a constant; None for anything else."""
        if isinstance(other, type(self)):
            self._check(other)
            return other.terms
        if isinstance(other, (int, FieldElement)):
            field, n = self._ring
            c = field.coerce(other)
            return {(0,) * n: c} if c else {}
        return None

    def _plus(self, other, sign):
        terms = self._operand(other)
        if terms is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in terms.items():
            _acc(out, e, c if sign > 0 else -c)
        return self._like(out, other)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return self._like({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            return self.__rmul__(other)
        if isinstance(other, type(self)):
            self._check(other)
            return self._product(other)
        return NotImplemented

    def __rmul__(self, other):
        if not isinstance(other, (int, FieldElement)):
            return NotImplemented
        c = self._ring[0].coerce(other)
        if not c:
            return self._like({})
        return self._like({e: co * c for e, co in self.terms.items()})

    def __pow__(self, n):
        n = _exponent(n)
        if n < 0:
            raise FieldError("negative power of a %s" % type(self).__name__)
        field, nvars = self._ring
        out = self._like({(0,) * nvars: field.one})
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self._ambient == other._ambient
            and self.terms == other.terms
        )

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; a formal inverse counts as -1. Zero gives None."""
        if not self.terms:
            return None
        return max(map(sum, self.terms))

    def _top(self):
        """The terms of the highest total degree."""
        d = self.degree()
        return {e: c for e, c in self.terms.items() if sum(e) == d}


class PolyElement(_Terms):
    __slots__ = ("field", "nvars", "terms", "laurent")
    _MIXED = "mixed polynomial ambients"

    def __init__(self, field, nvars, terms=None, laurent=frozenset()):
        self.field = field
        self.nvars = nvars
        self.laurent = frozenset(laurent)
        self.terms = _checked_terms(field, nvars, self.laurent, terms or {})

    @classmethod
    def _trusted(cls, field, nvars, terms, laurent):
        """Trusted constructor for results: terms maps well-formed exponents
        to nonzero coefficients of field, and laurent is a frozenset."""
        self = object.__new__(cls)
        self.field = field
        self.nvars = nvars
        self.laurent = laurent
        self.terms = terms
        return self

    @property
    def _ambient(self):
        return self.field, self.nvars

    _ring = _ambient

    def _like(self, terms, other=None):
        laurent = self.laurent
        if isinstance(other, PolyElement):
            laurent = laurent | other.laurent
        return PolyElement._trusted(self.field, self.nvars, terms, laurent)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field, nvars, laurent=frozenset()):
        return cls(field, nvars, {}, laurent)

    @classmethod
    def constant(cls, field, nvars, c, laurent=frozenset()):
        return cls(field, nvars, {(0,) * nvars: c}, laurent)

    @classmethod
    def variable(cls, field, nvars, i, laurent=frozenset()):
        i = _index(i, nvars)
        exps = (0,) * i + (1,) + (0,) * (nvars - i - 1)
        return cls(field, nvars, {exps: field.one}, laurent)

    @classmethod
    def from_vector(cls, field, coords, laurent=frozenset()):
        n = len(coords)
        terms = {
            (0,) * i + (1,) + (0,) * (n - i - 1): c for i, c in enumerate(coords) if c
        }
        return cls(field, n, terms, laurent)

    # -- ring ops ----------------------------------------------------------

    def _product(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                _acc(out, tuple([a + b for a, b in zip(e1, e2)]), c1 * c2)
        return self._like(out, other)

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def top_part(self):
        return self._like(self._top())

    def render(self, labels):
        return _render_terms(self.terms, labels, range(self.nvars))

    def __repr__(self):
        return "PolyElement(%s)" % self.render(
            ["x%d" % i for i in range(self.nvars)]
        )


def poisson(L, f, g):
    """Lie-Poisson bracket {f, g} on S(q), a biderivation over the bracket.

    Term by term: each pair c1 x^e1, c2 x^e2 and each i in supp(e1),
    j in supp(e2) with [x_i, x_j] = sum_k c_ij^k x_k adds
    c1 c2 e1_i e2_j c_ij^k at x^(e1 + e2 - eps_i - eps_j + eps_k).
    """
    if f.field != L.field or g.field != L.field or f.nvars != L.dim or g.nvars != L.dim:
        raise FieldError("mixed polynomial ambients")
    field = L.field
    D, rows = L.kernel_brackets
    df, fvalues = field.clear(f.terms.values())
    dg, gvalues = field.clear(g.terms.values())
    gterms = [
        (e2, c2, [j for j, x in enumerate(e2) if x]) for e2, c2 in zip(g.terms, gvalues)
    ]
    out = {}
    for e1, c1 in zip(f.terms, fvalues):
        s1 = [(i, rows[i]) for i, x in enumerate(e1) if x and i in rows]
        if not s1:
            continue
        for e2, c2, s2 in gterms:
            c12 = c1 * c2
            base = [x + y for x, y in zip(e1, e2)]
            for i, row in s1:
                for j in s2:
                    comp = row.get(j)
                    if comp is None:
                        continue
                    w = c12 * (e1[i] * e2[j])
                    base[i] -= 1
                    base[j] -= 1
                    for k, ck in comp:
                        base[k] += 1
                        _acc(out, tuple(base), w * ck)
                        base[k] -= 1
                    base[i] += 1
                    base[j] += 1
    return f._like(_wrapped(field, out, df * dg * D), g)


def _acc(d, m, c):
    """d[m] += c, dropping a zero sum; works on raw and wrapped values."""
    s = d.get(m)
    if s is not None:
        c = s + c
    if c:
        d[m] = c
    else:
        d.pop(m, None)


def monomials_of_degree(nvars, d):
    """Exponent tuples of total degree d, in a fixed deterministic order."""
    if d == 0:
        yield (0,) * nvars
        return
    for combo in itertools.combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        yield tuple(e)


def coefficient_rows(elements):
    """The coefficient vectors of elements of one S(q) or U(q) over the
    sorted union of their monomials; elements is nonempty."""
    monos = sorted({e for u in elements for e in u.terms})
    zero = elements[0]._ring[0].zero
    return [[u.terms.get(e, zero) for e in monos] for u in elements]


def gamma_shift(h, gamma, k):
    """k-th iterated directional derivative of h along the form gamma.

    One kernel on cleared values: with h = sum n_e x^e / d and gamma = g / q,
    each step maps a term n x^e to n g_i e_i x^(e - eps_i) for every i with
    g_i and e_i nonzero, so k steps only multiply ring values, and the result
    is wrapped once over d q^k.
    """
    if not isinstance(k, int):
        raise ValueError("the shift order must be an integer, got %r" % (k,))
    if k < 0:
        raise ValueError("the shift order must be nonnegative, got %d" % k)
    field = h.field
    q, g = field.clear(_coerced(field, gamma.coords, h.nvars, "gamma"))
    if not k:
        return h
    support = [(i, gi) for i, gi in enumerate(g) if gi]
    d, values = field.clear(h.terms.values())
    cur = dict(zip(h.terms, values))
    for _ in range(k):
        nxt = {}
        for e, c in cur.items():
            for i, gi in support:
                ei = e[i]
                if ei:
                    _acc(nxt, e[:i] + (ei - 1,) + e[i + 1 :], c * gi * ei)
        cur = nxt
    return h._like(_wrapped(field, cur, d * q**k))
