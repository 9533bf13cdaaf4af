"""Exact scalar tower: rationals at the bottom, rational function fields above.

Level 0 is Q. Level k > 0 is the field of fractions of a polynomial ring in
fresh variables over the level k-1 field, used e.g. for coefficients living in
K(h*) during the abelian-ideal reduction. Elements are kept in a canonical
reduced form: numerator and denominator coprime, denominator with grlex
leading coefficient 1 (positive denominator at level 0).

``FieldElement`` is the one scalar that leaves this module. What it wraps is
private here: a ``fractions.Fraction`` at level 0, and above it an element
of sympy's polys domains (nested fraction fields with grlex ordering over
sympy's QQ). sympy is imported when the first field above level 0 is built,
so a computation over Q never loads it. This module owns the canonical form,
the tower bookkeeping and the error contract.

The arithmetic kernels and the elimination in ``linalg`` compute on one
internal format at every level, cleared values: ``Field.clear`` brings a
list of elements to numerators over their least common denominator, in the
numerator ring (ints at level 0, polynomials in the level's variables
above), the ``ring_*`` helpers and ``Field._primitive`` work on those ring
values, and ``Field.from_cleared`` wraps a result n / d once.

``Field.coerce`` is the one check of a caller's scalar: an int, a Fraction
or an element of that field, anything else a ``FieldError``. An int goes
through ``from_int``, which above level 0 skips sympy's conversion chain.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

MAX_TOWER_DEPTH = 3


class FieldError(Exception):
    """Tower-level mismatch, bad variable names, or division by zero."""


class Field:
    """Descriptor of one level of the scalar tower.

    Immutable; equality and hashing are structural so a field can key caches.
    The domain is computed once, when the field is built: None at level 0,
    whose elements are Fractions, a sympy fraction field above, shared by
    structurally equal fields. So are ``zero`` and ``one``, shared by every
    reader: a ``FieldElement`` is never changed in place.
    """

    __slots__ = ("level", "variables", "base", "domain", "zero", "one")

    def __init__(self, level, variables, base):
        self.level = level
        self.variables = tuple(variables)
        self.base = base
        dom = self.domain = None if base is None else _sympy_domain(self.variables, base)
        self.zero = FieldElement(self, Fraction(0) if dom is None else dom.zero)
        self.one = FieldElement(self, Fraction(1) if dom is None else dom.one)

    def __eq__(self, other):
        return (
            isinstance(other, Field)
            and self.level == other.level
            and self.variables == other.variables
            and self.base == other.base
        )

    def __hash__(self):
        return hash((self.level, self.variables, hash(self.base)))

    def __repr__(self):
        if self.level == 0:
            return "Q"
        return "%r(%s)" % (self.base, ", ".join(self.variables))

    def extend(self, *names):
        """Adjoin fresh variables, moving one level up the tower."""
        if self.level >= MAX_TOWER_DEPTH:
            raise FieldError("tower depth capped at %d" % MAX_TOWER_DEPTH)
        if len(set(names)) != len(names) or not names:
            raise FieldError("extension variables must be distinct and nonempty")
        clash = set(names) & set(self.all_variables())
        if clash:
            raise FieldError("variable names already used: %s" % sorted(clash))
        return Field(self.level + 1, names, self)

    def all_variables(self):
        out = []
        f = self
        while f is not None:
            out = list(f.variables) + out
            f = f.base
        return out

    # -- element constructors ------------------------------------------------

    def from_int(self, n):
        """n as an element of this field; anything but an int is a FieldError.
        Above level 0, n / 1 is built from the ground's n with no
        cancellation, the value sympy's ``convert`` reaches through it."""
        if not isinstance(n, int):
            raise FieldError("not an integer: %r" % (n,))
        if self.level == 0:
            return FieldElement(self, Fraction(n))
        g = self.domain.domain(n) if self.level == 1 else self.base.from_int(n).raw
        field = self.domain.field
        return FieldElement(self, field.raw_new(field.ring.ground_new(g), field.ring.one))

    def rational(self, p, q=1):
        """p/q exactly, for ints and Fractions; a float is a FieldError."""
        if not (isinstance(p, (int, Fraction)) and isinstance(q, (int, Fraction))):
            raise FieldError("not an exact rational: %r / %r" % (p, q))
        if q == 0:
            raise FieldError("division by zero")
        if self.level == 0:
            return FieldElement(self, Fraction(p, q))
        return self.lift(self.base.rational(p, q))

    def coerce(self, c):
        """A caller's scalar as an element of this field: an int through
        ``from_int``, a Fraction through ``rational``, an element of this
        field as it is. Anything else, an element of another level
        included, is a FieldError: the one scalar check of the library."""
        if isinstance(c, FieldElement):
            if c.field is not self and c.field != self:
                raise FieldError("tower-level mismatch: %r vs %r" % (self, c.field))
            return c
        if isinstance(c, int):
            return self.from_int(c)
        if isinstance(c, Fraction):
            return self.rational(c)
        raise FieldError("not a scalar of %r: %r" % (self, c))

    def var(self, name):
        """The named tower variable as an element of this field."""
        if name in self.variables:
            i = self.variables.index(name)
            return FieldElement(self, self.domain.gens[i])
        if self.base is None:
            raise FieldError("unknown variable %r" % name)
        return self.lift(self.base.var(name))

    def lift(self, elem):
        """Embed an element of a lower tower level into this field."""
        if not isinstance(elem, FieldElement):
            raise FieldError("lift expects a FieldElement")
        if elem.field == self:
            return elem
        chain = []
        f = self
        while f is not None and f != elem.field:
            chain.append(f)
            f = f.base
        if f is None:
            raise FieldError("element of %r does not embed into %r" % (elem.field, self))
        raw = elem.raw
        if elem.field.level == 0:  # into sympy's QQ, the ground of level 1
            raw = chain[-1].domain.domain(raw.numerator, raw.denominator)
        for g in reversed(chain):
            raw = g.domain.field.ground_new(raw)
        return FieldElement(self, raw)

    def from_ground(self, g):
        """This field's element for a ground coefficient of the polynomials
        one level up: a sympy rational at level 0, a raw element above."""
        if self.level == 0:
            return FieldElement(self, Fraction(int(g.numerator), int(g.denominator)))
        return FieldElement(self, g)

    # -- cleared values: numerators over one common denominator --------------

    def clear(self, elems):
        """(d, numerators) with elems[i] = numerators[i] / d, for elements
        of this field (unchecked: ``clear_row`` is the checked entry).

        The numerators lie in the numerator ring (ints at level 0,
        polynomials in this level's variables above) and d is the least
        common denominator, so kernels and elimination add and multiply
        ring values and divide once per result (``from_cleared``). A unit
        denominator costs neither a gcd nor a quotient; with every
        denominator a unit the numerators come back as they are.
        """
        if self.level == 0:
            ratios = [e.raw.as_integer_ratio() for e in elems]
            d = math.lcm(*[q for _, q in ratios])
            return d, [p if q == d else p * (d // q) for p, q in ratios]
        raws = [e.raw for e in elems]
        d = self.domain.field.ring.one
        for r in raws:
            q = r.denom
            if q != 1:
                d = q if d == 1 else d * q.quo(d.gcd(q))
        return d, [r.numer if r.denom == d else r.numer * d.quo(r.denom) for r in raws]

    def from_cleared(self, n, d):
        """The element n / d of a numerator-ring value n over a nonzero
        denominator d (the int 1 serves as the unit at every level)."""
        if self.level == 0:
            return FieldElement(self, Fraction(n, d))
        field = self.domain.field
        if d == 1:
            return FieldElement(self, field.raw_new(n, field.ring.one))
        return FieldElement(self, field.new(n, d))

    def clear_row(self, elems):
        """Field elements -> numerators over their least common denominator.
        The only check of a ``linalg`` matrix entry."""
        for e in elems:
            if not isinstance(e, FieldElement):
                raise FieldError("row entry %r is not a field element" % (e,))
            if e.field is not self and e.field != self:
                raise FieldError("tower-level mismatch: %r vs %r" % (self, e.field))
        return self.clear(elems)[1]

    def ring_quo(self, a, b):
        """Exact division in the numerator ring; a remainder is an error."""
        q, r = divmod(a, b) if self.level == 0 else a.div(b)
        if r:
            raise FieldError("inexact ring division")
        return q

    def ring_gcd(self, a, b):
        if self.level == 0:
            return math.gcd(int(a), int(b))
        return a.gcd(b)

    def _primitive(self, row):
        """The canonical numerator-ring row on the line of a nonzero one:
        content divided out, first nonzero entry positive (level 0) or of
        leading coefficient 1 (above), the rule kept for denominators."""
        content = None
        for a in row:
            if a:
                content = a if content is None else self.ring_gcd(content, a)
        row = [self.ring_quo(a, content) if a else a for a in row]
        lead = next(a for a in row if a)
        if self.level == 0:
            return [-a for a in row] if lead < 0 else row
        lc = lead.LC
        return row if lc == self.domain.domain.one else [a.quo_ground(lc) for a in row]


@lru_cache(maxsize=None)
def _sympy_domain(variables, base):
    """The sympy domain of the field over ``base`` adjoining ``variables``;
    the only place sympy is imported."""
    from sympy.polys.domains import QQ as sympy_qq
    from sympy.polys.orderings import grlex

    ground = sympy_qq if base.level == 0 else base.domain
    domain = ground.frac_field(*variables, order=grlex)
    if base.level > 0:
        _convert_ground_elements(domain)
    return domain


def _convert_ground_elements(domain):
    """Let a fraction field over a fraction field take elements of its ground.

    sympy's ``FractionField.from_FractionField`` maps an element by generator
    names, so Q(w)(v) rejects an element of Q(w) that is not a constant with
    ``CoercionFailed``. Cancelling a fraction one level up, in Q(w)(v)(u),
    converts such coefficients back into Q(w)(v), so level-3 arithmetic and
    lifts need this. Only this domain object is changed, and only where
    sympy's conversion gives up.
    """
    sympy_convert = domain.from_FractionField
    ring = domain.field.ring

    def from_fraction_field(a, base):
        out = sympy_convert(a, base)
        if out is None and base == domain.domain:
            out = domain.field.raw_new(ring.ground_new(a), ring.one)
        return out

    domain.from_FractionField = from_fraction_field


def _exponent(n):
    """n, checked to be an int: a truncated 2.5 would be a wrong answer."""
    if not isinstance(n, int):
        raise FieldError("not an integer exponent: %r" % (n,))
    return n


class FieldElement:
    """One element of a tower field, always in canonical reduced form."""

    __slots__ = ("field", "raw")

    def __init__(self, field, raw):
        self.field = field
        if field.level > 0:
            lc = raw.denom.LC
            if lc and lc != field.domain.domain.one:
                # raw_new skips cancellation, which would undo the rescale
                raw = raw.raw_new(raw.numer.quo_ground(lc), raw.denom.quo_ground(lc))
        self.raw = raw

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement) and other.field is self.field:
            return other
        if isinstance(other, (FieldElement, int)):
            return self.field.coerce(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.raw + o.raw)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.raw - o.raw)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, o.raw - self.raw)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.raw * o.raw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.raw:
            raise FieldError("division by zero")
        return FieldElement(self.field, self.raw / o.raw)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not self.raw:
            raise FieldError("division by zero")
        return FieldElement(self.field, o.raw / self.raw)

    def __neg__(self):
        return FieldElement(self.field, -self.raw)

    def __pow__(self, n):
        n = _exponent(n)
        if n < 0 and not self.raw:
            raise FieldError("division by zero")
        return FieldElement(self.field, self.raw**n)

    def inverse(self):
        return 1 / self

    def __eq__(self, other):
        if isinstance(other, int):
            return self.raw == self.field.from_int(other).raw
        return (
            isinstance(other, FieldElement)
            and self.field == other.field
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.field, self.raw))

    def __bool__(self):
        return bool(self.raw)

    @property
    def is_zero(self):
        return not self.raw

    @property
    def is_one(self):
        return self.raw == self.field.one.raw

    def as_rational(self):
        """(p, q) for a level-0 element; error above level 0."""
        if self.field.level != 0:
            raise FieldError("not a rational: lives at level %d" % self.field.level)
        return int(self.raw.numerator), int(self.raw.denominator)

    # -- deterministic rendering ----------------------------------------------

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return "FieldElement(%s)" % render_scalar(self)


QQ = Field(0, (), None)


def _render_ground(field, coeff):
    """Render a ground-domain coefficient of a level >= 1 polynomial."""
    if field.level == 0:
        return str(coeff), ("/" in str(coeff))
    s = render_scalar(FieldElement(field, coeff))
    return s, ("+" in s[1:] or "-" in s[1:] or "/" in s)


def _render_poly(field, poly):
    """field is the level of the *fraction* field owning poly's ring."""
    terms = sorted(poly.terms(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if not terms:
        return "0"
    names = field.variables
    parts = []
    for monom, coeff in terms:
        cs, needs_paren = _render_ground(field.base, coeff)
        vs = "*".join(
            n if e == 1 else "%s^%d" % (n, e) for n, e in zip(names, monom) if e
        )
        neg = cs.startswith("-") and not needs_paren
        if neg:
            cs = cs[1:]
        if needs_paren:
            cs = "(%s)" % cs
        if not vs:
            body = cs
        elif cs == "1":
            body = vs
        else:
            body = "%s*%s" % (cs, vs)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def render_scalar(e):
    """Canonical human-readable form, stable across runs."""
    if e.field.level == 0:
        return str(e.raw)
    num = _render_poly(e.field, e.raw.numer)
    den = _render_poly(e.field, e.raw.denom)
    if den == "1":
        return num
    if " " in num or "/" in num:
        num = "(%s)" % num
    if " " in den or "/" in den or "*" in den or "^" in den:
        den = "(%s)" % den
    return "%s/%s" % (num, den)
