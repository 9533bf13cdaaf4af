"""Exact scalar tower: rationals at the bottom, rational function fields above.

Level 0 is Q. Level k > 0 adjoins fresh variables to the level k-1 field,
used e.g. for coefficients living in K(h*) during the abelian-ideal
reduction. Q(t)(s) is the field Q(t, s), so level k is stored flat: one
sympy field of fractions over sympy's QQ in every tower variable, lowest
level first, grlex-ordered. Its numerator ring is Q[every tower variable],
where sympy's gcd is fast. Elements are kept in a canonical reduced form:
numerator and denominator coprime, denominator with grlex leading
coefficient 1 (positive denominator at level 0).

``FieldElement`` is the one scalar that leaves this module. What it wraps is
private here: a ``fractions.Fraction`` at level 0, and above it an element
of that flat sympy field. sympy is imported when the first field above
level 0 is built, so a computation over Q never loads it. This module owns
the canonical form, the tower bookkeeping (levels, ``lift``, ``var``) and
the error contract. ``Field.nested`` is the one view of a value as a
quotient of polynomials in its own level's variables over the level below:
rendering, the ``algfile`` codec and the substitutions of ``pbw`` read it,
so they print and encode a scalar as the nested field would.

The arithmetic kernels and the elimination in ``linalg`` compute on one
internal format at every level, cleared values: ``Field.clear`` brings a
list of elements to numerators over their least common denominator, in the
numerator ring (ints at level 0, polynomials in every tower variable
above), the ``ring_*`` helpers and ``Field._primitive`` work on those ring
values, and ``Field.from_cleared`` wraps a result n / d once.

``Field.coerce`` is the one check of a caller's scalar: an int, a Fraction
or an element of that field, anything else a ``FieldError``. An int goes
through ``from_int``, which above level 0 skips sympy's conversion chain.

``Field.residues`` takes cleared values to the prime field F_p, p =
``PRIME`` = 2^61 - 1, for the sampled ranks of ``invariants``: integers
are reduced, and above level 0 every tower variable is specialized at a
seeded residue. Both are ring homomorphisms where they are defined, so a
rank mod p is never above the rank over the field.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

MAX_TOWER_DEPTH = 3

# the prime of the sampled ranks (a Mersenne prime: residues fit a machine word)
PRIME = 2**61 - 1


class FieldError(Exception):
    """Tower-level mismatch, bad variable names, or division by zero."""


class Field:
    """Descriptor of one level of the scalar tower.

    Immutable; equality and hashing are structural so a field can key caches.
    The domain is computed once, when the field is built: None at level 0,
    whose elements are Fractions, above it the flat sympy fraction field
    over QQ in ``all_variables()``, shared by every field with those
    variables. So are ``zero`` and ``one``, shared by every reader: a
    ``FieldElement`` is never changed in place. ``nested`` reads an element
    as a quotient of polynomials in ``variables`` over ``base``.
    """

    __slots__ = ("level", "variables", "base", "domain", "zero", "one")

    def __init__(self, level, variables, base):
        self.level = level
        self.variables = tuple(variables)
        self.base = base
        dom = self.domain = None if base is None else _sympy_domain(
            tuple(base.all_variables()) + self.variables
        )
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
        field = self.domain.field
        return FieldElement(
            self, field.raw_new(field.ring.ground_new(self.domain.domain(n)), field.ring.one)
        )

    def rational(self, p, q=1):
        """p/q exactly, for ints and Fractions; a float is a FieldError."""
        if not (isinstance(p, (int, Fraction)) and isinstance(q, (int, Fraction))):
            raise FieldError("not an exact rational: %r / %r" % (p, q))
        if q == 0:
            raise FieldError("division by zero")
        if self.level == 0:
            return FieldElement(self, Fraction(p, q))
        return self.lift(QQ.rational(p, q))

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
        names = self.all_variables()
        if name not in names:
            raise FieldError("unknown variable %r" % name)
        return FieldElement(self, self.domain.gens[names.index(name)])

    def lift(self, elem):
        """Embed an element of a lower tower level into this field.

        The variables below come first in the flat ring, so a numerator and
        a denominator lift by padding their exponent tuples with zeros: the
        pair stays coprime and the grlex-leading monomial of the denominator
        stays leading, so the lifted value is canonical with no cancel."""
        if not isinstance(elem, FieldElement):
            raise FieldError("lift expects a FieldElement")
        low = elem.field
        if low == self:
            return elem
        f = self
        while f is not None and f != low:
            f = f.base
        if f is None:
            raise FieldError("element of %r does not embed into %r" % (low, self))
        field = self.domain.field
        raw = elem.raw
        if low.level == 0:
            g = self.domain.domain(raw.numerator, raw.denominator)
            return FieldElement(self, field.raw_new(field.ring.ground_new(g), field.ring.one))
        pad = (0,) * (len(self.domain.gens) - len(low.domain.gens))
        numer, denom = [
            field.ring.dtype({m + pad: c for m, c in p.items()}) for p in (raw.numer, raw.denom)
        ]
        return FieldElement(self, field.raw_new(numer, denom))

    # -- cleared values: numerators over one common denominator --------------

    def clear(self, elems):
        """(d, numerators) with elems[i] = numerators[i] / d, for elements
        of this field (unchecked: ``clear_row`` is the checked entry).

        The numerators lie in the numerator ring (ints at level 0,
        polynomials in every tower variable above) and d is the least
        common denominator, so kernels and elimination add and multiply
        ring values and divide once per result (``from_cleared``). A unit
        denominator costs neither a gcd nor a quotient; with every
        denominator a unit the numerators come back as they are.
        """
        if self.level == 0:
            ratios = [e.raw.as_integer_ratio() for e in elems]
            d = math.lcm(*[q for _, q in ratios])
            return d, [p if q == d else p * (d // q) for p, q in ratios]
        return _clear_raws(self, [e.raw for e in elems])

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
        """gcd(a, b) in the numerator ring, monic above level 0: sympy's gcd
        of the flat ring Q[every tower variable], which is not monic where
        an argument is a term or a constant. It can raise where its
        heuristic over Z gives up on an input; ``_prs_gcd`` then recomputes
        it on the same ring without a heuristic."""
        if self.level == 0:
            return math.gcd(int(a), int(b))
        from sympy.polys.polyerrors import HeuristicGCDFailed

        try:
            return a.gcd(b).monic()
        except HeuristicGCDFailed:
            return _prs_gcd(a, b)

    def residues(self, values):
        """Numerator-ring values mod ``PRIME``, as ints in range(PRIME).

        At level 0 the integers are reduced. Above it each value is taken
        at one seeded residue of every tower variable (``_residue_point``);
        its coefficients are rationals, so only one whose denominator p
        divides has no residue, at every point: a FieldError. Either way the
        map is a ring homomorphism on the values it is defined at: a minor
        that is nonzero mod p is nonzero in the ring.
        """
        if self.level == 0:
            return [v % PRIME for v in values]
        point = _residue_point(self)
        out = [_poly_mod(v, point) for v in values]
        if None in out:
            raise FieldError(
                "a coefficient of a value of %s has a denominator divisible by %d" % (self, PRIME)
            )
        return out

    def nested(self, e):
        """The element e of a field above level 0 as a quotient of
        polynomials in this level's variables over the level below, the
        form of the nested field base(variables): (numerator, denominator),
        each a list of (exponents, element of ``base``) sorted by exponents.

        The flat numerator and denominator are grouped by monomial in this
        level's variables, and every group divided by the denominator's
        group at its grlex-leading monomial, so the denominator leads with
        1. They are coprime in Q[every variable], so in base[variables] too
        (Gauss's lemma), and the view is the nested field's canonical form:
        ``render_scalar``, the ``algfile`` codec and the substitutions of
        ``pbw`` read a scalar as it would print in base(variables)."""
        n, base = len(self.variables), self.base
        num, den = [_by_own_monomial(p, n) for p in (e.raw.numer, e.raw.denom)]
        lead = den[max(den, key=lambda m: (sum(m), m))]
        return tuple([[(m, _quotient(base, g[m], lead)) for m in sorted(g)] for g in (num, den)])

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
def _sympy_domain(names):
    """sympy's field of fractions over QQ in ``names``, grlex-ordered, shared
    by every tower field with these variables; sympy is imported only here
    and by the gcd above level 0."""
    from sympy.polys.domains import QQ as sympy_qq
    from sympy.polys.orderings import grlex

    return sympy_qq.frac_field(*names, order=grlex)


def _clear_raws(field, raws):
    """``Field.clear`` on the raw elements of a field above level 0."""
    d = field.domain.field.ring.one
    for r in raws:
        q = r.denom
        if q != 1:
            d = q if d == 1 else d * q.quo(field.ring_gcd(d, q))
    return d, [r.numer if r.denom == d else r.numer * d.quo(r.denom) for r in raws]


def _prs_gcd(a, b):
    """The monic gcd of nonzero values a and b of a flat numerator ring, by a
    subresultant PRS over the ring's own field of coefficients: no
    heuristic step that can give up."""
    return a.ring.dmp_ff_prs_gcd(a, b)[0].monic()


def _by_own_monomial(p, n):
    """{exponents of the last n variables: {exponents of the others: QQ}}
    of a flat polynomial p."""
    groups = {}
    for m, c in p.items():
        groups.setdefault(m[-n:], {})[m[:-n]] = c
    return groups


def _quotient(field, p, q):
    """The element p / q of field for {exponents: QQ} dicts p and q != 0 of
    its variables (at level 0 both are dicts of the empty monomial)."""
    if field.level == 0:
        c = p[()] / q[()]
        return FieldElement(field, Fraction(int(c.numerator), int(c.denominator)))
    ring = field.domain.field.ring
    return field.from_cleared(ring.from_dict(p), ring.from_dict(q))


def _residue_point(field):
    """The seeded residue mod PRIME of every tower variable at which
    ``Field.residues`` evaluates; the same for every call."""
    names = field.all_variables()
    rng = random.Random("residues of " + ",".join(names))
    return [rng.randrange(PRIME) for _ in names]


def _poly_mod(p, point):
    """A flat polynomial at the residue point of its variables, mod PRIME;
    None where a coefficient's denominator is divisible by PRIME."""
    total = 0
    for m, c in p.items():
        den = int(c.denominator)
        if not den % PRIME:
            return None
        v = int(c.numerator) * pow(den, -1, PRIME)
        for x, e in zip(point, m):
            if e:
                v = v * pow(x, e, PRIME) % PRIME
        total += v
    return total % PRIME


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


def _render_poly(names, terms):
    """A polynomial in the variables ``names``, given as the (exponents,
    coefficient) terms of ``Field.nested``."""
    terms = sorted(terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)
    if not terms:
        return "0"
    parts = []
    for monom, coeff in terms:
        cs = render_scalar(coeff)
        needs_paren = "+" in cs[1:] or "-" in cs[1:] or "/" in cs
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
    num, den = [_render_poly(e.field.variables, p) for p in e.field.nested(e)]
    if den == "1":
        return num
    if " " in num or "/" in num:
        num = "(%s)" % num
    if " " in den or "/" in den or "*" in den or "^" in den:
        den = "(%s)" % den
    return "%s/%s" % (num, den)
