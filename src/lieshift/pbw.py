"""PBW normal form in enveloping algebras, with central Laurent localization.

Monomials are exponent vectors read as products of basis generators in a
fixed order (input order, annotated central generators moved last). Products
are straightened by the rewriting x_j x_i = x_i x_j + [x_j, x_i] with
memoization on monomial pairs; designated central generators may carry
negative exponents (localization at z), which is sound because they commute
with everything (verified, not assumed).

The straightening kernels (``mul_mono``, ``symm_mono``, products,
``commutator``, ``symmetrize``) run on the algebra's structure constants as
cleared values (``LieAlgebra.kernel_brackets``), and ``_mul_cache`` and
``_symm_cache`` hold numerator-ring coefficients: integers at level 0,
polynomials above. With D the least common denominator of the structure
constants (1 for every preset), the basis y_i = D x_i has
[y_i, y_j] = sum D c_ij^k y_k with numerator-ring constants, so straightening
a product of y-monomials only adds and multiplies ring values. An element is
cleared once per kernel call: x^a = D^-|a| y^a, and its y-coefficients are
brought to numerators over one common denominator d (``Field.clear``). Each
output term n y^m over du * dv is wrapped once as n D^|m| / (du dv). Every
step is an exact identity in U(q), so the results are the products of the
elements themselves, in the same canonical form.

``PBWElement`` is the term container of ``polyring`` (``_Terms``), which
holds +, -, scalar *, ==, degree and the top-degree part that
``principal_symbol`` reads. ``EnvelopingAlgebra.element``, ``gen`` and
``from_vector`` take caller input and check it (``polyring._checked_terms``);
products, commutators, symmetrizations, specializations and centralizer
bases are built trusted (``EnvelopingAlgebra._element``,
``PBWElement._trusted``).
"""

from __future__ import annotations

from math import factorial
from operator import add

from .fields import FieldError
from .linalg import kernel_basis
from .polyring import PolyElement, _acc, _checked_terms, _render_terms, _scalar, _Terms, _wrapped


class EnvelopingAlgebra:
    """Multiplication context for U(L); owns the straightening caches."""

    def __init__(self, L, laurent=()):
        self.L = L
        self.field = L.field
        self.dim = L.dim
        self.laurent = frozenset(laurent)
        self._central = self.laurent | L.central_indices()
        central = sorted(self._central)
        for z in central:
            for j in range(L.dim):
                if any(not c.is_zero for c in L.bracket_basis(z, j).values()):
                    raise FieldError(
                        "designated central index %d brackets nontrivially" % z
                    )
        rest = [i for i in range(L.dim) if i not in central]
        self._order = rest + central
        self._pos = [0] * L.dim
        for p, i in enumerate(self._order):
            self._pos[i] = p
        self._zero = (0,) * L.dim
        self._units = tuple(
            tuple(int(k == i) for k in range(L.dim)) for i in range(L.dim)
        )
        self._scale, self._brackets = L.kernel_brackets
        self._one = self.field.clear(())[0]
        self._mul_cache = {}
        self._symm_cache = {}

    # -- element constructors ------------------------------------------------

    def element(self, terms):
        return PBWElement(self, terms)

    def zero(self):
        return PBWElement._trusted(self, {})

    def one(self):
        return PBWElement._trusted(self, {self._zero: self.field.one})

    def gen(self, i, power=1):
        exps = tuple(power if k == i else 0 for k in range(self.dim))
        return PBWElement(self, {exps: self.field.one})

    def from_vector(self, coords):
        return PBWElement(self, {self._units[i]: c for i, c in enumerate(coords) if c})

    # -- table coefficients ----------------------------------------------------

    def _numerators(self, terms):
        """(d, {monomial: n}) for {monomial: FieldElement}: the element is
        the sum over m of n / d times the y-monomial at m (see the module
        docstring). The coefficients are cleared once, and the D^-|m| of
        each term is brought over the common denominator d D^top."""
        d, nums = self.field.clear([c.raw for c in terms.values()])
        D = self._scale
        if D == 1:
            return d, dict(zip(terms, nums))
        top = max(0, max(map(sum, terms), default=0))
        return d * D**top, {m: n * D ** (top - sum(m)) for m, n in zip(terms, nums)}

    def _element(self, raw, den):
        """The element sum over m of raw[m] / den times the y-monomial at m,
        the inverse of ``_numerators``, built trusted: raw maps well-formed
        monomials to nonzero numerators. Over x-monomials the term at m is
        raw[m] D^|m| / den, brought over den D^-low for the lowest total
        degree low < 0 of a formal inverse."""
        D = self._scale
        if D != 1:
            low = min(0, min(map(sum, raw), default=0))
            raw = {m: n * D ** (sum(m) - low) for m, n in raw.items()}
            den = den * D**-low
        return PBWElement._trusted(self, _wrapped(self.field, raw, den))

    # -- straightening core ----------------------------------------------------

    def mul_mono(self, a, b):
        """Product of two normal monomials as a {monomial: table coeff} dict."""
        for z in self._central:
            if a[z] or b[z]:
                return self._mul_central(a, b)
        zero = self._zero
        if a == zero:
            return {b: self._one}
        if b == zero:
            return {a: self._one}
        key = (a, b)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        order = self._order
        for j in order:
            if b[j]:
                break
        for i in reversed(order):
            if a[i]:
                break
        pos = self._pos
        one = self._one
        if pos[i] <= pos[j]:
            out = {tuple(map(add, a, b)): one}
        else:
            a0 = a[:i] + (a[i] - 1,) + a[i + 1 :]
            b0 = b[:j] + (b[j] - 1,) + b[j + 1 :]
            units = self._units
            out = {}
            _product_into(out, self, self.mul_mono(a0, units[j]), self.mul_mono(units[i], b0))
            for k, ck in self._brackets.get(i, {}).get(j, ()):
                left = {m1: ck * c1 for m1, c1 in self.mul_mono(a0, units[k]).items()}
                _product_into(out, self, left, {b0: one})
        self._mul_cache[key] = out
        return out

    def _mul_central(self, a, b):
        """``mul_mono`` when a central exponent is nonzero: the central parts
        commute with everything, so they are added to the product of the rest."""
        na, nb, shift = list(a), list(b), [0] * self.dim
        for z in self._central:
            shift[z] = a[z] + b[z]
            na[z] = nb[z] = 0
        core = self.mul_mono(tuple(na), tuple(nb))
        if not any(shift):
            return core
        return {tuple(map(add, k, shift)): v for k, v in core.items()}

    def symm_mono(self, exps):
        """Sum over the distinct orderings of the word of one basis monomial,
        as a {monomial: table coeff} dict; the symmetrization is this sum
        times prod(e_i!) / (sum e_i)!."""
        hit = self._symm_cache.get(exps)
        if hit is not None:
            return hit
        letters = []
        for i, e in enumerate(exps):
            if e < 0:
                raise FieldError("cannot symmetrize a formal inverse")
            letters.extend([i] * e)
        total = {}
        for word in _multiset_perms(letters):
            cur = {(0,) * self.dim: self._one}
            for letter in word:
                el = self._units[letter]
                nxt = {}
                for m, c in cur.items():
                    for m2, c2 in self.mul_mono(m, el).items():
                        _acc(nxt, m2, c * c2)
                cur = nxt
            for m, c in cur.items():
                _acc(total, m, c)
        self._symm_cache[exps] = total
        return total


def _product_into(out, alg, left, right):
    """Accumulate left * right into out; all three map monomials to nonzero
    table coefficients, and a sum that cancels is dropped."""
    mul_mono = alg.mul_mono
    get = out.get
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            c12 = c1 * c2
            for m, c in mul_mono(m1, m2).items():
                s = get(m)
                if s is None:
                    out[m] = c * c12
                else:
                    s += c * c12
                    if s:
                        out[m] = s
                    else:
                        del out[m]


def _multiset_perms(letters):
    """All distinct orderings of a multiset, lexicographically."""
    letters = sorted(letters)
    n = len(letters)
    out = [tuple(letters)]
    cur = list(letters)
    while True:
        i = n - 2
        while i >= 0 and cur[i] >= cur[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while cur[j] <= cur[i]:
            j -= 1
        cur[i], cur[j] = cur[j], cur[i]
        cur[i + 1 :] = reversed(cur[i + 1 :])
        out.append(tuple(cur))


class PBWElement(_Terms):
    """Element of U(L) (optionally localized at central z) in normal form."""

    __slots__ = ("alg", "terms")
    _MIXED = "elements of different enveloping algebras"

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = _checked_terms(alg.field, alg.dim, alg.laurent, terms)

    @classmethod
    def _trusted(cls, alg, terms):
        """Trusted constructor for results: terms maps well-formed monomials
        to nonzero coefficients of the algebra's field."""
        self = object.__new__(cls)
        self.alg = alg
        self.terms = terms
        return self

    @property
    def _ambient(self):
        return self.alg

    @property
    def _ring(self):
        return self.alg.field, self.alg.dim

    def _like(self, terms, other=None):
        return PBWElement._trusted(self.alg, terms)

    def _product(self, other):
        alg = self.alg
        du, ru = alg._numerators(self.terms)
        dv, rv = alg._numerators(other.terms)
        out = {}
        _product_into(out, alg, ru, rv)
        return alg._element(out, du * dv)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self, labels=None):
        return _render_terms(self.terms, labels or self.alg.L.labels, self.alg._order)

    def __repr__(self):
        return "PBWElement(%s)" % self.render()


def commutator(u, v):
    """[u, v] = u*v - v*u, both products accumulated into one dict of
    table coefficients over du * dv."""
    u._check(v)
    alg = u.alg
    du, ru = alg._numerators(u.terms)
    dv, rv = alg._numerators(v.terms)
    out = {}
    _product_into(out, alg, ru, rv)
    _product_into(out, alg, {m: -c for m, c in rv.items()}, ru)
    return alg._element(out, du * dv)


def symmetrize(alg, p):
    """Symmetrization map S(q) -> U(q), monomial by monomial."""
    if p.nvars != alg.dim or p.field != alg.field:
        raise FieldError("polynomial ambient does not match the algebra")
    sums, weighted = {}, {}
    for exps, c in p.terms.items():
        sums[exps] = alg.symm_mono(exps)
        mult = 1
        for e in exps:
            mult *= factorial(e)
        weighted[exps] = c * alg.field.rational(mult, factorial(sum(exps)))
    den, nums = alg._numerators(weighted)
    out = {}
    for exps, n in nums.items():
        for m, c in sums[exps].items():
            _acc(out, m, n * c)
    return alg._element(out, den)


def principal_symbol(u):
    """Top filtration part of a PBW element as a polynomial (gr)."""
    alg = u.alg
    return PolyElement._trusted(alg.field, alg.dim, u._top(), alg.laurent)


def ad_invariant(u, vectors):
    """Does every listed ambient vector commute with u?"""
    for w in vectors:
        if not commutator(u.alg.from_vector(w), u).is_zero:
            return False
    return True


def specialize_central(u, z_index, c):
    """Substitute a scalar for a central generator: image in U/(z - c).

    The result is a representative with zero exponent at z; a zero value is
    rejected when any monomial holds a formal inverse of z.
    """
    alg = u.alg
    if z_index not in alg._central:
        raise FieldError("index %d is not a designated central generator" % z_index)
    c = _scalar(alg.field, c)
    out = {}
    for exps, co in u.terms.items():
        k = exps[z_index]
        if k < 0 and c.is_zero:
            raise FieldError("specializing a formal inverse at zero")
        ne = tuple(0 if i == z_index else e for i, e in enumerate(exps))
        _acc(out, ne, co * c**k)
    return PBWElement._trusted(alg, out)


def substitute_generators(u, images, target_alg, coeff_to_elem=None):
    """Multiplicative image of u under generator substitution.

    images[i] replaces generator i of u's algebra; monomials expand in the
    source normal order. coeff_to_elem maps source coefficients to elements
    of the target algebra (defaults to scalar embedding via the same field).
    """
    src = u.alg
    if coeff_to_elem is None:
        coeff_to_elem = lambda c: target_alg.one() * c
    total = target_alg.zero()
    order = sorted(range(src.dim), key=lambda i: src._pos[i])
    for exps, c in u.terms.items():
        acc = coeff_to_elem(c)
        for i in order:
            e = exps[i]
            if e < 0:
                raise FieldError("cannot substitute into a formal inverse")
            for _ in range(e):
                acc = acc * images[i]
        total = total + acc
    return total


def centralizer_up_to_degree(alg, gens, d):
    """Basis of {u in U, deg u <= d : [u, g] = 0 for all g}.

    Exact linear solve over the coefficient field; constants always appear.
    """
    monos = _monomials_up_to(alg.dim, d)
    index = {m: k for k, m in enumerate(monos)}
    field = alg.field
    rows = []
    for g in gens:
        cols = []
        target_index = {}
        for m in monos:
            com = commutator(PBWElement._trusted(alg, {m: field.one}), g)
            col = {}
            for mm, c in com.terms.items():
                if mm not in target_index:
                    target_index[mm] = len(target_index)
                col[target_index[mm]] = c
            cols.append(col)
        nrows = len(target_index)
        block = [[field.zero] * len(monos) for _ in range(nrows)]
        for j, col in enumerate(cols):
            for r, c in col.items():
                block[r][j] = c
        rows.extend(block)
    ker = kernel_basis(field, rows, len(monos))
    out = []
    for v in ker:
        terms = {m: c for m, c in zip(monos, v) if not c.is_zero}
        out.append(PBWElement._trusted(alg, terms))
    return out


def _monomials_up_to(n, d):
    out = []

    def rec(prefix, remaining, total):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(0, d - total + 1):
            rec(prefix + [e], remaining - 1, total + e)

    rec([], n, 0)
    out.sort(key=lambda m: (sum(m), m))
    return out
