"""PBW normal form in enveloping algebras, with central Laurent localization.

Monomials are exponent vectors read as products of basis generators in a
fixed order (input order, annotated central generators moved last).
Designated central generators may carry negative exponents (localization at
z), which is sound because they commute with everything (verified, not
assumed).

Straightening multiplies by one generator at a time, the design of Plural
(Levandovskyy & Schoenemann, ISSAC 2003) for algebras of solvable type. The
one kernel is x_p * m for a normal monomial m: it is m with x_p added when
x_p is central or precedes m's first letter x_q, and otherwise
x_p x_q m1 = x_q (x_p m1) + [x_p, x_q] m1, cached in ``_mul_cache`` on
(p, m) with m's central part shifted through. A product u * v is Horner's
rule on u: its monomials are grouped by central part, then by last letter,
so that each distinct suffix multiplies v once, one generator at a time
(``_mul_into``); a commutator is both products accumulated into one dict,
and a generator substitution is one chain of such products per monomial,
each prefix computed once (``_substituted``). Symmetrization sums
the distinct orderings of a monomial's word as S(m) = sum over the distinct
letters x of m of x * S(m / x), memoized in ``_symm_cache``. Kernel work
runs from explicit stacks (``_run``), so no Python stack grows with an
exponent or a degree.

The straightening kernels (``_apply``, ``_steps``, ``symm_mono``, products,
``commutator``, ``symmetrize``, ``substitute_generators``) run on the
algebra's structure constants as cleared values
(``LieAlgebra.kernel_brackets``), and ``_mul_cache`` and
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

Inside the kernels a monomial is one int, the sum of e_i << (16 p_i) for the
position p_i of generator i in the normal order: 16-bit exponent fields, the
central ones on top. Multiplying by a generator that precedes a monomial is
then one addition, a cache key is one int, the last letter of a monomial m
is in the field of its top bit and the first in the field of its lowest bit
(m & -m), and the central part m >> (16 * number of non-central generators)
is a signed int, so formal inverses need no special case. A product is
straightened only if the absolute exponents of each factor's monomials sum
to at most 32767 between the two factors (``_guard``): every exponent of the
result then fits its field, the central ones with their sign, and a larger
product is a FieldError, never a carry into the next field. The kernels pack
their operands (``_numerators``) and unpack their results (``_element``);
``PBWElement.terms`` keeps exponent tuples.

``PBWElement`` is the term container of ``polyring`` (``_Terms``), which
holds +, -, scalar *, ==, degree and the top-degree part that
``principal_symbol`` reads. ``EnvelopingAlgebra.element``, ``gen`` and
``from_vector`` take caller input and check it (``polyring._checked_terms``);
products, commutators, symmetrizations, specializations and centralizer
bases are built trusted (``EnvelopingAlgebra._element``,
``PBWElement._trusted``). A centralizer is the kernel of the commutator
with its generators, taken by ``linalg.kernel_of_images``, the solver of
the symmetric invariants and the center too.
"""

from __future__ import annotations

from math import factorial
from operator import lshift
from struct import Struct

from .fields import FieldError, _render_terms
from .linalg import kernel_of_images
from .polyring import (
    PolyElement,
    _acc,
    _checked_terms,
    _index,
    _Terms,
    _wrapped,
    monomials_of_degree,
)

_WIDTH = 16  # bits of one exponent field; "H" below reads fields of this width
_FIELD = (1 << _WIDTH) - 1
_LIMIT = (1 << (_WIDTH - 1)) - 1  # the largest signed field value
_NEVER = 1 << 62  # above the bit length of any packed monomial


class EnvelopingAlgebra:
    """Multiplication context for U(L); owns the straightening caches."""

    def __init__(self, L, laurent=()):
        self.L = L
        self.field = L.field
        self.dim = n = L.dim
        self.laurent = frozenset(laurent)
        self._central = self.laurent | L.central_indices()
        central = sorted(self._central)
        self._scale, brackets = L.kernel_brackets
        for z in central:
            if z in brackets:
                raise FieldError("designated central index %d brackets nontrivially" % z)
        rest = [i for i in range(L.dim) if i not in central]
        self._order = rest + central
        self._pos = [0] * L.dim
        for p, i in enumerate(self._order):
            self._pos[i] = p
        self._zero = (0,) * n
        self._units = tuple([tuple([int(k == i) for k in range(n)]) for i in range(n)])
        # packed layout (module docstring): the field shift of each index,
        # and the packed generator of each position
        self._shifts = [_WIDTH * p for p in self._pos]
        self._field_units = [1 << (_WIDTH * p) for p in range(n)]
        # _rooms[(m & -m).bit_length()]: the largest bit length of a monomial
        # that precedes m in normal order, the top of the field of m's first
        # letter; unbounded for m = 1
        self._rooms = [_NEVER] + [_WIDTH * (k // _WIDTH + 1) for k in range(_WIDTH * n)]
        self._core_bits = _WIDTH * len(rest)
        self._core_mask = (1 << self._core_bits) - 1
        self._core_fields = Struct("<%dH" % len(rest))
        self._ncentral = len(central)
        self._unpermuted = self._order == list(range(n))
        # x_p * m is the normal monomial m + x_p exactly when _reach[p] <=
        # _rooms[(m & -m).bit_length()]: the bit length of x_p, or 0 for a
        # central x_p, which commutes with everything
        self._reach = [_WIDTH * p + 1 if p < len(rest) else 0 for p in range(n)]
        # _tags[p] + m, for a core monomial m, keys x_p * m in _mul_cache
        self._tags = [(p + 1) << self._core_bits for p in range(n)]
        # _rules[p][q]: [x_i, x_j] for the generators at positions p and q,
        # as (position, table coefficient) pairs
        self._rules = [[()] * n for _ in range(n)]
        for i, row in brackets.items():
            for j, comp in row.items():
                self._rules[self._pos[i]][self._pos[j]] = tuple(
                    [(self._pos[k], c) for k, c in comp]
                )
        self._one = self.field.clear(())[0]
        self._mul_cache = {}
        self._symm_cache = {0: {0: self._one}}

    # -- element constructors ------------------------------------------------

    def element(self, terms):
        return PBWElement(self, terms)

    def zero(self):
        return PBWElement._trusted(self, {})

    def one(self):
        return PBWElement._trusted(self, {self._zero: self.field.one})

    def gen(self, i, power=1):
        i = _index(i, self.dim)
        exps = self._zero[:i] + (power,) + self._zero[i + 1 :]
        return PBWElement(self, {exps: self.field.one})

    def from_vector(self, coords):
        return PBWElement(self, {self._units[i]: c for i, c in enumerate(coords) if c})

    # -- packing at the kernel boundary -----------------------------------------

    def _numerators(self, terms):
        """(d, {packed monomial: n}, size) for {monomial: FieldElement}: the
        element is the sum over m of n / d times the y-monomial at m (see
        the module docstring), and size is the largest sum of absolute
        exponents of a monomial (``_guard``). The coefficients are cleared
        once, and the D^-|m| of each term is brought over the common
        denominator d D^top."""
        d, nums = self.field.clear(terms.values())
        top = max(map(sum, terms), default=0)
        size = max([sum(map(abs, m)) for m in terms], default=0) if self.laurent else top
        D = self._scale
        if D != 1:
            top = max(0, top)
            d = d * D**top
            nums = [n * D ** (top - sum(m)) for m, n in zip(terms, nums)]
        shifts = self._shifts
        return d, {sum(map(lshift, m, shifts)): n for m, n in zip(terms, nums)}, size

    def _operands(self, u, v):
        """(du * dv, packed u, packed v) for the product of u and v."""
        du, ru, su = self._numerators(u.terms)
        dv, rv, sv = self._numerators(v.terms)
        _guard(su + sv)
        return du * dv, ru, rv

    def _unpack(self, m):
        """The exponent tuple, in index order, of a packed monomial."""
        core = m & self._core_mask
        fields = self._core_fields.unpack(core.to_bytes(self._core_bits // 8, "little"))
        if self._ncentral:
            c = m >> self._core_bits
            cen = []
            for _ in range(self._ncentral):
                f = c & _FIELD
                if f > _LIMIT:
                    f -= 1 << _WIDTH
                cen.append(f)
                c = (c - f) >> _WIDTH
            fields = [*fields, *cen]
        if self._unpermuted:
            return tuple(fields)
        return tuple([fields[p] for p in self._pos])

    def _element(self, raw, den):
        """The element sum over m of raw[m] / den times the y-monomial at m,
        the inverse of ``_numerators``, built trusted: raw maps packed
        monomials to nonzero numerators. Over x-monomials the term at m is
        raw[m] D^|m| / den, brought over den D^-low for the lowest total
        degree low < 0 of a formal inverse."""
        unpack = self._unpack
        raw = {unpack(m): n for m, n in raw.items()}
        D = self._scale
        if D != 1:
            low = min(0, min(map(sum, raw), default=0))
            raw = {m: n * D ** (sum(m) - low) for m, n in raw.items()}
            den = den * D**-low
        return PBWElement._trusted(self, _wrapped(self.field, raw, den))

    # -- straightening core ----------------------------------------------------

    def _run(self, task):
        """Drive a kernel generator (``_apply`` or ``_steps``) to its value
        from an explicit stack: a product it yields as missing from
        ``_mul_cache`` is computed by a ``_steps`` task pushed on top and sent
        back when that task returns, so the Python stack stays flat however
        many swaps a product chains."""
        stack = [task]
        value = None
        while stack:
            try:
                need = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                value = done.value
            else:
                stack.append(self._steps(*need))
                value = None
        return value

    def _apply(self, out, p, terms, scale, shift):
        """Kernel generator: accumulate scale * x_p * terms, shifted by the
        central monomial shift, into out, for the generator at position p;
        terms and out map packed normal monomials to nonzero table
        coefficients, and a sum that cancels is dropped. x_p * n is n + x_p
        when x_p is central or precedes n's first letter; otherwise it is x_p
        times the core of n, read from ``_mul_cache`` or yielded as missing
        (``_run``), shifted by n's central part."""
        plain = self._field_units[p] + shift
        reach = self._reach[p]
        tag = self._tags[p]
        rooms = self._rooms
        mask = self._core_mask
        cache = self._mul_cache
        get = out.get
        for n, c in terms.items():
            c *= scale
            if reach <= rooms[(n & -n).bit_length()]:
                m = n + plain
                s = get(m)
                if s is None:
                    out[m] = c
                else:
                    s += c
                    if s:
                        out[m] = s
                    else:
                        del out[m]
                continue
            core = n & mask
            hit = cache.get(core + tag)
            if hit is None:
                hit = yield p, core
            moved = n - core + shift
            for m, c2 in hit.items():
                m += moved
                s = get(m)
                if s is None:
                    out[m] = c * c2
                else:
                    s += c * c2
                    if s:
                        out[m] = s
                    else:
                        del out[m]

    def _steps(self, p, m):
        """Kernel generator: x_p * m for a core monomial m = x_q m1 whose
        first letter x_q comes before x_p, as x_q (x_p m1) + [x_p, x_q] m1;
        the result is cached in ``_mul_cache`` under m + _tags[p]."""
        units = self._field_units
        one = self._one
        q = ((m & -m).bit_length() - 1) // _WIDTH
        m1 = m - units[q]
        room = self._rooms[(m1 & -m1).bit_length()]
        if self._reach[p] <= room:
            out = {m + units[p]: one}  # x_p m1 is normal, and so is x_q x_p m1
        else:
            inner = self._mul_cache.get(m1 + self._tags[p])
            if inner is None:
                inner = yield p, m1
            out = {}
            yield from self._apply(out, q, inner, one, 0)
        for k, ck in self._rules[p][q]:
            yield from self._apply(out, k, {m1: one}, ck, 0)
        self._mul_cache[m + self._tags[p]] = out
        return out

    def _mul_into(self, out, left, right):
        """Accumulate left * right into out, all three as in ``_apply``, by
        Horner's rule on the left factor. Its monomials are grouped by
        central part, which only shifts the result, then by last letter x_p
        and its exponent e: x_p^e * right is computed once, one ``_apply`` at
        a time, for every monomial ending in x_p^e, and reused for the higher
        powers; what precedes x_p^e is applied to it in turn, from an
        explicit stack of pending (prefixes, product) pairs. A monomial's
        last ``_apply`` goes straight into out."""
        mask = self._core_mask
        one = self._one
        run, apply = self._run, self._apply
        centres = {}
        for a, c in left.items():
            core = a & mask
            centres.setdefault(a - core, {})[core] = c
        for shift, prefixes in centres.items():
            stack = [(prefixes, right)]
            while stack:
                prefixes, v = stack.pop()
                lasts = {}
                for a, c in prefixes.items():
                    if a:
                        top = (a.bit_length() - 1) // _WIDTH * _WIDTH
                        e = a >> top
                        lasts.setdefault(top, {}).setdefault(e, {})[a - (e << top)] = c
                        continue
                    for n, cn in v.items():
                        _acc(out, n + shift, c * cn)
                for top, powers in lasts.items():
                    p = top // _WIDTH
                    w, done = v, 0
                    high = max(powers)
                    for e in sorted(powers):
                        for _ in range(e - done - 1):
                            nxt = {}
                            run(apply(nxt, p, w, one, 0))
                            w = nxt
                        done = e
                        rest = powers[e]
                        if e == high and len(rest) == 1 and 0 in rest:
                            run(apply(out, p, w, rest[0], shift))
                        else:
                            nxt = {}
                            run(apply(nxt, p, w, one, 0))
                            w = nxt
                            stack.append((rest, w))

    def symm_mono(self, m):
        """Sum over the distinct orderings of the word of one packed monomial
        without formal inverses, as a {packed monomial: table coeff} dict;
        the symmetrization is this sum times prod(e_i!) / (sum e_i)!. A word
        starts with one of the distinct letters x of m, so the sum S(m) is
        the sum over them of x * S(m / x). It is computed for each divisor of
        m missing from ``_symm_cache``, in an order where m / x comes before
        m, and cached; a power of one letter is its own only ordering."""
        cache = self._symm_cache
        hit = cache.get(m)
        if hit is not None:
            return hit
        units = self._field_units
        one = self._one
        letters = [p for p in range(self.dim) if m >> (_WIDTH * p) & _FIELD]
        if len(letters) == 1:
            return {m: one}
        divisors = [0]
        for p in letters:
            u = units[p]
            e = m >> (_WIDTH * p) & _FIELD
            divisors = [d + k * u for d in divisors for k in range(e + 1)]
        for d in divisors[1:]:
            if d in cache:
                continue
            out = {}
            for p in letters:
                if d >> (_WIDTH * p) & _FIELD:
                    self._run(self._apply(out, p, cache[d - units[p]], one, 0))
            cache[d] = out
        return cache[m]


def _guard(size):
    """Refuse a product whose factors' absolute exponents sum past the signed
    field range: below it no exponent of the result leaves its field."""
    if size > _LIMIT:
        raise FieldError(
            "a product of exponents summing to %d exceeds the packed range %d"
            % (size, _LIMIT)
        )


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
        d, ru, rv = alg._operands(self, other)
        out = {}
        alg._mul_into(out, ru, rv)
        return alg._element(out, d)

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
    d, ru, rv = alg._operands(u, v)
    out = {}
    alg._mul_into(out, ru, rv)
    alg._mul_into(out, {m: -c for m, c in rv.items()}, ru)
    return alg._element(out, d)


def symmetrize(alg, p):
    """Symmetrization map S(q) -> U(q), monomial by monomial."""
    if p.nvars != alg.dim or p.field != alg.field:
        raise FieldError("polynomial ambient does not match the algebra")
    weighted = {}
    for exps, c in p.terms.items():
        if min(exps, default=0) < 0:
            raise FieldError("cannot symmetrize a formal inverse")
        mult = 1
        for e in exps:
            mult *= factorial(e)
        weighted[exps] = c * alg.field.rational(mult, factorial(sum(exps)))
    den, nums, size = alg._numerators(weighted)
    _guard(size)
    out = {}
    for m0, n in nums.items():
        for m, c in alg.symm_mono(m0).items():
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
    c = alg.field.coerce(c)
    out = {}
    for exps, co in u.terms.items():
        k = exps[z_index]
        if k < 0 and c.is_zero:
            raise FieldError("specializing a formal inverse at zero")
        ne = exps[:z_index] + (0,) + exps[z_index + 1 :]
        _acc(out, ne, co * c**k)
    return PBWElement._trusted(alg, out)


def _substituted(alg, terms, images):
    """(f, out): the sum over terms (n, word) of n times the product, left to
    right, of images[i] for each i of the word, in the numerator ring of alg.

    images are packed as ``EnvelopingAlgebra._numerators`` returns them,
    (d, {packed monomial: numerator}, size), and the n are numerators over
    one denominator d0; the sum is out / (d0 f). f is the product of the
    d_i^E_i, E_i the most factors images[i] has in one word, and each term
    is brought over it by the d_i it misses, so nothing is divided. A word
    is Horner's rule: each prefix product is computed once for all the words
    that share it, and the last factor multiplies the scaled prefix straight
    into out. The absolute exponents of a word's factors are guarded
    together (``_guard``), which bounds every prefix too."""
    counts = [{} for _ in terms]
    tops = [0] * len(images)
    for (_, word), count in zip(terms, counts):
        _guard(sum([images[i][2] for i in word]))
        for i in word:
            count[i] = count.get(i, 0) + 1
        for i, e in count.items():
            tops[i] = max(tops[i], e)
    scaled = [(i, images[i][0], e) for i, e in enumerate(tops) if e and images[i][0] != 1]
    f = 1
    for _, d, e in scaled:
        f = f * d**e
    prefixes = {(): {0: alg._one}}
    out = {}
    for (n, word), count in zip(terms, counts):
        for i, d, e in scaled:
            if count.get(i, 0) < e:
                n = n * d ** (e - count.get(i, 0))
        if not word:
            _acc(out, 0, n)
            continue
        k = len(word) - 1
        while word[:k] not in prefixes:
            k -= 1
        left = prefixes[word[:k]]
        for j in range(k, len(word) - 1):
            nxt = {}
            alg._mul_into(nxt, left, images[word[j]][1])
            left = prefixes[word[: j + 1]] = nxt
        alg._mul_into(out, {m: c * n for m, c in left.items()}, images[word[-1]][1])
    return f, out


def _expanded(top, coeffs, words):
    """(d0, terms) for ``_substituted``: each coefficient, an element of top
    that is a polynomial in top's own variables w over the level below
    (``Field.nested``), followed by its word, as the terms (n, beta + word)
    of its monomials g w^beta, where variable t is image t and the
    coefficients g of every polynomial are cleared over one d0."""
    polys = []
    for c in coeffs:
        num, den = top.nested(c)
        if len(den) > 1 or any(den[0][0]):
            raise FieldError("cannot substitute into a coefficient with a denominator")
        polys.append(num)
    d0, nums = top.base.clear([g for p in polys for _, g in p])
    it = iter(nums)
    return d0, [
        (next(it), tuple([t for t, e in enumerate(exps) for _ in range(e)]) + word)
        for p, word in zip(polys, words)
        for exps, _ in p
    ]


def substitute_generators(u, images, target_alg, coeff_images=()):
    """Multiplicative image of u under generator substitution.

    images[i] replaces generator i of u's algebra; monomials expand in the
    source normal order, each coefficient on the left. Without coeff_images
    a coefficient is a scalar of the target field. With them, u's field is
    one level above the target's, each coefficient of u is a polynomial in
    that level's variables, and coeff_images[t] replaces variable t.

    The images are packed once (``EnvelopingAlgebra._numerators``), the
    coefficients cleared once, every monomial is one Horner chain of
    products in the numerator ring (``_substituted``), and the result is
    wrapped once.
    """
    src = u.alg
    field = target_alg.field
    order = sorted(range(src.dim), key=src._pos.__getitem__)
    shift = len(coeff_images)
    words = []
    for exps in u.terms:
        if min(exps, default=0) < 0:
            raise FieldError("cannot substitute into a formal inverse")
        words.append(tuple([shift + i for i in order for _ in range(exps[i])]))
    if not coeff_images:
        d0, nums = field.clear([field.coerce(c) for c in u.terms.values()])
        terms = list(zip(nums, words))
    else:
        top = src.field
        if top.base != field:
            raise FieldError("coefficient images lie in %r, not one level below %r" % (field, top))
        d0, terms = _expanded(top, u.terms.values(), words)
    packed = [target_alg._numerators(v.terms) for v in (*coeff_images, *images)]
    f, out = _substituted(target_alg, terms, packed)
    return target_alg._element(out, d0 * f)


def centralizer_up_to_degree(alg, gens, d):
    """Basis of {u in U, deg u <= d : [u, g] = 0 for all g}.

    The kernel of m -> ([m, g])_g over the monomials m of degree at most d,
    sorted by (degree, exponents), by ``linalg.kernel_of_images``; constants
    always appear.
    """
    monos = [m for k in range(d + 1) for m in sorted(monomials_of_degree(alg.dim, k))]
    one = alg.field.one
    images = []
    for m in monos:
        u = PBWElement._trusted(alg, {m: one})
        images.append({
            (k, mm): c for k, g in enumerate(gens) for mm, c in commutator(u, g).terms.items()
        })
    return [
        PBWElement._trusted(alg, {m: c for m, c in zip(monos, v) if not c.is_zero})
        for v in kernel_of_images(alg.field, images)
    ]
