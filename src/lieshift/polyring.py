"""Polynomials on the dual space, with the Lie-Poisson bracket.

Elements of the symmetric algebra S(q) are sparse exponent-vector dicts over
the algebra's tower field. Negative exponents are allowed only at explicitly
flagged (central) indices, mirroring the localized enveloping algebra; the
formal inverse obeys z * z^-1 = 1 eagerly through exponent addition.

The Poisson and gradient kernels compute on cleared values, numerators over
one common denominator (``Field.clear``: integers at level 0, polynomials
above), and wrap each result coefficient once, through a trusted constructor
that skips the per-term checks the public constructor keeps for caller input.
"""

from __future__ import annotations

from .fields import FieldElement, FieldError, _exponent


class PolyElement:
    __slots__ = ("field", "nvars", "terms", "laurent")

    def __init__(self, field, nvars, terms=None, laurent=frozenset()):
        self.field = field
        self.nvars = nvars
        self.laurent = frozenset(laurent)
        clean = {}
        for exps, c in (terms or {}).items():
            exps = tuple(map(_exponent, exps))
            if len(exps) != nvars:
                raise FieldError("exponent vector length != nvars")
            for i, e in enumerate(exps):
                if e < 0 and i not in self.laurent:
                    raise FieldError("negative exponent at non-Laurent index %d" % i)
            c = c if isinstance(c, FieldElement) else field.rational(c)
            if c.field is not field and c.field != field:
                raise FieldError("coefficient of %r in a ring over %r" % (c.field, field))
            if c:
                _acc(clean, exps, c)
        self.terms = clean

    @classmethod
    def _from_cleared(cls, field, nvars, values, den, laurent):
        """Trusted constructor for kernel output: values holds nonzero
        numerators over the denominator den at well-formed exponents, so
        only the wrapping is done."""
        self = object.__new__(cls)
        self.field = field
        self.nvars = nvars
        self.laurent = frozenset(laurent)
        self.terms = {e: field.from_cleared(c, den) for e, c in values.items()}
        return self

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field, nvars, laurent=frozenset()):
        return cls(field, nvars, {}, laurent)

    @classmethod
    def constant(cls, field, nvars, c, laurent=frozenset()):
        return cls(field, nvars, {(0,) * nvars: c}, laurent)

    @classmethod
    def variable(cls, field, nvars, i, laurent=frozenset()):
        exps = tuple(1 if k == i else 0 for k in range(nvars))
        return cls(field, nvars, {exps: field.one}, laurent)

    @classmethod
    def from_vector(cls, field, coords, laurent=frozenset()):
        n = len(coords)
        terms = {}
        for i, c in enumerate(coords):
            if isinstance(c, int):
                c = field.rational(c)
            if not c.is_zero:
                terms[tuple(1 if k == i else 0 for k in range(n))] = c
        return cls(field, n, terms, laurent)

    # -- ring ops ----------------------------------------------------------

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise FieldError("mixed polynomial ambients")

    def __add__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = PolyElement.constant(self.field, self.nvars, other, self.laurent)
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, self.field.zero) + c
            if s.is_zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        return PolyElement(self.field, self.nvars, terms, self.laurent | other.laurent)

    __radd__ = __add__

    def __neg__(self):
        return PolyElement(
            self.field, self.nvars, {e: -c for e, c in self.terms.items()}, self.laurent
        )

    def __sub__(self, other):
        if isinstance(other, (int, FieldElement)):
            other = PolyElement.constant(self.field, self.nvars, other, self.laurent)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FieldElement)):
            c = other if isinstance(other, FieldElement) else self.field.rational(other)
            return PolyElement(
                self.field,
                self.nvars,
                {e: co * c for e, co in self.terms.items()},
                self.laurent,
            )
        self._check(other)
        out = {}
        zero = self.field.zero
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, zero) + c1 * c2
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return PolyElement(self.field, self.nvars, out, self.laurent | other.laurent)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = _exponent(n)
        if n < 0:
            raise FieldError("negative power of a polynomial")
        out = PolyElement.constant(self.field, self.nvars, 1, self.laurent)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolyElement)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    @property
    def is_zero(self):
        return not self.terms

    def degree(self):
        """Total degree; a formal inverse counts as -1. Zero gives -inf-ish."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def top_part(self):
        d = self.degree()
        if d is None:
            return self
        return PolyElement(
            self.field,
            self.nvars,
            {e: c for e, c in self.terms.items() if sum(e) == d},
            self.laurent,
        )

    def partial(self, i):
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = tuple(x - 1 if k == i else x for k, x in enumerate(e))
            out[ne] = c * e[i]
        return PolyElement(self.field, self.nvars, out, self.laurent)

    def evaluate(self, point):
        """Value at a point; formal inverses need a nonzero coordinate."""
        pt = [
            c if isinstance(c, FieldElement) else self.field.rational(c)
            for c in point
        ]
        total = self.field.zero
        for e, c in self.terms.items():
            v = c
            for i, k in enumerate(e):
                if k == 0:
                    continue
                if k < 0 and pt[i].is_zero:
                    raise FieldError("evaluating a formal inverse at zero")
                v = v * pt[i] ** k
            total = total + v
        return total

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
    df, fvalues = field.clear([c.raw for c in f.terms.values()])
    dg, gvalues = field.clear([c.raw for c in g.terms.values()])
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
    return PolyElement._from_cleared(field, L.dim, out, df * dg * D, f.laurent | g.laurent)


def _render_terms(terms, labels, order):
    """Terms by descending degree, then exponent tuple; each monomial word
    lists its variables in the index sequence order, zero exponents skipped.
    A coefficient with a space or a slash is parenthesized and keeps its
    sign; any other negative one becomes a minus sign."""
    if not terms:
        return "0"
    items = sorted(terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    parts = []
    for exps, c in items:
        vs = "*".join(
            labels[i] if exps[i] == 1 else "%s^%d" % (labels[i], exps[i])
            for i in order
            if exps[i]
        )
        cs = str(c)
        wrap = " " in cs or "/" in cs
        neg = cs.startswith("-") and not wrap
        if neg:
            cs = cs[1:]
        if wrap:
            cs = "(%s)" % cs
        body = cs if not vs else (vs if cs == "1" else "%s*%s" % (cs, vs))
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append((" - " if neg else " + ") + body)
    return "".join(parts)


def _acc(d, m, c):
    """d[m] += c, dropping a zero sum; works on raw and wrapped values."""
    s = d.get(m)
    if s is not None:
        c = s + c
    if c:
        d[m] = c
    else:
        d.pop(m, None)


def differential_at(f, point):
    """Gradient vector of f evaluated at a point of the dual space.

    One pass over the terms on cleared values: a term c x^e adds
    c e_i x^(e - eps_i) to entry i for every i with e_i != 0. With the point
    cleared to x_j = p_j / p_n, every term times prod_j p_j^off_j is a ring
    value, for off_j the largest inverse power of x_j and off_n the largest
    degree. Powers are computed once per (index, exponent), and zeroth
    powers are not multiplied in. A formal inverse evaluated at zero raises
    FieldError, as ``evaluate`` does on the partial derivatives.
    """
    field = f.field
    n = f.nvars
    if len(point) != n:
        raise FieldError("point has %d coordinates, want %d" % (len(point), n))
    pt = []
    for c in point:
        if not isinstance(c, FieldElement):
            c = field.rational(c)
        elif c.field is not field and c.field != field:
            raise FieldError("tower-level mismatch: %r vs %r" % (field, c.field))
        pt.append(c.raw)
    q, p = field.clear(pt)
    p.append(q)
    off = [0] * (n + 1)
    for j in f.laurent:
        low = min((e[j] for e in f.terms), default=0)
        if low < 0:
            if not pt[j]:
                raise FieldError("evaluating a formal inverse at zero")
            off[j] = 1 - low
    if q != 1:
        off[n] = max(0, max((sum(e) - 1 for e in f.terms), default=0))
    den, values = field.clear([c.raw for c in f.terms.values()])
    powers = {}

    def power(i, k):
        x = powers.get((i, k))
        if x is None:
            x = powers[(i, k)] = p[i] ** k
        return x

    grad = [None] * n
    for e, c in zip(f.terms, values):
        base = [(j, k + off[j]) for j, k in enumerate(e) if k or off[j]]
        if q != 1:
            base.append((n, off[n] + 1 - sum(e)))
        for i, k in enumerate(e):
            if not k:
                continue
            g = c if k == 1 else c * k
            for j, x in base:
                x = x - 1 if j == i else x
                if x:
                    g = g * power(j, x)
            grad[i] = g if grad[i] is None else grad[i] + g
    for j, x in enumerate(off):
        if x:
            den = den * power(j, x)
    zero = field.zero
    return [zero if g is None else field.from_cleared(g, den) for g in grad]


def gamma_shift(h, gamma, k):
    """k-th iterated directional derivative of h along the form gamma."""
    if not isinstance(k, int):
        raise ValueError("the shift order must be an integer, got %r" % (k,))
    out = h
    for _ in range(k):
        acc = PolyElement.zero(h.field, h.nvars, h.laurent)
        for i in range(h.nvars):
            c = gamma.coords[i]
            if not c.is_zero:
                acc = acc + out.partial(i) * c
        out = acc
    return out
