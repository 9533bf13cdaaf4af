"""Seeded random generators shared by the property and acceptance suites."""

from lieshift.fields import QQ
from lieshift.liealg import (
    HeisenbergSplit,
    LieAlgebra,
    Subspace,
    bracket,
    darboux_split,
    direct_sum,
    killing_matrix,
)
from lieshift.linalg import kernel_of_images
from lieshift.polyring import PolyElement, monomials_of_degree, poisson
from lieshift.presets import preset


def random_rational(rng, bound=20):
    num = rng.randint(-bound, bound)
    den = rng.randint(1, 6)
    return QQ.rational(num, den)


def random_vector(rng, field, n, bound=20):
    return tuple(field.rational(rng.randint(-bound, bound)) for _ in range(n))


def random_poly(rng, nvars, max_deg, terms=4, bound=9):
    """Nonzero rational polynomial with small integer exponents."""
    out = PolyElement.zero(QQ, nvars)
    for _ in range(terms):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        c = rng.randint(-bound, bound)
        if c:
            out = out + PolyElement(QQ, nvars, {tuple(e): QQ.from_int(c)})
    if out.is_zero:
        return PolyElement.constant(QQ, nvars, QQ.one) + PolyElement.variable(QQ, nvars, 0)
    return out


# -- randomized valid Heisenberg splits ----------------------------------------


def _sym_matrix(rng, n, bound=2):
    m = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i):
            m[i][j] = m[j][i]
    return m


def _unimodular(rng, n, steps=3, bound=2):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-bound, bound)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def _mat_inv_t(m):
    # exact inverse-transpose of a unimodular integer matrix, via adjugate
    from fractions import Fraction

    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)] for i, row in enumerate(m)]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    inv = [row[n:] for row in a]
    out = [[inv[j][i] for j in range(n)] for i in range(n)]
    assert all(x.denominator == 1 for row in out for x in row)
    return [[int(x) for x in row] for row in out]


def _combine(field, vectors, coeffs):
    n = len(vectors[0])
    out = [field.zero] * n
    for c, v in zip(coeffs, vectors):
        if c:
            cc = c if not isinstance(c, int) else field.rational(c)
            out = [o + cc * vi for o, vi in zip(out, v)]
    return tuple(out)


def random_symplectic_images(rng, field, xs, ys):
    """New (x, y) families spanning the same space, same pairing into z."""
    n = len(xs)
    a = _unimodular(rng, n)
    ait = _mat_inv_t(a)
    xs = [_combine(field, xs, row) for row in a]
    ys = [_combine(field, ys, row) for row in ait]
    s = _sym_matrix(rng, n, bound=1)
    xs = [
        _combine(field, [xs[i]] + list(ys), [1] + list(s[i]))
        for i in range(n)
    ]
    t = _sym_matrix(rng, n, bound=1)
    ys = [
        _combine(field, [ys[j]] + list(xs), [1] + list(t[j]))
        for j in range(n)
    ]
    return xs, ys


def _diamond():
    # torus element acting with weights (1, -1) on one symplectic pair
    return LieAlgebra(
        QQ,
        ("t", "x", "y", "z"),
        {(0, 1): {1: 1}, (0, 2): {2: -1}, (1, 2): {3: 1}},
        {"central": [3], "nilradical": [1, 2, 3]},
    )


def _split_families():
    # (algebra, stabilizing-part indices, heisenberg-part indices)
    fams = []
    for n in (1, 2, 3):
        H = preset("heisenberg%d" % n).algebra
        fams.append((H, [2 * n], list(range(2 * n + 1))))
    H2 = direct_sum(preset("heisenberg1").algebra, preset("abelian2").algebra)
    fams.append((H2, [2, 3, 4], [0, 1, 2]))
    D = _diamond()
    fams.append((D, [0, 3], [1, 2, 3]))
    S = preset("sl2-semidirect-h3").algebra
    fams.append((S, [0, 5], [3, 4, 5]))
    fams.append((S, [0, 1, 5], [3, 4, 5]))
    return fams


def random_valid_split(rng):
    """A Heisenberg split drawn from a family, with the symplectic pair basis
    randomized; the stabilizing part keeps dim <= 3 and n <= 3."""
    fams = _split_families()
    L, l_idx, heis_idx = fams[rng.randrange(len(fams))]
    base = darboux_split(L, L.span_of_indices(heis_idx))
    xs, ys = random_symplectic_images(rng, L.field, list(base.x), list(base.y))
    split = HeisenbergSplit(
        l_basis=L.span_of_indices(l_idx),
        x=tuple(xs),
        y=tuple(ys),
        z=base.z,
    )
    return L, split


PRESET_POOL = [
    "abelian1",
    "abelian2",
    "abelian3",
    "heisenberg1",
    "heisenberg2",
    "aff1",
    "borel-sl2",
    "borel-sl3",
    "sl2",
    "so3",
    "gl2",
    "so4",
    "sl2-semidirect-h3",
]


def random_preset_algebra(rng, pool=None):
    name = (pool or PRESET_POOL)[rng.randrange(len(pool or PRESET_POOL))]
    return name, preset(name).algebra


# -- reference elimination -----------------------------------------------------
# Gauss-Jordan on wrapped field elements, independent of the Bareiss path in
# lieshift.linalg; the library's echelon bases, ranks and solutions are
# checked against it.


def rref(field, rows):
    """Reduced row echelon form over the field. Returns (rows, pivot_cols)."""
    rows = [list(r) for r in rows if any(not e.is_zero for e in r)]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivot_cols = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero:
                fac = rows[i][c]
                rows[i] = [a - fac * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == len(rows):
            break
    rows = [row for row in rows if any(not e.is_zero for e in row)]
    return rows, pivot_cols


def reference_bareiss(field, rows, ncols):
    """Eager one-step Bareiss on rows cleared to the numerator ring: every row
    under a pivot is rewritten at every step, also where its head is zero.
    Returns the pivot rows and the pivot columns."""
    rows = [row for row in map(field.clear_row, rows) if any(row)]
    pivot_cols = []
    prev = field.clear(())[0]
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, len(rows)):
            head = rows[i][c]
            rows[i] = [
                field.ring_quo(piv * a - head * b, prev) for a, b in zip(rows[i], rows[r])
            ]
        pivot_cols.append(c)
        prev = piv
        r += 1
    return rows[:r], pivot_cols


def reference_rank_mod_prime(rows, p):
    """The rank over F_p of integer rows by dense Gauss-Jordan: every row but
    the pivot row is rewritten at every column at every step."""
    rows = [[a % p for a in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [a * inv % p for a in rows[r]]
        for i in range(len(rows)):
            if i != r:
                head = rows[i][c]
                rows[i] = [(a - head * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def normalize_vector(field, vec):
    """Clear denominators, divide out content, orient the first nonzero entry:
    the canonical vector on the line of vec, as the library's bases are."""
    row = field.clear_row(vec)
    if not any(row):
        return list(vec)
    zero = field.zero
    return [field.from_cleared(a, 1) if a else zero for a in field._primitive(row)]


def reference_solve(field, a_rows, rhs):
    """The solution of A x = rhs with free variables 0, read off the reference
    rref of [A | rhs], or None when the rhs column is a pivot."""
    if not a_rows:
        return [] if all(e.is_zero for e in rhs) else None
    ncols = len(a_rows[0])
    red, pivots = rref(field, [list(r) + [b] for r, b in zip(a_rows, rhs)])
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for row, c in zip(red, pivots):
        x[c] = row[ncols]
    return x


def reference_coordinate_complement(L, h):
    """The basis indices i, in order, whose unit vector raises the dimension
    of the span of h's basis and the unit vectors kept so far; one Subspace
    per index."""
    idxs = []
    span = list(h.basis)
    cur = h.dim
    for i in range(L.dim):
        cand = Subspace(L.field, L.dim, span + [L.basis_vector(i)])
        if cand.dim > cur:
            idxs.append(i)
            span.append(L.basis_vector(i))
            cur = cand.dim
    return tuple(idxs)


def reference_gamma_shift(h, gamma, k):
    """The k-th iterated derivative of h along gamma by the wrapped loop:
    each step sums gamma_i times the partial derivative in x_i."""
    out = h
    for _ in range(k):
        acc = PolyElement.zero(h.field, h.nvars, h.laurent)
        for i in range(h.nvars):
            c = gamma.coords[i]
            if not c.is_zero:
                acc = acc + out.partial(i) * c
        out = acc
    return out


# -- reference bracket and membership -------------------------------------------
# The dense path: a bracket wrapped coordinate by coordinate, then tested for
# membership by clearing the wrapped vector and reducing it against every
# basis row. The cleared brackets, membership and coordinates of
# lieshift.liealg are checked against it.


def reference_bracket(L, a, b):
    """[a, b] by the dense loop over the structure table, on wrapped scalars."""
    out = [L.field.zero] * L.dim
    for (i, j), comp in L.table.items():
        c = a[i] * b[j] - a[j] * b[i]
        if c.is_zero:
            continue
        for k, s in comp.items():
            out[k] = out[k] + c * s
    return tuple(out)


def reference_coordinates_by_residual(S, v):
    """Coordinates of the wrapped vector v in S's echelon basis, or None.

    v is cleared to numerators x, and for each basis row b, cleared to a ring
    row r with pivot entry r[p], the residual becomes r[p] x - x[p] r; v lies
    in S exactly when the residual ends at zero, and then c_i = v[p] / b[p]."""
    F = S.field
    acc = F.clear(list(v))[1]
    for b, p in zip(S.basis, S.pivots):
        row = F.clear(list(b))[1]
        a = acc[p]
        if a:
            acc = [row[p] * y - a * r for y, r in zip(acc, row)]
    if any(acc):
        return None
    return [v[p] / b[p] for b, p in zip(S.basis, S.pivots)]


# -- reference structure checks ------------------------------------------------
# The dense Killing restriction that is_reductive used before it took the
# Killing form of the ideal itself, and the sampled stabilizer dimension
# that the abelian reduction used before it took one rank over the function
# field; the library's answers are checked against them.


def reference_killing_nondegenerate_on(L, S):
    """Is the Gram matrix S K S^T of L's Killing form K on S's basis, summed
    densely over K, of full rank (by the reference rref)?"""
    if S.dim == 0:
        return True
    K = killing_matrix(L)
    F = L.field
    rows = []
    for u in S.basis:
        row = []
        for w in S.basis:
            s = F.zero
            for a, ca in enumerate(u):
                if ca.is_zero:
                    continue
                for b, cb in enumerate(w):
                    if not cb.is_zero and not K[a][b].is_zero:
                        s = s + ca * cb * K[a][b]
            row.append(s)
        rows.append(row)
    return len(rref(F, rows)[1]) == S.dim


def reference_min_stabilizer_dim(L, h, sampling):
    """dim L less the largest rank of the form alpha([x_i, eta]) (one row
    per basis vector eta of h) at the points alpha of h* that ``sampling``
    draws from streams 90_000 onward; a sampled rank can only undershoot
    the generic one."""
    F = L.field
    ad = [
        [h.coordinates(bracket(L, L.basis_vector(i), eta)) for i in range(L.dim)]
        for eta in h.basis
    ]

    def stabilizer_form(alpha):
        return [
            [sum([c * a for c, a in zip(coords, alpha)], F.zero) for coords in ad_e]
            for ad_e in ad
        ]

    best = max(
        len(rref(F, stabilizer_form(sampling.point(F, h.dim, 90_000 + i)))[1])
        for i in range(sampling.samples)
    )
    return L.dim - best


def permuted(L, perm):
    """The same algebra with basis vector i renamed perm[i]."""
    labels = [None] * L.dim
    for i, lab in enumerate(L.labels):
        labels[perm[i]] = lab
    table = {}
    for (i, j), comp in L.table.items():
        a, b = perm[i], perm[j]
        sign = 1 if a < b else -1
        table[(min(a, b), max(a, b))] = {perm[k]: c * sign for k, c in comp.items()}
    return LieAlgebra(L.field, labels, table)


def permuted_poly(f, perm):
    """f with variable i renamed perm[i], as ``permuted`` renames the basis."""
    terms = {}
    for e, c in f.terms.items():
        out = [0] * f.nvars
        for i, a in enumerate(e):
            out[perm[i]] = a
        terms[tuple(out)] = c
    return PolyElement(f.field, f.nvars, terms)


def reference_symmetric_invariants(L, max_deg):
    """The invariant search with a column for every monomial, weight or not:
    degree by degree, the kernel of m -> ({x_i, m})_i."""
    F = L.field
    xs = [PolyElement.variable(F, L.dim, i) for i in range(L.dim)]
    out = []
    for d in range(1, max_deg + 1):
        monos = list(monomials_of_degree(L.dim, d))
        images = []
        for e in monos:
            m = PolyElement(F, L.dim, {e: F.one})
            images.append({
                (i, oe): c for i, x in enumerate(xs) for oe, c in poisson(L, x, m).terms.items()
            })
        for coeffs in kernel_of_images(F, images):
            terms = {e: c for e, c in zip(monos, coeffs) if not c.is_zero}
            out.append(PolyElement(F, L.dim, terms))
    return out


# -- reference correction map and substitution ---------------------------------
# The correction map, generator substitution and lift from a reduced algebra
# on wrapped elements: every bracket, product and sum is a PBWElement. The
# numerator-ring paths of lieshift.construct and lieshift.pbw are checked
# against them.


def reference_hat(L, split, xi, alg):
    """hat(xi) = xi + (1/2z) sum_i ([xi, x_i] y_i - [xi, y_i] x_i) in alg, the
    hat algebra of the split: 2k wrapped brackets, 2k products and sums, one
    product by the wrapped 1/(2z)."""
    zi = next(k for k, c in enumerate(split.z) if not c.is_zero)
    half_zinv = alg.gen(zi, -1) * alg.field.rational(1, 2) * split.z[zi].inverse()
    corr = alg.zero()
    for x_i, y_i in zip(split.x, split.y):
        bx = alg.from_vector(bracket(L, xi, x_i))
        by = alg.from_vector(bracket(L, xi, y_i))
        corr = corr + bx * alg.from_vector(y_i) - by * alg.from_vector(x_i)
    return alg.from_vector(xi) + half_zinv * corr


def reference_substitute(u, images, target_alg, coeff_to_elem=None):
    """The image of u with images[i] for generator i, monomial by monomial in
    the source normal order, each coefficient sent by coeff_to_elem (the
    scalar embedding by default) and multiplied on the left."""
    src = u.alg
    if coeff_to_elem is None:
        coeff_to_elem = lambda c: target_alg.one() * c
    total = target_alg.zero()
    order = sorted(range(src.dim), key=lambda i: src._pos[i])
    for exps, c in u.terms.items():
        acc = coeff_to_elem(c)
        for i in order:
            for _ in range(exps[i]):
                acc = acc * images[i]
        total = total + acc
    return total


def reference_lift_from_hat(hat, u, target_alg):
    """lift_from_hat on wrapped elements: u times the least common
    denominator of its coefficients, each polynomial coefficient c(w) sent to
    the sum of its terms g h^beta over the ideal basis h, each section to the
    sum of c_i(h) x_i, and the result by ``reference_substitute``."""
    from sympy import Poly, Rational, symbols

    F2 = hat.base_field
    base = F2.base
    w = symbols(F2.variables)
    # the least common denominator in w over the level below, its leading
    # coefficient in w divided out
    d, _ = F2.clear(u.terms.values())
    lead = Poly(d.as_expr(), *w).LC(order="grlex")
    cleared = u * F2.from_cleared(d, F2.domain.field.ring(lead))
    h_elems = [target_alg.from_vector(v) for v in hat.h.basis]

    def ground(expr):
        """A sympy expression, a polynomial in the variables below w, as an
        element of base."""
        if base.level == 0:
            q = Rational(expr)
            return base.rational(int(q.p), int(q.q))
        return base.from_cleared(base.domain.field.ring(expr), 1)

    def coeff_img(c):
        # c = numer / den with den in the variables below w
        den, (numer,) = F2.clear([c])
        out = target_alg.zero()
        for exps, g in Poly(numer.as_expr(), *w).terms():
            term = target_alg.one() * (ground(g) / ground(den.as_expr()))
            for t, e in enumerate(exps):
                for _ in range(e):
                    term = term * h_elems[t]
            out = out + term
        return out

    images = []
    for sec in hat.sections:
        img = target_alg.zero()
        for i, c in enumerate(sec):
            if not c.is_zero:
                img = img + coeff_img(c) * target_alg.gen(i)
        images.append(img)
    images.append(target_alg.one())
    return reference_substitute(cleared, images, target_alg, coeff_to_elem=coeff_img)


def random_pbw_element(draw, alg, scalar, terms=3, max_deg=3):
    """A nonzero element of alg without formal inverses: 1 to terms monomials
    of total degree at most max_deg, coefficients from scalar(); draw(n) is
    an int in range(n + 1)."""
    out = alg.zero()
    for _ in range(draw(terms - 1) + 1):
        exps = [0] * alg.dim
        for _ in range(draw(max_deg)):
            exps[draw(alg.dim - 1)] += 1
        out = out + alg.element({tuple(exps): scalar()})
    return out if not out.is_zero else alg.one()


# -- reference gcd over Z ----------------------------------------------------------


def reference_prs_gcd(field, a, b):
    """The monic gcd of numerator-ring values a and b of a field above level
    0 by a subresultant PRS over Z, each value taken to Z in every tower
    variable and back through a sympy expression."""
    from sympy.polys.domains import ZZ
    from sympy.polys.orderings import grlex
    from sympy.polys.rings import PolyRing

    R = PolyRing(field.all_variables(), ZZ, grlex)
    A, B = [R(p.as_expr().as_numer_denom()[0]) for p in (a, b)]
    g = R.dmp_rr_prs_gcd(A, B)[0]
    return field.domain.field.ring(g.as_expr()).monic()
