"""Randomized property suites, each over at least 100 seeded cases."""

import random
import sys
from fractions import Fraction
from itertools import permutations
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from factories import (
    PRESET_POOL,
    random_poly,
    random_preset_algebra,
    random_vector,
    reference_coordinate_complement,
    reference_gamma_shift,
    reference_partial,
)
from lieshift.construct import _coordinate_complement, construct_theorem, mf_subalgebra
from lieshift.fields import QQ, FieldError
from lieshift.invariants import b_of, index_of, is_regular, trdeg_jacobian
from lieshift.linalg import kernel_basis, kernel_of_images, rank
from lieshift.liealg import (
    LieAlgebra,
    LinearForm,
    Subspace,
    _basis_brackets,
    _supports,
    _wrapped,
    bracket,
    coadjoint_form,
    direct_sum,
    killing_matrix,
    vec,
)
from lieshift.pbw import _LIMIT, EnvelopingAlgebra, commutator, principal_symbol, symmetrize
from lieshift.polyring import PolyElement, gamma_shift, poisson
from lieshift.presets import preset


def test_bracket_antisymmetry_and_jacobi():
    rng = random.Random(101)
    cases = 0
    while cases < 100:
        _, L = random_preset_algebra(rng)
        a = random_vector(rng, L.field, L.dim)
        b = random_vector(rng, L.field, L.dim)
        c = random_vector(rng, L.field, L.dim)
        ab = bracket(L, a, b)
        ba = bracket(L, b, a)
        assert ab == tuple(-x for x in ba)
        s = bracket(L, ab, c)
        s = tuple(x + y for x, y in zip(s, bracket(L, bracket(L, b, c), a)))
        s = tuple(x + y for x, y in zip(s, bracket(L, bracket(L, c, a), b)))
        assert all(x.is_zero for x in s)
        cases += 1
    assert cases == 100


def test_poisson_leibniz_and_jacobi():
    rng = random.Random(202)
    cases = 0
    while cases < 100:
        _, L = random_preset_algebra(rng)
        n = L.dim
        F = random_poly(rng, n, 2, terms=3)
        G = random_poly(rng, n, 2, terms=3)
        H = random_poly(rng, n, 2, terms=3)
        assert poisson(L, F, G) == -poisson(L, G, F)
        assert poisson(L, F, G * H) == poisson(L, F, G) * H + G * poisson(L, F, H)
        s = poisson(L, poisson(L, F, G), H)
        s = s + poisson(L, poisson(L, G, H), F)
        s = s + poisson(L, poisson(L, H, F), G)
        assert s.is_zero
        cases += 1
    assert cases == 100


def test_symbol_of_symmetrization_is_identity():
    rng = random.Random(303)
    cases = 0
    while cases < 100:
        _, L = random_preset_algebra(rng)
        A = EnvelopingAlgebra(L)
        p = random_poly(rng, L.dim, 4, terms=3)
        top = p.top_part()
        assert principal_symbol(symmetrize(A, top)) == top
        cases += 1
    assert cases == 100


def test_symmetrization_equivariance():
    rng = random.Random(404)
    cases = 0
    while cases < 100:
        _, L = random_preset_algebra(rng)
        A = EnvelopingAlgebra(L)
        F = random_poly(rng, L.dim, 3, terms=3)
        i = rng.randrange(L.dim)
        xi_poly = PolyElement.variable(QQ, L.dim, i)
        lhs = symmetrize(A, poisson(L, xi_poly, F))
        rhs = commutator(A.gen(i), symmetrize(A, F))
        assert lhs == rhs
        cases += 1
    assert cases == 100


def test_symbol_multiplicativity():
    rng = random.Random(505)
    cases = 0
    while cases < 100:
        _, L = random_preset_algebra(rng)
        A = EnvelopingAlgebra(L)
        u = symmetrize(A, random_poly(rng, L.dim, 3, terms=2))
        v = symmetrize(A, random_poly(rng, L.dim, 3, terms=2))
        if u.is_zero or v.is_zero:
            continue
        assert principal_symbol(u * v) == principal_symbol(u) * principal_symbol(v)
        cases += 1
    assert cases == 100


def test_trdeg_bounded_by_b_on_certified_sets():
    cases = 0
    # every full construction stays within the bound
    for name in PRESET_POOL:
        P = preset(name)
        cert = construct_theorem(P.algebra, casimirs=P.casimirs or None)
        assert cert.trdeg.value <= b_of(P.algebra)
        cases += 1
    # shifted families at randomized regular forms do too
    rng = random.Random(606)
    reductive = ("sl2", "so3", "gl2", "so4", "sl3")
    while cases < 105:
        name = reductive[rng.randrange(len(reductive))]
        P = preset(name)
        L = P.algebra
        gamma = LinearForm(QQ, random_vector(rng, QQ, L.dim, bound=50))
        if not is_regular(L, gamma):
            continue
        out = mf_subalgebra(L, P.casimirs, gamma)
        assert trdeg_jacobian(out).value <= b_of(L)
        cases += 1
    assert cases >= 105


def test_index_additivity_on_direct_sums():
    rng = random.Random(707)
    pool = [n for n in PRESET_POOL if preset(n).algebra.dim <= 6]
    cases = 0
    while cases < 100:
        n1 = pool[rng.randrange(len(pool))]
        n2 = pool[rng.randrange(len(pool))]
        L1, L2 = preset(n1).algebra, preset(n2).algebra
        s = direct_sum(L1, L2)
        assert index_of(s).value == index_of(L1).value + index_of(L2).value, (n1, n2)
        cases += 1
    assert cases == 100


# -- raw-coefficient kernels against wrapped references -------------------------
#
# The kernels in liealg.bracket, polyring.poisson and pbw.commutator compute on
# kernel values: integers over one denominator at level 0, raw domain values
# above. Each reference below uses FieldElement arithmetic only and
# shares no code with its kernel; results must agree by ==, hash and render.
# Cases cycle over level 0, a level-1 field Q(t) whose structure constants and
# coefficients carry non-monic denominators, and a Laurent central z with
# negative exponents (at both levels).

QT = QQ.extend("t")
KERNEL_SETTINGS = ((QQ, False), (QT, False), (QQ, True), (QT, True))
LAURENT_POOL = ["heisenberg1", "heisenberg2", "sl2-semidirect-h3"]


def _random_scalar(rng, F):
    if F.level == 0:
        return QQ.rational(rng.randint(-9, 9), rng.randint(1, 5))
    t = F.var("t")
    num = F.from_int(rng.randint(-4, 4)) * t + rng.randint(-4, 4)
    den = F.from_int(rng.choice((2, 3, 5))) * t * t + rng.randint(1, 4)
    return num / den


def _nonzero_scalar(rng, F):
    while True:
        c = _random_scalar(rng, F)
        if not c.is_zero:
            return c


def _kernel_algebra(rng, setting):
    """(L, Laurent index or None): a preset, rescaled over Q(t) at level 1."""
    F, laurent = KERNEL_SETTINGS[setting % len(KERNEL_SETTINGS)]
    _, L = random_preset_algebra(rng, LAURENT_POOL if laurent else None)
    z = max(L.central_indices()) if laurent else None
    if F.level == 0:
        return L, z
    return _rescaled(rng, L, F), z


def _rescaled(rng, L, F):
    """L over F in the basis s_i x_i for random nonzero scalars s_i of F."""
    # x_i -> s_i x_i keeps Jacobi: c_ij^k becomes s_i s_j c_ij^k / s_k
    s = [_nonzero_scalar(rng, F) for _ in range(L.dim)]
    table = {
        (i, j): {k: s[i] * s[j] * F.lift(c) / s[k] for k, c in comp.items()}
        for (i, j), comp in L.table.items()
    }
    ann = {"central": L.central_indices()} if L.central_indices() else {}
    return LieAlgebra(F, L.labels, table, ann)


def _random_exps(rng, n, z, max_deg):
    e = [0] * n
    for _ in range(rng.randint(0, max_deg)):
        e[rng.randrange(n)] += 1
    if z is not None:
        e[z] = rng.randint(-2, 2)
    return tuple(e)


def _random_kernel_poly(rng, L, z, max_deg=3):
    laurent = frozenset() if z is None else {z}
    terms = {
        _random_exps(rng, L.dim, z, max_deg): _random_scalar(rng, L.field)
        for _ in range(rng.randint(1, 3))
    }
    return PolyElement(L.field, L.dim, terms, laurent)


def _sparse_vector(rng, F, n):
    return tuple(_random_scalar(rng, F) if rng.random() < 0.6 else F.zero for _ in range(n))


def _random_pbw(rng, A, z, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        terms[_random_exps(rng, A.dim, z, max_deg)] = _random_scalar(rng, A.field)
    return A.element(terms)


def _same(new, ref, render):
    assert new == ref
    assert hash(new) == hash(ref)
    assert render(new) == render(ref)
    # kernels compute on integers at level 0 but return Fraction scalars
    scalars = new.terms.values() if hasattr(new, "terms") else (
        new if isinstance(new, tuple) else (new,))
    assert all(type(c.raw) is Fraction for c in scalars if c.field.level == 0)


def _ref_bracket(L, a, b):
    """The dense structure-table loop."""
    out = [L.field.zero] * L.dim
    for (i, j), comp in L.table.items():
        c = a[i] * b[j] - a[j] * b[i]
        if c.is_zero:
            continue
        for k, s in comp.items():
            out[k] = out[k] + c * s
    return tuple(out)


def _ref_poisson(L, f, g):
    """sum over i < j of (df/dx_i dg/dx_j - df/dx_j dg/dx_i) [x_i, x_j]."""
    n = L.dim
    out = PolyElement.zero(L.field, n, f.laurent | g.laurent)
    for (i, j), comp in L.table.items():
        a = (reference_partial(f, i) * reference_partial(g, j)
             - reference_partial(f, j) * reference_partial(g, i))
        lin = PolyElement(
            L.field, n, {tuple(int(t == k) for t in range(n)): c for k, c in comp.items()}
        )
        out = out + a * lin
    return out


def _ref_normal_word(L, pos, word, memo):
    """Normal-ordered expansion of a word of generators, by adjacent swaps
    x_p x_q = x_q x_p + [x_p, x_q]; coefficients as FieldElements."""
    hit = memo.get(word)
    if hit is not None:
        return hit
    out = {}
    for t in range(len(word) - 1):
        p, q = word[t], word[t + 1]
        if pos[p] > pos[q]:
            parts = [(L.field.one, word[:t] + (q, p) + word[t + 2 :])]
            for k, c in L.bracket_basis(p, q).items():
                parts.append((c, word[:t] + (k,) + word[t + 2 :]))
            for c, w in parts:
                for m, cm in _ref_normal_word(L, pos, w, memo).items():
                    out[m] = out.get(m, L.field.zero) + c * cm
            break
    else:
        exps = [0] * L.dim
        for p in word:
            exps[p] += 1
        out[tuple(exps)] = L.field.one
    memo[word] = out
    return out


def _ref_order(A):
    """(non-central indices, central indices, position of each index) in the
    documented normal order: input order, central generators last."""
    cen = set(A.laurent | A.L.central_indices())
    rest = [i for i in range(A.dim) if i not in cen]
    return rest, cen, {i: p for p, i in enumerate(rest + sorted(cen))}


def _ref_product(u, v):
    A = u.alg
    L = A.L
    rest, cen, pos = _ref_order(A)
    memo = {}
    terms = {}
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            word = tuple(i for m in (m1, m2) for i in rest for _ in range(m[i]))
            shift = [m1[i] + m2[i] if i in cen else 0 for i in range(L.dim)]
            for m, c in _ref_normal_word(L, pos, word, memo).items():
                key = tuple(x + y for x, y in zip(m, shift))
                terms[key] = terms.get(key, L.field.zero) + c1 * c2 * c
    return A.element(terms)


def test_bracket_matches_dense_table_loop():
    rng = random.Random(808)
    for case in range(120):
        L, _ = _kernel_algebra(rng, case)
        a = _sparse_vector(rng, L.field, L.dim)
        b = _sparse_vector(rng, L.field, L.dim)
        _same(bracket(L, a, b), _ref_bracket(L, a, b), lambda v: [str(c) for c in v])


def test_poisson_matches_partial_derivative_formula():
    rng = random.Random(909)
    for case in range(120):
        L, z = _kernel_algebra(rng, case)
        f = _random_kernel_poly(rng, L, z)
        g = _random_kernel_poly(rng, L, z)
        _same(poisson(L, f, g), _ref_poisson(L, f, g), lambda p: p.render(L.labels))


def test_commutator_matches_reference_straightening():
    rng = random.Random(1010)
    for case in range(120):
        L, z = _kernel_algebra(rng, case)
        A = EnvelopingAlgebra(L, () if z is None else (z,))
        u = _random_pbw(rng, A, z, 3)
        v = _random_pbw(rng, A, z, 2)
        ref = _ref_product(u, v) - _ref_product(v, u)
        _same(commutator(u, v), ref, lambda w: w.render())
        _same(u * v - v * u, ref, lambda w: w.render())
        _same(u * v, _ref_product(u, v), lambda w: w.render())


# -- the packed monomials of pbw ------------------------------------------------
#
# Inside the kernels a monomial is one int with a 16-bit field per generator
# in normal order, central fields on top and signed. These cases aim at the
# layout: two central generators with negative exponents in one monomial,
# central generators that are not last in input order, central exponents
# that cancel, and the exponent-range guard.


def _permuted(L, perm):
    """L with basis vector i renamed perm[i]; the annotated centre follows."""
    table = {}
    for (i, j), comp in L.table.items():
        a, b = perm[i], perm[j]
        sign = 1 if a < b else -1
        table[(min(a, b), max(a, b))] = {perm[k]: c * sign for k, c in comp.items()}
    labels = [None] * L.dim
    for i, lab in enumerate(L.labels):
        labels[perm[i]] = lab
    return LieAlgebra(L.field, labels, table, {"central": {perm[z] for z in L.central_indices()}})


def _packed_algebra(name):
    """Heisenberg algebras whose centres leave input order in the packed
    layout: two centres, the first (index 2) not last; one centre at index
    0; the same two centres in a basis where both come first."""
    H = preset("heisenberg1").algebra  # x1, y1, z
    two = direct_sum(H, H)  # x1, y1, z, x1', y1', z'
    return {
        "two-centres": two,
        "centre-first": _permuted(H, [1, 2, 0]),
        "centres-first": _permuted(two, [2, 3, 0, 4, 5, 1]),
    }[name]


PACKED_CASES = ["two-centres", "centre-first", "centres-first"]


def _random_laurent_pbw(rng, A, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = [0] * A.dim
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(A.dim)] += 1
        for z in A.laurent:
            e[z] = rng.randint(-3, 3)
        terms[tuple(e)] = _random_scalar(rng, A.field)
    return A.element(terms)


@pytest.mark.parametrize("name", PACKED_CASES)
def test_packed_products_match_reference_with_inverted_centres(name):
    rng = random.Random(1414)
    L = _packed_algebra(name)
    A = EnvelopingAlgebra(L, L.central_indices())
    assert A._order != list(range(L.dim))
    negative_pairs = 0
    for case in range(40):
        u = _random_laurent_pbw(rng, A, 3)
        v = _random_laurent_pbw(rng, A, 2)
        negative_pairs += any(
            sum(e[z] < 0 for z in A.laurent) >= 2 for e in u.terms
        )
        uv, vu = _ref_product(u, v), _ref_product(v, u)
        _same(u * v, uv, lambda w: w.render())
        _same(commutator(u, v), uv - vu, lambda w: w.render())
    if len(A.laurent) == 2:
        assert negative_pairs >= 5


@pytest.mark.parametrize("name", PACKED_CASES)
def test_packed_central_exponents_cancel(name):
    L = _packed_algebra(name)
    A = EnvelopingAlgebra(L, L.central_indices())
    ix, iy = L.labels.index("x1"), L.labels.index("y1")
    x, y = A.gen(ix), A.gen(iy)
    zs = [A.gen(z) for z in sorted(A.laurent)]
    zinv = [A.gen(z, -1) for z in sorted(A.laurent)]
    u, v = x, y
    for z, w in zip(zs, zinv):
        u, v = u * w * w, v * z * z
    # every central exponent cancels: the product is x*y with no z left
    assert u * v == x * y == _ref_product(u, v)
    assert (u * v).terms == {tuple([int(i in (ix, iy)) for i in range(L.dim)]): QQ.one}
    assert (v * u) == y * x == _ref_product(v, u)


def test_packed_exponent_guard_is_exact():
    """A product straightens while its factors' absolute exponents sum to at
    most the signed field limit, and is a FieldError one past it: it never
    returns a product whose exponent carried into the next field."""
    sl2 = EnvelopingAlgebra(preset("sl2").algebra)
    h = lambda k: sl2.gen(0, k)
    assert (h(_LIMIT - 5) * h(5)).terms == {(_LIMIT, 0, 0): QQ.one}
    with pytest.raises(FieldError, match="packed range"):
        h(_LIMIT - 4) * h(5)
    with pytest.raises(FieldError, match="packed range"):
        commutator(h(_LIMIT), sl2.gen(1))
    x = PolyElement.variable(QQ, 3, 0)
    assert symmetrize(sl2, x**_LIMIT) == h(_LIMIT)
    with pytest.raises(FieldError, match="packed range"):
        symmetrize(sl2, x ** (_LIMIT + 1))
    # signed central fields: the lower centre (index 2) of two, at the limit
    # from below and one past it, where a wrapped field would borrow from z'
    two = EnvelopingAlgebra(_packed_algebra("two-centres"), (2, 5))
    z = lambda k: two.gen(2, k)
    xz = two.gen(0) * z(-(_LIMIT - 4))
    _same(xz * z(-3), _ref_product(xz, z(-3)), lambda w: w.render())
    assert (xz * z(-3)).terms == {(1, 0, -(_LIMIT - 1), 0, 0, 0): QQ.one}
    with pytest.raises(FieldError, match="packed range"):
        xz * z(-4)
    with pytest.raises(FieldError, match="packed range"):
        commutator(z(-_LIMIT), two.gen(5, -1))


def _sl2_closed_forms(A, n):
    """(i, j, x_i x_j^n) in U(sl2), basis h, e, f with [h, e] = 2e,
    [h, f] = -2f, [e, f] = h: e h^n = (h - 2)^n e, f h^n = (h + 2)^n f and
    f e^n = e^n f - n h e^(n-1) + n(n-1) e^(n-1)."""
    assert A.L.labels == ("h", "e", "f") and sorted(A.L.table) == [(0, 1), (0, 2), (1, 2)]

    def shifted(s, letter):
        return A.element({
            (k, int(letter == 1), int(letter == 2)): comb(n, k) * s ** (n - k)
            for k in range(n + 1)
        })

    fe = {(0, n, 1): 1, (1, n - 1, 0): -n}
    if n > 1:
        fe[(0, n - 1, 0)] = n * (n - 1)
    return [(1, 0, shifted(-2, 1)), (2, 0, shifted(2, 2)), (2, 1, A.element(fe))]


def test_long_straightening_chains_need_no_deep_stack():
    """A product whose straightening chains a thousand swaps returns its
    value at the default recursion limit. The closed forms agree with the
    word-rewriting reference where it is tractable; at n = 1000 it would
    visit about half a million words of a thousand letters."""
    for n in (1, 2, 6):
        A = EnvelopingAlgebra(preset("sl2").algebra)
        for i, j, want in _sl2_closed_forms(A, n):
            _same(A.gen(i) * A.gen(j, n), want, lambda w: w.render())
            assert _ref_product(A.gen(i), A.gen(j, n)) == want
    assert sys.getrecursionlimit() <= 1000
    for k in range(3):
        A = EnvelopingAlgebra(preset("sl2").algebra)
        i, j, want = _sl2_closed_forms(A, 1000)[k]
        assert A.gen(i) * A.gen(j, 1000) == want


def _ref_symmetrize(A, p):
    """Each monomial of p times 1/k! summed over all k! orderings of its word."""
    L = A.L
    _, _, pos = _ref_order(A)
    memo = {}
    terms = {}
    for exps, c in p.terms.items():
        word = tuple(i for i in range(L.dim) for _ in range(exps[i]))
        w = c / factorial(len(word))
        for perm in permutations(word):
            for m, cm in _ref_normal_word(L, pos, perm, memo).items():
                terms[m] = terms.get(m, L.field.zero) + w * cm
    return A.element(terms)


def test_kernels_match_references_on_rescaled_level0_bases():
    """Products, commutators and symmetrization over Q where the structure
    constants have denominators: the kernels straighten on the integral
    table of a rescaled basis, the references on the constants as given."""
    rng = random.Random(1212)
    fractional = 0
    for case in range(80):
        laurent = case % 2 == 1
        _, L0 = random_preset_algebra(rng, LAURENT_POOL if laurent else None)
        L = _rescaled(rng, L0, QQ)
        fractional += any(
            c.as_rational()[1] != 1 for comp in L.table.values() for c in comp.values()
        )
        z = max(L.central_indices()) if laurent else None
        A = EnvelopingAlgebra(L, () if z is None else (z,))
        u = _random_pbw(rng, A, z, 3)
        v = _random_pbw(rng, A, z, 2)
        uv, vu = _ref_product(u, v), _ref_product(v, u)
        _same(u * v, uv, lambda w: w.render())
        _same(commutator(u, v), uv - vu, lambda w: w.render())
        p = _random_kernel_poly(rng, L, z)
        p = PolyElement(
            L.field, L.dim, {tuple(map(abs, e)): c for e, c in p.terms.items()}, p.laurent
        )
        _same(symmetrize(A, p), _ref_symmetrize(A, p), lambda w: w.render())
    assert fractional >= 60


def test_symmetrize_matches_reference_on_repeated_letters():
    """Symmetrization sums x * S(m / x) over the distinct letters x of m;
    the reference sums over every ordering of the word. Monomials with
    repeated letters, the annotated centre among them, in bases whose
    normal order is not input order."""
    rng = random.Random(1515)
    algebras = [
        preset("sl2").algebra,
        _permuted(preset("sl3").algebra, [3, 7, 0, 5, 1, 6, 2, 4]),
        *[_packed_algebra(name) for name in PACKED_CASES],
    ]
    central = repeated = 0
    for case in range(120):
        L = algebras[case % len(algebras)]
        A = EnvelopingAlgebra(L, L.central_indices() if case % 2 else ())
        terms = {}
        for _ in range(rng.randint(1, 2)):
            e = [0] * L.dim
            for i in rng.sample(range(L.dim), rng.randint(1, min(3, L.dim))):
                e[i] = rng.randint(1, 3)
            while sum(e) > 6:
                e[max(range(L.dim), key=e.__getitem__)] -= 1
            terms[tuple(e)] = _nonzero_scalar(rng, QQ)
            central += any(e[z] for z in L.central_indices())
            repeated += max(e) > 1
        p = PolyElement(QQ, L.dim, terms)
        _same(symmetrize(A, p), _ref_symmetrize(A, p), lambda w: w.render())
    assert central >= 20 and repeated >= 60


@st.composite
def shift_inputs(draw):
    """(h, gamma, k) over Q or Q(t), in 1 to 4 variables, with at most one
    Laurent index carrying exponents from -2 to 2; gamma has zero entries."""
    F = draw(st.sampled_from((QQ, QT)))
    n = draw(st.integers(1, 4))
    z = draw(st.sampled_from((None,) + tuple(range(n))))

    def scalar():
        p, q = draw(st.integers(-9, 9)), draw(st.integers(1, 5))
        if F.level == 0:
            return QQ.rational(p, q)
        t = F.var("t")
        return (t * p + draw(st.integers(-4, 4))) / (t * t * q + draw(st.integers(1, 4)))

    def exps():
        e = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        if z is not None:
            e[z] = draw(st.integers(-2, 2))
        return tuple(e)

    terms = {exps(): scalar() for _ in range(draw(st.integers(0, 4)))}
    h = PolyElement(F, n, terms, () if z is None else (z,))
    gamma = LinearForm(F, [scalar() if draw(st.booleans()) else F.zero for _ in range(n)])
    return h, gamma, draw(st.integers(0, 4))


@settings(max_examples=150, deadline=None)
@given(shift_inputs())
def test_gamma_shift_matches_the_partial_loop(case):
    h, gamma, k = case
    got, ref = gamma_shift(h, gamma, k), reference_gamma_shift(h, gamma, k)
    assert got.field is h.field and got.nvars == h.nvars and got.laurent == h.laurent
    _same(got, ref, lambda p: p.render(["x%d" % i for i in range(p.nvars)]))


def test_basis_brackets_and_coadjoint_form_match_the_dense_loop():
    rng = random.Random(1414)
    for case in range(100):
        L, _ = _kernel_algebra(rng, case)
        w = _sparse_vector(rng, L.field, L.dim)
        images = [_wrapped(L, b) for b in _basis_brackets(L, _supports(L, (w,))[0])]
        assert len(images) == L.dim
        for i, b in enumerate(images):
            _same(b, _ref_bracket(L, L.basis_vector(i), w), lambda v: [str(c) for c in v])
        gamma = LinearForm(L.field, _sparse_vector(rng, L.field, L.dim))
        form = coadjoint_form(L, gamma)
        for i in range(L.dim):
            for j in range(L.dim):
                b = _ref_bracket(L, L.basis_vector(i), L.basis_vector(j))
                ref = sum((c * x for c, x in zip(gamma.coords, b)), L.field.zero)
                _same(form[i][j], ref, str)


def _ref_killing(L):
    """tr(ad x_i . ad x_j) from the dense ad matrices, (ad x_i)_kl = c_il^k."""
    n, zero = L.dim, L.field.zero
    ad = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for l in range(n):
            for k, c in L.bracket_basis(i, l).items():
                ad[i][k][l] = c
    return [
        [sum((ad[i][k][l] * ad[j][l][k] for k in range(n) for l in range(n)), zero)
         for j in range(n)]
        for i in range(n)
    ]


def test_killing_matrix_matches_dense_trace():
    """On the kernel settings, and over Q also in a rescaled basis, where the
    structure constants have denominators."""
    rng = random.Random(1515)
    fractional = 0
    for case in range(100):
        L, _ = _kernel_algebra(rng, case)
        algebras = [L] if L.field.level else [L, _rescaled(rng, L, QQ)]
        for M in algebras:
            K, ref = killing_matrix(M), _ref_killing(M)
            for row, ref_row in zip(K, ref):
                _same(tuple(row), tuple(ref_row), lambda v: [str(c) for c in v])
            fractional += any(
                c.field.level == 0 and c.as_rational()[1] != 1 for row in K for c in row
            )
    assert fractional >= 10


def test_coordinate_complement_matches_greedy_loop():
    """Random subspaces over Q and Q(t), of random dimension, against the
    greedy one-Subspace-per-index loop; only dim and field of L are read."""
    rng = random.Random(1616)

    def entry(F):
        c = F.from_int(rng.randint(-3, 3))
        return c * F.var("t") + rng.randint(-3, 3) if F.level else c

    for case in range(120):
        F = QT if case % 2 else QQ
        n = rng.randint(1, 8)
        L = LieAlgebra(F, ["e%d" % i for i in range(n)], {})
        vectors = [
            [entry(F) if rng.random() < 0.5 else F.zero for _ in range(n)]
            for _ in range(rng.randint(1, n))
        ]
        h = Subspace(F, n, vectors)
        comp, reduced = _coordinate_complement(L, h)
        assert comp == reference_coordinate_complement(L, h)
        assert Subspace(F, n, list(h.basis) + [L.basis_vector(i) for i in comp]).dim == n
        # a basis of h, each vector the only one nonzero at its own index
        assert sorted(comp + tuple(l for l, _ in reduced)) == list(range(n))
        assert Subspace(F, n, [v for _, v in reduced]).basis == h.basis
        for l, v in reduced:
            assert [not u[l].is_zero for _, u in reduced].count(True) == 1 and v[l]
    # h = span{e0 + e1}: its pivot column 0 is in the complement, and 1 is not
    for F in (QQ, QT):
        L = LieAlgebra(F, ("a", "b", "c"), {})
        h = Subspace(F, 3, [(1, 1, 0)])
        assert h.pivots == (0,)
        assert _coordinate_complement(L, h)[0] == reference_coordinate_complement(L, h) == (0, 2)


def test_subspace_contains_matches_the_two_rank_span_test():
    """Subspace(rows).contains(v) against rank(rows + [v]) == rank(rows), over
    Q and Q(t), on random combinations of the rows (inside) and on random
    vectors (mostly outside)."""
    rng = random.Random(1717)

    def entry(F):
        c = F.from_int(rng.randint(-3, 3))
        return c * F.var("t") + rng.randint(-3, 3) if F.level else c

    def vector(F, n):
        return tuple(entry(F) if rng.random() < 0.6 else F.zero for _ in range(n))

    inside = outside = 0
    for case in range(120):
        F = QT if case % 2 else QQ
        n = rng.randint(1, 6)
        rows = [list(vector(F, n)) for _ in range(rng.randint(0, n))]
        S = Subspace(F, n, rows)
        candidates = [vector(F, n)]
        if rows:
            coeffs = [entry(F) for _ in rows]
            candidates.append(
                tuple(sum((c * r[k] for c, r in zip(coeffs, rows)), F.zero) for k in range(n))
            )
        for v in candidates:
            ref = rank(F, rows + [list(v)]) == rank(F, rows)
            assert S.contains(v) == ref
            inside += ref
            outside += not ref
    assert inside >= 100 and outside >= 40


def _ref_kernel_of_images(field, images):
    """The dense assembly the bracket kernels used before kernel_of_images:
    one row per key, here in sorted key order, and every unit vector when
    there is no equation."""
    keys = sorted({key for image in images for key in image})
    if not keys:
        return [tuple(field.one if k == j else field.zero for k in range(len(images)))
                for j in range(len(images))]
    rows = [[image.get(key, field.zero) for image in images] for key in keys]
    return kernel_basis(field, rows, len(images))


def test_kernel_of_images_matches_the_dense_assembly():
    """Seeded sparse images over Q and Q(t), with keys shared across images,
    some images empty, and cases with no equation at all."""
    rng = random.Random(1818)
    empty = shared = 0
    for case in range(160):
        F = QT if case % 2 else QQ
        ncols = rng.randint(1, 7)
        pool = [(rng.randrange(3), rng.randrange(4)) for _ in range(rng.randint(0, 6))]
        images = [
            {key: _nonzero_scalar(rng, F) for key in pool if rng.random() < 0.4}
            for _ in range(ncols)
        ]
        got = kernel_of_images(F, images)
        assert [tuple(v) for v in got] == [tuple(v) for v in _ref_kernel_of_images(F, images)]
        for v in got:
            for key in {key for image in images for key in image}:
                assert sum((c * image[key] for c, image in zip(v, images) if key in image),
                           F.zero).is_zero
        empty += not any(images)
        seen = [key for image in images for key in image]
        shared += len(seen) > len(set(seen))
    assert empty >= 10 and shared >= 50
