import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from factories import (
    permuted,
    permuted_poly,
    reference_rank_mod_prime,
    reference_symmetric_invariants,
)
from lieshift import fields
from lieshift.construct import ConstructError, construct_theorem
from lieshift.fields import PRIME, QQ, FieldError
from lieshift.invariants import (
    GeneratorSet,
    Sampling,
    b_of,
    b_rel,
    index_of,
    is_regular,
    monomials_of_degree,
    sample_point,
    sample_seed,
    symmetric_invariants,
    trdeg_jacobian,
)
from lieshift.liealg import LieAlgebra, Subspace, center_of, vec, weights
from lieshift.linalg import rank, rank_mod_prime
from lieshift.pbw import EnvelopingAlgebra
from lieshift.polyring import PolyElement, coefficient_rows, poisson
from lieshift.presets import preset

INDEX_B = {
    "abelian3": (3, 3),
    "aff1": (0, 1),
    "heisenberg1": (1, 2),
    "borel-sl2": (0, 1),
    "borel-sl3": (1, 3),
    "sl2": (1, 2),
    "so3": (1, 2),
    "gl2": (2, 3),
    "sl3": (2, 5),
    "so4": (2, 4),
    "gl3": (3, 6),
    "sl2-semidirect-h3": (2, 4),
    "gl4": (4, 10),
}


def test_index_and_b_tables():
    for name, (ind, b) in INDEX_B.items():
        L = preset(name).algebra
        rep = index_of(L)
        assert rep.value == ind, name
        assert b_of(L) == b, name


def test_index_report_fields():
    rep = index_of(preset("sl2").algebra)
    assert rep.method == "coadjoint-rank-sampling"
    assert rep.seed == 2020 and rep.samples == 5
    assert len(rep.ranks) == 5 and max(rep.ranks) == 2
    assert len(rep.witness) == 3


@pytest.mark.parametrize("kw", [{"samples": 0}, {"samples": -1}, {"bound": 0}, {"bound": -5}])
def test_nonpositive_sampling_arguments_rejected(kw):
    with pytest.raises(ValueError, match="at least 1"):
        Sampling(**kw)
    if "bound" in kw:
        with pytest.raises(ValueError, match="at least 1"):
            sample_point(QQ, 2, 7, kw["bound"])


def test_sampling_draws_the_seeded_streams():
    sampling = Sampling(samples=3, bound=50, seed=7)
    assert sampling.point(QQ, 4, 90_001) == sample_point(QQ, 4, sample_seed(7, 90_001), 50)
    L = preset("sl2").algebra
    rep = index_of(L, sampling)
    assert (rep.seed, rep.samples, len(rep.ranks)) == (7, 3, 3)
    assert rep.witness == sampling.point(QQ, 3, rep.ranks.index(max(rep.ranks)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        sampling.seed = 8
    with pytest.raises(TypeError, match="integers"):
        Sampling(samples=2.5)


def test_sampling_bound_stays_below_half_the_prime():
    # distinct coordinates in [-bound, bound] stay distinct mod p, and a
    # nonzero one stays invertible
    limit = (PRIME - 1) // 2
    assert Sampling(bound=limit - 1).bound == limit - 1
    with pytest.raises(ValueError) as exc:
        Sampling(bound=limit)
    assert str(exc.value) == (
        "bound must be below (p - 1)/2 = 1152921504606846975 for the prime"
        " p = 2^61 - 1, got 1152921504606846975"
    )


QT = QQ.extend("t")
QTS = QT.extend("s")


def _scalar(field):
    """Small nonzero scalars; above level 0, with a non-monic denominator."""
    small = st.integers(-3, 3).filter(bool)
    if field is QQ:
        return st.builds(QQ.rational, small, st.integers(1, 3))
    names = field.all_variables()
    return st.builds(
        lambda a, b, x, c, d, y: (field.from_int(a) + b * field.var(x))
        / (field.from_int(c) + d * field.var(y)),
        small, st.integers(0, 3), st.sampled_from(names),
        st.integers(1, 3), st.integers(0, 2), st.sampled_from(names),
    )


@st.composite
def polynomial_matrices(draw, field, max_dim):
    """(nvars, rows): entries are lists of (exponents, scalar) terms in nvars
    coordinates, the exponent of coordinate 0 possibly -1; a row that is a
    multiple of another is likely."""
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(st.integers(-1, 2), *[st.integers(0, 2)] * (nvars - 1))
    entry = st.lists(st.tuples(exps, _scalar(field)), max_size=2)
    m = draw(st.integers(1, max_dim + 1))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=max_dim))
    if draw(st.booleans()):
        c = draw(_scalar(field))
        rows.append([[(e, c * a) for e, a in terms] for terms in rows[0]])
    return nvars, rows


def _exact_at(field, rows, point):
    """The entries of polynomial_matrices rows at a point, over the field."""
    out = []
    for row in rows:
        vals = []
        for terms in row:
            v = field.zero
            for e, c in terms:
                for x, k in zip(point, e):
                    if k:
                        c = c * x**k
                v = v + c
            vals.append(v)
        out.append(vals)
    return out


def _check_rank_mod_prime(field, drawn, seed):
    nvars, rows = drawn
    _, values = field.clear([c for row in rows for terms in row for _, c in terms])
    it = iter(values)
    poly_rows = [
        [[(tuple([(j, k) for j, k in enumerate(e) if k]), next(it)) for e, _ in terms] for terms in row]
        for row in rows
    ]
    best, witness, ranks = Sampling(samples=1, bound=50, seed=seed).max_rank(
        field, nvars, poly_rows, nonzero=frozenset({0})
    )
    assert ranks == (best,) and not witness[0].is_zero
    exact = rank(field, _exact_at(field, rows, witness))
    assert best <= exact  # a minor nonzero mod p is nonzero over the field
    assert best == exact  # but for a chance of about degree/p


@settings(max_examples=150, deadline=None)
@given(polynomial_matrices(QQ, 3), st.integers(0, 10**6))
def test_rank_mod_prime_matches_rank_level0(drawn, seed):
    _check_rank_mod_prime(QQ, drawn, seed)


@settings(max_examples=50, deadline=None)
@given(polynomial_matrices(QT, 3), st.integers(0, 10**6))
def test_rank_mod_prime_matches_rank_level1(drawn, seed):
    _check_rank_mod_prime(QT, drawn, seed)


@settings(max_examples=20, deadline=None)
@given(polynomial_matrices(QTS, 2), st.integers(0, 10**6))
def test_rank_mod_prime_matches_rank_level2(drawn, seed):
    _check_rank_mod_prime(QTS, drawn, seed)


@st.composite
def sparse_residue_matrices(draw):
    """Rows of residues mod PRIME, each a combination of one to four sparse
    base rows, so that the rank often falls short of the row count; entries
    near 0 and near p included."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0), st.integers(1, 3), st.integers(PRIME - 3, PRIME - 1),
                      st.integers(0, PRIME - 1))
    base = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), min_size=1, max_size=4))
    coeff = st.sampled_from([0, 1, 1, 2, PRIME - 1])
    combos = draw(st.lists(st.lists(coeff, min_size=len(base), max_size=len(base)), min_size=1, max_size=8))
    return [[sum([c * b[j] for c, b in zip(cs, base)]) % PRIME for j in range(ncols)] for cs in combos]


@settings(max_examples=200, deadline=None)
@given(sparse_residue_matrices())
def test_rank_mod_prime_matches_a_dense_elimination(rows):
    assert rank_mod_prime(rows) == reference_rank_mod_prime(rows, PRIME)


def test_rank_mod_prime_small_cases():
    assert rank_mod_prime([]) == 0
    assert rank_mod_prime([[0, 0], [0, 0]]) == 0
    assert rank_mod_prime([[1, 2], [2, 4]]) == 1
    assert rank_mod_prime([[0, 1], [1, 0]]) == 2
    assert rank_mod_prime([[1, PRIME - 1], [PRIME - 1, 1]]) == 1  # x - y twice


def test_a_minor_divisible_by_the_prime_lowers_the_rank_and_the_claim_is_refused():
    # [x, y] = p z: the coadjoint form vanishes mod p, so every sampled rank
    # drops to 0 and the index comes out 3 instead of 1; b = 3 is then a
    # target that no certificate meets, so construction refuses
    L = LieAlgebra(QQ, ["x", "y", "z"], {(0, 1): {2: PRIME}})
    rep = index_of(L)
    assert rep.ranks == (0,) * 5 and rep.value == 3
    with pytest.raises(ConstructError) as exc:
        construct_theorem(L)
    assert str(exc.value) == "certified set has transcendence degree 2 but the target is 3"
    # a Jacobian rank drops too, below the transcendence degree 2
    gens = [PolyElement(QQ, 2, {(1, 0): PRIME}), PolyElement(QQ, 2, {(0, 1): 1})]
    assert trdeg_jacobian(gens).value == 1


def test_residues_reject_a_denominator_divisible_by_p():
    point = fields._residue_point(QTS)
    t, s = QTS.var("t"), QTS.var("s")
    # the denominator t - tau of s / (t - tau) is cleared away, even where
    # t is tau: the cleared value is s
    _, [v] = QTS.clear([s / (t - QTS.from_int(point[0]))])
    assert QTS.residues([v]) == [point[1]]
    # a denominator divisible by p has no residue at any point: an error
    _, [w] = QTS.clear([s / QTS.from_int(PRIME)])
    assert fields._poly_mod(w, point) is None
    with pytest.raises(FieldError) as exc:
        QTS.residues([w])
    assert str(exc.value) == (
        "a coefficient of a value of Q(t)(s) has a denominator divisible by %d" % PRIME
    )
    gens = [PolyElement(QTS, 1, {(1,): QTS.one / QTS.from_int(PRIME)})]
    with pytest.raises(FieldError):
        trdeg_jacobian(gens)


def test_b_of_raises_on_odd_dim_plus_index(monkeypatch):
    # the coadjoint rank is even, so an odd dim + index is a sampling failure
    import lieshift.invariants as inv

    real = inv.index_of
    monkeypatch.setattr(inv, "index_of", lambda *a: dataclasses.replace(real(*a), value=0))
    with pytest.raises(ValueError, match="odd"):
        b_of(preset("sl2").algebra)


def test_sampling_determinism():
    a = sample_point(QQ, 4, sample_seed(2020, 0), 10**4)
    b = sample_point(QQ, 4, sample_seed(2020, 0), 10**4)
    assert a == b
    c = sample_point(QQ, 4, sample_seed(2020, 1), 10**4)
    assert a != c
    nz = sample_point(QQ, 3, sample_seed(1, 2), 100, nonzero=frozenset({1}))
    assert not nz[1].is_zero


def test_b_rel_abelian_subspace():
    # abelian l: b_rel = b(q) - dim l + dim l = b(q)... only when ind l = dim l
    L = preset("sl2").algebra
    h_line = L.span_of_indices([0])
    assert b_rel(L, h_line) == 2  # b(sl2) - b(line) + ind(line) = 2 - 1 + 1
    full = L.span_of_indices([0, 1, 2])
    # l = q gives ind(q) back
    assert b_rel(L, full) == 1


def test_b_rel_on_semidirect():
    L = preset("sl2-semidirect-h3").algebra
    lt = L.span_of_indices([0, 1, 2, 5])  # sl2 + center, reductive of index 2
    assert b_rel(L, lt) == b_of(L) - b_of(preset("gl2").algebra) + 2


def test_monomials_of_degree():
    mons = list(monomials_of_degree(2, 2))
    assert mons == [(2, 0), (1, 1), (0, 2)]
    assert list(monomials_of_degree(3, 0)) == [(0, 0, 0)]
    assert len(list(monomials_of_degree(3, 3))) == 10


def test_symmetric_invariants_sl2():
    L = preset("sl2").algebra
    inv = symmetric_invariants(L, 2)
    assert [p.render(L.labels) for p in inv] == ["h^2 + 4*e*f"]
    assert len(symmetric_invariants(L, 3)) == 1
    for p in inv:
        for i in range(3):
            assert poisson(L, PolyElement.variable(QQ, 3, i), p).is_zero


def test_symmetric_invariants_other():
    L = preset("heisenberg1").algebra
    inv = symmetric_invariants(L, 2)
    assert [p.render(L.labels) for p in inv] == ["z", "z^2"]
    assert symmetric_invariants(preset("borel-sl3").algebra, 4) == []
    B = preset("borel-sl2").algebra
    assert symmetric_invariants(B, 3) == []


def test_symmetric_invariants_golden_gl4_so4():
    # rendered bases pinned before the elimination rescaled rows lazily
    L = preset("gl4").algebra
    assert [p.render(L.labels) for p in symmetric_invariants(L, 2)] == [
        "e11 + e22 + e33 + e44",
        "e11*e22 + e11*e33 + e11*e44 - e12*e21 - e13*e31 - e14*e41 + e22*e33"
        " + e22*e44 - e23*e32 - e24*e42 + e33*e44 - e34*e43",
        "e11^2 + 2*e11*e22 + 2*e11*e33 + 2*e11*e44 + e22^2 + 2*e22*e33"
        " + 2*e22*e44 + e33^2 + 2*e33*e44 + e44^2",
    ]
    L = preset("so4").algebra
    assert [p.render(L.labels) for p in symmetric_invariants(L, 3)] == [
        "m12*m34 - m13*m24 + m14*m23",
        "m12^2 + m13^2 + m14^2 + m23^2 + m24^2 + m34^2",
    ]


def test_weights_read_the_torus_of_the_basis():
    # h is the torus of sl2; so3's basis has none; a central vector adds no
    # weight, and a vector whose ad is not diagonal is no torus vector
    assert weights(preset("sl2").algebra) == [(0,), (2,), (-2,)]
    assert weights(preset("so3").algebra) == [(), (), ()]
    assert weights(preset("heisenberg1").algebra) == [(), (), ()]
    assert weights(preset("aff1").algebra) == [(0,), (1,)]
    gl2 = preset("gl2").algebra
    assert [any(w) for w in weights(gl2)] == [False, True, True, False]
    with_center = LieAlgebra(QQ, ["t", "x", "y", "c"], {(0, 1): {1: 3}, (0, 2): {2: -3}, (1, 2): {0: 1}})
    assert weights(with_center) == [(0,), (3,), (-3,), (0,)]


def _permutations(name, count=2):
    """count seeded permutations of the preset's basis other than the identity."""
    rng = random.Random("graded-" + name)
    n = preset(name).algebra.dim
    out = []
    while len(out) < count:
        perm = list(range(n))
        rng.shuffle(perm)
        if perm != sorted(perm):
            out.append(perm)
    return out


def _span(polys):
    """The rows of the coefficients of polys over the sorted union of their
    monomials, as a canonical subspace with its monomial list."""
    monos = sorted({e for f in polys for e in f.terms})
    return monos, (Subspace(QQ, len(monos), coefficient_rows(polys)) if polys else None)


GRADED_CASES = [(name, perm) for name in ("gl2", "gl3", "sl3", "so4") for perm in _permutations(name)]


@pytest.mark.parametrize("name, perm", GRADED_CASES)
def test_graded_search_matches_the_ungraded_reference_on_permuted_bases(name, perm):
    P = preset(name)
    L, Lp = P.algebra, permuted(P.algebra, perm)
    graded = symmetric_invariants(Lp, 3)
    # the same canonical basis as a column for every monomial
    assert graded == reference_symmetric_invariants(Lp, 3)
    # and, read back in the preset's basis, the same invariants degree by degree
    inverse = [perm.index(i) for i in range(L.dim)]
    back = [permuted_poly(f, inverse) for f in graded]
    ref = reference_symmetric_invariants(L, 3)
    for d in (1, 2, 3):
        assert _span([f for f in back if f.degree() == d]) == _span(
            [f for f in ref if f.degree() == d]
        ), d
    assert center_of(Lp) == Subspace(
        QQ, Lp.dim, [[v[inverse[i]] for i in range(L.dim)] for v in center_of(L).basis]
    )


@pytest.mark.parametrize("name, perm", GRADED_CASES)
def test_construction_on_permuted_bases_reaches_b(name, perm):
    P = preset(name)
    Lp = permuted(P.algebra, perm)
    cert = construct_theorem(Lp, casimirs=[permuted_poly(c, perm) for c in P.casimirs])
    assert cert.trdeg.value == cert.b_target == INDEX_B[name][1]


def test_trdeg_examples():
    L = preset("sl2").algebra
    h = PolyElement.variable(QQ, 3, 0)
    e = PolyElement.variable(QQ, 3, 1)
    f = PolyElement.variable(QQ, 3, 2)
    cas = h * h + e * f * 4
    assert trdeg_jacobian([h, cas]).value == 2
    assert trdeg_jacobian([cas, cas * cas]).value == 1
    assert trdeg_jacobian([]).value == 0


def test_trdeg_mf_family_semidirect():
    # the four-element family from the six-dimensional semidirect product
    L = preset("sl2-semidirect-h3").algebra
    A = EnvelopingAlgebra(L)
    h, e, f, x, y, z = (A.gen(i) for i in range(6))
    half = QQ.rational(1, 2)
    H2 = (
        h * h * z + h * x * y * 2 + e * f * z * 4 + e * y * y * 2 - f * x * x * 2
    )
    gens = [z, x, z * h + x * y, H2]
    assert trdeg_jacobian(gens).value == 4


def test_trdeg_mixed_flavors_via_generator_set():
    L = preset("sl2").algebra
    A = EnvelopingAlgebra(L)
    cas = A.gen(0) ** 2 + A.gen(1) * A.gen(2) * 4 - A.gen(0) * 2
    gs = GeneratorSet(flavor="associative", elements=(cas, A.gen(0)), provenance=("c", "h"))
    assert trdeg_jacobian(gs).value == 2


def test_generator_set_validation():
    L = preset("sl2").algebra
    h = PolyElement.variable(QQ, 3, 0)
    with pytest.raises(ValueError):
        GeneratorSet(flavor="poisson", elements=(h,), provenance=())
    with pytest.raises(ValueError):
        GeneratorSet(flavor="bad", elements=(h,), provenance=("x",))
    with pytest.raises(ValueError):
        GeneratorSet(flavor="poisson", elements=(PolyElement.zero(QQ, 3),), provenance=("0",))
    with pytest.raises(ValueError):
        GeneratorSet(flavor="associative", elements=(h,), provenance=("x",))


def test_is_regular():
    L = preset("sl2").algebra
    assert is_regular(L, vec(QQ, [1, 0, 0]))  # semisimple element
    assert not is_regular(L, vec(QQ, [0, 0, 0]))  # stabilizer is everything
    assert is_regular(L, vec(QQ, [0, 1, 0]))  # principal nilpotent
