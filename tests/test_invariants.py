import dataclasses

import pytest

from lieshift.fields import QQ
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
from lieshift.liealg import vec
from lieshift.pbw import EnvelopingAlgebra
from lieshift.polyring import PolyElement, poisson
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
