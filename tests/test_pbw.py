import pytest

from lieshift.fields import QQ, FieldError
from lieshift.pbw import (
    EnvelopingAlgebra,
    ad_invariant,
    centralizer_up_to_degree,
    commutator,
    principal_symbol,
    specialize_central,
    substitute_generators,
    symmetrize,
)
from lieshift.polyring import PolyElement
from lieshift.presets import preset


def sl2_alg():
    L = preset("sl2").algebra
    return L, EnvelopingAlgebra(L)


def test_straightening_sl2():
    L, A = sl2_alg()
    h, e, f = A.gen(0), A.gen(1), A.gen(2)
    # e*h = h*e - 2e
    assert e * h == h * e - e * 2
    assert f * e == e * f - h
    assert commutator(e, f) == h
    # ordered monomials multiply without correction
    assert (h * e).render() == "h*e"
    assert (e * h).render() == "h*e - 2*e"


def test_associativity_golden():
    L, A = sl2_alg()
    h, e, f = A.gen(0), A.gen(1), A.gen(2)
    assert (e * f) * h == e * (f * h)
    assert (f * f) * (e * e) == f * (f * e) * e


def test_casimir_is_central():
    L, A = sl2_alg()
    h, e, f = A.gen(0), A.gen(1), A.gen(2)
    # symmetrization of h^2 + 4ef is h^2 + 2ef + 2fe = h^2 + 4ef - 2h
    cas = h * h + e * f * 4 - h * 2
    for g in (h, e, f):
        assert commutator(cas, g).is_zero


def test_scalar_and_pow():
    _, A = sl2_alg()
    h = A.gen(0)
    assert h * QQ.rational(1, 2) + h * QQ.rational(1, 2) == h
    assert h ** 0 == A.one()
    assert (h ** 3).degree() == 3
    with pytest.raises(FieldError):
        h ** -2


@pytest.mark.parametrize("i", [3, 5, -1])
def test_out_of_range_generator_is_a_field_error(i):
    # gen(5) on sl2 once rendered 1: the exponent vector matched no index
    _, A = sl2_alg()
    with pytest.raises(FieldError, match="not in range"):
        A.gen(i)
    assert A.gen(2, 3).render() == "f^3"


def test_from_vector_and_element():
    L, A = sl2_alg()
    v = A.from_vector([QQ.one, QQ.from_int(2), QQ.zero])
    assert v == A.gen(0) + A.gen(1) * 2
    assert A.zero().is_zero and A.one().degree() == 0


def test_symmetrize_and_symbol_roundtrip():
    L, A = sl2_alg()
    p = PolyElement.variable(QQ, 3, 1) * PolyElement.variable(QQ, 3, 2)  # e*f
    u = symmetrize(A, p)
    # (ef + fe)/2 = ef - h/2
    assert u == A.gen(1) * A.gen(2) - A.gen(0) * QQ.rational(1, 2)
    assert principal_symbol(u) == p
    q = PolyElement.variable(QQ, 3, 0) ** 2 + p * 4
    assert principal_symbol(symmetrize(A, q)) == q


def test_symbol_drops_lower_order():
    L, A = sl2_alg()
    u = A.gen(0) * A.gen(1) + A.gen(2) * 7 + A.one()
    s = u.render()
    assert s == "h*e + 7*f + 1"
    top = principal_symbol(u)
    assert top.render(("h", "e", "f")) == "h*e"


def test_laurent_center():
    L = preset("heisenberg1").algebra
    A = EnvelopingAlgebra(L, laurent=(2,))
    x, y, zinv = A.gen(0), A.gen(1), A.gen(2, -1)
    z = A.gen(2)
    assert z * zinv == A.one()
    assert (x * zinv) * (y * z) == x * y
    # commutator uses the straightening rule through the inverse power
    assert commutator(x, y) == z
    with pytest.raises(FieldError, match="^cannot symmetrize a formal inverse$"):
        symmetrize(A, principal_symbol(x * zinv))
    with pytest.raises(FieldError):
        EnvelopingAlgebra(L).gen(2, -1)


def test_laurent_requires_central():
    L = preset("sl2").algebra
    with pytest.raises(FieldError):
        EnvelopingAlgebra(L, laurent=(0,))


def test_ad_invariant():
    L, A = sl2_alg()
    cas = A.gen(0) ** 2 + A.gen(1) * A.gen(2) * 4 - A.gen(0) * 2
    basis = [L.basis_vector(i) for i in range(3)]
    assert ad_invariant(cas, basis)
    assert not ad_invariant(A.gen(1), basis)


def test_specialize_central():
    L = preset("heisenberg1").algebra
    A = EnvelopingAlgebra(L, laurent=(2,))
    x, y = A.gen(0), A.gen(1)
    u = x * y * A.gen(2, -1) + A.gen(2)
    out = specialize_central(u, 2, QQ.from_int(2))
    assert out == x * y * QQ.rational(1, 2) + A.one() * 2
    assert all(e[2] == 0 for e in out.terms)
    with pytest.raises(FieldError):
        specialize_central(u, 2, QQ.zero)  # formal inverse at zero
    with pytest.raises(FieldError):
        specialize_central(u, 0, QQ.one)  # x is not central


def test_substitute_generators():
    L, A = sl2_alg()
    # abelian 2-dim target: send a -> cas, b -> h
    M = preset("abelian2").algebra
    B = EnvelopingAlgebra(M)
    cas = B.one()  # placeholder, replaced below
    AB = EnvelopingAlgebra(L)
    h = AB.gen(0)
    cas = AB.gen(0) ** 2 + AB.gen(1) * AB.gen(2) * 4 - AB.gen(0) * 2
    p = B.gen(0) * B.gen(1) + B.gen(0) * 3
    out = substitute_generators(p, [cas, h], AB)
    assert out == cas * h + cas * 3


def test_substitute_into_a_formal_inverse_is_named_exactly():
    L = preset("heisenberg1").algebra
    A = EnvelopingAlgebra(L, laurent=(2,))
    u = A.gen(0) * A.gen(2, -1)
    with pytest.raises(FieldError, match="^cannot substitute into a formal inverse$"):
        substitute_generators(u, [A.gen(0), A.gen(1), A.gen(2)], A)


def test_centralizer_golden():
    # degree-1 centralizer of {z, x, zh+xy, quantum deg-3 gen} inside U(sl2 x| h3)
    L = preset("sl2-semidirect-h3").algebra
    A = EnvelopingAlgebra(L)
    h, e, f, x, y, z = (A.gen(i) for i in range(6))
    half = QQ.rational(1, 2)
    gens = [z, x, z * h + x * y, e * z - x * x * half]
    cen = centralizer_up_to_degree(A, gens, 1)
    rendered = sorted(u.render() for u in cen)
    assert rendered == ["1", "x", "z"]
    # degree 2: basis order and rendering pinned before lazy row rescaling
    cen = centralizer_up_to_degree(A, gens[:3], 2)
    assert [u.render() for u in cen] == ["1", "z", "x", "z^2", "x*z", "x^2", "h*z + x*y"]


def test_centralizer_of_casimir():
    L, A = sl2_alg()
    cas = A.gen(0) ** 2 + A.gen(1) * A.gen(2) * 4 - A.gen(0) * 2
    cen = centralizer_up_to_degree(A, [cas], 1)
    # everything of degree <= 1 commutes with the Casimir
    assert len(cen) == 4


def test_foreign_coefficient_rejected():
    _, A = sl2_alg()
    with pytest.raises(FieldError):
        A.element({(1, 0, 0): QQ.extend("t").var("t")})


def test_mul_cache_golden_size():
    # the benchmark's pbw.mul_cache_entries metric counts _mul_cache entries:
    # products x_i * m of one generator and a normal monomial that needed a
    # swap (325 when the cache was keyed on pairs of monomials, 591 when a
    # product already in normal order was stored too)
    P = preset("sl3")
    A = EnvelopingAlgebra(P.algebra)
    c2, c3 = (symmetrize(A, c) for c in P.casimirs)
    assert commutator(c2, c3).is_zero
    assert isinstance(A._mul_cache, dict)
    assert len(A._mul_cache) == 190


def test_level0_tables_hold_python_ints():
    P = preset("sl3")
    A = EnvelopingAlgebra(P.algebra)
    c2, c3 = (symmetrize(A, c) for c in P.casimirs)
    assert commutator(c2, c3).is_zero
    assert A._mul_cache and A._symm_cache
    for table in (A._mul_cache, A._symm_cache):
        for out in table.values():
            assert all(type(c) is int for c in out.values())
