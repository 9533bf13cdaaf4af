import pytest

from lieshift.fields import QQ, FieldError
from lieshift.liealg import LinearForm, vec
from lieshift.polyring import PolyElement, differential_at, gamma_shift, poisson
from lieshift.presets import preset


def sl2_gens():
    L = preset("sl2").algebra
    h, e, f = (PolyElement.variable(QQ, 3, i) for i in range(3))
    return L, h, e, f


def test_arithmetic_and_rendering():
    _, h, e, f = sl2_gens()
    p = h * h + e * f * QQ.from_int(4)
    assert p.render(("h", "e", "f")) == "h^2 + 4*e*f"
    assert (p - p).is_zero
    assert ((h + e) * (h - e)).render(("h", "e", "f")) == "h^2 - e^2"
    assert (h ** 3).degree() == 3
    assert (h * 0).is_zero
    q = PolyElement.constant(QQ, 3, QQ.rational(1, 2))
    assert (q + q).render(("h", "e", "f")) == "1"


def test_pow_validation():
    _, h, _, _ = sl2_gens()
    with pytest.raises(FieldError):
        h ** -1


def test_mixed_size_rejected():
    a = PolyElement.variable(QQ, 2, 0)
    b = PolyElement.variable(QQ, 3, 0)
    with pytest.raises(FieldError):
        a + b


def test_foreign_coefficients_and_ambients_rejected():
    F = QQ.extend("t")
    with pytest.raises(FieldError):
        PolyElement(QQ, 2, {(1, 0): F.var("t")})
    L, h, e, f = sl2_gens()
    with pytest.raises(FieldError):
        poisson(L, h, PolyElement.variable(QQ, 2, 0))
    with pytest.raises(FieldError):
        poisson(L, h, PolyElement.variable(F, 3, 0))


def test_top_and_homogeneous_parts():
    _, h, e, f = sl2_gens()
    p = h * h * h + e * f + h + PolyElement.constant(QQ, 3, QQ.one)
    assert p.top_part() == h * h * h
    # the homogeneous components, peeled off from the top
    comps, rest = {}, p
    while not rest.is_zero:
        comps[rest.degree()] = top = rest.top_part()
        rest = rest - top
    assert sorted(comps) == [0, 1, 2, 3]
    assert comps[2] == e * f
    assert sum(comps.values(), PolyElement.zero(QQ, 3)) == p


def test_partial_and_evaluate():
    _, h, e, f = sl2_gens()
    p = h * h * e + f
    assert p.partial(0) == h * e * QQ.from_int(2)
    pt = vec(QQ, [2, 3, 5])
    assert str(p.evaluate(pt)) == "17"
    assert differential_at(p, pt) == [QQ.from_int(12), QQ.from_int(4), QQ.one]


def test_from_vector():
    v = PolyElement.from_vector(QQ, vec(QQ, [1, 0, -2]))
    assert v.render(("a", "b", "c")) == "a - 2*c"
    assert v.degree() == 1


def test_poisson_on_sl2():
    L, h, e, f = sl2_gens()
    assert poisson(L, h, e) == e * QQ.from_int(2)
    assert poisson(L, e, f) == h
    # Casimir lies in the Poisson center
    cas = h * h + e * f * QQ.from_int(4)
    for g in (h, e, f):
        assert poisson(L, cas, g).is_zero
    assert poisson(L, e, e).is_zero


def test_poisson_leibniz_golden():
    L, h, e, f = sl2_gens()
    a, b, c = e * f, h + e, f * f
    lhs = poisson(L, a * b, c)
    rhs = a * poisson(L, b, c) + poisson(L, a, c) * b
    assert lhs == rhs


def test_poisson_golden_semidirect():
    # in sl2 x| h3 coordinates (h,e,f,x,y,z):
    # {e z - x^2/2, f z + y^2/2} = z*(h z + x y)
    L = preset("sl2-semidirect-h3").algebra
    h, e, f, x, y, z = (PolyElement.variable(QQ, 6, i) for i in range(6))
    half = QQ.rational(1, 2)
    a = e * z - x * x * half
    b = f * z + y * y * half
    assert poisson(L, a, b) == z * (h * z + x * y)


def test_gamma_shift():
    L, h, e, f = sl2_gens()
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))
    cas = h * h + e * f * QQ.from_int(4)
    assert gamma_shift(cas, gamma, 0) == cas
    assert gamma_shift(cas, gamma, 1) == h * QQ.from_int(2)
    assert gamma_shift(cas, gamma, 2) == PolyElement.constant(QQ, 3, QQ.from_int(2))
    assert gamma_shift(cas, gamma, 3).is_zero


def test_laurent_flags_propagate():
    z_inv = PolyElement(QQ, 2, {(0, -1): QQ.one}, laurent=frozenset({1}))
    x = PolyElement.variable(QQ, 2, 0, laurent=frozenset({1}))
    p = x * z_inv
    assert p.laurent == frozenset({1})
    assert p.render(("x", "z")) == "x*z^-1"
    with pytest.raises(FieldError):
        PolyElement(QQ, 2, {(0, -1): QQ.one})  # negative power needs the flag


def test_coefficients_lift_into_a_tower():
    F = QQ.extend("t")
    _, h, e, f = sl2_gens()
    p = h * h + e * QQ.from_int(3)
    q = PolyElement(F, p.nvars, {m: F.lift(c) for m, c in p.terms.items()})
    assert q.field is F
    assert q.render(("h", "e", "f")) == "h^2 + 3*e"


def test_differential_at_rejects_a_foreign_point():
    _, h, e, f = sl2_gens()
    p = h * h * e + f
    pt = vec(QQ, [2, 3, 5])
    with pytest.raises(FieldError):
        differential_at(p, pt[:2])
    t = QQ.extend("t").var("t")
    with pytest.raises(FieldError):
        differential_at(p, (pt[0], pt[1], t))
