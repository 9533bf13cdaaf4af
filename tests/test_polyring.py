import pytest

import lieshift.pbw as pbw_mod
import lieshift.polyring as polyring_mod
from lieshift.fields import QQ, FieldError
from lieshift.liealg import LinearForm, vec
from lieshift.pbw import (
    EnvelopingAlgebra,
    centralizer_up_to_degree,
    commutator,
    principal_symbol,
    specialize_central,
    symmetrize,
)
from lieshift.polyring import PolyElement, gamma_shift, poisson
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


@pytest.mark.parametrize("i", [3, 7, -1, -4])
def test_out_of_range_variable_index_is_a_field_error(i):
    # an index past either end named no variable or the wrong one (e[-1]
    # read the last exponent)
    with pytest.raises(FieldError, match="not in range"):
        PolyElement.variable(QQ, 3, i)


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


@pytest.mark.parametrize(
    "gamma, k, error, match",
    [
        ([1, 0, 0], -1, ValueError, "nonnegative"),
        ([1, 0], 1, FieldError, "gamma has 2 coordinates, want 3"),
        ([1, 2, 3, 4], 1, FieldError, "gamma has 4 coordinates, want 3"),
        ("foreign", 1, FieldError, "tower-level mismatch"),
        ("foreign", 0, FieldError, "tower-level mismatch"),
    ],
)
def test_gamma_shift_rejects_bad_input(gamma, k, error, match):
    # a negative order used to return h, and a 4-coordinate gamma was read up
    # to h.nvars
    _, h, e, f = sl2_gens()
    if gamma == "foreign":
        F = QQ.extend("t")
        gamma = LinearForm(F, [F.var("t"), F.one, F.zero])
    else:
        gamma = LinearForm(QQ, vec(QQ, gamma))
    with pytest.raises(error, match=match):
        gamma_shift(h * h + e * f * QQ.from_int(4), gamma, k)


def _mixed_operands():
    _, h, _, _ = sl2_gens()
    u = EnvelopingAlgebra(preset("sl2").algebra).gen(0)
    return h, u


@pytest.mark.parametrize(
    "op",
    [
        lambda h, u: u + h,
        lambda h, u: h + u,
        lambda h, u: h - u,
        lambda h, u: h + 1.5,
        lambda h, u: h * "x",
        lambda h, u: u * 1.5,
        lambda h, u: 1.5 * u,
        lambda h, u: u - "x",
    ],
)
def test_mixed_type_arithmetic_is_a_type_error(op):
    with pytest.raises(TypeError):
        op(*_mixed_operands())


def _counted_results():
    """(label, thunk) pairs: each thunk computes one result from elements
    built beforehand."""
    L, h, e, f = sl2_gens()
    p = h * h + e * f * QQ.from_int(4) + e
    gamma = LinearForm(QQ, vec(QQ, [1, 2, 0]))
    A = EnvelopingAlgebra(L)
    a, b, d = (A.gen(i) for i in range(3))
    u = a * b + d * 3
    H = preset("heisenberg1").algebra
    B = EnvelopingAlgebra(H, laurent=(2,))
    w = B.gen(0) * B.gen(2, -1) + B.gen(1)
    c = QQ.rational(2, 3)
    return [
        ("poly +", lambda: p + h),
        ("poly + scalar", lambda: p + c),
        ("poly -", lambda: p - h),
        ("scalar - poly", lambda: 1 - p),
        ("poly unary -", lambda: -p),
        ("poly * scalar", lambda: p * c),
        ("scalar * poly", lambda: 3 * p),
        ("poly * poly", lambda: p * h),
        ("poly ** 2", lambda: p**2),
        ("top_part", lambda: p.top_part()),
        ("gamma_shift", lambda: gamma_shift(p, gamma, 2)),
        ("poisson", lambda: poisson(L, p, h)),
        ("pbw +", lambda: u + a),
        ("pbw + scalar", lambda: u + 2),
        ("pbw -", lambda: u - b),
        ("pbw unary -", lambda: -u),
        ("pbw * scalar", lambda: u * c),
        ("scalar * pbw", lambda: c * u),
        ("pbw * pbw", lambda: u * u),
        ("commutator", lambda: commutator(u, d)),
        ("symmetrize", lambda: symmetrize(A, p)),
        ("principal_symbol", lambda: principal_symbol(u)),
        ("specialize_central", lambda: specialize_central(w, 2, QQ.from_int(2))),
        ("centralizer_up_to_degree", lambda: centralizer_up_to_degree(A, [u], 1)),
    ]


def test_results_are_built_without_the_input_check(monkeypatch):
    # caller input is checked once, in the public constructors; no result of
    # arithmetic on checked elements runs the check again
    calls = []
    check = polyring_mod._checked_terms

    def counting(*args):
        calls.append(args)
        return check(*args)

    for mod in (polyring_mod, pbw_mod):
        monkeypatch.setattr(mod, "_checked_terms", counting)
    cases = _counted_results()
    assert calls, "the public constructors run the check"
    for label, thunk in cases:
        del calls[:]
        out = thunk()
        assert not calls, label
        for r in out if isinstance(out, list) else [out]:
            assert all(c for c in r.terms.values()), label
