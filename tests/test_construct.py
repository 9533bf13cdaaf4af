import hashlib
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from factories import (
    random_pbw_element,
    reference_first_noncommuting_pair,
    reference_hat,
    reference_lift_from_hat,
    reference_min_stabilizer_dim,
    reference_substitute,
)
import lieshift.construct as construct_mod
import lieshift.invariants as inv_mod
import lieshift.liealg as liealg_mod
from lieshift.construct import (
    ConstructError,
    abelian_qhat,
    construct_theorem,
    lift_from_hat,
    maximality_probe,
    mf_subalgebra,
    quantum_mf,
    verify_hat_lemmas,
)
from lieshift.algfile import dump_algebra, load_algebra
from lieshift.fields import QQ, FieldError
from lieshift.invariants import GeneratorSet, Sampling, b_of, symmetric_invariants, trdeg_jacobian
from lieshift.liealg import (
    HeisenbergSplit,
    LieAlgebra,
    LinearForm,
    Subspace,
    check_split,
    classify_nilradical,
    subalgebra_of,
    vec,
)
from lieshift.pbw import (
    EnvelopingAlgebra,
    commutator,
    first_noncommuting_pair,
    specialize_central,
    substitute_generators,
)
from lieshift.polyring import PolyElement, gamma_shift, poisson
from lieshift.presets import preset


def semidirect():
    return preset("sl2-semidirect-h3").algebra


# -- Mishchenko-Fomenko shifts -------------------------------------------------


def test_mf_sl2_golden():
    P = preset("sl2")
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))
    out = mf_subalgebra(P.algebra, P.casimirs, gamma)
    assert out.flavor == "poisson"
    assert [p.render(P.algebra.labels) for p in out.elements] == ["h^2 + 4*e*f", "2*h"]
    for i, a in enumerate(out.elements):
        for b in out.elements[i + 1 :]:
            assert poisson(P.algebra, a, b).is_zero
    assert trdeg_jacobian(out).value == 2 == b_of(P.algebra)


def test_mf_rejects_noninvariant():
    P = preset("sl2")
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))
    e = PolyElement.variable(QQ, 3, 1)
    with pytest.raises(ConstructError):
        mf_subalgebra(P.algebra, [e], gamma)


def test_quantum_mf_sl2_golden():
    P = preset("sl2")
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))
    out = quantum_mf(P.algebra, P.casimirs, gamma)
    assert out.flavor == "associative"
    assert [u.render() for u in out.elements] == ["h^2 + 4*e*f - 2*h", "2*h"]
    assert commutator(*out.elements).is_zero


def test_quantum_mf_sl3_commutes():
    P = preset("sl3")
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0, 0, 0, 0, 0, 2]))
    out = quantum_mf(P.algebra, P.casimirs, gamma)
    assert trdeg_jacobian(out).value == 5 == b_of(P.algebra)
    for i, a in enumerate(out.elements):
        for b in out.elements[i + 1 :]:
            assert commutator(a, b).is_zero


# -- Heisenberg reduction ------------------------------------------------------


def _hat(L, cor, xi):
    """The correction map of cor's split at the coordinate vector xi."""
    return construct_mod._hat(L, cor, liealg_mod._supports(L, (xi,))[0])


def test_hat_map_goldens():
    L = semidirect()
    split = classify_nilradical(L).split
    cor = construct_mod._Correction(L, split)
    alg = cor.alg
    imgs = [_hat(L, cor, L.basis_vector(i)).render() for i in range(3)]
    assert imgs == [
        "h + x*y*z^-1 + (-1/2)",
        "e + (-1/2)*x^2*z^-1",
        "f + (1/2)*y^2*z^-1",
    ]
    # the corrected generators commute with the ideal pair
    x, y = alg.from_vector(split.x[0]), alg.from_vector(split.y[0])
    for i in range(3):
        u = _hat(L, cor, L.basis_vector(i))
        assert commutator(u, x).is_zero and commutator(u, y).is_zero


def test_verify_hat_lemmas():
    L = semidirect()
    split = classify_nilradical(L).split
    rep = verify_hat_lemmas(L, split)
    assert rep.ok
    assert rep.pairs_checked == 18
    assert rep.centralizer_failures == [] and rep.homomorphism_failures == []


def test_public_hat_entry_points_check_the_split():
    L = semidirect()
    split = classify_nilradical(L).split
    # sabotage: swap z for a non-central vector
    bad = HeisenbergSplit(l_basis=split.l_basis, x=split.x, y=split.y, z=L.basis_vector(0))
    with pytest.raises(ConstructError, match="invalid Heisenberg split"):
        verify_hat_lemmas(L, bad)


def test_hat_is_linear():
    L = semidirect()
    split = classify_nilradical(L).split
    cor = construct_mod._Correction(L, split)
    u = vec(QQ, [1, 2, 0, 0, 0, 0])
    a = _hat(L, cor, u)
    b = _hat(L, cor, L.basis_vector(0)) + _hat(L, cor, L.basis_vector(1)) * 2
    assert a == b


def test_hat_algebra_needs_axis_center():
    L = LieAlgebra(
        QQ,
        ("x", "y", "z", "w"),
        {(0, 1): {2: 1, 3: 1}},
        {"central": [2, 3]},
    )
    z = vec(QQ, [0, 0, 1, 1])
    split = HeisenbergSplit(
        l_basis=Subspace(QQ, 4, [z]),
        x=(L.basis_vector(0),),
        y=(L.basis_vector(1),),
        z=z,
    )
    msg = "^split center must be a multiple of a single basis generator$"
    with pytest.raises(ConstructError, match=msg):
        construct_mod._Correction(L, split)
    with pytest.raises(ConstructError, match=msg):
        verify_hat_lemmas(L, split)


def test_vanished_corrected_image_is_named_exactly():
    # two generators sent to the same vector: their difference maps to zero
    L = semidirect()
    split = classify_nilradical(L).split
    U = EnvelopingAlgebra(preset("abelian2").algebra)
    gs = GeneratorSet("associative", [U.gen(0) - U.gen(1)], ["a - b"])
    h = L.basis_vector(0)
    cor = construct_mod._Correction(L, split)
    with pytest.raises(ConstructError, match="^corrected image vanished; lift is broken$"):
        construct_mod._corrected_lift(L, split, gs, [h, h], cor)


def test_vanished_lift_is_named_exactly(monkeypatch):
    # borel-sl3 reduces along an abelian ideal and lifts two generators;
    # each lift sent to zero
    monkeypatch.setattr(construct_mod, "lift_from_hat", lambda hat, u, T: T.zero())
    with pytest.raises(ConstructError, match="^lift of a nonzero generator vanished$"):
        construct_theorem(preset("borel-sl3").algebra)


def test_lift_that_is_not_ideal_invariant_is_named_exactly(monkeypatch):
    # every lift sent to h1, which does not commute with the ideal e13; the
    # ideal's basis is among the generators, so the certificate's pair check
    # is the one that meets it
    monkeypatch.setattr(construct_mod, "lift_from_hat", lambda hat, u, T: T.gen(0))
    with pytest.raises(
        ConstructError, match="^certificate: generators 0 and 2 do not commute$"
    ):
        construct_theorem(preset("borel-sl3").algebra)


@pytest.mark.parametrize(
    "name, label, b",
    [("gl2", "e12", 3), ("gl2", "e21", 3)]
    + [("gl3", lab, 6) for lab in ("e12", "e13", "e21", "e23", "e31", "e32")],
)
def test_a_label_named_like_a_generic_one_certifies(name, label, b):
    # each document renames one label to v0, the generic name of a derived
    # basis vector; the subalgebra [q, q] of is_reductive then repeated v0,
    # and construct raised "duplicate basis labels"
    data = dump_algebra(preset(name).algebra)
    data["basis"] = ["v0" if x == label else x for x in data["basis"]]
    for entry in data["brackets"]:
        entry["coeffs"] = {"v0" if k == label else k: c for k, c in entry["coeffs"].items()}
    cert = construct_theorem(load_algebra(data))
    assert cert.b_target == cert.trdeg.value == b


def test_failed_correction_map_checks_are_named_exactly(monkeypatch):
    real = construct_mod._hat_lemmas

    def forged(*args):
        rep = real(*args)
        rep.homomorphism_failures.append("forged")
        return rep

    monkeypatch.setattr(construct_mod, "_hat_lemmas", forged)
    P = preset("sl2-semidirect-h3")
    with pytest.raises(ConstructError, match=r"^correction-map checks failed: \['forged'\]$"):
        construct_theorem(P.algebra, casimirs=P.casimirs)


def _scaled_diamond(F, a, b, c):
    """A torus t acting on a Heisenberg pair by weights a and -a, [x, y] = b z,
    and the split with center c z: fractional constants, so straightening
    runs on the basis D x_i with D > 1, and a center off the unit vector."""
    L = LieAlgebra(
        F,
        ("t", "x", "y", "z"),
        {(0, 1): {1: a}, (0, 2): {2: -a}, (1, 2): {3: b}},
        {"central": [3], "nilradical": [1, 2, 3]},
    )
    s = classify_nilradical(L).split
    split = HeisenbergSplit(
        l_basis=s.l_basis,
        x=s.x,
        y=tuple([tuple([c * e for e in v]) for v in s.y]),
        z=tuple([c * e for e in s.z]),
    )
    assert not check_split(L, split)
    return L, split


@cache
def _split_case(name):
    """(L, split, hat algebra, sub algebra, sub vectors) of a named split: the
    Heisenberg split of a preset over Q, the one inside borel-sl3's
    abelian-ideal reduction over Q(w1) ("borel-sl3 level 1"), or a split of
    ``_scaled_diamond`` over Q or Q(w)."""
    if name == "diamond/6 over Q":
        L, split = _scaled_diamond(QQ, QQ.rational(1, 3), QQ.rational(1, 2), QQ.rational(-3, 2))
    elif name == "diamond over Q(w)":
        F = QQ.extend("w")
        w = F.var("w")
        L, split = _scaled_diamond(F, F.one / (w + 1), w / 2, w - 1)
    else:
        L = preset(name.split()[0]).algebra
        if name.endswith("level 1"):
            L = construct_mod._reduce_abelian(L, classify_nilradical(L).h, Sampling()).algebra
        split = classify_nilradical(L).split
    sub_L, sub_vectors = subalgebra_of(L, split.l_basis)
    return L, split, construct_mod._Correction(L, split).alg, sub_L, sub_vectors


SPLIT_CASES = [
    "heisenberg4",
    "heisenberg8",
    "sl2-semidirect-h3",
    "borel-sl3 level 1",
    "diamond/6 over Q",
    "diamond over Q(w)",
]


def _scalars(data, F):
    """A drawer of small scalars of F: p/q over Q, and above it (p/q + r w)
    over w + s or over 1, w the field's last variable."""
    ints = lambda lo, hi: data.draw(st.integers(lo, hi))

    def scalar():
        c = F.rational(ints(-9, 9), ints(1, 4))
        if F.level:
            w = F.var(F.variables[-1])
            c = c + F.rational(ints(-3, 3)) * w
            if ints(0, 1):
                c = c / (w + ints(-2, 2))
        return c

    return scalar


@pytest.mark.parametrize("name", SPLIT_CASES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hat_matches_the_dense_reference(name, data):
    L, split, alg, _, _ = _split_case(name)
    scalar = _scalars(data, L.field)
    xi = tuple([scalar() if data.draw(st.booleans()) else L.field.zero for _ in range(L.dim)])
    cor = construct_mod._Correction(L, split, alg)
    assert _hat(L, cor, xi) == reference_hat(L, split, xi, alg)


@pytest.mark.parametrize("name", SPLIT_CASES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_corrected_lift_matches_the_dense_reference(name, data):
    # random words in U(l~) through the correction map, and the corrected
    # lift, whose least power of z clears every formal inverse
    L, split, alg, sub_L, sub_vectors = _split_case(name)
    scalar = _scalars(data, L.field)
    draw = lambda n: data.draw(st.integers(0, n))
    U = EnvelopingAlgebra(sub_L)
    u = random_pbw_element(draw, U, scalar)
    images = [reference_hat(L, split, v, alg) for v in sub_vectors]
    want = reference_substitute(u, images, alg)
    assert substitute_generators(u, images, alg) == want
    cor = construct_mod._Correction(L, split, alg)
    A = GeneratorSet("associative", [u], ["u"])
    got = construct_mod._corrected_lift(L, split, A, sub_vectors, cor)
    low = min(e[cor.zi] for e in want.terms)
    assert got.elements[0] == (want * alg.gen(cor.zi, -low) if low < 0 else want)


@cache
def _reduced(name):
    """L and its abelian-ideal reduction: along the center line of
    heisenberg2, or along the ideal that classify_nilradical picks."""
    L = preset(name).algebra
    h = L.span_of_indices([4]) if name == "heisenberg2" else classify_nilradical(L).h
    return L, construct_mod._reduce_abelian(L, h, Sampling())


@pytest.mark.parametrize("name", ["heisenberg2", "borel-sl3"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_lift_from_hat_matches_the_dense_reference(name, data):
    # random words with Q(w) coefficients, delta specialized away
    L, hat = _reduced(name)
    B = EnvelopingAlgebra(hat.algebra)
    T = EnvelopingAlgebra(L)
    draw = lambda n: data.draw(st.integers(0, n))
    u = random_pbw_element(draw, B, _scalars(data, hat.algebra.field))
    u = specialize_central(u, B.dim - 1, 1)
    if u.is_zero:
        u = B.gen(0)
    assert lift_from_hat(hat, u, T) == reference_lift_from_hat(hat, u, T)


def test_coefficient_substitution_checks_are_named_exactly():
    L, hat = _reduced("heisenberg2")
    B = EnvelopingAlgebra(hat.algebra)
    T = EnvelopingAlgebra(L)
    w1 = hat.algebra.field.var(hat.h_vars[0])
    h_elems = [T.from_vector(v) for v in hat.h.basis]
    images = [T.gen(0)] * B.dim
    with pytest.raises(FieldError, match="^cannot substitute into a coefficient with a denominator$"):
        substitute_generators(B.gen(0) * w1.inverse(), images, T, coeff_images=h_elems)
    # a target over Q(w1) is not one level below Q(w1)
    with pytest.raises(FieldError, match=r"^coefficient images lie in Q\(w1\), not one level below Q\(w1\)$"):
        substitute_generators(B.gen(0) * w1, [B.gen(0)] * B.dim, B, coeff_images=[B.gen(0)])
    assert substitute_generators(B.gen(0) * w1, images, T, coeff_images=h_elems) == T.gen(0) * h_elems[0]


def test_lift_of_a_section_with_a_denominator_is_named_exactly():
    # reduced sections are ring rows; a forged one with 1/w1 has no lift
    from dataclasses import replace

    L, hat = _reduced("heisenberg2")
    w1 = hat.algebra.field.var(hat.h_vars[0])
    sec = (hat.sections[0][0] * w1.inverse(),) + hat.sections[0][1:]
    forged = replace(hat, sections=(sec,) + hat.sections[1:])
    B = EnvelopingAlgebra(hat.algebra)
    with pytest.raises(ConstructError, match="^internal: denominator not cleared before lift$"):
        lift_from_hat(forged, B.gen(0), EnvelopingAlgebra(L))


def test_heisenberg_lift_golden():
    L = semidirect()
    split = classify_nilradical(L).split
    hspan = L.span_of_indices([0])
    sub_alg, amb = subalgebra_of(L, hspan)
    Uh = EnvelopingAlgebra(sub_alg)
    gs = GeneratorSet("associative", [Uh.gen(0)], ["h"])
    out = construct_mod._corrected_lift(L, split, gs, amb, construct_mod._Correction(L, split))
    assert [u.render() for u in out.elements] == ["h*z + x*y + (-1/2)*z", "x", "z"]
    assert out.provenance[0] == "corrected lift of: h"
    assert trdeg_jacobian(out).value == 3


def test_heisenberg_lift_empty_sub():
    L = semidirect()
    split = classify_nilradical(L).split
    empty = GeneratorSet("associative", [], [])
    out = construct_mod._corrected_lift(L, split, empty, [], construct_mod._Correction(L, split))
    assert [u.render() for u in out.elements] == ["x", "z"]
    assert trdeg_jacobian(out).value == 2


# -- abelian-ideal reduction ---------------------------------------------------


def test_abelian_qhat_aff1():
    L = preset("aff1").algebra
    hat = abelian_qhat(L, L.span_of_indices([1]))
    assert hat.algebra.labels == ("delta",)
    assert hat.algebra.table == {}
    assert hat.h_vars == ("w1",)
    assert hat.b_ambient == 1 and hat.b_hat == 1
    # dim of the reduced algebra = min sampled stabilizer - dim h + 1
    assert hat.algebra.dim == hat.min_stabilizer_dim - hat.h.dim + 1


def test_abelian_qhat_h3_lagrangian():
    L = preset("heisenberg1").algebra
    hat = abelian_qhat(L, L.span_of_indices([1, 2]))
    assert hat.algebra.dim == 1
    assert hat.algebra.labels == ("delta",)


def test_abelian_qhat_h5_center():
    L = preset("heisenberg2").algebra
    hat = abelian_qhat(L, L.span_of_indices([4]))
    assert hat.algebra.labels == ("x1", "x2", "y1", "y2", "delta")
    table = {k: {i: str(c) for i, c in v.items()} for k, v in hat.algebra.table.items()}
    assert table == {(0, 2): {4: "w1"}, (1, 3): {4: "w1"}}
    # b drops by dim h - 1 = 0 here; the reduced b matches sampled stabilizers
    assert hat.b_hat == hat.b_ambient - (hat.h.dim - 1)


@pytest.mark.parametrize("kw", [{"samples": 0}, {"bound": 0}])
def test_abelian_qhat_rejects_nonpositive_sampling_arguments(kw, monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(inv_mod, "_draw", no_sampling)
    L = preset("aff1").algebra
    with pytest.raises(ValueError, match="at least 1"):
        abelian_qhat(L, L.span_of_indices([1]), Sampling(**kw))
    with pytest.raises(ValueError, match="at least 1"):
        construct_theorem(L, **kw)
    # the patched draw is the one behind both sampled ranks and Sampling.point
    for draw in (lambda: inv_mod.index_of(L), lambda: Sampling().point(QQ, 2, 0)):
        with pytest.raises(AssertionError, match="sampled before"):
            draw()


def test_abelian_qhat_rejects_bad_input():
    L = preset("heisenberg1").algebra
    with pytest.raises(ConstructError):
        abelian_qhat(L, L.span_of_indices([0, 1, 2]))  # not abelian
    aff = preset("aff1").algebra
    with pytest.raises(ConstructError):
        abelian_qhat(aff, aff.span_of_indices([0]))  # not an ideal
    with pytest.raises(ConstructError):
        abelian_qhat(L, L.span_of_indices([]))


def test_ideal_action_names_each_rejection_exactly():
    L = preset("heisenberg1").algebra
    aff = preset("aff1").algebra
    for M, idxs, want in [
        (L, [], "the ideal must be nonzero"),
        (L, [0, 1, 2], "the subspace is not abelian"),
        (aff, [0], "the subspace is not an ideal"),
    ]:
        with pytest.raises(construct_mod.IdealError) as e:
            construct_mod._ideal_action(M, M.span_of_indices(idxs))
        assert str(e.value) == want
    ad = construct_mod._ideal_action(aff, aff.span_of_indices([1]))
    assert ad == [[[QQ.one], [QQ.zero]]]  # [t, y] = y, [y, y] = 0


def test_reduce_abelian_names_a_wrong_dimension_exactly(monkeypatch):
    # a kernel that lost a vector gives a reduced algebra one short of the
    # stabilizer formula min dim q_alpha - dim h + 1 (4 on borel-sl3, h = e13)
    real = construct_mod.kernel_basis
    monkeypatch.setattr(construct_mod, "kernel_basis", lambda *args: real(*args)[:-1])
    L = preset("borel-sl3").algebra
    with pytest.raises(ConstructError) as e:
        abelian_qhat(L, L.span_of_indices([4]))
    assert str(e.value) == "reduced dimension 3 disagrees with the stabilizer formula 4"


def test_reduce_abelian_names_a_bracket_off_the_sections_exactly(monkeypatch):
    # a section bracket moved by h1, on which alpha([h1, e13]) = alpha(e13)
    # does not vanish, leaves the sections
    real = construct_mod._wrapped

    def moved(L, cleared):
        w = list(real(L, cleared))
        w[0] = w[0] + 1
        return tuple(w)

    monkeypatch.setattr(construct_mod, "_wrapped", moved)
    L = preset("borel-sl3").algebra
    with pytest.raises(ConstructError) as e:
        abelian_qhat(L, L.span_of_indices([4]))
    assert str(e.value) == "reduced bracket is not a section again"


def test_lift_from_hat():
    L = preset("heisenberg2").algebra
    hat = abelian_qhat(L, L.span_of_indices([4]))
    B = EnvelopingAlgebra(hat.algebra)
    T = EnvelopingAlgebra(L)
    assert lift_from_hat(hat, B.gen(0), T).render() == "x1"
    w1 = hat.algebra.field.var(hat.h_vars[0])
    assert lift_from_hat(hat, B.gen(0) * w1, T).render() == "x1*z"
    # function-field denominators are cleared first
    u = B.gen(1) * w1.inverse()
    assert lift_from_hat(hat, u, T).render() == "x2"
    # by the least common denominator w1^2 (w1 + 1), not the product w1^3 (w1 + 1)
    u = B.gen(0) * (w1 * w1).inverse() + B.gen(1) * (w1 * (w1 + 1)).inverse()
    assert lift_from_hat(hat, u, T).render() == "x1*z + x2*z + x1"
    # rational coefficients of the w polynomials come down to Q unchanged
    F = hat.algebra.field
    u = B.gen(0) * (w1 * F.rational(-3, 7) + F.rational(1, 2)) + B.gen(1) * F.rational(-5, 6)
    assert lift_from_hat(hat, u, T).render() == "(-3/7)*x1*z + (1/2)*x1 + (-5/6)*x2"
    with pytest.raises(ConstructError):
        lift_from_hat(hat, B.gen(4), T)  # delta still present


def test_specialize_search():
    L = preset("abelian2").algebra
    A = EnvelopingAlgebra(L)
    gs = GeneratorSet("associative", [A.gen(1), A.gen(1) * A.gen(0)], ["z", "z*h"])
    c, out = construct_mod._specialize(gs, 1, trdeg_jacobian(gs).value, Sampling())
    assert str(c) == "1"
    assert [u.render() for u in out.elements] == ["a1"]
    assert "specialized center to 1 (trdeg 2 -> 1)" in out.provenance[0]


def test_specialize_names_a_search_without_a_candidate_exactly():
    # before = 4 asks for trdeg 3 of at most two generators: no c in 1..20
    L = preset("abelian2").algebra
    A = EnvelopingAlgebra(L)
    gs = GeneratorSet("associative", [A.gen(1), A.gen(1) * A.gen(0)], ["z", "z*h"])
    msg = "^no candidate kept the transcendence degree; extend the list$"
    with pytest.raises(ConstructError, match=msg):
        construct_mod._specialize(gs, 1, 4, Sampling())


# -- the full construction -----------------------------------------------------


def test_construct_abelian():
    cert = construct_theorem(preset("abelian3").algebra)
    assert cert.trdeg.value == 3 == cert.b_target
    assert cert.trace[0].startswith("abelian:")
    assert len(cert.generators) == 3


def test_construct_reductive():
    P = preset("sl2")
    cert = construct_theorem(P.algebra, casimirs=P.casimirs)
    assert cert.trdeg.value == 2 == cert.b_target
    assert cert.trace[0].startswith("reductive:")
    g = preset("gl2")
    cert2 = construct_theorem(g.algebra, casimirs=g.casimirs)
    assert cert2.trdeg.value == 3 == cert2.b_target


def test_construct_aff1():
    cert = construct_theorem(preset("aff1").algebra)
    assert cert.trdeg.value == 1 == cert.b_target
    assert [u.render() for u in cert.generators.elements] == ["y"]
    assert cert.trace[0].startswith("abelian-ideal-reduction:")


def test_construct_borel_sl2():
    cert = construct_theorem(preset("borel-sl2").algebra)
    assert cert.trdeg.value == 1 == cert.b_target
    assert [u.render() for u in cert.generators.elements] == ["e"]


def test_construct_heisenberg():
    cert = construct_theorem(preset("heisenberg1").algebra)
    assert cert.trdeg.value == 2 == cert.b_target
    assert [u.render() for u in cert.generators.elements] == ["z", "x1"]
    assert cert.trace[0].startswith("heisenberg-stabilizer:")


def test_construct_semidirect_levi_route():
    P = preset("sl2-semidirect-h3")
    cert = construct_theorem(P.algebra, casimirs=P.casimirs)
    assert cert.trdeg.value == 4 == cert.b_target
    assert cert.trace[0].startswith("heisenberg-levi:")
    top = cert.generators.elements[0]
    # quadratic-in-sl2 generator: the symbol of 2*symm(H2)
    L = P.algebra
    A = top.alg
    h, e, f, x, y, z = (A.gen(i) for i in range(6))
    H2 = h * h * z + h * x * y * 2 + e * f * z * 4 + e * y * y * 2 - f * x * x * 2
    from lieshift.pbw import principal_symbol

    assert principal_symbol(top) == principal_symbol(H2)


def test_construct_borel_sl3_two_level():
    cert = construct_theorem(preset("borel-sl3").algebra)
    assert cert.trdeg.value == 3 == cert.b_target
    rendered = [u.render() for u in cert.generators.elements]
    assert rendered[1:] == ["e12", "e13"]
    assert rendered[0] == "h1*e13 - h2*e13 + 3*e12*e23 + (-3/2)*e13"
    assert any(t.startswith("  [reduced] heisenberg-stabilizer:") for t in cert.trace)


def borel_gl(n):
    """Upper-triangular n x n matrices, basis e_ij (i <= j), no annotations."""
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(idx)}
    brackets = {}
    for a, (i, j) in enumerate(idx):
        for b in range(a + 1, len(idx)):
            k, l = idx[b]
            # [e_ij, e_kl] = [j == k] e_il - [l == i] e_kj
            comp = {}
            if j == k:
                comp[pos[(i, l)]] = 1
            if l == i:
                comp[pos[(k, j)]] = comp.get(pos[(k, j)], 0) - 1
            if any(comp.values()):
                brackets[(a, b)] = comp
    labels = ["e%d%d" % (i + 1, j + 1) for i, j in idx]
    return LieAlgebra(QQ, labels, brackets)


def test_construct_borel_gl4_three_level_tower():
    # two abelian-ideal reductions take the coefficients to level 3 of the
    # tower; lifting level-2 ground elements there used to raise CoercionFailed
    cert = construct_theorem(borel_gl(4))
    assert cert.b_target == 6
    assert cert.trdeg.value == 6
    assert len(cert.generators.elements) == 6


# the generators certified at each level of borel_gl(4)'s three-level tower,
# innermost first, and its trace. Recorded before the tower fields were flat,
# and the level-2 line re-pinned then: the section u3 of the second reduction
# is a canonical kernel row, primitive in Q[w1, ..., w5] where it used to be
# primitive in Q(w1, w2)[w3, w4, w5], so it is w2 times the old one
# ([w5, -w3/w2] became [w2*w5, -w3]) and u1 - w2*u3 reads u1 - u3; every
# other level, the trace and the generators over Q are unchanged
BOREL_GL4_LEVELS = [
    ("Q(w1, w2)(w3, w4, w5)(w6, w7, w8)", ["delta"]),
    ("Q(w1, w2)(w3, w4, w5)", ["u1 - u3", "e23", "delta"]),
    (
        "Q(w1, w2)",
        ["e12*e24 + e13*e34 - w2*e22*delta - w2*e33*delta - w2*delta", "e23", "e13", "e24", "delta"],
    ),
    (
        "Q",
        ["e12*e24 + e13*e34 - e14*e22 - e14*e33 - e14", "e23", "e13", "e24", "e11 + e22 + e33 + e44", "e14"],
    ),
]
BOREL_GL4_TRACE = [
    "abelian-ideal-reduction: ideal of dim 2, reduced dim 8 over w1, w2",
    "  [reduced] abelian-ideal-reduction: ideal of dim 3, reduced dim 4 over w3, w4, w5",
    "  [reduced]   [reduced] abelian-ideal-reduction: ideal of dim 3, reduced dim 1 over w6, w7, w8",
    "  [reduced]   [reduced]   [reduced] abelian: the whole enveloping algebra, dim 1",
    "  [reduced]   [reduced] specialized the central element to 1",
    "  [reduced]   [reduced] lifted 0 generators, adjoined the ideal",
    "  [reduced] specialized the central element to 1",
    "  [reduced] lifted 2 generators, adjoined the ideal",
    "specialized the central element to 1",
    "lifted 4 generators, adjoined the ideal",
]


def test_borel_gl4_every_level_golden(monkeypatch):
    certs = []
    real = construct_mod._construct

    def recording(L, *args):
        cert = real(L, *args)
        certs.append(cert)
        return cert

    monkeypatch.setattr(construct_mod, "_construct", recording)
    top = construct_theorem(borel_gl(4))
    assert list(top.trace) == BOREL_GL4_TRACE
    got = [(repr(c.algebra.field), [g.render() for g in c.generators.elements]) for c in certs]
    assert got == BOREL_GL4_LEVELS


@pytest.mark.parametrize("name", ["aff1", "borel-sl2", "borel-sl3", "borel_gl(4)"])
def test_min_stabilizer_dim_matches_the_sampled_reference(monkeypatch, name):
    # every abelian reduction construct_theorem reaches, over Q and above
    seen = []
    real = construct_mod._reduce_abelian

    def recording(L, h, sampling):
        hat = real(L, h, sampling)
        seen.append((L, hat))
        return hat

    monkeypatch.setattr(construct_mod, "_reduce_abelian", recording)
    construct_theorem(borel_gl(4) if name == "borel_gl(4)" else preset(name).algebra)
    assert seen
    for L, hat in seen:
        assert hat.min_stabilizer_dim == reference_min_stabilizer_dim(L, hat.h, Sampling()), L


# sha256 of the newline-joined rendered generators, recorded before the
# cleared-value format was shared by every tower level; default seeds,
# preset invariants where the preset has them. sl2-semidirect-h3 was
# re-pinned when the regular form of its sl2 Levi level came to vanish on
# e and f, the basis vectors of nonzero weight
TOWER_GOLDENS = {
    "aff1": "a1fce4363854ff888cff4b8e7875d600c2682390412a8cf79b37d0b11148b0fa",
    "borel-sl2": "3f79bb7b435b05321651daefd374cdc681dc06faa65e374e38337b88ca046dea",
    "borel-sl3": "84030b83400c5f2c689e5e6b9a349b8ee40deff8d09427d7f133cc6fb25b8f2a",
    "sl2-semidirect-h3": "79c8ceeb6bbf1508581de2842eae211f0b4f001ae261206cacd427bb5d6a7b58",
    "heisenberg4": "633f353dd7fb512d7cb019d23b05b119cf596bd2ff6996b017b52152614e4d36",
    "heisenberg8": "667e2a36903deb49fd6b0eeff6e2058221387b195095b87659d97f0b28acddad",
    "borel_gl(4)": "a73b75d1c55de58ba99b21e794743091c3df9ee90a66099d9455f5ef865150f3",
}


@pytest.mark.parametrize("name", sorted(TOWER_GOLDENS))
def test_tower_generators_golden(name):
    if name == "borel_gl(4)":
        cert = construct_theorem(borel_gl(4))
    else:
        P = preset(name)
        cert = construct_theorem(P.algebra, casimirs=P.casimirs or None)
    text = "\n".join(g.render() for g in cert.generators.elements)
    assert hashlib.sha256(text.encode()).hexdigest() == TOWER_GOLDENS[name]


# sha256 of the newline-joined rendered generators of the reductive and
# Heisenberg presets, recorded before S(q) and U(q) elements shared one term
# container; default seeds, preset invariants where the preset has them.
# sl2, gl2, sl3 and gl3 were re-pinned when the regular form came to vanish
# on the basis vectors of nonzero weight; so3 and so4 have no torus in
# their basis and kept theirs
SQ_GOLDENS = {
    "sl2": "c001a180d6acf9e89797a386ce944bff821bcbb1b7d7044a0207c9bce20e55b0",
    "gl2": "2813d68d6c93c1c55de406710f466a623aa77f9168e22149e645779ec3e0d67a",
    "sl3": "17ab370594a1ce8639ef707248a59b6fc5402952c59680f9d53f0c2bd90429ce",
    "gl3": "5a4ac5682274c8da43f2b68fadf3cdcfef5d763029badbe2d467e2e4bdaa7177",
    "so3": "b70a20cb34e52509a9a745d2d44edfbc920bcfffe6e13d5a21ed9185037367ec",
    "so4": "b01eea91e45b52f39019719c772c46cd93b598201281aa1a8842ae922632980c",
    "heisenberg2": "18c756cb1c27a586eb4cd16a760287f1226fe56e4df87650fae332911b674d22",
    "heisenberg3": "b8f610627b8fcafce53c1dd1acd90d625da809f7dbdce1f97c0edd3d89b468db",
    # gl3 with its invariants searched for, not taken from the preset
    "gl3, no preset invariants": (
        "53371c73f42c816e77775bd3f49b19ab66f33afee9fe9ef33913d76c50c25dfb"
    ),
}


@pytest.mark.parametrize("name", sorted(SQ_GOLDENS))
def test_shift_generators_golden(name):
    P = preset(name.split(",")[0])
    if name.endswith("no preset invariants"):
        cert = construct_theorem(P.algebra)
        assert len(cert.generators.elements) == 14
    else:
        cert = construct_theorem(P.algebra, casimirs=P.casimirs or None)
    text = "\n".join(g.render() for g in cert.generators.elements)
    assert hashlib.sha256(text.encode()).hexdigest() == SQ_GOLDENS[name]


# sha256 of the newline-joined rendered degree-3 invariant bases, recorded
# at the same point
INVARIANT_GOLDENS = {
    "gl3": "d2dcb78f575a6a56e2c2fc3fbc6ba12278bf4d6696aee34b1a8c9daa11f6bc75",
    "so4": "66e896ca4c8a0517365f9b17db95eebb04a7d981cc35254ab2a713bd9531eb49",
    "sl3": "e6fbb2e2508b3e31ad0817e9019abfed1009fef769da44e1355cff8ff8eed744",
}


@pytest.mark.parametrize("name", sorted(INVARIANT_GOLDENS))
def test_symmetric_invariants_golden(name):
    L = preset(name).algebra
    text = "\n".join(p.render(L.labels) for p in symmetric_invariants(L, 3))
    assert hashlib.sha256(text.encode()).hexdigest() == INVARIANT_GOLDENS[name]


def test_construct_jordan_block_action():
    # solvable t x| h5 where t acts on the x-plane by a Jordan block
    L = LieAlgebra(
        QQ,
        ("t", "x1", "x2", "y1", "y2", "z"),
        {
            (0, 1): {1: 1},
            (0, 2): {1: 1, 2: 1},
            (0, 3): {3: -1, 4: -1},
            (0, 4): {4: -1},
            (1, 3): {5: 1},
            (2, 4): {5: 1},
        },
        {"central": [5], "nilradical": [1, 2, 3, 4, 5], "solvable_radical": [0, 1, 2, 3, 4, 5]},
    )
    cert = construct_theorem(L)
    assert cert.b_target == 4
    assert cert.trdeg.value == 4
    assert cert.trace[0].startswith("heisenberg-stabilizer:")
    rendered = sorted(u.render() for u in cert.generators.elements)
    assert rendered == ["t*z + x1*y1 + x1*y2 + x2*y2 - z", "x1", "x2", "z"]


def test_construct_respects_depth_cap():
    with pytest.raises(ConstructError, match="reduction recursion exceeded 0 levels"):
        construct_theorem(preset("aff1").algebra, max_depth=0)


def test_construct_rejects_unusable_nilradical():
    N = preset("heisenberg1").algebra
    lying = LieAlgebra(QQ, N.labels, N.table, {"central": [2], "nilradical": [2]})
    with pytest.raises(ConstructError):
        construct_theorem(lying)


JACOBI_FAILING_DOC = {
    "format": "lieshift/1",
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": [
        {"i": 0, "j": 1, "coeffs": {"z": "1"}},
        {"i": 0, "j": 2, "coeffs": {"x": "1"}},
        {"i": 1, "j": 2, "coeffs": {"y": "1"}},
    ],
}


def test_construct_validates_an_algebra_nothing_has_validated():
    # the report is kept per algebra, so an algebra built directly or loaded
    # unchecked is still scanned at construct_theorem's entry
    built = LieAlgebra(QQ, ("x", "y", "z"), {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})
    unchecked = load_algebra(JACOBI_FAILING_DOC, check=False)
    for L in (built, unchecked):
        with pytest.raises(ConstructError) as e:
            construct_theorem(L)
        assert str(e.value) == "input fails validation: [(0, 1, 2)] []"


def test_construct_scans_jacobi_once_per_algebra(monkeypatch):
    # load_algebra validates the top level; construct_theorem reuses that
    # report and validates the stabilizer level it builds, once
    scanned = []
    real = liealg_mod._jacobi_failures

    def counted(L):
        scanned.append(L)
        return real(L)

    monkeypatch.setattr(liealg_mod, "_jacobi_failures", counted)
    L = load_algebra(dump_algebra(preset("heisenberg8").algebra))
    assert scanned == [L]
    cert = construct_theorem(L)
    assert cert.b_target == 9
    assert [M.dim for M in scanned] == [17, 1]
    assert len({id(M) for M in scanned}) == 2


def test_classify_builds_no_copy_of_the_nilradical(monkeypatch):
    # an annotated nilradical's lower central series is the one validate
    # built, as subspaces of q; classifying it, the center of a proper n and
    # the Killing radical of an unannotated algebra build no subalgebra
    built, series = [], []
    real_sub, real_lower = liealg_mod.subalgebra_of, liealg_mod._lower_central

    def counted_sub(L, S):
        built.append(S)
        return real_sub(L, S)

    def counted_lower(*args):
        series.append(args)
        return real_lower(*args)

    monkeypatch.setattr(liealg_mod, "subalgebra_of", counted_sub)
    monkeypatch.setattr(liealg_mod, "_lower_central", counted_lower)
    L = load_algebra(dump_algebra(preset("sl2-semidirect-h3").algebra))
    nil = L.annotations["nilradical"]
    assert nil.dim < L.dim and len(series) == 1
    assert classify_nilradical(L).kind == "heisenberg"
    assert len(series) == 1
    aff = preset("aff1").algebra
    plain = LieAlgebra(QQ, aff.labels, aff.table)
    assert classify_nilradical(plain).kind == "abelian_ideal"
    assert built == []


def test_certificate_commutators_exact():
    P = preset("sl2-semidirect-h3")
    cert = construct_theorem(P.algebra, casimirs=P.casimirs)
    els = cert.generators.elements
    for i, a in enumerate(els):
        for b in els[i + 1 :]:
            assert commutator(a, b).is_zero
    n = len(els)
    assert cert.commutativity == {
        "verified": True,
        "pairs": n * (n - 1) // 2,
        "max_degree": 3,
    }


def _counting_pair_checks(monkeypatch):
    """(levels, checks): the dimension of each _construct level, and per
    pair check its number of elements and the number of left factors of
    each _products_into call it makes."""
    levels, checks, active = [], [], []
    real_construct = construct_mod._construct
    real_check = construct_mod.first_noncommuting_pair
    real_products = EnvelopingAlgebra._products_into

    def construct(*args):
        levels.append(args[0].dim)
        return real_construct(*args)

    def check(elements):
        lefts = []
        checks.append((len(elements), lefts))
        active.append(lefts)
        try:
            return real_check(elements)
        finally:
            active.pop()

    def products(self, outs, lefts, right):
        if active:
            active[-1].append(len(lefts))
        return real_products(self, outs, lefts, right)

    monkeypatch.setattr(construct_mod, "_construct", construct)
    monkeypatch.setattr(construct_mod, "first_noncommuting_pair", check)
    monkeypatch.setattr(EnvelopingAlgebra, "_products_into", products)
    return levels, checks


def test_construct_checks_each_pair_once(monkeypatch):
    # one pair check, which straightens each of the n(n - 1) ordered
    # products once: n right factors, each against the n - 1 others
    calls = {"poisson": 0}
    real = construct_mod.poisson

    def counted(*args):
        calls["poisson"] += 1
        return real(*args)

    monkeypatch.setattr(construct_mod, "poisson", counted)
    levels, checks = _counting_pair_checks(monkeypatch)
    P = preset("sl3")
    cert = construct_theorem(P.algebra, casimirs=P.casimirs)
    n = len(cert.generators)
    assert len(levels) == 1
    assert checks == [(n, [n - 1] * n)]
    assert n * (n - 1) == 2 * cert.commutativity["pairs"]
    # only the ad-invariance check of the caller's invariants
    assert calls["poisson"] == P.algebra.dim * len(P.casimirs)


@pytest.mark.parametrize("name", ["borel-sl3", "heisenberg4", "sl2-semidirect-h3"])
def test_construct_checks_each_pair_once_per_level(monkeypatch, name):
    levels, checks = _counting_pair_checks(monkeypatch)
    construct_theorem(preset(name).algebra)
    assert len(levels) > 1 and len(checks) == len(levels)
    for n, lefts in checks:
        assert lefts == [n - 1] * n


# (preset, which certified set): the top level, heisenberg4's corrected lift
# in U(q) localized at its center, and borel-sl3's reduced algebra over Q(w1)
PAIR_CASES = [
    ("gl2", -1), ("gl3", -1), ("gl4", -1), ("sl3", -1), ("so4", -1),
    ("heisenberg4", -1), ("borel-sl3", -2),
]


@cache
def _certified_set(name, which):
    """The generators of one set that _certify certified in a
    construct_theorem of the named preset, in the order it checked them."""
    sets = []
    real = construct_mod._certify

    def recording(L, gens, *args):
        sets.append(gens.elements)
        return real(L, gens, *args)

    construct_mod._certify = recording
    try:
        P = preset(name)
        construct_theorem(P.algebra, casimirs=P.casimirs)
    finally:
        construct_mod._certify = real
    return tuple(sets[which])


def test_certified_set_cases_cover_the_laurent_and_level_1_sets():
    assert _certified_set("heisenberg4", -1)[0].alg.laurent
    assert _certified_set("borel-sl3", -2)[0].alg.field.level == 1


@pytest.mark.parametrize("name,which", PAIR_CASES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_pair_check_matches_the_commutator_loop(name, which, data):
    # a certified set, with one or two generators perturbed by a monomial,
    # a formal inverse of a localized center included, and optionally a zero
    # element first, so that the first failing pair need not start at 0
    elements = list(_certified_set(name, which))
    alg = elements[0].alg
    assert first_noncommuting_pair(elements) is None
    scalar = _scalars(data, alg.field)
    draw = lambda n: data.draw(st.integers(0, n))
    for _ in range(draw(1) + 1):
        k = draw(len(elements) - 1)
        exps = [0] * alg.dim
        for _ in range(draw(2)):
            exps[draw(alg.dim - 1)] += 1
        for z in alg.laurent:
            exps[z] -= draw(1)
        elements[k] = elements[k] + alg.element({tuple(exps): scalar()})
    if data.draw(st.booleans()):
        elements.insert(0, alg.zero())
    assert first_noncommuting_pair(elements) == reference_first_noncommuting_pair(elements)


@pytest.mark.parametrize("name", ["heisenberg4", "borel-sl3"])
def test_construct_checks_each_heisenberg_fact_once(monkeypatch, name):
    # the Darboux split is checked once, where it is built, and its
    # stabilizer is computed once, as the split's l_basis; the centrality of
    # z is tested by classify_nilradical and by check_split, not again by
    # _darboux_split
    calls = {"check_split": 0, "_v_stabilizer": 0, "_is_central": 0}
    for fn in calls:
        real = getattr(liealg_mod, fn)

        def counted(*args, _real=real, _fn=fn):
            calls[_fn] += 1
            return _real(*args)

        monkeypatch.setattr(liealg_mod, fn, counted)
        monkeypatch.setattr(construct_mod, fn, counted, raising=False)
    construct_theorem(preset(name).algebra)
    assert calls == {
        "check_split": 1,
        "_v_stabilizer": 1,
        "_is_central": {"heisenberg4": 2, "borel-sl3": 3}[name],
    }


@pytest.mark.parametrize("name", ["heisenberg1", "heisenberg4", "borel-sl3"])
def test_ltilde_covers_ranks_once_per_heisenberg_level(monkeypatch, name):
    # the split passed check_split, so dim span{x, y, z} = 2n + 1 needs no
    # rank of its own: one rank of l~ + h per bracket-stabilizer level
    levels, ranks = [], []
    real_rank, real_covers = liealg_mod.rank, liealg_mod._check_ltilde_covers

    def counted_rank(*args):
        if levels and levels[-1] is None:
            ranks.append(len(levels))
        return real_rank(*args)

    def covers(*args):
        levels.append(None)
        try:
            return real_covers(*args)
        finally:
            levels[-1] = args[0]

    monkeypatch.setattr(liealg_mod, "rank", counted_rank)
    monkeypatch.setattr(construct_mod, "_check_ltilde_covers", covers)
    cert = construct_theorem(preset(name).algebra)
    stabilizer_levels = [t for t in cert.trace if "heisenberg-stabilizer:" in t]
    assert len(levels) == len(stabilizer_levels) >= 1
    assert ranks == list(range(1, len(levels) + 1))


@pytest.mark.parametrize("name,calls", [("aff1", 3), ("borel-sl2", 3), ("borel-sl3", 4)])
def test_construct_samples_each_trdeg_once(monkeypatch, name, calls):
    # the specialization reuses the trdeg _certify sampled one level down
    seen = []
    real = construct_mod.trdeg_jacobian

    def counted(A, *args):
        seen.append(tuple((g.alg.field, g.render()) for g in getattr(A, "elements", A)))
        return real(A, *args)

    monkeypatch.setattr(construct_mod, "trdeg_jacobian", counted)
    construct_theorem(preset(name).algebra)
    assert len(seen) == len(set(seen)) == calls


@pytest.mark.parametrize("name,algebras", [("aff1", 2), ("borel-sl3", 3), ("sl3", 1)])
def test_construct_samples_each_index_once(monkeypatch, name, algebras):
    # each level's b_of supplies its regular form's index, and a reduced
    # algebra's b is sampled once, as the next level's target
    seen = []
    real = inv_mod.index_of

    def counted(L, *args):
        seen.append(L)
        return real(L, *args)

    monkeypatch.setattr(inv_mod, "index_of", counted)
    # also catch a direct call from construct, should it import index_of again
    monkeypatch.setattr(construct_mod, "index_of", counted, raising=False)
    P = preset(name)
    construct_theorem(P.algebra, casimirs=P.casimirs or None)
    assert len(seen) == len({id(L) for L in seen}) == algebras


def test_certificate_catches_noncommuting_reductive_lift(monkeypatch):
    # e added to the lifted Casimir keeps its principal symbol but [C + e, 2h] != 0
    P = preset("sl2")
    real = construct_mod.symmetrize

    def faulty(alg, f):
        u = real(alg, f)
        return u + alg.gen(1) if f.degree() == 2 else u

    monkeypatch.setattr(construct_mod, "symmetrize", faulty)
    with pytest.raises(ConstructError, match="^certificate: generators 0 and 1 do not commute$"):
        construct_theorem(P.algebra, casimirs=P.casimirs)
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))
    with pytest.raises(ConstructError, match="^symmetrized shifts fail to commute"):
        quantum_mf(P.algebra, P.casimirs, gamma)


def test_symmetrize_family_names_a_changed_symbol_exactly(monkeypatch):
    # h^2 added to the lift of the Casimir changes its principal symbol
    P = preset("sl2")
    real = construct_mod.symmetrize

    def faulty(alg, f):
        u = real(alg, f)
        return u + alg.gen(0) * alg.gen(0) if f.degree() == 2 else u

    monkeypatch.setattr(construct_mod, "symmetrize", faulty)
    with pytest.raises(ConstructError, match="^symmetrized lift changed the principal symbol$"):
        construct_theorem(P.algebra, casimirs=P.casimirs)
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))
    with pytest.raises(ConstructError, match="^symmetrized lift changed the principal symbol$"):
        quantum_mf(P.algebra, P.casimirs, gamma)


@pytest.mark.parametrize("name", ["sl2", "so3"])
def test_regular_form_names_a_failed_search_exactly(monkeypatch, name):
    # every stabilizer comes back as the whole algebra, never of dim ind;
    # sl2 has weights in its basis, so3 none
    L = preset(name).algebra
    calls = []

    def never_regular(L, gamma):
        calls.append(gamma)
        return L.span_of_indices(range(L.dim))

    monkeypatch.setattr(construct_mod, "stabilizer", never_regular)
    with pytest.raises(ConstructError, match="^no regular linear form found in 60 seeded draws$"):
        construct_theorem(L, casimirs=preset(name).casimirs)
    assert len(calls) >= 60


def test_certificate_catches_noncommuting_heisenberg_lift(monkeypatch):
    # y does not commute with the adjoined x
    real = construct_mod._corrected_lift

    def faulty(L, split, A_l, sub_vectors, alg):
        out = real(L, split, A_l, sub_vectors, alg)
        y = out.elements[0].alg.from_vector(split.y[0])
        return GeneratorSet("associative", out.elements + (y,), out.provenance + ("y",))

    monkeypatch.setattr(construct_mod, "_corrected_lift", faulty)
    P = preset("sl2-semidirect-h3")
    with pytest.raises(ConstructError, match=r"^certificate: generators \d+ and \d+ do not commute$"):
        construct_theorem(P.algebra, casimirs=P.casimirs)


# -- maximality probe ----------------------------------------------------------


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda L, A, h, g: gamma_shift(h, g, 1.5), ValueError),
        (lambda L, A, h, g: symmetric_invariants(L, 2.5), ValueError),
        (lambda L, A, h, g: maximality_probe(A, 1.9), ConstructError),
    ],
)
def test_non_integer_degree_is_an_error(call, error):
    L = preset("sl2").algebra
    A = GeneratorSet("associative", [EnvelopingAlgebra(L).gen(0)], ["h"])
    h = PolyElement.variable(QQ, 3, 0) ** 2
    with pytest.raises(error, match="integer"):
        call(L, A, h, LinearForm(QQ, vec(QQ, [1, 0, 0])))


def test_maximality_probe_finds_missing_generator():
    L = semidirect()
    A = EnvelopingAlgebra(L)
    h, e, f, x, y, z = (A.gen(i) for i in range(6))
    gs = GeneratorSet("associative", [z, x, e * z * 2 - x * x], ["z", "x", "2ez-xx"])
    rep = maximality_probe(gs, 1)
    assert rep.degree == 1
    assert [u.render() for u in rep.new_elements] == ["e"]
    assert rep.still_commutative
    assert rep.trdeg_gain == 0


def test_maximality_probe_saturated_set():
    L = semidirect()
    A = EnvelopingAlgebra(L)
    h, e, f, x, y, z = (PolyElement.variable(QQ, 6, i) for i in range(6))
    p = h * h * z + h * x * y * 2 + e * f * z * 4 + e * y * y * 2 - f * x * x * 2
    from lieshift.pbw import symmetrize

    gs = GeneratorSet(
        "associative",
        [A.gen(5), A.gen(3), A.gen(5) * A.gen(0) + A.gen(3) * A.gen(4), symmetrize(A, p)],
        ["z", "x", "zh+xy", "H2"],
    )
    rep = maximality_probe(gs, 1)
    assert rep.new_elements == ()
    assert rep.centralizer_dim == 3  # 1, z, x


def test_a_13_dimensional_upper_triangular_algebra_is_refused_as_pinned():
    # a valid solvable algebra: the strictly upper units e13 ... e45 of 5 x 5
    # matrices and four diagonal matrices, with [d, e_ij] = (d_i - d_j) e_ij
    # and [e_ij, e_jk] = e_ik. No candidate of the abelian-ideal search keeps
    # the transcendence degree; once the search reaches it, this test is to
    # pin its certificate instead
    import json
    from pathlib import Path

    path = Path(__file__).resolve().parent / "data" / "upper-triangular-13.json"
    L = load_algebra(json.loads(path.read_text()))
    assert L.dim == 13
    with pytest.raises(ConstructError) as exc:
        construct_theorem(L)
    assert str(exc.value) == "no candidate kept the transcendence degree; extend the list"
