import gc
import random
import re
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from factories import (
    permuted,
    permuted_annotated,
    reference_bracket,
    reference_coordinates_by_residual,
    reference_killing_nondegenerate_on,
    reference_solve,
    reference_v_stabilizer,
)
from lieshift import liealg
from lieshift.construct import abelian_qhat, construct_theorem
from lieshift.fields import QQ, FieldError
from lieshift.invariants import is_regular
from lieshift.liealg import (
    HeisenbergSplit,
    LieAlgebra,
    LieAlgebraError,
    LinearForm,
    Subspace,
    bracket,
    center_of,
    check_split,
    classify_nilradical,
    coadjoint_form,
    _darboux_split,
    _derived_of,
    _derived_series,
    direct_sum,
    is_reductive,
    killing_matrix,
    _lower_central,
    _nilradical,
    stabilizer,
    subalgebra_of,
    validate,
    vec,
)
from lieshift.linalg import kernel_basis, rank
from lieshift.presets import preset, preset_names


def sl2():
    return preset("sl2").algebra


def h3():
    return preset("heisenberg1").algebra


def test_constructor_checks():
    with pytest.raises(LieAlgebraError):
        LieAlgebra(QQ, ["a", "a"], {})
    with pytest.raises(LieAlgebraError):
        LieAlgebra(QQ, ["a", "b"], {(1, 0): {0: 1}})
    with pytest.raises(LieAlgebraError):
        LieAlgebra(QQ, ["a", "b"], {(0, 2): {0: 1}})
    # int coefficients are converted, zeros dropped
    L = LieAlgebra(QQ, ["a", "b"], {(0, 1): {0: 0, 1: 2}})
    assert L.table == {(0, 1): {1: QQ.from_int(2)}}


def test_out_of_range_indices_rejected():
    S = sl2()
    with pytest.raises(LieAlgebraError):
        LieAlgebra(QQ, S.labels, S.table, {"levi": [99], "nilradical": [-1]})
    for key, idxs in (("levi", [0, 3]), ("nilradical", [-1]),
                      ("solvable_radical", [1.5]), ("central", [3])):
        with pytest.raises(LieAlgebraError):
            LieAlgebra(QQ, S.labels, S.table, {key: idxs})
    with pytest.raises(LieAlgebraError):
        LieAlgebra(QQ, ["a", "b"], {(0, 1): {5: 1}})  # [a, b] = x_5 in dim 2
    for idxs in ([3], [-1], [0, 1, 2, 3], ["e"]):
        with pytest.raises(LieAlgebraError):
            S.span_of_indices(idxs)
    assert S.span_of_indices([2, 0, 2]).pivots == (0, 2)


def test_bracket_basis_antisymmetry():
    L = sl2()
    assert L.bracket_basis(1, 0) == {k: -c for k, c in L.bracket_basis(0, 1).items()}
    assert L.bracket_basis(2, 2) == {}


def test_bracket_bilinear():
    L = sl2()
    h, e, f = (L.basis_vector(i) for i in range(3))
    he = bracket(L, h, e)
    assert [str(c) for c in he] == ["0", "2", "0"]
    two_h = vec(QQ, [2, 0, 0])
    assert bracket(L, two_h, e) == tuple(c + c for c in he)
    ef = bracket(L, e, f)
    assert [str(c) for c in ef] == ["1", "0", "0"]


def test_bracket_rejects_foreign_input():
    L = sl2()
    F = QQ.extend("t")
    h, e = L.basis_vector(0), L.basis_vector(1)
    with pytest.raises(LieAlgebraError):
        bracket(L, h, e[:2])
    with pytest.raises(FieldError):
        bracket(L, (F.var("t"), QQ.zero, QQ.zero), e)
    with pytest.raises(LieAlgebraError):
        LieAlgebra(QQ, ["a", "b"], {(0, 1): {1: F.var("t")}})


def test_validate_good_and_bad():
    assert validate(sl2()).ok
    bad = LieAlgebra(QQ, ["x", "y", "z"], {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})
    rep = validate(bad)
    assert not rep.ok
    assert rep.jacobi_failures == ((0, 1, 2),)


def reference_jacobi_failures(L):
    """Jacobi failures from dense bracket vectors on every basis triple."""
    basis = [L.basis_vector(i) for i in range(L.dim)]
    out = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                s = bracket(L, bracket(L, basis[i], basis[j]), basis[k])
                for a, b, c in ((j, k, i), (k, i, j)):
                    t = bracket(L, bracket(L, basis[a], basis[b]), basis[c])
                    s = tuple(x + y for x, y in zip(s, t))
                if any(not x.is_zero for x in s):
                    out.append((i, j, k))
    return out


def _perturbed(L, key, k, c):
    table = {ij: dict(comp) for ij, comp in L.table.items()}
    comp = table.setdefault(key, {})
    comp[k] = comp.get(k, L.field.zero) + c
    return LieAlgebra(L.field, L.labels, table)


def test_validate_lists_every_failing_triple():
    gl3 = preset("gl3").algebra
    bad = _perturbed(gl3, (1, 5), 2, QQ.from_int(1))  # [e12, e23] = e13 + e13
    rep = validate(bad)
    assert len(rep.jacobi_failures) > 1
    assert rep.jacobi_failures == tuple(reference_jacobi_failures(bad))
    L = preset("borel-sl3").algebra
    hat = abelian_qhat(L, classify_nilradical(L).h).algebra
    assert hat.field.level == 1 and validate(hat).ok
    w1 = hat.field.var("w1")
    bad_hat = _perturbed(hat, (0, 3), 1, w1)  # [u1, delta] = w1 e12
    rep = validate(bad_hat)
    assert len(rep.jacobi_failures) > 1
    assert rep.jacobi_failures == tuple(reference_jacobi_failures(bad_hat))


def test_validate_annotation_failures():
    L = LieAlgebra(QQ, ["x", "y", "z"], {(0, 1): {2: 1}}, {"central": [0]})
    rep = validate(L)
    assert any("central index 0" in m for m in rep.annotation_failures)
    L2 = LieAlgebra(QQ, ["h", "e", "f"], preset("sl2").algebra.table, {"nilradical": [1]})
    rep2 = validate(L2)
    assert any("not an ideal" in m for m in rep2.annotation_failures)


def test_validate_reports_an_annotation_that_is_not_bracket_closed():
    # [e, f] = h leaves span{e, f}: no structure constants to test nilpotency on
    L = LieAlgebra(QQ, ("h", "e", "f"), sl2().table, {"nilradical": [1, 2]})
    assert validate(L).annotation_failures == ("nilradical annotation is not an ideal",)


def test_subspace_basics():
    S = Subspace(QQ, 3, [vec(QQ, [1, 1, 0]), vec(QQ, [2, 2, 0]), vec(QQ, [0, 0, 1])])
    assert S.dim == 2
    assert S.contains(vec(QQ, [3, 3, 5]))
    assert not S.contains(vec(QQ, [1, 0, 0]))
    assert S.coordinates(vec(QQ, [1, 0, 0])) is None
    c = S.coordinates(vec(QQ, [2, 2, -1]))
    got = [sum((ci * bi for ci, bi in zip(c, col)), QQ.zero) for col in zip(*S.basis)]
    assert tuple(got) == vec(QQ, [2, 2, -1])


# -- Subspace.coordinates against the elimination it replaced ----------------

QT = QQ.extend("t")
QTS = QT.extend("s")


def reference_coordinates(S, v):
    """Coordinates by solving basis^T c = v with the reference rref."""
    if not S.basis:
        return [] if all(c.is_zero for c in vec(S.field, v)) else None
    cols = [list(b) for b in zip(*S.basis)]
    return reference_solve(S.field, cols, list(vec(S.field, v)))


def _scalar(field):
    small = st.integers(-3, 3)
    if field is QQ:
        return st.builds(QQ.rational, small, st.integers(1, 3))
    if field is QTS:
        t, s = QTS.var("t"), QTS.var("s")
        return st.builds(
            lambda a, b, c, d: (QTS.from_int(a) + b * t * s) / (QTS.from_int(c) + d * s + t),
            small, small, st.integers(1, 3), st.integers(0, 2),
        )
    t = QT.var("t")
    return st.builds(
        lambda a, b, c, d: (QT.from_int(a) + QT.from_int(b) * t) / (QT.from_int(c) + t * d),
        small, small, st.integers(1, 3), st.integers(0, 1),
    )


@st.composite
def subspace_and_probes(draw, field):
    n = draw(st.integers(1, 4))
    scalar = _scalar(field)
    vector = st.lists(scalar, min_size=n, max_size=n).map(tuple)
    shape = draw(st.sampled_from(["random", "empty", "full"]))
    if shape == "empty":
        gens = []
    elif shape == "full":
        gens = [tuple(field.one if k == i else field.zero for k in range(n)) for i in range(n)]
    else:
        gens = draw(st.lists(vector, min_size=1, max_size=n + 1))
    S = Subspace(field, n, gens)
    inside = []
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(scalar, min_size=len(gens), max_size=len(gens)))
        w = [field.zero] * n
        for c, g in zip(coeffs, gens):
            w = [a + c * b for a, b in zip(w, g)]
        inside.append(tuple(w))
    # arbitrary vectors lie outside a proper subspace unless they happen to
    # land in it
    arbitrary = draw(st.lists(vector, max_size=3))
    return S, inside, arbitrary, gens


def _check_coordinates_match(case):
    S, inside, arbitrary, gens = case
    for v in inside:
        assert S.coordinates(v) == reference_coordinates(S, v)
        assert S.coordinates(v) is not None
    for v in arbitrary:
        assert S.coordinates(v) == reference_coordinates(S, v)
    T = Subspace(S.field, S.ambient_dim, inside + arbitrary)
    assert all(S.contains(b) for b in T.basis) == all(
        reference_coordinates(S, b) is not None for b in T.basis
    )
    assert all(S.contains(b) for b in Subspace(S.field, S.ambient_dim, gens).basis)


@settings(max_examples=150, deadline=None)
@given(subspace_and_probes(QQ))
def test_coordinates_match_reference_level0(case):
    _check_coordinates_match(case)


@settings(max_examples=60, deadline=None)
@given(subspace_and_probes(QT))
def test_coordinates_match_reference_level1(case):
    _check_coordinates_match(case)


@settings(max_examples=25, deadline=None)
@given(subspace_and_probes(QTS))
def test_coordinates_match_reference_level2(case):
    _check_coordinates_match(case)


def test_coordinates_scale_the_residual_by_non_unit_pivots():
    S = Subspace(QQ, 3, [vec(QQ, [2, 3, 0])])
    assert S.basis == [vec(QQ, [2, 3, 0])]  # primitive, pivot entry 2
    assert S.coordinates(vec(QQ, [4, 6, 0])) == [QQ.from_int(2)]
    assert S.coordinates(vec(QQ, [1, Fraction(3, 2), 0])) == [QQ.rational(1, 2)]
    assert S.coordinates(vec(QQ, [1, 1, 0])) is None
    # two pivots 2 and 3: the residual is rescaled after the first row
    T = Subspace(QQ, 3, [vec(QQ, [2, 0, 3]), vec(QQ, [0, 3, 1])])
    assert [b[p] for b, p in zip(T.basis, T.pivots)] == [QQ.from_int(2), QQ.from_int(3)]
    assert T.coordinates(vec(QQ, [1, 1, Fraction(11, 6)])) == [
        QQ.rational(1, 2), QQ.rational(1, 3)
    ]
    assert T.coordinates(vec(QQ, [1, 1, 2])) is None


# -- cleared brackets and membership against the dense reference path --------


def _pivot_rows(field, n):
    """Rows whose primitive forms have pivot entries other than 1: 2 and 3
    over Q, the top variable u above (u is not a unit of its ring)."""
    if field is QQ:
        p, q = QQ.from_int(2), QQ.from_int(3)
    else:
        p = field.var(field.variables[-1])
        q = p
    zero = field.zero
    rows = [(p, p + 1) + (zero,) * (n - 2)]
    if n >= 4:
        rows.append((zero, zero, q, field.one))
    return rows


@st.composite
def algebra_subspace_and_pair(draw, field):
    n = draw(st.integers(2, 4 if field is QQ else 3))
    scalar = _scalar(field)
    constant = scalar
    if field is QTS:
        # the general scalars make the dense reference slow at this level
        t, s = QTS.var("t"), QTS.var("s")
        small = st.integers(-3, 3)
        scalar = st.builds(
            lambda a, b, c, d: (QTS.from_int(a) + b * s + c * t) / (s * d + 1),
            small, small, small, st.integers(0, 1),
        )
        constant = small.map(field.from_int)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                ks = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
                table[(i, j)] = {k: draw(constant) for k in sorted(ks)}
    # one constant with a denominator, so the common denominator D is not 1
    u = field.from_int(2) if field is QQ else field.var(field.variables[-1]) + 1
    table.setdefault((0, 1), {})[n - 1] = field.one / u
    L = LieAlgebra(field, ["x%d" % i for i in range(n)], table)
    vector = st.lists(scalar, min_size=n, max_size=n).map(tuple)
    a, b = draw(vector), draw(vector)
    shape = draw(st.sampled_from(["pivots", "random", "full", "empty"]))
    if shape == "pivots":
        rows = _pivot_rows(field, n)
        scales = draw(st.lists(scalar.filter(bool), min_size=len(rows), max_size=len(rows)))
        gens = [tuple([c * e for e in r]) for c, r in zip(scales, rows)]
    elif shape == "random":
        gens = draw(st.lists(vector, min_size=1, max_size=n))
    elif shape == "full":
        gens = [L.basis_vector(i) for i in range(n)]
    else:
        gens = []
    with_bracket = draw(st.booleans())
    if with_bracket:
        c = draw(scalar)
        gens.append(tuple([c * e for e in bracket(L, a, b)]))
    return L, Subspace(field, n, gens), a, b, shape == "pivots" and not with_bracket, draw(scalar)


def _check_cleared_path(case):
    L, S, a, b, pivots, scale = case
    F = L.field
    assert L.kernel_brackets[0] != 1
    if pivots:
        assert any(not c.is_one for c in (r[p] for r, p in zip(S.basis, S.pivots)))
    sa, sb = liealg._supports(L, (a, b))
    cleared = liealg._bracket_cleared(L, sa, sb)
    assert all(x for _, x in cleared[1])
    ref = reference_bracket(L, a, b)
    assert liealg._wrapped(L, cleared) == ref == bracket(L, a, b)
    want = reference_coordinates_by_residual(S, ref)
    assert S._spans(cleared[1]) == (want is not None)
    assert S._coordinates(*cleared) == want
    assert S.coordinates(ref) == want
    assert S.contains(ref) == (want is not None)
    if not scale.is_zero:  # scaling is free: a ring multiple of the support
        r = F.clear([scale])[1][0]
        assert S._spans([(k, r * x) for k, x in cleared[1]]) == (want is not None)
    basis = S.basis

    def inside(u, w):
        return reference_coordinates_by_residual(S, reference_bracket(L, u, w)) is not None

    closed = all(inside(u, w) for u in basis for w in basis)
    assert liealg._is_subalgebra(L, S) == closed
    units = [L.basis_vector(i) for i in range(L.dim)]
    assert liealg._is_ideal(L, S) == all(inside(e, w) for e in units for w in basis)
    T = Subspace(F, L.dim, [a, b])
    assert liealg._maps_into(L, T, S) == all(inside(u, w) for u in T.basis for w in basis)
    if closed:
        sub, _ = subalgebra_of(L, S)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                coords = reference_coordinates_by_residual(
                    S, reference_bracket(L, basis[i], basis[j])
                )
                want_ij = {k: c for k, c in enumerate(coords) if not c.is_zero}
                assert sub.bracket_basis(i, j) == want_ij


@settings(max_examples=100, deadline=None)
@given(algebra_subspace_and_pair(QQ))
def test_cleared_membership_matches_the_dense_path_level0(case):
    _check_cleared_path(case)


@settings(max_examples=40, deadline=None)
@given(algebra_subspace_and_pair(QT))
def test_cleared_membership_matches_the_dense_path_level1(case):
    _check_cleared_path(case)


@settings(max_examples=12, deadline=None)
@given(algebra_subspace_and_pair(QTS))
def test_cleared_membership_matches_the_dense_path_level2(case):
    _check_cleared_path(case)


def test_subspace_rejects_a_vector_of_the_wrong_length():
    with pytest.raises(LieAlgebraError) as e:
        Subspace(QQ, 2, [vec(QQ, [1])])
    assert str(e.value) == "vector length does not match ambient dim"
    S = Subspace(QQ, 2, [vec(QQ, [1, 0])])
    with pytest.raises(LieAlgebraError) as e:
        S.coordinates(vec(QQ, [1, 0, 0]))
    assert str(e.value) == "vector length does not match ambient dim"


def test_subspace_equality_is_canonical():
    A = Subspace(QQ, 2, [vec(QQ, [1, 1]), vec(QQ, [1, -1])])
    B = Subspace(QQ, 2, [vec(QQ, [1, 0]), vec(QQ, [0, 1])])
    assert A == B and hash(A) == hash(B)
    assert all(A.contains(b) for b in Subspace(QQ, 2, [vec(QQ, [3, 7])]).basis)


def test_coadjoint_and_stabilizer():
    L = sl2()
    gamma = LinearForm(QQ, vec(QQ, [1, 0, 0]))  # dual to h
    M = coadjoint_form(L, gamma)
    assert rank(QQ, M) == 2
    st = stabilizer(L, gamma)
    assert st.dim == 1 and st.contains(L.basis_vector(0))
    N = h3()
    stz = stabilizer(N, LinearForm(QQ, vec(QQ, [0, 0, 1])))
    assert stz.dim == 1 and stz.contains(N.basis_vector(2))


@pytest.mark.parametrize("coords", [[1, 0], [1, 0, 0, 5], [0, 1, 0, 0]])
def test_wrong_length_linear_form_is_rejected(coords):
    # a short form read past its end; a long one dropped its extra
    # coordinates and gave a plausible stabilizer and regularity
    L = sl2()
    gamma = LinearForm(QQ, coords)
    want = "linear form has %d coordinates, want 3" % len(coords)
    for use in (coadjoint_form, stabilizer, is_regular):
        with pytest.raises(LieAlgebraError, match=want):
            use(L, gamma)


def test_linear_form_over_another_field_is_rejected():
    # a Q(t) form on sl2 failed inside Field.clear with an AttributeError,
    # and so did a Q form on an algebra over Q(w1)
    T = QQ.extend("t")
    N = preset("heisenberg2").algebra
    H = abelian_qhat(N, N.span_of_indices([4])).algebra
    cases = [
        (sl2(), LinearForm(T, [T.var("t"), 0, 0]), "linear form over Q(t), algebra over Q"),
        (H, LinearForm(QQ, [1] + [0] * (H.dim - 1)), "linear form over Q, algebra over Q(w1)"),
    ]
    for L, gamma, want in cases:
        for use in (coadjoint_form, stabilizer, is_regular):
            with pytest.raises(LieAlgebraError, match="^%s$" % re.escape(want)):
                use(L, gamma)


def test_structure_series():
    N = h3()
    assert _lower_central(N, _derived_of(N))[-1].dim == 0  # nilpotent
    B = preset("borel-sl2").algebra
    dB = _derived_of(B)
    assert _derived_series(B, dB)[-1].dim == 0 and _lower_central(B, dB)[-1].dim
    S = sl2()
    assert _derived_of(S).dim == 3 and _derived_series(S, _derived_of(S))[-1].dim == 3
    assert _derived_of(preset("abelian3").algebra).dim == 0
    assert center_of(h3()).dim == 1


def test_subalgebra_of():
    L = sl2()
    S = L.span_of_indices([0, 1])
    sub, amb = subalgebra_of(L, S)
    assert sub.labels == ("h", "e")
    assert sub.table == {(0, 1): {1: QQ.from_int(2)}}
    assert amb == [L.basis_vector(0), L.basis_vector(1)]
    with pytest.raises(LieAlgebraError):
        subalgebra_of(L, L.span_of_indices([1, 2]))  # [e, f] = h escapes


def test_derived_labels_fall_back_to_generic_names_on_a_clash():
    # gl2 with e12 named v0: [q, q]'s echelon basis starts with a vector that
    # is not a coordinate vector, whose generic name v0 was also e12's, and
    # subalgebra_of raised "duplicate basis labels"
    gl2 = preset("gl2").algebra
    assert subalgebra_of(gl2, _derived_of(gl2))[0].labels == ("v0", "e12", "e21")
    L = LieAlgebra(QQ, ("e11", "v0", "e21", "e22"), gl2.table)
    assert subalgebra_of(L, _derived_of(L))[0].labels == ("v0", "v1", "v2")
    assert is_reductive(L)


def test_direct_sum_primes_a_label_until_it_is_new():
    # (a, a') + (a) gave a' twice and raised "duplicate basis labels"
    L = direct_sum(LieAlgebra(QQ, ("a", "a'"), {}), LieAlgebra(QQ, ("a", "b"), {}))
    assert L.labels == ("a", "a'", "a''", "b")


def test_direct_sum():
    L = direct_sum(sl2(), preset("abelian1").algebra)
    assert L.dim == 4
    assert validate(L).ok
    # no cross brackets
    for (i, j) in L.table:
        assert (i < 3) == (j < 3)


def test_killing_matrix_sl2():
    K = killing_matrix(sl2())
    expect = [["8", "0", "0"], ["0", "0", "4"], ["0", "4", "0"]]
    assert [[str(K[i][j]) for j in range(3)] for i in range(3)] == expect


def test_is_reductive():
    assert is_reductive(sl2())
    assert is_reductive(preset("gl2").algebra)
    assert is_reductive(preset("abelian3").algebra)
    assert not is_reductive(preset("borel-sl2").algebra)
    assert not is_reductive(h3())


def test_is_reductive_rejects_lying_annotation():
    N = h3()
    bad = LieAlgebra(QQ, N.labels, N.table, {"solvable_radical": [2]})
    with pytest.raises(LieAlgebraError, match=(
        "^annotated radical equals the center but the Killing form "
        "degenerates on the derived algebra$"
    )):
        is_reductive(bad)


def test_nilradical_of():
    assert classify_nilradical(h3()).nilradical.dim == 3
    aff = preset("aff1").algebra
    nr = aff.annotations.get("nilradical")
    plain = LieAlgebra(QQ, aff.labels, aff.table)
    assert _nilradical(plain)[0].dim == 1
    if nr is not None:
        assert _nilradical(plain)[0] == nr
    bare_sl2 = LieAlgebra(QQ, ("h", "e", "f"), sl2().table)
    with pytest.raises(LieAlgebraError):
        _nilradical(bare_sl2)


def test_classify_nilradical_kinds():
    assert classify_nilradical(preset("abelian1").algebra).kind == "line"
    assert classify_nilradical(preset("aff1").algebra).kind == "abelian_ideal"
    assert classify_nilradical(preset("abelian3").algebra).kind == "abelian_ideal"
    k = classify_nilradical(h3())
    assert k.kind == "heisenberg" and k.split is not None
    assert not check_split(h3(), k.split)
    bare_sl2 = LieAlgebra(QQ, ("h", "e", "f"), sl2().table, {"nilradical": []})
    assert classify_nilradical(bare_sl2).kind == "trivial"


def test_darboux_split_and_check():
    L = preset("sl2-semidirect-h3").algebra
    n = classify_nilradical(L).nilradical
    sub, sub_basis = subalgebra_of(L, n)
    split = _darboux_split(L, n, center_of(sub), sub_basis)
    assert check_split(L, split) == []
    assert len(split.x) == 1 and len(split.y) == 1
    # sabotage: swap z for a non-central vector
    bad = HeisenbergSplit(l_basis=split.l_basis, x=split.x, y=split.y, z=L.basis_vector(0))
    assert check_split(L, bad)


def test_check_split_reports_an_unstable_span_once():
    # with l_basis the whole algebra both x and y move span{x, y} off itself
    L = preset("sl2-semidirect-h3").algebra
    split = L.annotations["heisenberg_split"]
    whole = HeisenbergSplit(
        l_basis=L.span_of_indices(range(L.dim)), x=split.x, y=split.y, z=split.z
    )
    assert check_split(L, whole) == ["span{x, y} is not stable under l_basis"]


def test_check_split_catches_bad_pairing():
    N = h3()
    x, y, z = (N.basis_vector(i) for i in range(3))
    good = HeisenbergSplit(l_basis=Subspace(QQ, 3, [z]), x=(x,), y=(y,), z=z)
    assert check_split(N, good) == []
    flipped = HeisenbergSplit(l_basis=Subspace(QQ, 3, [z]), x=(y,), y=(x,), z=z)
    msgs = check_split(N, flipped)
    assert any("!= z" in m for m in msgs)


def test_ltilde():
    L = preset("sl2-semidirect-h3").algebra
    split = classify_nilradical(L).split
    lt = split.l_basis
    assert lt == reference_v_stabilizer(L, split)
    assert lt.dim == 4
    assert lt.contains(split.z)
    for i in range(3):  # sl2 copy sits inside the stabilizer
        assert lt.contains(L.basis_vector(i))


def test_ltilde_covers_names_each_failure_exactly():
    # the checks construct_theorem runs on a split's own l_basis, each forged
    L = preset("sl2-semidirect-h3").algebra
    split = classify_nilradical(L).split
    with pytest.raises(LieAlgebraError, match="^stabilizer plus Heisenberg ideal does not span$"):
        liealg._check_ltilde_covers(L, split, Subspace(QQ, L.dim, [split.z]))
    # the whole algebra spans, but meets h = span{x, y, z} in dim 3
    everything = L.span_of_indices(range(L.dim))
    with pytest.raises(LieAlgebraError, match="^stabilizer meets the ideal off the center line$"):
        liealg._check_ltilde_covers(L, split, everything)
    # the sl2 copy spans with h, but misses it entirely
    with pytest.raises(LieAlgebraError, match="^stabilizer meets the ideal off the center line$"):
        liealg._check_ltilde_covers(L, split, L.span_of_indices([0, 1, 2]))
    liealg._check_ltilde_covers(L, split, split.l_basis)


def test_ltilde_is_the_split_stabilizer_on_every_heisenberg_preset():
    names = ["heisenberg1", "heisenberg2", "heisenberg4"] + [
        n for n in preset_names() if not n.endswith("N")
    ]
    seen = []
    for name in names:
        L = preset(name).algebra
        if not L.table or is_reductive(L):
            continue
        cls = classify_nilradical(L)
        if cls.kind == "heisenberg":
            seen.append(name)
            assert reference_v_stabilizer(L, cls.split) == cls.split.l_basis, name
    assert seen == ["heisenberg1", "heisenberg2", "heisenberg4", "sl2-semidirect-h3"]


# classify_nilradical's Darboux split: x, y, z and l_basis by label, in the
# preset's axis basis and after a permutation seeded by the preset's name
# that carries the annotations (sl2-semidirect-h3 keeps its levi branch)
SPLIT_GOLDENS = {
    ("heisenberg1", "axis"): (["x1"], ["y1"], "z", ["z"]),
    ("heisenberg1", "permuted"): (["y1"], ["-x1"], "z", ["z"]),
    ("heisenberg2", "axis"): (["x1", "x2"], ["y1", "y2"], "z", ["z"]),
    ("heisenberg2", "permuted"): (["x1", "y2"], ["y1", "-x2"], "z", ["z"]),
    ("heisenberg4", "axis"): (["x1", "x2", "x3", "x4"], ["y1", "y2", "y3", "y4"], "z", ["z"]),
    ("heisenberg4", "permuted"): (
        ["y3", "y2", "x1", "y4"], ["-x3", "-x2", "y1", "-x4"], "z", ["z"]
    ),
    ("sl2-semidirect-h3", "axis"): (["x"], ["y"], "z", ["h", "e", "f", "z"]),
    ("sl2-semidirect-h3", "permuted"): (["y"], ["-x"], "z", ["f", "e", "z", "h"]),
}


def _by_label(L, v):
    terms = []
    for c, lab in zip(v, L.labels):
        if c:
            terms.append(lab if c.is_one else "-" + lab if (-c).is_one else "%s*%s" % (c, lab))
    return " + ".join(terms)


@pytest.mark.parametrize("name,basis", list(SPLIT_GOLDENS))
def test_split_goldens(name, basis):
    L = preset(name).algebra
    if basis == "permuted":
        perm = list(range(L.dim))
        random.Random(name).shuffle(perm)
        L = permuted_annotated(L, perm)
        assert validate(L).ok
    split = classify_nilradical(L).split
    got = (
        [_by_label(L, v) for v in split.x],
        [_by_label(L, v) for v in split.y],
        _by_label(L, split.z),
        [_by_label(L, v) for v in split.l_basis.basis],
    )
    assert got == SPLIT_GOLDENS[name, basis]


def test_a_forged_functional_is_caught_by_check_split(monkeypatch):
    # psi plus the x-coordinate still takes 1 at z, so the pairing is the
    # same; its stabilizer rows keep h + y and e - x, a subalgebra with z
    # that moves x off span{x, y}. check_split, the one check of l_basis,
    # names it
    L = preset("sl2-semidirect-h3").algebra
    real = liealg._stable_complement

    def forged(*args):
        psi, v = real(*args)
        return {**psi, 3: QQ.one}, v

    monkeypatch.setattr(liealg, "_stable_complement", forged)
    msg = "^Darboux construction failure: span\\{x, y\\} is not stable under l_basis$"
    with pytest.raises(LieAlgebraError, match=msg):
        classify_nilradical(L)


def test_ltilde_names_an_unclosed_stabilizer_exactly(monkeypatch):
    # a forged stabilizer spanned by the sl2 copy's e and f and by z, which
    # misses [e, f] = h; check_split at the end of _darboux_split names it
    L = preset("sl2-semidirect-h3").algebra
    forged = L.span_of_indices([1, 2, 5])
    assert not liealg._is_subalgebra(L, forged)
    monkeypatch.setattr(liealg, "_v_stabilizer", lambda *args: forged)
    msg = "^Darboux construction failure: l_basis is not a subalgebra$"
    with pytest.raises(LieAlgebraError, match=msg):
        classify_nilradical(L)


# -- the lazy structure layer against an eager reference ---------------------


def reference_center(L):
    """Kernel of the dense matrix with one row per (j, k), zero rows kept."""
    F = L.field
    rows = [
        [L.bracket_basis(i, j).get(k, F.zero) for i in range(L.dim)]
        for j in range(L.dim)
        for k in range(L.dim)
    ]
    return Subspace(F, L.dim, kernel_basis(F, rows, L.dim))


def reference_span(L, A, B):
    """span [A, B] over all ordered pairs."""
    vecs = [bracket(L, u, w) for u in A.basis for w in B.basis]
    return Subspace(L.field, L.dim, vecs)


def reference_series(L, step):
    full = L.span_of_indices(range(L.dim))
    out = [reference_span(L, full, full)]
    while out[-1].dim:
        nxt = step(full, out[-1])
        if nxt.dim == out[-1].dim:
            break
        out.append(nxt)
    return out


def _rescaled(L, field):
    """x_i -> s_i x_i over Q(t) with non-monic denominators s_i."""
    t = field.var("t")
    s = [
        (field.from_int(i + 2) * t + 1) / (field.from_int(3) * t + i - 1)
        for i in range(L.dim)
    ]
    table = {
        (i, j): {k: s[i] * s[j] * field.lift(c) / s[k] for k, c in comp.items()}
        for (i, j), comp in L.table.items()
    }
    return LieAlgebra(field, L.labels, table)


def filiform5():
    """[x0, xi] = x(i+1) for i = 1, 2, 3: a lower central series of length 4."""
    brackets = {(0, 1): {2: 1}, (0, 2): {3: 1}, (0, 3): {4: 1}}
    return LieAlgebra(QQ, ["x0", "x1", "x2", "x3", "x4"], brackets)


def _structure_cases():
    rng = random.Random(505)
    yield "filiform5", filiform5()
    for name in ["abelian3", "heisenberg1", "heisenberg2"] + [
        n for n in preset_names() if not n.endswith("N")
    ]:
        L = preset(name).algebra
        yield name, L
        perm = list(range(L.dim))
        rng.shuffle(perm)
        yield name + " permuted", permuted(L, perm)
        if L.dim <= 6:
            yield name + " over Q(t)", _rescaled(L, QT)


def test_structure_series_matches_eager_reference():
    for name, L in _structure_cases():
        full = L.span_of_indices(range(L.dim))
        lower = reference_series(L, lambda full, last: reference_span(L, full, last))
        dseries = reference_series(L, lambda full, last: reference_span(L, last, last))
        derived = _derived_of(L)
        assert center_of(L) == reference_center(L), name
        assert derived == reference_span(L, full, full), name
        assert _lower_central(L, derived) == lower, name
        assert _derived_series(L, derived) == dseries, name
    F5 = filiform5()
    assert [S.dim for S in _lower_central(F5, _derived_of(F5))] == [3, 2, 1, 0]


def _reference_is_reductive(L):
    """is_reductive on the reference center, [q, q] and dense Killing test;
    the message of the rejection it would raise, if any."""
    full = L.span_of_indices(range(L.dim))
    c, d = reference_center(L), reference_span(L, full, full)
    rad = L.annotations.get("solvable_radical")
    if rad is not None:
        if rad == c and not reference_killing_nondegenerate_on(L, d):
            return (
                "annotated radical equals the center but the Killing form "
                "degenerates on the derived algebra"
            )
        return rad == c
    spans = Subspace(L.field, L.dim, list(c.basis) + list(d.basis)).dim == L.dim
    return c.dim + d.dim == L.dim and spans and reference_killing_nondegenerate_on(L, d)


def test_is_reductive_matches_the_dense_killing_reference():
    seen = set()
    for name, L in _structure_cases():
        # the Killing form of the ideal [q, q] is the restriction of q's
        D = _derived_of(L)
        got = rank(L.field, killing_matrix(subalgebra_of(L, D)[0])) == D.dim
        assert got == reference_killing_nondegenerate_on(L, D), name
        try:
            got = is_reductive(L)
        except LieAlgebraError as e:
            got = str(e)
        assert got == _reference_is_reductive(L), name
        seen.add(got)
    assert seen == {True, False}


def test_an_algebra_with_a_cached_series_is_freed_by_reference_counting():
    # every value an algebra keeps: kernel_brackets, the validate report, and
    # the nilradical subalgebra with its series, read again by classify
    P = preset("sl2-semidirect-h3").algebra
    L = LieAlgebra(P.field, P.labels, P.table, P.annotations)
    assert validate(L).ok and classify_nilradical(L).kind == "heisenberg"
    sub, _, lower = L._nilradical_sub
    assert L.kernel_brackets and L._validation is validate(L)
    ref = weakref.ref(L)
    gc.disable()  # a reference cycle would keep L until the cyclic collector runs
    try:
        del L
        assert ref() is None
    finally:
        gc.enable()
    assert sub.dim == 3 and lower[-1].dim == 0  # the series outlives its algebra


def _counting(monkeypatch, name):
    calls = []
    inner = getattr(liealg, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(liealg, name, counted)
    return calls


def test_is_reductive_builds_center_and_derived_once(monkeypatch):
    gl3 = preset("gl3").algebra
    L = LieAlgebra(gl3.field, gl3.labels, gl3.table)  # no cached series yet
    centers = _counting(monkeypatch, "center_of")
    derived = _counting(monkeypatch, "_derived_of")
    spans = _counting(monkeypatch, "_bracket_span")
    assert is_reductive(L)
    assert len(centers) == 1
    assert len(derived) == 1
    assert not spans  # [q, q] is read off the bracket table


def test_construct_computes_each_structure_fact_as_often_as_before(monkeypatch):
    # one construct_theorem on borel-sl3, which validates it, reduces along
    # an abelian ideal and recurses twice: [q, q] and the series of every
    # algebra it classifies, each computed where it is first needed
    derived = _counting(monkeypatch, "_derived_of")
    series = _counting(monkeypatch, "_series")
    construct_theorem(preset("borel-sl3").algebra)
    assert (len(derived), len(series)) == (6, 7)


def test_structure_series_eliminates_no_identity(monkeypatch):
    algebras = {name: preset(name).algebra for name in ["heisenberg2", "borel-sl3", "gl3"]}
    inputs = []
    inner = liealg.echelon_basis

    def recording(field, rows):
        inputs.append(rows)
        return inner(field, rows)

    monkeypatch.setattr(liealg, "echelon_basis", recording)
    for name, L in algebras.items():
        derived = _derived_of(L)
        assert center_of(L) is not None
        assert _lower_central(L, derived) and _derived_series(L, derived)
        F, n = L.field, L.dim
        identity = [[F.one if k == i else F.zero for k in range(n)] for i in range(n)]
        assert inputs
        assert all(rows != identity for rows in inputs), name
        inputs.clear()


def test_bracket_span_of_a_space_with_itself_brackets_each_pair_once(monkeypatch):
    L = preset("gl3").algebra
    full = L.span_of_indices(range(L.dim))
    calls = _counting(monkeypatch, "_bracket_cleared")  # the kernel of every bracket
    liealg._bracket_span(L, full, full)
    assert len(calls) == L.dim * (L.dim - 1) // 2


def test_subalgebra_of_marks_the_central_basis_vectors():
    for name in ["heisenberg2", "borel-sl3", "sl2-semidirect-h3", "gl3"]:
        L = preset(name).algebra
        spaces = [L.span_of_indices(range(L.dim)), center_of(L), _derived_of(L)]
        if "nilradical" in L.annotations:
            spaces.append(L.annotations["nilradical"])
        for S in spaces:
            sub, basis = subalgebra_of(L, S)
            want = {
                k for k, b in enumerate(basis)
                if all(all(c.is_zero for c in bracket(L, b, w)) for w in basis)
            }
            assert set(sub.central_indices()) == want, name


# -- exact rejection messages of the bracket-to-membership checks -------------


def _h2_split(x, y, l_basis=(4,)):
    """A split of heisenberg2 (x1, x2, y1, y2, z) with the given families as
    index combinations: each vector is a tuple of basis indices summed."""
    L = preset("heisenberg2").algebra

    def v(idxs):
        return tuple([QQ.from_int(sum(1 for i in idxs if i == k)) for k in range(L.dim)])

    return L, HeisenbergSplit(
        l_basis=L.span_of_indices(l_basis),
        x=tuple([v(i) for i in x]),
        y=tuple([v(i) for i in y]),
        z=L.basis_vector(4),
    )


def test_check_split_names_each_failure_exactly():
    L, split = _h2_split([(0,), (1,)], [(2,), (3,)])
    assert check_split(L, split) == []
    cases = [
        (([(0,), (1,)], [(2,)]), ["split has mismatched x/y lengths"]),
        (([(0,), (1,)], [(2,), (3, 2)]), ["[x_0, y_1] != 0"]),
        (([(0,), (1, 2)], [(2,), (3,)]), ["[x, x] family is not isotropic"]),
        (([(0,), (1,)], [(2,), (3, 0)]), ["[y, y] family is not isotropic"]),
    ]
    for (x, y), want in cases:
        L, split = _h2_split(x, y)
        assert check_split(L, split) == want, (x, y)
    N = h3()
    x, y, z = (N.basis_vector(i) for i in range(3))
    same = HeisenbergSplit(l_basis=Subspace(QQ, 3, [z]), x=(x,), y=(x,), z=z)
    assert check_split(N, same) == ["[x_0, y_0] != z", "x, y vectors are not independent"]


def test_check_split_names_each_l_basis_failure_exactly():
    L = preset("sl2-semidirect-h3").algebra
    split = L.annotations["heisenberg_split"]
    for idxs, want in [
        ([1, 2, 5], ["l_basis is not a subalgebra"]),  # [e, f] = h
        ([0, 1, 2], ["l_basis does not contain z"]),
    ]:
        bad = HeisenbergSplit(
            l_basis=L.span_of_indices(idxs), x=split.x, y=split.y, z=split.z
        )
        assert check_split(L, bad) == want, idxs


def test_check_split_names_a_center_that_is_not_central():
    # [x, y] = z, and t scales x and z: z is not central, all else holds
    L = LieAlgebra(
        QQ, ("t", "x", "y", "z"), {(0, 1): {1: 1}, (0, 3): {3: 1}, (1, 2): {3: 1}}
    )
    assert validate(L).ok
    t, x, y, z = (L.basis_vector(i) for i in range(4))
    split = HeisenbergSplit(l_basis=Subspace(QQ, 4, [z]), x=(x,), y=(y,), z=z)
    assert check_split(L, split) == ["split center is not central in the ambient algebra"]


def test_subalgebra_of_rejects_a_subspace_that_is_not_closed():
    L = sl2()
    with pytest.raises(LieAlgebraError) as e:
        subalgebra_of(L, L.span_of_indices([1, 2]))  # [e, f] = h
    assert str(e.value) == "subspace is not closed under the bracket"


def test_darboux_split_names_each_failure_exactly():
    A = preset("abelian2").algebra
    n = A.span_of_indices(range(2))
    with pytest.raises(LieAlgebraError) as e:
        sub, sub_basis = subalgebra_of(A, n)
        _darboux_split(A, n, center_of(sub), sub_basis)
    assert str(e.value) == "Darboux construction failure: nilradical center has dimension 2"
    F5 = filiform5()  # center span{x4}; [x0, x1] = x2 leaves it
    n = F5.span_of_indices(range(5))
    with pytest.raises(LieAlgebraError) as e:
        sub, sub_basis = subalgebra_of(F5, n)
        _darboux_split(F5, n, center_of(sub), sub_basis)
    assert str(e.value) == "Darboux construction failure: [n, n] leaves the center line"


def test_greedy_pairing_rejects_a_degenerate_pairing():
    N = h3()
    x, y, z = (N.basis_vector(i) for i in range(3))
    psi = {2: QQ.one}  # the z-coordinate
    for v_basis in ([x, z], [x], [y, x, z]):
        with pytest.raises(LieAlgebraError) as e:
            liealg._greedy_pairing(N, v_basis, psi)
        assert str(e.value) == "Darboux construction failure: degenerate symplectic pairing"
    xs, ys = liealg._greedy_pairing(N, [x, y], psi)
    assert (xs, ys) == ([x], [y])


def test_greedy_pairing_returns_a_darboux_basis_with_denominators():
    # [x1, y1] = z / 2 and [x2, y2] = 3 z: D = 2, and the pairs are scaled
    L = LieAlgebra(
        QQ, ("x1", "x2", "y1", "y2", "z"), {(0, 2): {4: Fraction(1, 2)}, (1, 3): {4: 3}}
    )
    x1, x2, y1, y2, z = (L.basis_vector(i) for i in range(5))

    def comb(*terms):
        return tuple([sum((QQ.rational(c) * v[k] for c, v in terms), QQ.zero) for k in range(5)])

    v_basis = [comb((1, x1), (1, y2)), comb((Fraction(2, 3), x2)), y1, comb((2, y2), (1, x2))]
    # psi(z / 5) = 1
    xs, ys = liealg._greedy_pairing(L, v_basis, {4: QQ.from_int(5)})
    zero = L.zero_vector()
    for i, u in enumerate(xs):
        for j, w in enumerate(ys):
            assert reference_bracket(L, u, w) == (comb((Fraction(1, 5), z)) if i == j else zero)
        for fam in (xs, ys):
            assert all(reference_bracket(L, fam[i], w) == zero for w in fam)


def test_validate_names_each_annotation_failure_exactly():
    table = sl2().table
    cases = [
        (LieAlgebra(QQ, ("h", "e", "f"), table, {"levi": [1, 2]}),
         ("levi annotation is not a subalgebra",)),
        (LieAlgebra(QQ, ("t", "y"), {(0, 1): {1: 1}}, {"nilradical": [0, 1]}),
         ("nilradical annotation is not nilpotent",)),
        (LieAlgebra(QQ, ("h", "e", "f"), table, {"solvable_radical": [0, 1, 2]}),
         ("solvable_radical annotation is not solvable",)),
    ]
    for L, want in cases:
        assert validate(L).annotation_failures == want, L.annotations


def test_classify_names_a_nilradical_that_is_not_nilpotent():
    # reached only when nothing validated the annotation: validate reports it
    L = LieAlgebra(QQ, ("t", "y"), {(0, 1): {1: 1}}, {"nilradical": [0, 1]})
    with pytest.raises(LieAlgebraError) as e:
        classify_nilradical(L)
    assert str(e.value) == "nilradical is not nilpotent"
