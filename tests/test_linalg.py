import random

import pytest
from hypothesis import given, settings, strategies as st

from factories import normalize_vector, reference_bareiss, reference_solve, rref
from lieshift.fields import QQ, Field, FieldError
from lieshift.invariants import symmetric_invariants
from lieshift.liealg import Subspace
from lieshift.linalg import _bareiss, echelon_basis, kernel_basis, rank
from lieshift.presets import preset


def _m(rows, field=QQ):
    conv = lambda x: x if not isinstance(x, int) else field.from_int(x)
    return [[conv(x) for x in r] for r in rows]


def test_matrix_validation():
    # rank and kernel_basis check their rows: _bareiss the lengths,
    # Field.clear_row each entry
    QT = QQ.extend("t")
    ragged = [[QQ.one], [QQ.one, QQ.zero]]
    raw_int = [[QQ.one, 1]]  # raw ints are not field elements
    wrong_level = [[QQ.one, QT.one]]
    for rows in (ragged, raw_int, wrong_level):
        with pytest.raises(FieldError):
            rank(QQ, rows)
        with pytest.raises(FieldError):
            kernel_basis(QQ, rows, 2)
    with pytest.raises(FieldError):
        kernel_basis(QQ, [[QQ.one, QQ.zero]], 3)  # rows shorter than ncols
    assert len(kernel_basis(QQ, [], 4)) == 4


def test_rank_simple():
    assert rank(QQ, _m([[1, 2], [2, 4]])) == 1
    assert rank(QQ, _m([[1, 0], [0, 1]])) == 2
    assert rank(QQ, _m([[0, 0], [0, 0]])) == 0
    assert rank(QQ, []) == 0


def test_rank_zero_head_rows():
    # regression: rows with a zero under the pivot still need rescaling,
    # or the fraction-free division at the next step is inexact
    M = _m([
        [2, 1, 1, 0],
        [0, 3, 1, 1],
        [0, 0, 5, 7],
        [2, 1, 1, 11],
    ])
    assert rank(QQ, M) == 4


def test_kernel_golden():
    # x + y + z = 0, y - z = 0  ->  kernel line through (2, -1, -1)
    ker = kernel_basis(QQ, _m([[1, 1, 1], [0, 1, -1]]), 3)
    assert len(ker) == 1
    assert [str(c) for c in ker[0]] == ["2", "-1", "-1"]


def test_kernel_of_zero_matrix():
    ker = kernel_basis(QQ, _m([[0, 0, 0]]), 3)
    assert len(ker) == 3
    # canonical unit vectors
    assert [[str(c) for c in v] for v in ker] == [
        ["1", "0", "0"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ]


def test_kernel_is_exact_kernel():
    rng = random.Random(7)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[QQ.from_int(rng.randint(-6, 6)) for _ in range(m)] for _ in range(n)]
        ker = kernel_basis(QQ, rows, m)
        assert rank(QQ, rows) + len(ker) == m
        for v in ker:
            for r in rows:
                s = QQ.zero
                for a, x in zip(r, v):
                    s = s + a * x
                assert s.is_zero


def test_rank_over_function_field():
    F = QQ.extend("t")
    t = F.var("t")
    M = [[t, F.one], [t * t, t]]
    assert rank(F, M) == 1
    ker = kernel_basis(F, M, 2)
    assert len(ker) == 1
    v = ker[0]
    assert (t * v[0] + v[1]).is_zero


def test_kernel_canonical_over_tower():
    F = QQ.extend("t")
    t = F.var("t")
    # single equation t*x + y = 0: kernel (1, -t) after normalization
    ker = kernel_basis(F, [[t, F.one]], 2)
    assert len(ker) == 1
    assert str(ker[0][0]) == "1" and str(ker[0][1]) == "-t"


def test_normalize_vector():
    v = [QQ.rational(-1, 2), QQ.rational(3, 2), QQ.zero]
    out = normalize_vector(QQ, v)
    assert [str(c) for c in out] == ["1", "-3", "0"]
    F = QQ.extend("t")
    t = F.var("t")
    out2 = normalize_vector(F, [t * 2, t * t * 2])
    assert [str(c) for c in out2] == ["1", "t"]


def test_matrix_rejections_name_their_cause():
    with pytest.raises(FieldError) as e:
        rank(QQ, [[QQ.one], [QQ.one, QQ.zero]])
    assert str(e.value) == "ragged rows: each row needs 1 entries"
    with pytest.raises(FieldError) as e:
        kernel_basis(QQ, [[QQ.one, 1]], 2)
    assert str(e.value) == "row entry 1 is not a field element"


def test_elimination_rejects_elements_of_another_field():
    QT = QQ.extend("t")
    with pytest.raises(FieldError):
        rank(QQ, [[QT.one]])
    with pytest.raises(FieldError):
        Subspace(QT, 2, [(QQ.one, QQ.zero)])
    with pytest.raises(FieldError):
        normalize_vector(QQ, [QT.var("t")])


def test_rref_and_solve():
    rows, piv = rref(QQ, [[QQ.from_int(2), QQ.from_int(4)], [QQ.from_int(1), QQ.from_int(2)]])
    assert piv == [0]
    assert [[str(c) for c in r] for r in rows] == [["1", "2"]]
    x = reference_solve(QQ, [[QQ.one, QQ.one], [QQ.one, -QQ.one]], [QQ.from_int(3), QQ.one])
    assert [str(c) for c in x] == ["2", "1"]
    assert reference_solve(QQ, [[QQ.one], [QQ.one]], [QQ.one, QQ.zero]) is None
    assert reference_solve(QQ, [], []) == []
    x = reference_solve(QQ, [[QQ.one, QQ.one, QQ.one]], [QQ.from_int(5)])
    assert [str(c) for c in x] == ["5", "0", "0"]  # free variables 0


def test_rank_agrees_with_rref():
    rng = random.Random(11)
    for _ in range(30):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[QQ.rational(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)] for _ in range(n)]
        _, piv = rref(QQ, [list(r) for r in rows])
        assert rank(QQ, rows) == len(piv)


# -- echelon bases against the reference rref ---------------------------------

QT = QQ.extend("t")
QTS = QT.extend("s")


def _scalar(field):
    """Small scalars; above level 0, with a non-monic denominator."""
    small = st.integers(-3, 3)
    if field is QQ:
        return st.builds(QQ.rational, small, st.integers(1, 3))
    names = field.all_variables()
    return st.builds(
        lambda a, b, x, c, d, y: (field.from_int(a) + b * field.var(x))
        / (field.from_int(c) + d * field.var(y)),
        small, small, st.sampled_from(names),
        st.integers(1, 3), st.integers(0, 2), st.sampled_from(names),
    )


@st.composite
def matrices(draw, field, max_dim):
    """Rows of a random matrix, zeros and repeated rows likely."""
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim + 1))
    entry = st.one_of(st.just(field.zero), _scalar(field))
    rows = draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=1, max_size=n))
    if len(rows) > 1 and draw(st.booleans()):
        c = draw(_scalar(field))
        rows.append([a + c * b for a, b in zip(rows[0], rows[1])])
    return rows


def _same(xs, ys):
    return len(xs) == len(ys) and all(a == b and str(a) == str(b) for a, b in zip(xs, ys))


def _check_echelon(rows):
    field = rows[0][0].field
    red, piv = rref(field, rows)
    S = Subspace(field, len(rows[0]), rows)
    assert S.pivots == tuple(piv)
    assert len(S.basis) == len(red)
    for got, want in zip(S.basis, red):
        assert _same(got, normalize_vector(field, want))


@settings(max_examples=200, deadline=None)
@given(matrices(QQ, 5))
def test_echelon_basis_matches_reference_level0(rows):
    _check_echelon(rows)


@settings(max_examples=80, deadline=None)
@given(matrices(QT, 4))
def test_echelon_basis_matches_reference_level1(rows):
    _check_echelon(rows)


@settings(max_examples=25, deadline=None)
@given(matrices(QTS, 3))
def test_echelon_basis_matches_reference_level2(rows):
    _check_echelon(rows)


# -- rank and kernels of tall, sparse matrices against the reference rref -----
# Most rows have a zero head under most pivots, so elimination leaves them
# alone for several steps before it reads them again.


@st.composite
def sparse_matrices(draw, field):
    """Up to 13 x 6, mostly zeros: blocks of rows, each block nonzero only
    in a band of columns, shuffled, plus an optional dependent row."""
    m = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.integers(0, m - 1))
        hi = draw(st.integers(lo + 1, m))
        for _ in range(draw(st.integers(1, 4))):
            row = [field.zero] * m
            for j in range(lo, hi):
                if draw(st.integers(0, 2)) == 0:
                    row[j] = draw(_scalar(field))
            rows.append(row)
    rows = draw(st.permutations(rows))
    if len(rows) > 1 and draw(st.booleans()):
        c = draw(_scalar(field))
        rows.append([a + c * b for a, b in zip(rows[0], rows[-1])])
    return rows


def _reference_kernel(field, rows):
    """Rank and kernel basis read off the reference rref: for each free
    column f, the unit at f with the pivot entries -red[i][f], normalized."""
    red, piv = rref(field, rows)
    n = len(rows[0])
    kernel = []
    for f in range(n):
        if f in piv:
            continue
        v = [field.zero] * n
        v[f] = field.one
        for row, c in zip(red, piv):
            v[c] = -row[f]
        kernel.append(normalize_vector(field, v))
    return len(piv), kernel


def _check_rank_kernel(rows):
    field = rows[0][0].field
    # rank and kernels do not see a row's scale, so compare the pivot rows
    # with the eager elimination too
    got_rows, got_pivots = _bareiss(field, rows, len(rows[0]))
    want_rows, want_cols = reference_bareiss(field, rows, len(rows[0]))
    assert [c for _, c in got_pivots] == want_cols
    assert [got_rows[r] for r, _ in got_pivots] == want_rows
    want_rank, want_kernel = _reference_kernel(field, rows)
    assert rank(field, rows) == want_rank
    got = kernel_basis(field, rows, len(rows[0]))
    assert len(got) == len(want_kernel)
    for g, w in zip(got, want_kernel):
        assert _same(g, w)


@settings(max_examples=200, deadline=None)
@given(sparse_matrices(QQ))
def test_sparse_rank_kernel_match_reference_level0(rows):
    _check_rank_kernel(rows)


@settings(max_examples=60, deadline=None)
@given(sparse_matrices(QT))
def test_sparse_rank_kernel_match_reference_level1(rows):
    _check_rank_kernel(rows)


@settings(max_examples=20, deadline=None)
@given(sparse_matrices(QTS))
def test_sparse_rank_kernel_match_reference_level2(rows):
    _check_rank_kernel(rows)


def test_rank_of_diagonal_divides_once_per_row(monkeypatch):
    # a row whose head is zero under a pivot is not rescaled there; each row
    # of a diagonal matrix is brought up to date once, when it is the pivot
    calls = []
    ring_quo = Field.ring_quo

    def counting_quo(self, a, b):
        calls.append(1)
        return ring_quo(self, a, b)

    monkeypatch.setattr(Field, "ring_quo", counting_quo)
    n = 8
    M = _m([[(i + 2) * (i == j) for j in range(n)] for i in range(n)])
    assert rank(QQ, M) == n
    assert len(calls) <= n


def test_invariant_kernel_divides_no_zero(monkeypatch):
    # a column where both the pivot row and the row under it are zero keeps
    # its zero: that quotient is exactly 0, and every other one is checked
    dividends = []
    ring_quo = Field.ring_quo

    def recording_quo(self, a, b):
        dividends.append(a)
        return ring_quo(self, a, b)

    monkeypatch.setattr(Field, "ring_quo", recording_quo)
    assert len(symmetric_invariants(preset("so4").algebra, 3)) == 2
    assert dividends
    assert all(a != 0 for a in dividends)


# -- basis goldens over Q(t) and Q(t)(s) -----------------------------------------


def _golden_entry(rng, F):
    """Zero to two terms, each a small rational times at most one tower
    variable, over one variable plus a small integer three times in ten."""
    names = F.all_variables()
    out = F.zero
    for _ in range(rng.randint(0, 2)):
        term = F.rational(rng.randint(-4, 4), rng.randint(1, 3))
        for name in rng.sample(names, rng.randint(0, 1)):
            term = term * F.var(name)
        out = out + term
    if rng.random() < 0.3:
        out = out / (F.var(rng.choice(names)) + rng.randint(1, 3))
    return out


def _golden_matrices(F):
    """Six seeded matrices over F with one to three rows and two to four
    columns; with more than one row, one more row is a combination of the
    first two, so the rank falls short of the row count."""
    rng = random.Random("basis goldens %r" % F)
    out = []
    for _ in range(6):
        nrows, ncols = rng.randint(1, 3), rng.randint(2, 4)
        rows = [[_golden_entry(rng, F) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 1:
            c = _golden_entry(rng, F)
            rows.append([c * a + b for a, b in zip(rows[0], rows[1])])
        out.append(rows)
    return out


def _rendered_bases(F, rows):
    basis, pivots, _ = echelon_basis(F, rows)
    kernel = kernel_basis(F, rows, len(rows[0]))
    return [[str(c) for c in v] for v in basis], pivots, [[str(c) for c in v] for v in kernel]


def test_basis_goldens_on_small_matrices():
    # each basis row is the one of its line whose first nonzero entry leads
    # with 1 above level 0: [[2t, t]] spans the line of (1, 1/2)
    t = QT.var("t")
    assert _rendered_bases(QT, [[2 * t, t]]) == ([["1", "(1/2)"]], [0], [["1", "-2"]])
    t, s = QTS.var("t"), QTS.var("s")
    # the flat leading coefficient is read in Q[t, s], grlex
    rows = [[t / 2 + QTS.rational(1, 3), s], [(3 * t + 2) * s, 6 * s * s]]
    assert _rendered_bases(QTS, rows) == (
        [["(t + (2/3))", "2*s"]], [0], [["s", "((-1/2)*t + (-1/3))"]]
    )
    rows = [[t / 2 + QTS.rational(1, 3), 2 * s, QTS.rational(-3, 4)]]
    assert _rendered_bases(QTS, rows) == (
        [["(t + (2/3))", "4*s", "((-3/2))"]],
        [0],
        [["s", "((-1/4)*t + (-1/6))", "0"], ["1", "0", "((2/3)*t + (4/9))"]],
    )


# sha256 of the rendered echelon bases, pivots and kernel bases of the six
# matrices of ``_golden_matrices``
BASIS_GOLDENS = {
    "Q(t)": "978c5af9abb4c48e8937df3395faa2a4c72b474082600ff0099c61ef014a87f8",
    "Q(t)(s)": "d38b9ee240f1d879c82917e75ed580b3ae4dde789bc50bf0100b192a89396bbc",
}


@pytest.mark.parametrize("field", [QT, QTS], ids=repr)
def test_basis_goldens_on_seeded_matrices(field):
    import hashlib

    got = [_rendered_bases(field, rows) for rows in _golden_matrices(field)]
    assert hashlib.sha256(repr(got).encode()).hexdigest() == BASIS_GOLDENS[repr(field)]
