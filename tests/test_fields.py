from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from lieshift.fields import MAX_TOWER_DEPTH, QQ, FieldElement, FieldError
from lieshift.liealg import vec
from lieshift.polyring import PolyElement


def test_level0_arithmetic():
    a = QQ.rational(2, 3)
    b = QQ.rational(-1, 6)
    assert str(a + b) == "1/2"
    assert str(a * b) == "-1/9"
    assert str(a - a) == "0"
    assert (a / b) == QQ.from_int(-4)
    assert a + 1 == QQ.rational(5, 3)
    assert 1 - a == QQ.rational(1, 3)
    assert (-a).as_rational() == (-2, 3)


def test_division_by_zero():
    with pytest.raises(FieldError):
        QQ.one / QQ.zero
    with pytest.raises(FieldError):
        QQ.rational(1, 0)
    with pytest.raises(FieldError):
        QQ.zero ** -1


def test_extend_and_variables():
    F1 = QQ.extend("a", "b")
    F2 = F1.extend("t")
    assert F1.level == 1 and F2.level == 2
    assert F2.all_variables() == ["a", "b", "t"]
    with pytest.raises(FieldError):
        F1.extend("a")  # name clash
    with pytest.raises(FieldError):
        QQ.extend()
    with pytest.raises(FieldError):
        QQ.extend("x", "x")


def test_depth_cap():
    f = QQ
    for k in range(MAX_TOWER_DEPTH):
        f = f.extend("v%d" % k)
    with pytest.raises(FieldError):
        f.extend("w")


def test_tower_equality_and_hash():
    F1 = QQ.extend("a")
    F2 = QQ.extend("a")
    assert F1 == F2 and hash(F1) == hash(F2)
    assert F1 != QQ.extend("b")


def test_canonical_denominator_is_monic():
    F = QQ.extend("a", "b")
    a, b = F.var("a"), F.var("b")
    e = (a + b) / (2 * a + 2 * b)
    assert e == F.rational(1, 2)
    # grlex leading coefficient of the denominator is 1 after construction
    e2 = F.one / (F.from_int(3) * a + F.one)
    assert e2.raw.denom.LC == 1


def test_var_and_lift():
    F1 = QQ.extend("a")
    F2 = F1.extend("t")
    a1 = F1.var("a")
    a2 = F2.var("a")  # resolves one level down and lifts
    assert F2.lift(a1) == a2
    assert F2.lift(QQ.rational(3, 4)) == F2.rational(3, 4)
    with pytest.raises(FieldError):
        F1.var("nope")
    with pytest.raises(FieldError):
        F1.lift(F2.var("t"))  # cannot lift downwards


def test_mixed_level_arithmetic_rejected():
    F1 = QQ.extend("a")
    with pytest.raises(FieldError):
        F1.var("a") + QQ.one


def test_tower_arithmetic_reduces():
    F = QQ.extend("a")
    a = F.var("a")
    e = (a * a - F.one) / (a - F.one)
    assert e == a + F.one
    assert str(e) == "a + 1"


def test_clear_row_level0():
    row = [QQ.rational(1, 2), QQ.rational(2, 3), QQ.zero]
    assert QQ.clear_row(row) == [3, 4, 0]
    assert QQ.clear_row([QQ.from_int(3), QQ.zero, QQ.from_int(-4)]) == [3, 0, -4]
    assert QQ.clear_row([]) == []


def test_clear_row_tower():
    F = QQ.extend("a")
    a = F.var("a")
    cleared = F.clear_row([F.one / a, a])
    back = [F.from_cleared(r, 1) for r in cleared]
    # common denominator a: [1/a, a] -> [1, a^2]
    assert back == [F.one, a * a]
    # least common denominator a (a + 1)^2, not the product a^2 (a + 1)^3
    b = a + 1
    d, cleared = F.clear([F.one / (a * b), F.one / (b * b), F.one / a])
    assert F.from_cleared(d, 1) == a * b * b
    assert [F.from_cleared(r, 1) for r in cleared] == [b, a, b * b]


def test_inexact_ring_division_is_an_error():
    with pytest.raises(FieldError) as e:
        QQ.ring_quo(3, 2)
    assert str(e.value) == "inexact ring division"
    F = QQ.extend("t")
    t = F.var("t")
    n, d = F.clear_row([t, t + F.one])
    with pytest.raises(FieldError) as e:
        F.ring_quo(n, d)
    assert str(e.value) == "inexact ring division"


def test_lift_rejections_name_their_cause():
    with pytest.raises(FieldError) as e:
        QQ.lift(3)
    assert str(e.value) == "lift expects a FieldElement"
    Qt, Qs = QQ.extend("t"), QQ.extend("s")
    with pytest.raises(FieldError) as e:
        QQ.lift(Qt.var("t"))
    assert str(e.value) == "element of Q(t) does not embed into Q"
    with pytest.raises(FieldError) as e:
        Qt.lift(Qs.var("s"))
    assert str(e.value) == "element of Q(s) does not embed into Q(t)"


def test_from_cleared_and_ring_gcd():
    F = QQ.extend("a")
    a = F.var("a")
    n = (a * a).raw.numer
    d = a.raw.numer
    assert F.from_cleared(F.ring_gcd(n, d), 1) == a
    assert F.from_cleared(F.ring_quo(n, d), 1) == a
    # n / d is reduced on the way in
    assert F.from_cleared(n, d) == a
    assert F.from_cleared(d, n) == F.one / a


def _heuristic_gives_up_once(monkeypatch):
    """sympy's heuristic gcd over Z raises on its next call, as it does on
    some inputs; the calls to ``fields._prs_gcd`` are recorded."""
    import sympy.polys.rings as rings
    from sympy.polys.polyerrors import HeuristicGCDFailed

    from lieshift import fields

    real, calls, fallbacks = rings.heugcd, [], []

    def once(f, g):
        calls.append((f, g))
        if len(calls) == 1:
            raise HeuristicGCDFailed("no luck")
        return real(f, g)

    def prs(*args):
        fallbacks.append(args)
        return real_prs(*args)

    real_prs = fields._prs_gcd
    monkeypatch.setattr(rings, "heugcd", once)
    monkeypatch.setattr(fields, "_prs_gcd", prs)
    return fallbacks


@pytest.mark.parametrize("level", [1, 2])
def test_ring_gcd_recomputes_what_the_heuristic_gave_up(monkeypatch, level):
    # Q[t] and Q[t, s]: each pair has two terms or more, where sympy's gcd
    # is monic, and the fallback's gcd is the same value
    F = QQ.extend("t")
    t = F.var("t")
    if level == 2:
        F = F.extend("s")
        t = F.lift(t)
    x = F.var(F.variables[0])
    g = x * x - (t + 2) / (t - 3) * x + t / 5
    pairs = [
        (g * (x + 1), g * (2 * x - t)),
        (g * g * (x - t / 7), g * (x + 4)),
        (x * x - t, t * x + 1),
        ((x - 2) * (x + t + 1), (x - 2) * (t * x - 3)),
    ]
    for a, b in pairs:
        na, nb = F.clear([a, b])[1]
        want = F.ring_gcd(na, nb)
        row = F._primitive([na, nb])
        fallbacks = _heuristic_gives_up_once(monkeypatch)
        assert F.ring_gcd(na, nb) == want
        assert len(fallbacks) == 1
        monkeypatch.undo()
        _heuristic_gives_up_once(monkeypatch)
        assert F._primitive([na, nb]) == row  # the canonical row is unchanged
        monkeypatch.undo()


def _random_tower_poly(rng, F, x, lower, deg):
    """A polynomial of degree deg in x; each coefficient is a small rational
    function of one of the lower tower variables of F."""
    out = F.zero
    for k in range(deg + 1):
        v = F.var(rng.choice(lower))
        c = F.from_int(rng.randint(1, 5)) * (v + rng.randint(-4, 4)) / (v + rng.randint(5, 9))
        out = out + c * x**k
    return out


@pytest.mark.parametrize("lower", [("t",), ("t", "u")], ids=["Q(t)[x]", "Q(t)(u)[x]"])
def test_ring_gcd_agrees_with_the_prs_gcd(lower):
    # Q(t)(x) and Q(t)(u)(x): random pairs are coprime, and a planted common
    # factor, also one whose leading coefficient in x is not a constant or
    # (t - 7) x + 1, which is the constant 1 where t is 7, is found by
    # sympy's gcd, the PRS gcd and the reference over Z alike
    import random

    from factories import reference_prs_gcd
    from lieshift import fields

    F = QQ.extend(lower[0])
    for name in lower[1:]:
        F = F.extend(name)
    F = F.extend("x")
    x = F.var("x")
    rng = random.Random(len(lower))
    t = F.var("t")
    planted = [x + t, t * x * x - 3, (t + 1) / (t - 2) * x - 1, (t - 7) * x + 1]
    for trial in range(4):
        a = _random_tower_poly(rng, F, x, lower, rng.randint(1, 3))
        b = _random_tower_poly(rng, F, x, lower, rng.randint(1, 3))
        na, nb = F.clear([a, b])[1]
        one = F.ring_gcd(na, nb)
        assert one == fields._prs_gcd(na, nb) == reference_prs_gcd(F, na, nb) == F.clear([F.one])[1][0]
        g = planted[trial % len(planted)]
        na, nb = F.clear([a * g, b * g])[1]
        common = F.ring_gcd(na, nb)
        assert common == fields._prs_gcd(na, nb) == reference_prs_gcd(F, na, nb)
        (ng,) = F.clear([g])[1]
        F.ring_quo(common, ng)  # g divides it
        ix = len(F.all_variables()) - 1  # x is the last variable of the flat ring
        assert common.degree(ix) == ng.degree(ix) > 0


@st.composite
def _level2_pairs(draw):
    """Two numerator-ring values of Q(t)(s) sharing a drawn factor: each a
    short polynomial in s whose coefficients are small fractions in t."""
    F = QQ.extend("t").extend("s")
    t, s = F.var("t"), F.var("s")
    small = st.integers(-4, 4)

    def poly(deg):
        out = F.zero
        for k in range(deg + 1):
            c = F.rational(draw(small), draw(st.integers(1, 5)))
            c = c + F.from_int(draw(small)) * t ** draw(st.integers(0, 2))
            if draw(st.booleans()):
                c = c / (t + draw(st.integers(1, 4)))
            out = out + c * s**k
        return out

    g = poly(draw(st.integers(0, 2)))
    a, b = poly(draw(st.integers(0, 2))) * g, poly(draw(st.integers(0, 2))) * g
    return (F, *F.clear([a, b])[1])


@settings(max_examples=40, deadline=None)
@given(_level2_pairs())
def test_prs_gcd_matches_the_expression_round_trip_level2(case):
    # sympy's gcd and the PRS gcd in Q[t, s] give the gcd that the round
    # trip through sympy expressions over Z gives
    from factories import reference_prs_gcd
    from lieshift import fields

    F, a, b = case
    if not a or not b:
        return
    want = reference_prs_gcd(F, a, b)
    assert fields._prs_gcd(a, b) == want
    assert F.ring_gcd(a, b) == want


def test_over_z_round_trips_rational_coefficients():
    # Q[t] and Q[t, s] values whose coefficients are not integers: sympy's
    # gcd and the PRS gcd agree with the reference, whose round trip takes
    # them to Z[t] and Z[t, s] and back
    from factories import reference_prs_gcd
    from lieshift import fields

    F = QQ.extend("t")
    for K in (F, F.extend("s")):
        x, t = K.var(K.variables[0]), K.var("t")
        a = (x * x / 5 - t / 3 + K.rational(1, 2)) * (x + 1)
        b = (x + 1) * (x / 7 - 2)
        na, nb = K.clear([a, b])[1]
        want = K.clear([x + 1])[1][0]
        assert fields._prs_gcd(na, nb) == K.ring_gcd(na, nb) == reference_prs_gcd(K, na, nb) == want


def _level3_draw(rng, F):
    """A nonzero element of F with one to three terms, each a small rational
    times a monomial of degree at most 2 in every tower variable."""
    out = F.zero
    for _ in range(rng.randint(1, 3)):
        term = F.rational(rng.randint(-5, 5), rng.randint(1, 4))
        for name in F.all_variables():
            term = term * F.var(name) ** rng.randint(0, 2)
        out = out + term
    return out if out else F.one


def test_level3_cancellation_is_canonical():
    # over Q(t)(s)(u) a common factor b cancels to the same element, with
    # the same hash, and the gcd of the cleared numerators of a b and c b is
    # the monic gcd of the reference over Z. The nested field Q(t)(s)(u)
    # missed the first on 2 of these 40 draws
    import random

    from factories import reference_prs_gcd

    F = QQ.extend("t").extend("s").extend("u")
    rng = random.Random(0)
    for _ in range(40):
        a, b, c = [_level3_draw(rng, F) for _ in range(3)]
        x, y = (a * b) / (c * b), a / c
        assert x == y and hash(x) == hash(y)
        na, nb = F.clear([a * b, c * b])[1]
        if na:
            assert F.ring_gcd(na, nb) == reference_prs_gcd(F, na, nb)


def test_ring_quo_is_exact_at_every_level():
    assert QQ.ring_quo(6, 3) == 2
    with pytest.raises(FieldError):
        QQ.ring_quo(7, 3)
    F = QQ.extend("t")
    t = F.var("t").raw.numer
    assert F.ring_quo(t * t + t, t) == t + 1
    with pytest.raises(FieldError):
        F.ring_quo(t + 1, t)
    G = F.extend("s")
    s = G.var("s").raw.numer
    with pytest.raises(FieldError):
        G.ring_quo(s * s + 1, s)


def test_is_zero_is_one_bool():
    F = QQ.extend("a")
    assert F.zero.is_zero and not F.zero
    assert F.one.is_one and F.one
    assert not F.var("a").is_one


def test_pow_and_inverse():
    F = QQ.extend("a")
    a = F.var("a")
    assert a ** 3 * a ** -3 == F.one
    assert a.inverse() * a == F.one
    with pytest.raises(FieldError):
        F.zero.inverse()


def test_rendering_deterministic():
    F = QQ.extend("a", "b")
    a, b = F.var("a"), F.var("b")
    e = (a + b) / (a - b)
    assert str(e) == str((a + b) / (a - b))
    assert "a" in str(e) and "b" in str(e)


# -- lifts across a three-level tower ------------------------------------------

T1 = QQ.extend("w1", "w2")
T2 = T1.extend("w3", "w4", "w5")
T3 = T2.extend("u")
TOWER = (QQ, T1, T2, T3)


def _sample(F, names):
    """An element of F whose numerator and denominator use each variable in
    ``names``, with non-integer coefficients; built by F's own arithmetic."""
    x = F.rational(3, 2)
    d = F.rational(-2, 5)
    for k, name in enumerate(names):
        v = F.var(name)
        x = x * v + F.from_int(k + 1)
        d = d + v * v * (k - 1)
    return x / d


@pytest.mark.parametrize("lo", range(3))
def test_lift_across_every_level_pair(lo):
    names = TOWER[lo].all_variables()
    x = _sample(TOWER[lo], names)
    for hi in range(lo + 1, 4):
        F = TOWER[hi]
        lifted = F.lift(x)
        at_top = _sample(F, names)  # the same expression, computed in F
        assert lifted.field == F
        assert (lifted - at_top).is_zero
        assert str(lifted) == str(at_top)
        step = x  # lifting one level at a time agrees
        for mid in range(lo + 1, hi + 1):
            step = TOWER[mid].lift(step)
        assert (step - lifted).is_zero
        # arithmetic in F on the lifted element
        v = F.var(F.variables[0])
        assert ((lifted * F.one + lifted) / lifted - 2).is_zero
        assert (lifted * v / lifted - v).is_zero


@pytest.mark.parametrize("level", [1, 2, 3])
def test_nested_view_rebuilds_the_element(level):
    # numerator and denominator as polynomials in the level's own variables
    # over the level below, the denominator leading with 1
    F = TOWER[level]
    e = _sample(F, F.all_variables())

    def poly(terms):
        out = F.zero
        for exps, g in terms:
            assert g.field == F.base
            term = F.lift(g)
            for name, k in zip(F.variables, exps):
                term = term * F.var(name) ** k
            out = out + term
        return out

    for x in (e, 1 / e, e * e + F.var(F.variables[-1]), F.zero, F.one):
        num, den = F.nested(x)
        assert [m for m, _ in num] == sorted(m for m, _ in num)
        assert max(den, key=lambda t: (sum(t[0]), t[0]))[1] == F.base.one
        assert poly(num) / poly(den) == x


def test_level3_arithmetic_on_ground_elements():
    # elements of Q(w1, w2) seen in Q(w1, w2)(w3, w4, w5)(u): each operation
    # cancels through the ground of the level-2 field
    a, b, u = T3.var("w1"), T3.var("w2"), T3.var("u")
    assert str(a * b) == "w1*w2"
    assert (a / b * b - a).is_zero
    assert ((a + 1) * u - u * a - u).is_zero
    assert (T3.lift(T1.var("w1") / T1.var("w2")) * T3.one - a / b).is_zero


# -- the level-0 scalar type and its boundary with the tower -------------------

# str and hash of level-0 values; the hashes are those of sympy's rationals,
# the level-0 type before level 0 moved to fractions.Fraction, so dict and set
# order and rendering do not depend on the type
LEVEL0_GOLDENS = [
    ((3, 7), "3/7", 1317624576693539401),
    ((-1, 3), "-1/3", -1537228672809129301),
    ((5, 1), "5", 5),
    ((-7, 4), "-7/4", -1729382256910270465),
    ((0, 1), "0", 0),
]


@pytest.mark.parametrize("pq, text, raw_hash", LEVEL0_GOLDENS)
def test_level0_str_and_hash_are_stable(pq, text, raw_hash):
    x = QQ.rational(*pq)
    assert str(x) == text and repr(x) == "FieldElement(%s)" % text
    assert hash(x.raw) == raw_hash
    assert hash(x) == hash((QQ, x.raw))
    assert x.as_rational() == pq


@pytest.mark.parametrize("pq", [pq for pq, _, _ in LEVEL0_GOLDENS])
def test_level0_scalar_lifts_into_towers_and_back(pq):
    x = QQ.rational(*pq)
    Qt = QQ.extend("t")
    Qts = Qt.extend("s")
    for F in (Qt, Qts):
        y = F.lift(x)
        t = F.var("t")
        assert y.field == F and (y - F.rational(*pq)).is_zero
        assert str(y) in (str(x), "(%s)" % x, "((%s))" % x)
        assert ((y * t + 1) - (t * y + F.one)).is_zero
    # down again through the nested view of each level over the one below
    y1 = Qt.lift(x)
    num, den = Qt.nested(y1)
    assert den == [((0,), QQ.one)]
    if not x:
        assert num == []
        return
    ((exps, back),) = num
    assert exps == (0,) and back == x and type(back.raw) is Fraction
    y2 = Qts.lift(x) * Qts.var("s")
    assert Qts.nested(y2) == ([((1,), y1)], [((0,), Qt.one)])


def test_clear_round_trip():
    raws = [QQ.rational(p, q).raw for p, q in [(1, 2), (-2, 3), (0, 1), (5, 1)]]
    d, values = QQ.clear([QQ.rational(r) for r in raws])
    assert (d, values) == (6, [3, -4, 0, 30])
    assert all(type(v) is int for v in values)
    assert [QQ.from_cleared(v, d).raw for v in values] == raws
    assert QQ.clear([]) == (1, [])
    F = QQ.extend("t")
    t = F.var("t")
    x = (t + F.rational(1, 2)) / t
    d, (n,) = F.clear([x])
    assert F.from_cleared(d, 1) == t and F.from_cleared(n, 1) == t + F.rational(1, 2)
    assert F.from_cleared(n, d) == x
    d, values = F.clear([])
    assert d == 1 and values == []


@st.composite
def _cleared_rows(draw):
    """A tower level and a short row of its elements; small numerators and
    denominators, so denominators often share factors or are units."""
    F = draw(st.sampled_from(TOWER[:3]))
    small = st.integers(-3, 3)
    if F.level == 0:
        entry = st.builds(QQ.rational, small, st.integers(1, 6))
    else:
        names = F.all_variables()
        entry = st.builds(
            lambda a, b, x, c, e, y: (F.from_int(a) + b * F.var(x))
            / (F.from_int(c) + F.var(y) ** e),
            small, small, st.sampled_from(names),
            st.integers(1, 3), st.integers(0, 2), st.sampled_from(names),
        )
    return F, draw(st.lists(st.one_of(st.just(F.zero), entry), max_size=4))


@settings(max_examples=60, deadline=None)
@given(_cleared_rows())
def test_clear_is_least_and_round_trips(case):
    F, elems = case
    d, nums = F.clear(elems)
    assert [F.from_cleared(n, d) for n in nums] == elems
    # d divides the product of the denominators, a common denominator, and
    # shares no factor with every numerator, so it divides every common one
    dens = [F.clear([e])[0] for e in elems]
    prod = 1 if F.level == 0 else F.clear(())[0]
    for q in dens:
        prod = prod * q
    F.ring_quo(prod, d)
    g = d
    for n in nums:
        if n:
            g = F.ring_gcd(g, n)
    assert g == 1 if F.level == 0 else g.is_ground  # a unit
    # with unit denominators only, the numerators are the entries themselves
    if all(q == 1 for q in dens):
        assert d == 1
        assert nums == [e.raw if F.level == 0 else e.raw.numer for e in elems]


def _sl2():
    from lieshift.pbw import EnvelopingAlgebra
    from lieshift.presets import preset

    return EnvelopingAlgebra(preset("sl2").algebra)


@pytest.mark.parametrize(
    "make",
    [
        lambda: QQ.from_int(3) ** 2.7,
        lambda: QQ.extend("t").var("t") ** 2.5,
        lambda: QQ.from_int(3) ** Fraction(1, 2),
        lambda: PolyElement(QQ, 2, {(1.5, 0): 1}),
        lambda: PolyElement.variable(QQ, 2, 0) ** 2.5,
        lambda: _sl2().gen(0) ** 2.5,
        lambda: _sl2().element({(1.9, 0, 0): 1}),
        lambda: _sl2().gen(0, 1.5),
    ],
)
def test_non_integer_exponent_is_an_error(make):
    # int() used to truncate these: 3 ** 2.7 gave 9, x0 ** 2.5 gave x0^2
    with pytest.raises(FieldError, match="not an integer exponent"):
        make()


def test_rational_is_exact_or_an_error():
    assert QQ.rational(Fraction(1, 2)) == QQ.rational(1, 2)
    assert QQ.rational(Fraction(3, 2), Fraction(1, 3)).as_rational() == (9, 2)
    assert QQ.rational(-4, 6).as_rational() == (-2, 3)
    assert [str(c) for c in vec(QQ, [Fraction(3, 2), 2])] == ["3/2", "2"]
    F = QQ.extend("t")
    assert F.rational(Fraction(1, 2)) == F.lift(QQ.rational(1, 2))
    assert str(F.rational(Fraction(-3, 4), 2)) == str(F.lift(QQ.rational(-3, 8)))
    for bad in (2.7, 0.5, "1/2", None):
        with pytest.raises(FieldError):
            QQ.rational(bad)
        with pytest.raises(FieldError):
            F.rational(bad)
        with pytest.raises(FieldError):
            QQ.rational(1, bad)
        with pytest.raises(FieldError):
            QQ.from_int(bad)
        with pytest.raises(FieldError):
            F.from_int(bad)
    assert QQ.from_int(-3).as_rational() == (-3, 1)
    assert F.from_int(2) == F.lift(QQ.from_int(2))
    with pytest.raises(FieldError):
        QQ.from_int(Fraction(5, 2))
    with pytest.raises(FieldError):
        vec(QQ, [Fraction(3, 2), 2.7])
    with pytest.raises(FieldError):
        PolyElement(F, 1, {(1,): 0.5})


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("n", [0, 1, -1, 7, -12, 2**70])
def test_from_int_matches_domain_convert(level, n):
    # from_int builds n / 1 from the ground's n with no cancellation; it must
    # store the raw value sympy's convert reaches, with the same str and hash
    F = TOWER[level]
    got, ref = F.from_int(n), F.domain.convert(n)
    assert (got.raw.numer, got.raw.denom) == (ref.numer, ref.denom)
    assert got.raw == ref
    assert str(got) == str(FieldElement(F, ref))
    assert hash(got) == hash(FieldElement(F, ref))


def test_coerce_is_the_one_scalar_check():
    F = T1
    assert F.coerce(3) == F.from_int(3)
    assert F.coerce(Fraction(-1, 2)) == F.rational(-1, 2)
    w = F.var("w1")
    assert F.coerce(w) is w
    for bad in (2.7, "1", None, QQ.one, T2.one):
        with pytest.raises(FieldError):
            F.coerce(bad)


def test_a_foreign_scalar_is_a_field_error():
    # LinearForm used to keep an element of another level, and coadjoint_form
    # and stabilizer then raised AttributeError
    from lieshift.liealg import LinearForm

    for make in (vec, LinearForm):
        with pytest.raises(FieldError, match="tower-level mismatch"):
            make(QQ, [T1.one, 1, 2])
        with pytest.raises(FieldError, match="tower-level mismatch"):
            make(T1, [QQ.one, 1, 2])


@pytest.mark.parametrize("level", [2, 3])
def test_int_operands_are_from_int_operands_without_a_lift(level, monkeypatch):
    # an int scalar above level 0 used to go through Field.lift, sympy's
    # conversion chain, which from_int skips
    from lieshift.fields import Field
    from lieshift.liealg import LieAlgebra, LinearForm
    from lieshift.pbw import EnvelopingAlgebra

    F = TOWER[level]
    w = F.var(F.variables[0])
    lifts = []
    lift = Field.lift
    monkeypatch.setattr(Field, "lift", lambda self, e: lifts.append(e) or lift(self, e))
    n = F.from_int
    x = PolyElement(F, 2, {(1, 0): w, (0, 1): 3})
    assert x == PolyElement(F, 2, {(1, 0): w, (0, 1): n(3)})
    assert x * 7 == 7 * x == x * n(7)
    assert x + 7 == 7 + x == x + n(7)
    assert 7 - x == n(7) - x and x - 7 == x - n(7)
    assert x.evaluate([2, -5]) == x.evaluate([n(2), n(-5)])
    assert vec(F, [7, -2]) == (n(7), n(-2))
    assert LinearForm(F, [1, 0]).coords == (n(1), n(0))
    assert w * 7 == w * n(7) and 7 - w == n(7) - w
    A = EnvelopingAlgebra(LieAlgebra(F, ("a", "b"), {(0, 1): {1: 2}}))
    u = A.element({(1, 1): w, (0, 0): 4})
    assert u * 7 == u * n(7) and u + 7 == u + n(7)
    assert u == A.element({(1, 1): w, (0, 0): n(4)})
    assert lifts == []
