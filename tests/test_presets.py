import hashlib
import json
from fractions import Fraction

import pytest

from lieshift import presets
from lieshift.algfile import dump_algebra
from lieshift.fields import QQ
from lieshift.invariants import trdeg_jacobian
from lieshift.liealg import (
    LieAlgebraError,
    check_split,
    classify_nilradical,
    validate,
)
from lieshift.polyring import PolyElement, poisson
from lieshift.presets import Preset, preset, preset_names, unit_content

FIXED = [
    "aff1",
    "borel-sl2",
    "borel-sl3",
    "gl2",
    "gl3",
    "gl4",
    "sl2",
    "sl2-semidirect-h3",
    "sl3",
    "so3",
    "so4",
]


def test_preset_names():
    names = preset_names()
    assert names[:2] == ["abelianN", "heisenbergN"]
    assert names[2:] == FIXED


def test_all_presets_validate():
    for name in FIXED + ["abelian1", "abelian4", "heisenberg1", "heisenberg3"]:
        P = preset(name)
        assert isinstance(P, Preset) and P.name
        rep = validate(P.algebra)
        assert rep.ok, "%s: %s %s" % (name, rep.jacobi_failures, rep.annotation_failures)
        assert P.description


# (sha256 of dump_algebra as JSON with sorted keys, sha256 of the
# newline-joined rendered Casimirs) of every registered preset, recorded
# before the matrix families were built from one elimination each
PRESET_GOLDENS = {
    "aff1": (
        "4c01326585e587104ee18803aedb43e4e41493c0d605354412607a12f9666521",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "borel-sl2": (
        "3f6979adfe6878e4a6f0a342a50ff3ad223946c6e2ad0183f5d1e5fa156a1942",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "borel-sl3": (
        "424d1ac87794afb711e9b8a4df7ff2e11f83a9c67db9ff2f97417f34ff79b109",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "gl2": (
        "42aa9953443fa58f68b483640010b6bea508910fa0539a18bc37ef972cb3b312",
        "8d0650140faaa30b8cc9ca0bc2b91d73eaa3ed18ee27062b28edef62a9b4caef",
    ),
    "gl3": (
        "67ab43a3f1cd490da30703316bcf743bbc4398f757b9f1299750d18e1ce24565",
        "553413757d1eef14ee4651954694cf4f9f4649d6f745d08efce4f0f89865c504",
    ),
    "gl4": (
        "22e653e072ec85c7adcf4ff06cea0fec423daf91bb18e59b7c9b56107ef0e27b",
        "40a32b2409afd4e4ae2ec3d424ea4a7bc34cecaf65d19ea008de31398d525b2e",
    ),
    "sl2": (
        "3524f83229c465cb8409ca4aabad940f0cbb24d521cfbe8ddf7b6da6516d81fb",
        "d80c91b186ca4afe51ce1a9019fd191883af6497ca4afba7ffa1f16704400c29",
    ),
    "sl2-semidirect-h3": (
        "2809b38ef09678b3a130ee45b3e50fdc35d460a8a77eb4e0ed3ebd4670128264",
        "db77d2347c902cec1854c1e7dfb30d42f91a08c892084be338b46014e768541a",
    ),
    "sl3": (
        "969f5cd54c64a51c7f8dd4c7e43ad1937c97f81ce538020f9b7e4041a72817f4",
        "e6fbb2e2508b3e31ad0817e9019abfed1009fef769da44e1355cff8ff8eed744",
    ),
    "so3": (
        "5fc7260fa936ff360e4b87e74c4e2302c90587427518826b2e8ee05b51dc210e",
        "f38306a444fc997d58d151cbe670942199f49724cf40a44f8dfed472cea7faae",
    ),
    "so4": (
        "1f668c9fc6f7912eb4f528ece06c7836fae1ebc7a0ee1dac4e8037bf32398963",
        "447c76b6b672b7d4df31585f8a22263913ac1b6078009c8d6924c784c269fa91",
    ),
    "abelian1": (
        "fcc6e62fa9b40c308314d2506297afe9240ba0325f388e5741f4cfc59e2a6fe0",
        "f55ff16f66f43360266b95db6f8fec01d76031054306ae4a4b380598f6cfd114",
    ),
    "abelian4": (
        "f5cb0c292ace4aeea30bd5a6d0033864b8b6bacf7d36957859ff9d41cf96ca4a",
        "526a9ca7bf3c32a14f5f89eb71a231fd2af34ea6c050020d681ca66804a477d0",
    ),
    "heisenberg1": (
        "ba19e356034f83a9ac5176db56c705b76e43b430efe812f89d7e37f28d26ec17",
        "594e519ae499312b29433b7dd8a97ff068defcba9755b6d5d00e84c524d67b06",
    ),
    "heisenberg3": (
        "482eee26903bfde65335131b6bad475fed895f920502f6cb4e03f4bd78e4ad4c",
        "594e519ae499312b29433b7dd8a97ff068defcba9755b6d5d00e84c524d67b06",
    ),
}


@pytest.mark.parametrize("name", sorted(PRESET_GOLDENS))
def test_preset_golden(name):
    P = preset(name)
    doc = json.dumps(dump_algebra(P.algebra), sort_keys=True)
    text = "\n".join(c.render(P.algebra.labels) for c in P.casimirs)
    assert (
        hashlib.sha256(doc.encode()).hexdigest(),
        hashlib.sha256(text.encode()).hexdigest(),
    ) == PRESET_GOLDENS[name]


def test_parametric_families():
    A = preset("abelian5").algebra
    assert A.dim == 5 and not A.table
    H = preset("heisenberg2").algebra
    assert H.dim == 5
    assert H.labels == ("x1", "x2", "y1", "y2", "z")
    assert H.central_indices() == frozenset({4})
    split = classify_nilradical(H).split
    assert check_split(H, split) == []


def test_unknown_presets_rejected():
    with pytest.raises(KeyError):
        preset("e8")
    with pytest.raises(KeyError):
        preset("abelian0")
    with pytest.raises(KeyError):
        preset("heisenberg-1")


def test_casimirs_are_invariant():
    for name in ("sl2", "sl3", "gl2", "gl3", "so3", "so4", "sl2-semidirect-h3"):
        P = preset(name)
        L = P.algebra
        assert P.casimirs, name
        for c in P.casimirs:
            for i in range(L.dim):
                xi = PolyElement.variable(L.field, L.dim, i)
                assert poisson(L, xi, c).is_zero, (name, c.render(L.labels))


def test_casimir_counts_match_index():
    # functionally independent central generators, as many as the index
    for name, ind in (("sl2", 1), ("sl3", 2), ("gl3", 3), ("so4", 2)):
        P = preset(name)
        assert len(P.casimirs) == ind
        assert trdeg_jacobian(P.casimirs).value == ind


def test_sl2_casimir_exact():
    P = preset("sl2")
    assert [c.render(P.algebra.labels) for c in P.casimirs] == ["h^2 + 4*e*f"]


def test_unit_content():
    h = PolyElement.variable(QQ, 2, 0)
    e = PolyElement.variable(QQ, 2, 1)
    p = h * QQ.rational(1, 2) + e * QQ.rational(1, 3)
    assert unit_content(p) == h * 3 + e * 2
    assert unit_content(p * QQ.from_int(-7)) == h * 3 + e * 2
    # leading sign normalization
    q = h * h * QQ.from_int(-2) + e * 4
    assert unit_content(q) == h * h - e * 2
    assert unit_content(PolyElement.zero(QQ, 2)).is_zero


def _table(L):
    return {key: {k: c.as_rational() for k, c in comp.items()} for key, comp in L.table.items()}


def _closed_form_table(basis, bracket):
    """The bracket table, as ``_table`` gives it, of the basis keys under
    bracket(x, y), an integer {basis key: coefficient} dict."""
    index = {x: i for i, x in enumerate(basis)}
    out = {}
    for i, x in enumerate(basis):
        for y in basis[i + 1:]:
            comp = {index[k]: (c, 1) for k, c in bracket(x, y).items() if c}
            if comp:
                out[(i, index[y])] = comp
    return out


def _add(d, key, c):
    d[key] = d.get(key, 0) + c


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_gl_brackets_match_closed_form(n):
    # [E_ab, E_cd] = delta_bc E_ad - delta_da E_cb, basis E_ab row by row
    def bracket(x, y):
        (a, b), (c, d) = x, y
        out = {}
        if b == c:
            _add(out, (a, d), 1)
        if d == a:
            _add(out, (c, b), -1)
        return out

    basis = [(a, b) for a in range(n) for b in range(n)]
    assert _table(presets._gl(n).algebra) == _closed_form_table(basis, bracket)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_so_brackets_match_closed_form(n):
    # M_ab = E_ab - E_ba for a < b, with M_ba = -M_ab and M_aa = 0:
    # [M_ab, M_cd] = delta_bc M_ad - delta_ac M_bd - delta_bd M_ac + delta_ad M_bc
    def bracket(x, y):
        (a, b), (c, d) = x, y
        out = {}
        for delta, (p, q), sign in (
            (b == c, (a, d), 1),
            (a == c, (b, d), -1),
            (b == d, (a, c), -1),
            (a == d, (b, c), 1),
        ):
            if delta and p != q:
                _add(out, (min(p, q), max(p, q)), sign if p < q else -sign)
        return out

    basis = [(a, b) for a in range(n) for b in range(a + 1, n)]
    assert _table(presets._so(n).algebra) == _closed_form_table(basis, bracket)


def test_gl5_casimirs_are_invariant_and_independent():
    P = presets._gl(5)
    L = P.algebra
    assert len(P.casimirs) == 5
    for c in P.casimirs:
        for i in range(L.dim):
            assert poisson(L, PolyElement.variable(QQ, L.dim, i), c).is_zero, i
    assert trdeg_jacobian(P.casimirs).value == 5


def _from_matrices(*mats):
    mats = [{p: Fraction(c) for p, c in m.items()} for m in mats]
    return presets._from_matrices(tuple("x%d" % i for i in range(len(mats))), mats)


def _generic_matrix(*mats):
    return presets._generic_matrix([{p: Fraction(c) for p, c in m.items()} for m in mats], 3)


REJECTED_FAMILIES = {
    # E_12 and E_21 without the diagonal: [E_12, E_21] = E_11 - E_22
    "not closed": (
        lambda: _from_matrices({(0, 1): 1}, {(1, 0): 1}),
        "matrix family is not closed under commutators",
    ),
    # four matrices spanning the three dimensions of sl2
    "dependent": (
        lambda: _from_matrices({(0, 1): 1}, {(0, 1): 2}, {(1, 0): 1}, {(0, 0): 1, (1, 1): -1}),
        "matrix family is linearly dependent",
    ),
    # strictly upper-triangular: tr(x y) = 0 on the whole family
    "degenerate trace form": (
        lambda: _generic_matrix({(0, 1): 1}, {(0, 2): 1}, {(1, 2): 1}),
        "trace form is degenerate on this family",
    ),
}


@pytest.mark.parametrize("case", sorted(REJECTED_FAMILIES))
def test_matrix_family_rejections(case):
    build, message = REJECTED_FAMILIES[case]
    with pytest.raises(LieAlgebraError) as err:
        build()
    assert str(err.value) == message
