"""Built-in example algebras with their standard polynomial invariants.

Matrix-defined families (sl, gl, so) are generated from explicit matrices:
structure constants come from commutators expressed back in the chosen basis,
and invariants are trace powers of the generic matrix built over the
trace-dual basis (plus the Pfaffian for so4).  The rest are small enough to
write down directly.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ
from .liealg import HeisenbergSplit, LieAlgebra, LieAlgebraError, Subspace
from .linalg import solve
from .polyring import PolyElement


@dataclass(frozen=True)
class Preset:
    name: str
    algebra: LieAlgebra
    casimirs: tuple
    description: str


# matrices as sparse {(row, col): Fraction}


def _q(x):
    return QQ.rational(x.numerator, x.denominator)


def _e(a, b):
    return {(a, b): Fraction(1)}


def _mat_add(m1, m2, s=1):
    out = dict(m1)
    for p, c in m2.items():
        out[p] = out.get(p, Fraction(0)) + s * c
    return {p: c for p, c in out.items() if c}


def _mat_scale(m, s):
    return {p: s * c for p, c in m.items() if s * c}


def _mat_commutator(m1, m2):
    out = {}
    for (a, b), c1 in m1.items():
        for (c, d), c2 in m2.items():
            if b == c:
                out[(a, d)] = out.get((a, d), Fraction(0)) + c1 * c2
            if d == a:
                out[(c, b)] = out.get((c, b), Fraction(0)) - c1 * c2
    return {p: c for p, c in out.items() if c}


def _trace_pair(m1, m2):
    s = Fraction(0)
    for (a, b), c in m1.items():
        s += c * m2.get((b, a), Fraction(0))
    return s


def _in_basis(mats, target):
    """Coordinates of a bracket value in the generating matrices."""
    positions = sorted({p for m in mats for p in m} | set(target))
    rows = [[_q(m.get(p, Fraction(0))) for m in mats] for p in positions]
    rhs = [_q(target.get(p, Fraction(0))) for p in positions]
    coords = solve(QQ, rows, rhs)
    if coords is None:
        raise LieAlgebraError("matrix family is not closed under commutators")
    return coords


def _from_matrices(labels, mats, annotations=None):
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            w = _mat_commutator(mats[i], mats[j])
            if not w:
                continue
            comp = {k: c for k, c in enumerate(_in_basis(mats, w)) if not c.is_zero}
            if comp:
                brackets[(i, j)] = comp
    return LieAlgebra(QQ, labels, brackets, annotations)


def _dual_basis(mats):
    """Trace-form dual basis: tr(mats[i] * dual[j]) = delta_ij."""
    k = len(mats)
    gram = [[_q(_trace_pair(mats[i], mats[j])) for j in range(k)] for i in range(k)]
    duals = []
    for j in range(k):
        rhs = [QQ.one if i == j else QQ.zero for i in range(k)]
        coords = solve(QQ, gram, rhs)
        if coords is None:
            raise LieAlgebraError("trace form is degenerate on this family")
        d = {}
        for i, c in enumerate(coords):
            if not c.is_zero:
                d = _mat_add(d, _mat_scale(mats[i], Fraction(*c.as_rational())))
        duals.append(d)
    return duals


def _generic_matrix(mats, size):
    """The matrix of coordinate functions: sum_i x_i * dual(mats[i])."""
    n = len(mats)
    duals = _dual_basis(mats)
    entries = {}
    for i, d in enumerate(duals):
        e = tuple([1 if t == i else 0 for t in range(n)])
        for p, c in d.items():
            entries.setdefault(p, {})[e] = _q(c)
    zero = PolyElement.zero(QQ, n)
    out = [[zero] * size for _ in range(size)]
    for (a, b), terms in entries.items():
        out[a][b] = PolyElement(QQ, n, terms)
    return out


def _mat_poly_mul(A, B):
    size = len(A)
    F = A[0][0].field
    out = []
    for a in range(size):
        row = []
        for b in range(size):
            s = PolyElement.zero(F, A[0][0].nvars)
            for t in range(size):
                s = s + A[a][t] * B[t][b]
            row.append(s)
        out.append(row)
    return out


def _trace_power(X, k):
    P = X
    for _ in range(k - 1):
        P = _mat_poly_mul(P, X)
    s = PolyElement.zero(X[0][0].field, X[0][0].nvars)
    for a in range(len(X)):
        s = s + P[a][a]
    return s


def unit_content(p):
    """Scale a nonzero rational-coefficient polynomial to coprime integer
    coefficients with the grlex-leading one positive."""
    if p.is_zero:
        return p
    coeffs = [Fraction(*c.as_rational()) for c in p.terms.values()]
    lcm = math.lcm(*[c.denominator for c in coeffs])
    g = math.gcd(*[int(c * lcm) for c in coeffs])
    lead = max(p.terms, key=lambda e: (sum(e), e))
    scale = Fraction(lcm, g)
    if Fraction(*p.terms[lead].as_rational()) < 0:
        scale = -scale
    return p * PolyElement.constant(p.field, p.nvars, _q(scale))


def _unit(n, i):
    return tuple([QQ.one if k == i else QQ.zero for k in range(n)])


def _abelian(n):
    labels = tuple(["a%d" % (i + 1) for i in range(n)])
    L = LieAlgebra(QQ, labels, {}, {"central": range(n), "nilradical": range(n)})
    cas = tuple([PolyElement.variable(QQ, n, i) for i in range(n)])
    return Preset("abelian%d" % n, L, cas, "abelian algebra of dimension %d" % n)


def _heisenberg(n):
    dim = 2 * n + 1
    labels = tuple(
        ["x%d" % (i + 1) for i in range(n)]
        + ["y%d" % (i + 1) for i in range(n)]
        + ["z"]
    )
    brackets = {(i, n + i): {2 * n: 1} for i in range(n)}
    L = LieAlgebra(
        QQ, labels, brackets, {"central": [2 * n], "nilradical": range(dim)}
    )
    cas = (PolyElement.variable(QQ, dim, 2 * n),)
    return Preset(
        "heisenberg%d" % n,
        L,
        cas,
        "Heisenberg algebra of dimension %d" % dim,
    )


def _aff1():
    L = LieAlgebra(
        QQ,
        ("t", "y"),
        {(0, 1): {1: 1}},
        {"nilradical": [1], "solvable_radical": [0, 1]},
    )
    return Preset("aff1", L, (), "affine transformations of the line, [t,y] = y")


def _sl2():
    L = LieAlgebra(
        QQ,
        ("h", "e", "f"),
        {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    )
    cas = (PolyElement(QQ, 3, {(2, 0, 0): QQ.one, (0, 1, 1): QQ.rational(4)}),)
    return Preset("sl2", L, cas, "sl2 with basis h, e, f")


def _sl3():
    mats = [
        _mat_add(_e(0, 0), _e(1, 1), -1),
        _mat_add(_e(1, 1), _e(2, 2), -1),
        _e(0, 1),
        _e(0, 2),
        _e(1, 2),
        _e(1, 0),
        _e(2, 0),
        _e(2, 1),
    ]
    labels = ("h1", "h2", "e12", "e13", "e23", "f21", "f31", "f32")
    L = _from_matrices(labels, mats)
    X = _generic_matrix(mats, 3)
    cas = (unit_content(_trace_power(X, 2)), unit_content(_trace_power(X, 3)))
    return Preset("sl3", L, cas, "sl3 in the standard Chevalley-style basis")


def _gl(n):
    mats = [_e(a, b) for a in range(n) for b in range(n)]
    labels = tuple(["e%d%d" % (a + 1, b + 1) for a in range(n) for b in range(n)])
    L = _from_matrices(labels, mats)
    X = _generic_matrix(mats, n)
    cas = tuple([unit_content(_trace_power(X, k)) for k in range(1, n + 1)])
    return Preset("gl%d" % n, L, cas, "gl%d with the matrix-unit basis" % n)


def _borel_sl2():
    L = LieAlgebra(
        QQ,
        ("h", "e"),
        {(0, 1): {1: 2}},
        {"nilradical": [1], "solvable_radical": [0, 1]},
    )
    return Preset("borel-sl2", L, (), "upper-triangular traceless 2x2 matrices")


def _borel_sl3():
    labels = ("h1", "h2", "e12", "e23", "e13")
    brackets = {
        (0, 2): {2: 2},
        (0, 3): {3: -1},
        (0, 4): {4: 1},
        (1, 2): {2: -1},
        (1, 3): {3: 2},
        (1, 4): {4: 1},
        (2, 3): {4: 1},
    }
    L = LieAlgebra(
        QQ,
        labels,
        brackets,
        {"nilradical": [2, 3, 4], "solvable_radical": range(5)},
    )
    return Preset("borel-sl3", L, (), "upper-triangular traceless 3x3 matrices")


def _sl2_semidirect_h3():
    labels = ("h", "e", "f", "x", "y", "z")
    brackets = {
        (0, 1): {1: 2},
        (0, 2): {2: -2},
        (1, 2): {0: 1},
        (0, 3): {3: 1},
        (0, 4): {4: -1},
        (1, 4): {3: 1},
        (2, 3): {4: 1},
        (3, 4): {5: 1},
    }
    split = HeisenbergSplit(
        l_basis=Subspace(QQ, 6, [_unit(6, 0), _unit(6, 1), _unit(6, 2), _unit(6, 5)]),
        x=[_unit(6, 3)],
        y=[_unit(6, 4)],
        z=_unit(6, 5),
    )
    L = LieAlgebra(
        QQ,
        labels,
        brackets,
        {
            "central": [5],
            "levi": [0, 1, 2],
            "nilradical": [3, 4, 5],
            "heisenberg_split": split,
        },
    )
    one = QQ.one
    two = QQ.rational(2)
    z_poly = PolyElement.variable(QQ, 6, 5)
    deg3 = PolyElement(
        QQ,
        6,
        {
            (2, 0, 0, 0, 0, 1): one,        # z h^2
            (0, 1, 1, 0, 0, 1): QQ.rational(4),  # 4 z e f
            (1, 0, 0, 1, 1, 0): two,        # 2 h x y
            (0, 0, 1, 2, 0, 0): -two,       # -2 f x^2
            (0, 1, 0, 0, 2, 0): two,        # 2 e y^2
        },
    )
    return Preset(
        "sl2-semidirect-h3",
        L,
        (z_poly, deg3),
        "sl2 acting on the Heisenberg algebra of dimension 3 by its vector representation",
    )


def _so(n):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    mats = [_mat_add(_e(a, b), _e(b, a), -1) for (a, b) in pairs]
    labels = tuple(["m%d%d" % (a + 1, b + 1) for (a, b) in pairs])
    L = _from_matrices(labels, mats)
    X = _generic_matrix(mats, n)
    cas = [unit_content(_trace_power(X, 2))]
    if n == 4:
        pf = (
            X[0][1] * X[2][3]
            - X[0][2] * X[1][3]
            + X[0][3] * X[1][2]
        )
        cas.append(unit_content(pf))
    return Preset("so%d" % n, L, tuple(cas), "skew-symmetric %dx%d matrices" % (n, n))


_FIXED = {
    "aff1": _aff1,
    "sl2": _sl2,
    "sl3": _sl3,
    "gl2": lambda: _gl(2),
    "gl3": lambda: _gl(3),
    "gl4": lambda: _gl(4),
    "borel-sl2": _borel_sl2,
    "borel-sl3": _borel_sl3,
    "sl2-semidirect-h3": _sl2_semidirect_h3,
    "so3": lambda: _so(3),
    "so4": lambda: _so(4),
}


def preset(name):
    """Look up a preset by name; abelianN and heisenbergN take any N >= 1."""
    m = re.fullmatch(r"(abelian|heisenberg)(\d+)", name)
    if m:
        n = int(m.group(2))
        if n < 1:
            raise KeyError("preset size must be at least 1: %r" % name)
        return _abelian(n) if m.group(1) == "abelian" else _heisenberg(n)
    if name in _FIXED:
        return _FIXED[name]()
    raise KeyError("unknown preset %r" % name)


def preset_names():
    """Canonical names, with N standing for any positive size."""
    return ["abelianN", "heisenbergN"] + sorted(_FIXED)
