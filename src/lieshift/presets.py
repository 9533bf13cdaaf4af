"""Built-in example algebras with their standard polynomial invariants.

Matrix-defined families (sl, gl, so) are generated from explicit matrices,
each with two eliminations (``_reduced``, one reduced echelon form of
[rows | I]):

- structure constants: the family's matrices as rows over their positions.
  Each commutator's coordinates are read at the pivot columns, the
  commutator is rebuilt from them and compared exactly, and the identity
  part maps them back to the family. A dependent family, or one not closed
  under commutators, is a ``LieAlgebraError``; no trace form is needed.
- invariants: the trace-dual basis comes from the Gram matrix of the trace
  form (degenerate is a ``LieAlgebraError``), the generic matrix X from it,
  and tr X, ..., tr X^n from one running product X^k (plus the Pfaffian
  for so4).

The rest are small enough to write down directly.
"""

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .fields import QQ
from .liealg import HeisenbergSplit, LieAlgebra, LieAlgebraError, Subspace
from .linalg import echelon_basis
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


def _reduced(rows, width):
    """One reduced elimination of [rows | I], rows of ``width`` entries.

    It ends at [E | P] with P . rows = E: the right part of an echelon row
    says which combination of the rows its left part is. Returns {pivot
    column: (pivot entry, left part, right part)} over the pivots left of
    ``width``, the parts as sparse {column: Fraction} dicts; there are fewer
    than rows exactly when the rows are linearly dependent.
    """
    k = len(rows)
    basis, pivots, _ = echelon_basis(QQ, [list(r) + list(_unit(k, i)) for i, r in enumerate(rows)])
    out = {}
    for b, c in zip(basis, pivots):
        if c < width:
            left = {j: Fraction(*x.as_rational()) for j, x in enumerate(b[:width]) if x}
            right = {i: Fraction(*x.as_rational()) for i, x in enumerate(b[width:]) if x}
            out[c] = (left[c], left, right)
    return out


def _from_matrices(labels, mats, annotations=None):
    """The Lie algebra of an independent family of matrices closed under
    commutators, in that basis. A commutator w is the combination of echelon
    rows with coefficient w[c] / pivot at each pivot column c; it is rebuilt
    from them and compared exactly, and the right parts give its coordinates.
    """
    positions = sorted({p for m in mats for p in m})
    col = {p: j for j, p in enumerate(positions)}
    rows = [[_q(m[p]) if p in m else QQ.zero for p in positions] for m in mats]
    at_pivot = _reduced(rows, len(positions))
    if len(at_pivot) < len(mats):
        raise LieAlgebraError("matrix family is linearly dependent")
    brackets = {}
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            w = _mat_commutator(mats[i], mats[j])
            if not w:
                continue
            # a position outside the family keeps its key, which nothing rebuilds
            w = {col.get(p, p): c for p, c in w.items()}
            rebuilt, coords = {}, {}
            for c, x in w.items():
                if c in at_pivot:
                    piv, left, right = at_pivot[c]
                    rebuilt = _mat_add(rebuilt, left, x / piv)
                    coords = _mat_add(coords, right, x / piv)
            if rebuilt != w:
                raise LieAlgebraError("matrix family is not closed under commutators")
            brackets[(i, j)] = {k: _q(coords[k]) for k in sorted(coords)}
    return LieAlgebra(QQ, labels, brackets, annotations)


def _dual_basis(mats):
    """Trace-form dual basis: tr(mats[i] * dual[j]) = delta_ij. Reducing
    [gram | I] gives [D | P] with D diagonal, so gram^-1 = D^-1 P, symmetric
    like gram: dual[j] = sum_i P[j][i] / D[j][j] * mats[i]."""
    k = len(mats)
    gram = [[_q(_trace_pair(mats[i], mats[j])) for j in range(k)] for i in range(k)]
    echelon = _reduced(gram, k)
    if len(echelon) < k:
        raise LieAlgebraError("trace form is degenerate on this family")
    duals = []
    for piv, _, right in echelon.values():
        d = {}
        for i, c in right.items():
            d = _mat_add(d, mats[i], c / piv)
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


def _trace_powers(X, top):
    """[tr X, tr X^2, ..., tr X^top] from one running product P = X^k; the
    last trace reads only the diagonal of X^top."""
    size = len(X)
    zero = PolyElement.zero(X[0][0].field, X[0][0].nvars)

    def entry(P, a, b):  # (P X)[a][b]
        s = zero
        for t in range(size):
            if not (P[a][t].is_zero or X[t][b].is_zero):
                s = s + P[a][t] * X[t][b]
        return s

    P = X
    traces = [sum([X[a][a] for a in range(size)], zero)]
    for k in range(2, top + 1):
        if k < top:
            P = [[entry(P, a, b) for b in range(size)] for a in range(size)]
            traces.append(sum([P[a][a] for a in range(size)], zero))
        else:
            traces.append(sum([entry(P, a, a) for a in range(size)], zero))
    return traces


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
    return p * _q(scale)


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
    cas = tuple([unit_content(t) for t in _trace_powers(X, 3)[1:]])
    return Preset("sl3", L, cas, "sl3 in the standard Chevalley-style basis")


def _gl(n):
    mats = [_e(a, b) for a in range(n) for b in range(n)]
    labels = tuple(["e%d%d" % (a + 1, b + 1) for a in range(n) for b in range(n)])
    L = _from_matrices(labels, mats)
    X = _generic_matrix(mats, n)
    cas = tuple([unit_content(t) for t in _trace_powers(X, n)])
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
    cas = [unit_content(_trace_powers(X, 2)[1])]
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
