"""Lie algebras by structure constants, subspaces, and structure theory.

A LieAlgebra is a sparse bracket table over one tower field. Validation
(Jacobi, annotation sanity) is explicit and reported, never assumed. The
classification helpers cover exactly what the construction pipeline needs:
centers, derived/lower-central series, nilradical handling, abelian-ideal
candidates, Heisenberg (Darboux) splits and the bracket-stabilizer of the
symplectic complement.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .fields import FieldElement
from .linalg import Matrix, kernel_basis, normalize_vector, rref, solve


class LieAlgebraError(Exception):
    pass


def vec(field, coords):
    out = []
    for c in coords:
        out.append(c if isinstance(c, FieldElement) else field.rational(c))
    return tuple(out)


class LinearForm:
    """A point of the dual space, given by its values on the basis."""

    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        self.field = field
        self.coords = vec(field, coords)

    def of_vector(self, v):
        s = self.field.zero
        for c, a in zip(self.coords, v):
            if not c.is_zero and not a.is_zero:
                s = s + c * a
        return s

    def __repr__(self):
        return "LinearForm(%s)" % (", ".join(str(c) for c in self.coords))


class Subspace:
    """Subspace of K^n in canonical reduced-echelon basis.

    Each basis row is content-normalized and is the only row that is nonzero
    at its pivot column (``pivots[i]`` for ``basis[i]``). Membership is read
    from those stored pivots and then checked exactly, with no elimination.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots")

    def __init__(self, field, ambient_dim, vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        rows = [list(vec(field, v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise LieAlgebraError("vector length does not match ambient dim")
        red, piv = rref(field, rows)
        self.basis = [tuple(normalize_vector(field, r)) for r in red]
        self.pivots = tuple(piv)

    @property
    def dim(self):
        return len(self.basis)

    def coordinates(self, v):
        """Coefficients of v in the echelon basis, or None if outside.

        The only candidate is c_i = v[p_i] / basis[i][p_i] at the pivots p_i;
        v is in the span exactly when sum c_i basis[i] == v, which is checked
        coordinate by coordinate, so a non-None answer is a proof.
        """
        v = vec(self.field, v)
        coords = [v[p] / b[p] for b, p in zip(self.basis, self.pivots)]
        terms = [(c, b) for c, b in zip(coords, self.basis) if not c.is_zero]
        for k, target in enumerate(v):
            s = self.field.zero
            for c, b in terms:
                if not b[k].is_zero:
                    s = s + c * b[k]
            if s != target:
                return None
        return coords

    def contains(self, v):
        return self.coordinates(v) is not None

    def contains_subspace(self, other):
        return all(self.contains(b) for b in other.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, tuple(self.basis)))

    def __repr__(self):
        return "Subspace(dim %d of %d)" % (self.dim, self.ambient_dim)


@dataclass
class HeisenbergSplit:
    """Darboux data for a Heisenberg ideal: pairs (x_i, y_i), center z,
    and the subalgebra stabilizing span{x, y}."""

    l_basis: Subspace
    x: tuple
    y: tuple
    z: tuple

    def __post_init__(self):
        self.x = tuple(tuple(v) for v in self.x)
        self.y = tuple(tuple(v) for v in self.y)
        self.z = tuple(self.z)


class LieAlgebra:
    """Finite-dimensional Lie algebra by sparse structure constants.

    brackets: {(i, j): {k: coeff}} for i < j; antisymmetry is by construction.
    annotations may carry: central (iterable of indices), levi, nilradical,
    solvable_radical (Subspace or index list), heisenberg_split, known_casimirs.
    """

    def __init__(self, field, labels, brackets, annotations=None):
        self.field = field
        self.labels = tuple(labels)
        self.dim = len(self.labels)
        if len(set(self.labels)) != self.dim:
            raise LieAlgebraError("duplicate basis labels")
        table = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < j < self.dim):
                raise LieAlgebraError("bracket key (%d, %d) out of range" % (i, j))
            row = {}
            for k, c in comp.items():
                c = c if isinstance(c, FieldElement) else field.rational(c)
                if not c.is_zero:
                    row[k] = c
            if row:
                table[(i, j)] = row
        self.table = table
        self.annotations = dict(annotations or {})
        for key in ("levi", "nilradical", "solvable_radical"):
            s = self.annotations.get(key)
            if s is not None and not isinstance(s, Subspace):
                self.annotations[key] = self.span_of_indices(s)
        if "central" in self.annotations:
            self.annotations["central"] = frozenset(self.annotations["central"])

    def span_of_indices(self, idxs):
        return Subspace(
            self.field, self.dim, [self.basis_vector(i) for i in idxs]
        )

    def basis_vector(self, i):
        one, zero = self.field.one, self.field.zero
        return tuple(one if k == i else zero for k in range(self.dim))

    def zero_vector(self):
        return tuple([self.field.zero] * self.dim)

    def bracket_basis(self, i, j):
        """[x_i, x_j] as a sparse {k: coeff} dict."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def central_indices(self):
        return self.annotations.get("central", frozenset())

    def __repr__(self):
        return "LieAlgebra(%s)" % ", ".join(self.labels)


def bracket(L, a, b):
    """[a, b] for coordinate vectors a, b."""
    a = vec(L.field, a)
    b = vec(L.field, b)
    out = [L.field.zero] * L.dim
    for (i, j), comp in L.table.items():
        c = a[i] * b[j] - a[j] * b[i]
        if c.is_zero:
            continue
        for k, s in comp.items():
            out[k] = out[k] + c * s
    return tuple(out)


@dataclass
class ValidationReport:
    jacobi_failures: list = dc_field(default_factory=list)
    annotation_failures: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.jacobi_failures and not self.annotation_failures


def validate(L):
    """Check Jacobi on all basis triples and sanity of annotations.

    Jacobi is summed from the sparse structure constants, as
    [[e_i, e_j], e_k] = sum_m c_ij^m [e_m, e_k] plus the two cyclic terms;
    failing triples (i < j < k) are listed in lexicographic order.
    """
    report = ValidationReport()
    br = [[L.bracket_basis(a, b) for b in range(L.dim)] for a in range(L.dim)]
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                s = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in br[a][b].items():
                        for t, ct in br[m][c].items():
                            s[t] = s[t] + cm * ct if t in s else cm * ct
                if any(not x.is_zero for x in s.values()):
                    report.jacobi_failures.append((i, j, k))
    cen = L.central_indices()
    for i in sorted(cen):
        for j in range(L.dim):
            if any(not c.is_zero for c in L.bracket_basis(i, j).values()):
                report.annotation_failures.append(
                    "central index %d brackets nontrivially with %d" % (i, j)
                )
                break
    for key in ("levi", "nilradical", "solvable_radical"):
        S = L.annotations.get(key)
        if S is None:
            continue
        msg = _check_annotated_subspace(L, key, S)
        report.annotation_failures.extend(msg)
    split = L.annotations.get("heisenberg_split")
    if split is not None:
        report.annotation_failures.extend(check_split(L, split))
    return report


def _is_subalgebra(L, S):
    for i, u in enumerate(S.basis):
        for w in S.basis[i + 1 :]:
            if not S.contains(bracket(L, u, w)):
                return False
    return True


def _is_ideal(L, S):
    for i in range(L.dim):
        e = L.basis_vector(i)
        for w in S.basis:
            if not S.contains(bracket(L, e, w)):
                return False
    return True


def _check_annotated_subspace(L, key, S):
    out = []
    if key == "levi":
        if not _is_subalgebra(L, S):
            out.append("levi annotation is not a subalgebra")
    else:
        if not _is_ideal(L, S):
            out.append("%s annotation is not an ideal" % key)
        sub, _ = subalgebra_of(L, S)
        series = structure_series(sub)
        if key == "nilradical" and not series.is_nilpotent:
            out.append("nilradical annotation is not nilpotent")
        if key == "solvable_radical" and not series.is_solvable:
            out.append("solvable_radical annotation is not solvable")
    return out


def check_split(L, split):
    """All Heisenberg split invariants; returns a list of failure strings."""
    out = []
    F = L.field
    n = len(split.x)
    if len(split.y) != n:
        out.append("split has mismatched x/y lengths")
        return out
    z = split.z
    for i in range(L.dim):
        if any(not c.is_zero for c in bracket(L, L.basis_vector(i), z)):
            out.append("split center is not central in the ambient algebra")
            break
    for i, xi in enumerate(split.x):
        for j, yj in enumerate(split.y):
            b = bracket(L, xi, yj)
            if i == j:
                if tuple(b) != tuple(z):
                    out.append("[x_%d, y_%d] != z" % (i, j))
            elif any(not c.is_zero for c in b):
                out.append("[x_%d, y_%d] != 0" % (i, j))
    for name, fam in (("x", split.x), ("y", split.y)):
        for i, u in enumerate(fam):
            for w in fam[i + 1 :]:
                if any(not c.is_zero for c in bracket(L, u, w)):
                    out.append("[%s, %s] family is not isotropic" % (name, name))
    v = Subspace(F, L.dim, list(split.x) + list(split.y))
    if v.dim != 2 * n:
        out.append("x, y vectors are not independent")
    for u in split.l_basis.basis:
        for w in v.basis:
            if not v.contains(bracket(L, u, w)):
                out.append("span{x, y} is not stable under l_basis")
                break
    if not _is_subalgebra(L, split.l_basis):
        out.append("l_basis is not a subalgebra")
    if not split.l_basis.contains(z):
        out.append("l_basis does not contain z")
    return out


def coadjoint_form(L, gamma):
    """Antisymmetric matrix gamma([x_i, x_j])."""
    F = L.field
    zero = F.zero
    rows = [[zero] * L.dim for _ in range(L.dim)]
    for (i, j), comp in L.table.items():
        val = zero
        for k, c in comp.items():
            if not gamma.coords[k].is_zero:
                val = val + c * gamma.coords[k]
        rows[i][j] = val
        rows[j][i] = -val
    return Matrix(F, rows, ncols=L.dim)


def stabilizer(L, gamma):
    """Kernel of the coadjoint form: {xi : gamma([xi, .]) = 0}."""
    return Subspace(L.field, L.dim, kernel_basis(coadjoint_form(L, gamma)))


@dataclass
class StructureSeries:
    center: Subspace
    derived: Subspace
    lower_central: list
    derived_series: list
    is_nilpotent: bool
    is_solvable: bool
    is_abelian: bool


def center_of(L):
    F = L.field
    rows = []
    for j in range(L.dim):
        for k in range(L.dim):
            rows.append([L.bracket_basis(i, j).get(k, F.zero) for i in range(L.dim)])
    return Subspace(F, L.dim, kernel_basis(Matrix(F, rows, ncols=L.dim)))


def _bracket_span(L, A, B):
    vecs = []
    for u in A.basis:
        for w in B.basis:
            vecs.append(bracket(L, u, w))
    return Subspace(L.field, L.dim, vecs)


def structure_series(L):
    full = Subspace(L.field, L.dim, [L.basis_vector(i) for i in range(L.dim)])
    derived = _bracket_span(L, full, full)
    lower = [derived]
    while lower[-1].dim:
        nxt = _bracket_span(L, full, lower[-1])
        if nxt.dim == lower[-1].dim:
            break
        lower.append(nxt)
    dseries = [derived]
    while dseries[-1].dim:
        nxt = _bracket_span(L, dseries[-1], dseries[-1])
        if nxt.dim == dseries[-1].dim:
            break
        dseries.append(nxt)
    return StructureSeries(
        center=center_of(L),
        derived=derived,
        lower_central=lower,
        derived_series=dseries,
        is_nilpotent=lower[-1].dim == 0,
        is_solvable=dseries[-1].dim == 0,
        is_abelian=derived.dim == 0,
    )


def subalgebra_of(L, S):
    """Structure constants of a bracket-closed subspace in its echelon basis.

    Returns (sub_algebra, list of ambient basis vectors). Labels reuse the
    ambient label when a basis vector is a plain coordinate vector.
    """
    F = L.field
    basis = list(S.basis)
    labels = []
    for idx, b in enumerate(basis):
        hits = [k for k, c in enumerate(b) if not c.is_zero]
        if len(hits) == 1 and b[hits[0]].is_one:
            labels.append(L.labels[hits[0]])
        else:
            labels.append("v%d" % idx)
    table = {}
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            w = bracket(L, basis[i], basis[j])
            coords = S.coordinates(w)
            if coords is None:
                raise LieAlgebraError("subspace is not closed under the bracket")
            comp = {k: c for k, c in enumerate(coords) if not c.is_zero}
            if comp:
                table[(i, j)] = comp
    ann = {}
    central = []
    for k, b in enumerate(basis):
        if all(all(c.is_zero for c in bracket(L, b, w)) for w in basis):
            central.append(k)
    if central:
        ann["central"] = frozenset(central)
    return LieAlgebra(F, labels, table, ann), basis


def direct_sum(L1, L2):
    if L1.field != L2.field:
        raise LieAlgebraError("tower-level mismatch between summands")
    labels = list(L1.labels)
    for lab in L2.labels:
        labels.append(lab if lab not in labels else lab + "'")
    table = {}
    for (i, j), comp in L1.table.items():
        table[(i, j)] = dict(comp)
    off = L1.dim
    for (i, j), comp in L2.table.items():
        table[(i + off, j + off)] = {k + off: c for k, c in comp.items()}
    ann = {}
    c1 = L1.central_indices()
    c2 = L2.central_indices()
    if c1 or c2:
        ann["central"] = frozenset(c1) | frozenset(k + off for k in c2)
    return LieAlgebra(L1.field, labels, table, ann)


def killing_matrix(L):
    """Gram matrix of the Killing form tr(ad a . ad b) on the basis."""
    F = L.field
    ad = []
    for i in range(L.dim):
        m = [[F.zero] * L.dim for _ in range(L.dim)]
        for j in range(L.dim):
            for k, c in L.bracket_basis(i, j).items():
                m[k][j] = c
        ad.append(m)
    rows = [[F.zero] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            s = F.zero
            for a in range(L.dim):
                for b in range(L.dim):
                    if not ad[i][a][b].is_zero and not ad[j][b][a].is_zero:
                        s = s + ad[i][a][b] * ad[j][b][a]
            rows[i][j] = s
            rows[j][i] = s
    return Matrix(F, rows, ncols=L.dim)


def _killing_nondegenerate_on(L, S):
    if S.dim == 0:
        return True
    K = killing_matrix(L)
    F = L.field
    rows = []
    for u in S.basis:
        row = []
        for w in S.basis:
            s = F.zero
            for a, ca in enumerate(u):
                if ca.is_zero:
                    continue
                for b, cb in enumerate(w):
                    if not cb.is_zero and not K[a, b].is_zero:
                        s = s + ca * cb * K[a, b]
            row.append(s)
        rows.append(row)
    from .linalg import rank

    return rank(Matrix(F, rows, ncols=S.dim)) == S.dim


def is_reductive(L):
    """Radical equals center; checked via annotation when present, else via
    the exact splitting q = center + [q, q] with nondegenerate Killing form
    on the derived algebra (Cartan's criterion)."""
    series = structure_series(L)
    rad = L.annotations.get("solvable_radical")
    if rad is not None:
        claim = rad == series.center
        if claim and not _killing_nondegenerate_on(L, series.derived):
            raise LieAlgebraError(
                "annotated radical equals the center but the Killing form "
                "degenerates on the derived algebra"
            )
        return claim
    c, d = series.center, series.derived
    if c.dim + d.dim != L.dim:
        return False
    if Subspace(L.field, L.dim, list(c.basis) + list(d.basis)).dim != L.dim:
        return False
    return _killing_nondegenerate_on(L, d)


def nilradical_of(L):
    """Annotated nilradical, or an exact computation for the nilpotent and
    solvable cases (Killing radical, certified nilpotent); error otherwise."""
    S = L.annotations.get("nilradical")
    if S is not None:
        return S
    series = structure_series(L)
    if series.is_nilpotent:
        return Subspace(L.field, L.dim, [L.basis_vector(i) for i in range(L.dim)])
    if series.is_solvable:
        cand = Subspace(L.field, L.dim, kernel_basis(killing_matrix(L)))
        if _is_ideal(L, cand):
            sub, _ = subalgebra_of(L, cand)
            if structure_series(sub).is_nilpotent:
                return cand
        raise LieAlgebraError(
            "cannot certify the nilradical of this solvable algebra; "
            "annotate it explicitly"
        )
    raise LieAlgebraError("nilradical annotation required for this algebra")


@dataclass
class NilradicalClass:
    kind: str  # trivial | line | heisenberg | abelian_ideal
    nilradical: Subspace
    h: Subspace = None
    split: HeisenbergSplit = None


def classify_nilradical(L):
    """Decide which reduction applies to the nilradical.

    abelian_ideal: some characteristic abelian ideal h of the nilradical has
    dim h > 1 or [q, h] != 0. Otherwise the nilradical is a line or a
    Heisenberg algebra and a Darboux split is constructed.
    """
    n_space = nilradical_of(L)
    if n_space.dim == 0:
        return NilradicalClass(kind="trivial", nilradical=n_space)
    sub, sub_basis = subalgebra_of(L, n_space)
    sub_series = structure_series(sub)
    if not sub_series.is_nilpotent:
        raise LieAlgebraError("nilradical is not nilpotent")

    def to_ambient(S):
        out = []
        for b in S.basis:
            w = L.zero_vector()
            w = list(w)
            for c, amb in zip(b, sub_basis):
                if not c.is_zero:
                    w = [wi + c * ai for wi, ai in zip(w, amb)]
            out.append(tuple(w))
        return Subspace(L.field, L.dim, out)

    candidates = [to_ambient(sub_series.center)]
    for term in sub_series.lower_central:
        if term.dim:
            candidates.append(to_ambient(term))
    for term in sub_series.derived_series:
        if term.dim:
            candidates.append(to_ambient(term))
    seen = []
    for h in candidates:
        if h in seen:
            continue
        seen.append(h)
        hsub, _ = subalgebra_of(L, h)
        if structure_series(hsub).derived.dim != 0:
            continue
        if not _is_ideal(L, h):
            continue
        acts = any(
            any(not c.is_zero for c in bracket(L, L.basis_vector(i), w))
            for i in range(L.dim)
            for w in h.basis
        )
        if h.dim > 1 or acts:
            return NilradicalClass(kind="abelian_ideal", nilradical=n_space, h=h)
    if n_space.dim == 1:
        return NilradicalClass(kind="line", nilradical=n_space, h=n_space)
    split = darboux_split(L, n_space)
    return NilradicalClass(kind="heisenberg", nilradical=n_space, split=split)


def darboux_split(L, n_space):
    """Greedy symplectic pairing on a complement of the center line.

    When a levi annotation is present the complement is chosen inside the
    kernel of a functional vanishing on [levi, n], which makes span{x, y}
    levi-stable whenever that is possible.
    """
    F = L.field
    sub, sub_basis = subalgebra_of(L, n_space)
    zc = structure_series(sub).center
    if zc.dim != 1:
        raise LieAlgebraError(
            "Darboux construction failure: nilradical center has dimension %d"
            % zc.dim
        )
    z = _sub_to_ambient(L, zc.basis[0], sub_basis)
    zline = Subspace(F, L.dim, [z])
    for i in range(L.dim):
        if any(not c.is_zero for c in bracket(L, L.basis_vector(i), z)):
            raise LieAlgebraError(
                "Darboux construction failure: center line is not central"
            )
    for i, u in enumerate(n_space.basis):
        for w in n_space.basis[i + 1 :]:
            if any(not c.is_zero for c in bracket(L, u, w)) and not zline.contains(
                bracket(L, u, w)
            ):
                raise LieAlgebraError(
                    "Darboux construction failure: [n, n] leaves the center line"
                )
    v_basis = _stable_complement(L, n_space, sub_basis, z)
    pairs_x, pairs_y = _greedy_pairing(L, v_basis, z)
    lb = _v_stabilizer(L, pairs_x + pairs_y, z)
    split = HeisenbergSplit(l_basis=lb, x=pairs_x, y=pairs_y, z=tuple(z))
    bad = check_split(L, split)
    if bad:
        raise LieAlgebraError("Darboux construction failure: %s" % "; ".join(bad))
    return split


def _sub_to_ambient(L, coords, sub_basis):
    w = list(L.zero_vector())
    for c, amb in zip(coords, sub_basis):
        if not c.is_zero:
            w = [wi + c * ai for wi, ai in zip(w, amb)]
    return tuple(w)


def _stable_complement(L, n_space, sub_basis, z):
    F = L.field
    levi = L.annotations.get("levi")
    zc = Subspace(F, L.dim, [z])
    if levi is not None and levi.dim:
        action = []
        for u in levi.basis:
            for w in n_space.basis:
                bw = bracket(L, u, w)
                if any(not c.is_zero for c in bw):
                    action.append(bw)
        act_sub = Subspace(F, L.dim, action)
        if not act_sub.contains(z):
            # functional on n: rows are n-coordinates of the action span + z
            rows = []
            rhs = []
            for w in action:
                rows.append(list(n_space.coordinates(w)))
                rhs.append(F.zero)
            rows.append(list(n_space.coordinates(z)))
            rhs.append(F.one)
            pi = solve(F, rows, rhs) if rows else None
            if pi is not None:
                m = Matrix(F, [pi], ncols=n_space.dim)
                comp = []
                for k in kernel_basis(m):
                    comp.append(_sub_to_ambient(L, k, n_space.basis))
                return comp
    z_in_n = n_space.coordinates(z)
    lead = next(i for i, c in enumerate(z_in_n) if not c.is_zero)
    return [b for i, b in enumerate(n_space.basis) if i != lead]


def _omega(L, z, u, w):
    b = bracket(L, u, w)
    idx = next(i for i, c in enumerate(z) if not c.is_zero)
    return b[idx] / z[idx]


def _greedy_pairing(L, v_basis, z):
    F = L.field
    work = [list(b) for b in v_basis]
    xs, ys = [], []
    while work:
        u = work.pop(0)
        if all(c.is_zero for c in u):
            continue
        j = next(
            (k for k, w in enumerate(work) if not _omega(L, z, u, w).is_zero), None
        )
        if j is None:
            raise LieAlgebraError(
                "Darboux construction failure: degenerate symplectic pairing"
            )
        w = work.pop(j)
        c = _omega(L, z, u, w)
        y1 = [e / c for e in w]
        for b in work:
            cu = _omega(L, z, b, y1)
            cy = _omega(L, z, b, u)
            for t in range(len(b)):
                b[t] = b[t] - cu * u[t] + cy * y1[t]
        xs.append(tuple(u))
        ys.append(tuple(y1))
    return xs, ys


def _v_stabilizer(L, v_vectors, z):
    """{xi in q : [xi, v] stays in v}, cut out by the z-component vanishing.

    Every [x_i, w] (w in v) must lie in v + span z; its z-component is
    phi([x_i, w]) for one functional phi with phi(v) = 0 and phi(z) = 1,
    solved once. Raises LieAlgebraError when z lies in span v (no such phi)
    or when a bracket leaves v + span z.
    """
    F = L.field
    v = Subspace(F, L.dim, v_vectors)
    vz_rows = list(v.basis) + [z]
    vz = Subspace(F, L.dim, vz_rows)
    phi = solve(F, vz_rows, [F.zero] * v.dim + [F.one])
    if phi is None:
        raise LieAlgebraError("z lies in span v: no z-component modulo v")
    phi = LinearForm(F, phi)
    rows = []
    for w in v.basis:
        row = []
        for i in range(L.dim):
            b = bracket(L, L.basis_vector(i), w)
            if not vz.contains(b):
                raise LieAlgebraError("vector outside v + span z")
            row.append(phi.of_vector(b))
        rows.append(row)
    return Subspace(F, L.dim, kernel_basis(Matrix(F, rows, ncols=L.dim)))


def ltilde(L, split):
    """Bracket stabilizer of v = span{x, y}; contains z, covers q with h."""
    lb = _v_stabilizer(L, list(split.x) + list(split.y), split.z)
    if not _is_subalgebra(L, lb):
        raise LieAlgebraError("stabilizer of v failed to close under bracket")
    h = Subspace(L.field, L.dim, list(split.x) + list(split.y) + [split.z])
    total = Subspace(L.field, L.dim, list(lb.basis) + list(h.basis))
    if total.dim != L.dim:
        raise LieAlgebraError("stabilizer plus Heisenberg ideal does not span")
    if lb.dim + h.dim - total.dim != 1 or not lb.contains(split.z):
        raise LieAlgebraError("stabilizer meets the ideal off the center line")
    return lb
