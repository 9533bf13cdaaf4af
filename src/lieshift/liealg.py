"""Lie algebras by structure constants, subspaces, and structure theory.

A LieAlgebra is a sparse bracket table over one tower field. Validation
(Jacobi, annotation sanity) is explicit and reported, never assumed. The
classification helpers cover exactly what the construction pipeline needs:
centers, derived/lower-central series, nilradical handling, abelian-ideal
candidates, Heisenberg (Darboux) splits and the bracket-stabilizer of the
symplectic complement.

The structure facts are cached properties of the algebra: its center,
derived algebra ([q, q], spanned by the rows of the bracket table), lower
central series and derived series, each computed on first read. They are
``Subspace`` values, which hold no reference back to the algebra.

A bracket stays cleared from the kernel to the membership test. The one
bracket kernel, ``_bracket_cleared``, takes cleared supports (index,
numerator) over one denominator and returns [a, b] the same way, over the
nonzero coordinates only; ``Subspace._spans`` tests such a support against
the basis rows, kept as primitive numerator-ring rows, in the numerator
ring. Neither scans a dense vector or wraps a scalar. Scaling is free
there: membership and span do not change when a vector is scaled, so the
closure, ideal, stability, isotropy and center-line tests bracket the
stored basis rows as they are and ignore the bracket's denominator. Only a
caller that needs values wraps: ``bracket``, ``basis_brackets`` and the
spans of ``_span`` through ``_wrapped``, ``subalgebra_of`` and the ideal
action of ``construct`` through ``Subspace._coordinates``, and the Darboux
pairing, which wraps the one coordinate it reads.

The structure constants are read through one table, ``kernel_brackets``:
by the kernels (``_bracket_cleared``, ``coadjoint_form``,
``killing_matrix``), by ``weights``, which reads the torus of the basis off
it, by the Jacobi and central-annotation checks of ``validate``, and by the
central-index check of ``pbw.EnvelopingAlgebra``.
``LieAlgebra.bracket_basis`` is a public accessor that no check reads.
Whether a subspace is stable under another is answered by ``_maps_into``
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .fields import FieldElement
from .linalg import echelon_basis, kernel_basis, kernel_of_images, rank, solve


class LieAlgebraError(Exception):
    pass


def vec(field, coords):
    return tuple([field.coerce(c) for c in coords])


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

    ``linalg.echelon_basis`` builds the basis by one fraction-free elimination:
    each row is content-normalized and is the only row nonzero at its pivot
    column (``pivots[i]`` for ``basis[i]``). Each basis vector is its own
    primitive numerator-ring row over the unit denominator, which
    ``echelon_basis`` hands over with the basis; it is kept in ``_rows`` as a
    cleared support, so a bracket of basis vectors reads the rows as they
    are (``_cleared_basis``).

    Membership is one residual routine, ``_spans``, on the cleared support
    (index, x) of a vector x / d: the candidate coordinates are read at the
    stored pivots and the residual is checked exactly, with no elimination,
    in the numerator ring. It never reads d: scaling a vector changes neither
    whether it lies in the span nor the span it adds to, so a bracket is
    tested as the kernel returns it. ``coordinates`` clears its vector, takes
    the residual and wraps each coordinate once; ``contains`` skips the wrap.
    """

    __slots__ = ("field", "ambient_dim", "basis", "pivots", "_rows")

    def __init__(self, field, ambient_dim, vectors):
        self.field = field
        self.ambient_dim = ambient_dim
        rows = [list(vec(field, v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise LieAlgebraError("vector length does not match ambient dim")
        self.basis, piv, ring = echelon_basis(field, rows)
        self.pivots = tuple(piv)
        # (pivot column, pivot entry, ((k, entry), ...) over nonzeros)
        self._rows = tuple([
            (p, r[p], tuple([(k, a) for k, a in enumerate(r) if a]))
            for r, p in zip(ring, self.pivots)
        ])

    @property
    def dim(self):
        return len(self.basis)

    def coordinates(self, v):
        """Coefficients of v in the echelon basis, or None if outside.

        The only candidate is c_i = v[p_i] / basis[i][p_i] at the pivots p_i;
        v is in the span exactly when v - sum c_i basis[i] vanishes, which
        ``_spans`` checks coordinate by coordinate, so a non-None answer is a
        proof. On v's cleared support x / d each c_i = x[p_i] / (d
        basis[i][p_i]) is wrapped once.
        """
        return self._coordinates(*self._support(v))

    def contains(self, v):
        return self._spans(self._support(v)[1])

    def _support(self, v):
        if len(v) != self.ambient_dim:
            raise LieAlgebraError("vector length does not match ambient dim")
        return _kernel_support(self.field, v)

    def _cleared_basis(self):
        """The basis as cleared supports (unit, row), one per basis vector."""
        unit = self.field.clear(())[0]
        return [(unit, row) for _, _, row in self._rows]

    def _coordinates(self, d, support):
        """``coordinates`` of the vector with cleared support x / d."""
        if not self._spans(support):
            return None
        x = dict(support)
        field = self.field
        zero = field.zero
        return [field.from_cleared(x[p], d * piv) if p in x else zero for p, piv, _ in self._rows]

    def _spans(self, support):
        """Is the vector with this cleared support x / d in the span?

        Each basis row whose pivot column the residual reaches clears that
        column: the residual is scaled by the pivot entry and a ring multiple
        of the row is subtracted, so it stays a ring value. It ends at zero
        exactly when x / d lies in the span, whatever d is.
        """
        acc = dict(support)
        for p, piv, row in self._rows:
            a = acc.get(p)
            if not a:
                continue
            if piv != 1:
                acc = {k: piv * b for k, b in acc.items()}
            for k, b in row:
                y = acc.get(k)
                acc[k] = -a * b if y is None else y - a * b
        return not any(acc.values())

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
        self.x = tuple([tuple(v) for v in self.x])
        self.y = tuple([tuple(v) for v in self.y])
        self.z = tuple(self.z)


class LieAlgebra:
    """Finite-dimensional Lie algebra by sparse structure constants.

    brackets: {(i, j): {k: coeff}} for i < j; antisymmetry is by construction.
    annotations may carry: central (iterable of indices), levi, nilradical,
    solvable_radical (Subspace or index list), heisenberg_split, known_casimirs.
    The structure facts (center, derived, lower_central, derived_series and
    the is_* tests on them) are properties, each computed on first read.
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
                if k not in range(self.dim):
                    raise LieAlgebraError("bracket component %r out of range" % (k,))
                c = c if isinstance(c, FieldElement) else field.coerce(c)
                if c.field is not field and c.field != field:
                    raise LieAlgebraError(
                        "structure constant of %r in an algebra over %r"
                        % (c.field, field)
                    )
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
            central = self.annotations["central"] = frozenset(self.annotations["central"])
            if not central <= frozenset(range(self.dim)):
                raise LieAlgebraError("central index outside range(%d)" % self.dim)

    def span_of_indices(self, idxs):
        return Subspace(
            self.field, self.dim, [self.basis_vector(i) for i in idxs]
        )

    def basis_vector(self, i):
        if i not in range(self.dim):
            raise LieAlgebraError("basis index %r outside range(%d)" % (i, self.dim))
        one, zero = self.field.one, self.field.zero
        return tuple([one if k == i else zero for k in range(self.dim)])

    def zero_vector(self):
        return tuple([self.field.zero] * self.dim)

    def bracket_basis(self, i, j):
        """[x_i, x_j] as a sparse {k: coeff} dict."""
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    # -- structure facts, each computed on first read ------------------------

    @cached_property
    def center(self):
        return center_of(self)

    @cached_property
    def derived(self):
        return _derived_of(self)

    @cached_property
    def lower_central(self):
        # [q, C] is spanned by the cleared [x_i, w] over the basis rows w of C
        return _series(self.derived, lambda C: _span(self, [
            b for w in C._cleared_basis() for b in _basis_brackets(self, w)
        ]))

    @cached_property
    def derived_series(self):
        return _series(self.derived, lambda D: _bracket_span(self, D, D))

    @property
    def is_nilpotent(self):
        return self.lower_central[-1].dim == 0

    @property
    def is_solvable(self):
        return self.derived_series[-1].dim == 0

    @property
    def is_abelian(self):
        # the table keeps only nonzero brackets
        return not self.table

    @cached_property
    def kernel_brackets(self):
        """(D, {i: {j: ((k, c), ...)}}): the nonzero brackets [x_i, x_j], both
        orders, as cleared values c = D c_ij^k over the least common
        denominator D (``Field.clear``), for the arithmetic kernels. The c
        are numerator-ring values, the constants of the basis y_i = D x_i."""
        D, values = self.field.clear(
            [c for comp in self.table.values() for c in comp.values()]
        )
        it = iter(values)
        out = {}
        for (i, j), comp in self.table.items():
            row = tuple([(k, next(it)) for k in comp])
            out.setdefault(i, {})[j] = row
            out.setdefault(j, {})[i] = tuple([(k, -c) for k, c in row])
        return D, out

    def central_indices(self):
        return self.annotations.get("central", frozenset())

    def __repr__(self):
        return "LieAlgebra(%s)" % ", ".join(self.labels)


def _kernel_support(field, v):
    """(d, [(index, cleared value), ...]) over the nonzero coordinates of v."""
    zero = field.zero
    support = []
    for i, c in enumerate(v):
        if not isinstance(c, FieldElement) or c.field is not field:
            c = field.coerce(c)
        if c is not zero and c:
            support.append((i, c))
    d, values = field.clear([c for _, c in support])
    return d, [(i, x) for (i, _), x in zip(support, values)]


def _supports(L, vectors):
    """The ``_kernel_support`` of each coordinate vector of L; every length
    is checked before any vector is read."""
    for v in vectors:
        if len(v) != L.dim:
            raise LieAlgebraError("vector length does not match ambient dim")
    return [_kernel_support(L.field, v) for v in vectors]


def _bracket_cleared(L, a, b):
    """[a, b] from the cleared supports a = (da, [(i, x_i), ...]) and b, as
    (den, [(k, x), ...]) over the nonzero x, with [a, b]_k = x / den.

    The one bracket kernel: it sums D c_ij^k x_i y_j over the nonzero
    coordinates in the numerator ring (``kernel_brackets``), and den is
    da db D. A membership test reads the result as it is.
    """
    D, rows = L.kernel_brackets
    (da, sa), (db, sb) = a, b
    out = {}
    for i, ca in sa:
        row = rows.get(i)
        if row is None:
            continue
        for j, cb in sb:
            comp = row.get(j)
            if comp is None:
                continue
            c = ca * cb
            for k, s in comp:
                x = out.get(k)
                out[k] = c * s if x is None else x + c * s
    return da * db * D, [(k, x) for k, x in out.items() if x]


def _wrapped(L, cleared):
    """The coordinate vector of a cleared (den, support): each nonzero
    coordinate is wrapped once, the zero coordinates share one element."""
    den, support = cleared
    field = L.field
    res = [field.zero] * L.dim
    for k, x in support:
        res[k] = field.from_cleared(x, den)
    return tuple(res)


def _span(L, cleared):
    """The Subspace spanned by cleared vectors, each read over the unit
    denominator: scaling a vector changes no span."""
    return Subspace(L.field, L.dim, [_wrapped(L, (1, s)) for _, s in cleared if s])


def bracket(L, a, b):
    """[a, b] for coordinate vectors a, b: ``_bracket_cleared``, wrapped."""
    sa, sb = _supports(L, (a, b))
    return _wrapped(L, _bracket_cleared(L, sa, sb))


def _brackets(L, su, sw=None):
    """(i, j, cleared [u_i, w_j]) over all pairs of the cleared supports su
    and sw, or over the pairs i < j of su when sw is None."""
    right = su if sw is None else sw
    for i, a in enumerate(su):
        for j in range(i + 1 if sw is None else 0, len(right)):
            yield i, j, _bracket_cleared(L, a, right[j])


def _basis_brackets(L, sw):
    """The cleared [x_i, w] for every basis vector x_i, from w's support."""
    unit = L.field.clear(())[0]
    return [_bracket_cleared(L, (unit, ((i, unit),)), sw) for i in range(L.dim)]


def basis_brackets(L, w):
    """([x_0, w], ..., [x_{n-1}, w]): w bracketed with every basis vector."""
    return [_wrapped(L, b) for b in _basis_brackets(L, _supports(L, (w,))[0])]


def _is_central(L, sw):
    """Is the vector with cleared support sw central?"""
    return not any(s for _, s in _basis_brackets(L, sw))


@dataclass
class ValidationReport:
    jacobi_failures: list = dc_field(default_factory=list)
    annotation_failures: list = dc_field(default_factory=list)

    @property
    def ok(self):
        return not self.jacobi_failures and not self.annotation_failures


def validate(L):
    """Check Jacobi on all basis triples and sanity of annotations.

    Jacobi is summed from the cleared structure constants D c_ij^k of
    ``kernel_brackets``, as [[e_i, e_j], e_k] = sum_m c_ij^m [e_m, e_k] plus
    the two cyclic terms; the common factor D^2 changes no zero test.
    Failing triples (i < j < k) are listed in lexicographic order.
    """
    report = ValidationReport()
    _, rows = L.kernel_brackets
    none = {}
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            for k in range(j + 1, L.dim):
                s = {}
                for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                    for m, cm in rows.get(a, none).get(b, ()):
                        for t, ct in rows.get(m, none).get(c, ()):
                            x = s.get(t)
                            s[t] = cm * ct if x is None else x + cm * ct
                if any(s.values()):
                    report.jacobi_failures.append((i, j, k))
    for i in sorted(L.central_indices()):
        if i in rows:
            report.annotation_failures.append(
                "central index %d brackets nontrivially with %d" % (i, min(rows[i]))
            )
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
    return all(S._spans(s) for _, _, (_, s) in _brackets(L, S._cleared_basis()))


def _is_ideal(L, S):
    return all(
        S._spans(s) for w in S._cleared_basis() for _, s in _basis_brackets(L, w)
    )


def _maps_into(L, U, S):
    """Is the subspace S stable under the subspace U: [u, s] in S for every
    u in U and s in S?"""
    pairs = _brackets(L, U._cleared_basis(), S._cleared_basis())
    return all(S._spans(s) for _, _, (_, s) in pairs)


def _check_annotated_subspace(L, key, S):
    out = []
    if key == "levi":
        if not _is_subalgebra(L, S):
            out.append("levi annotation is not a subalgebra")
    else:
        if not _is_ideal(L, S):
            out.append("%s annotation is not an ideal" % key)
        try:
            sub, _ = subalgebra_of(L, S)
        except LieAlgebraError:
            return out  # not bracket-closed: no structure constants to test
        if key == "nilradical" and not sub.is_nilpotent:
            out.append("nilradical annotation is not nilpotent")
        if key == "solvable_radical" and not sub.is_solvable:
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
    (sz,) = _supports(L, (z,))
    if not _is_central(L, sz):
        out.append("split center is not central in the ambient algebra")
    sxy = _supports(L, (*split.x, *split.y))
    sx, sy = sxy[:n], sxy[n:]
    for i, j, b in _brackets(L, sx, sy):
        if i == j:
            if _wrapped(L, b) != tuple(z):
                out.append("[x_%d, y_%d] != z" % (i, j))
        elif b[1]:
            out.append("[x_%d, y_%d] != 0" % (i, j))
    for name, fam in (("x", sx), ("y", sy)):
        for _, _, (_, s) in _brackets(L, fam):
            if s:
                out.append("[%s, %s] family is not isotropic" % (name, name))
    v = Subspace(F, L.dim, list(split.x) + list(split.y))
    if v.dim != 2 * n:
        out.append("x, y vectors are not independent")
    if not _maps_into(L, split.l_basis, v):
        out.append("span{x, y} is not stable under l_basis")
    if not _is_subalgebra(L, split.l_basis):
        out.append("l_basis is not a subalgebra")
    if not split.l_basis._spans(sz[1]):
        out.append("l_basis does not contain z")
    return out


def coadjoint_form(L, gamma):
    """Rows of the antisymmetric matrix gamma([x_i, x_j]), on cleared values."""
    F = L.field
    D, brackets = L.kernel_brackets
    dg, g = F.clear(gamma.coords)
    den = D * dg
    zero = F.zero
    rows = [[zero] * L.dim for _ in range(L.dim)]
    for i, row in brackets.items():
        for j, comp in row.items():
            if i < j:
                val = sum(c * g[k] for k, c in comp if g[k])
                if val:
                    rows[i][j] = F.from_cleared(val, den)
                    rows[j][i] = F.from_cleared(-val, den)
    return rows


def stabilizer(L, gamma):
    """Kernel of the coadjoint form: {xi : gamma([xi, .]) = 0}."""
    return Subspace(L.field, L.dim, kernel_basis(L.field, coadjoint_form(L, gamma), L.dim))


def weights(L):
    """The weight of each basis vector under the torus of the basis, read
    off ``kernel_brackets``: one tuple per x_j, with one cleared value
    D c_tj^j per torus vector x_t, in the order of the torus vectors.

    A torus vector x_t has ad diagonal in the basis, [x_t, x_j] in F x_j for
    every j, and some nonzero bracket: a central vector qualifies but adds
    no weight, so it is left out. Weights add under products, and a sum
    of weights is zero exactly when it is zero before clearing. With no
    torus every tuple is empty, every weight zero. Computed on each call,
    never stored on the algebra."""
    _, rows = L.kernel_brackets
    torus = [
        row for row in rows.values()
        if all(len(comp) == 1 and comp[0][0] == j for j, comp in row.items())
    ]
    return [tuple([row[j][0][1] if j in row else 0 for row in torus]) for j in range(L.dim)]


def center_of(L):
    """Kernel of x -> ([x, e_j])_j: the image of x_i has the entry c_ij^k at
    row (j, k), one row per nonzero structure constant
    (``linalg.kernel_of_images``).

    Only the basis vectors of weight zero (``weights``) get a column: the
    row (t, j) of a torus vector x_t holds -c_tj^j in column j alone, so a
    column of nonzero weight is zero in every kernel vector."""
    images = [{} for _ in range(L.dim)]
    for (i, j), comp in L.table.items():
        for k, c in comp.items():
            images[i][(j, k)] = c
            images[j][(i, k)] = -c
    cols = [i for i, w in enumerate(weights(L)) if not any(w)]
    zero = L.field.zero
    vectors = []
    for coeffs in kernel_of_images(L.field, [images[i] for i in cols]):
        v = [zero] * L.dim
        for i, c in zip(cols, coeffs):
            v[i] = c
        vectors.append(v)
    return Subspace(L.field, L.dim, vectors)


def _derived_of(L):
    """[q, q]: the span of the bracket table's rows, the nonzero [x_i, x_j]."""
    zero = L.field.zero
    rows = [[comp.get(k, zero) for k in range(L.dim)] for comp in L.table.values()]
    return Subspace(L.field, L.dim, rows)


def _series(first, step):
    """first, step(first), ... up to a term of dimension 0 or one that is
    no smaller than the term before it, which is dropped."""
    out = [first]
    while out[-1].dim:
        nxt = step(out[-1])
        if nxt.dim == out[-1].dim:
            break
        out.append(nxt)
    return out


def _bracket_span(L, A, B):
    """span [A, B]; when A is B only the pairs a < b are bracketed."""
    rows = A._cleared_basis()
    pairs = _brackets(L, rows, None if A is B else B._cleared_basis())
    return _span(L, [b for _, _, b in pairs])


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
    for i, j, (den, s) in _brackets(L, S._cleared_basis()):
        coords = S._coordinates(den, s)
        if coords is None:
            raise LieAlgebraError("subspace is not closed under the bracket")
        comp = {k: c for k, c in enumerate(coords) if not c.is_zero}
        if comp:
            table[(i, j)] = comp
    ann = {}
    # the table holds every nonzero [b_i, b_j], so b_k is central exactly
    # when no entry involves k
    central = set(range(len(basis))).difference(*table)
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
    """Rows of the Killing form's Gram matrix tr(ad x_i . ad x_j) on the basis.

    With (ad x_i)_kl = c_il^k, entry (i, j) sums c_il^k c_jk^l over the
    sparse ``kernel_brackets``, on cleared values over D^2, and is wrapped
    once; the zero entries share one element.
    """
    F = L.field
    D, brackets = L.kernel_brackets
    # ad[i][(k, l)] = D c_il^k over the nonzero entries
    ad = [
        {(k, l): c for l, comp in brackets.get(i, {}).items() for k, c in comp}
        for i in range(L.dim)
    ]
    zero = F.zero
    rows = [[zero] * L.dim for _ in range(L.dim)]
    for i in range(L.dim):
        for j in range(i, L.dim):
            s = None
            for (k, l), c in ad[i].items():
                e = ad[j].get((l, k))
                if e is not None:
                    s = c * e if s is None else s + c * e
            if s:
                rows[i][j] = rows[j][i] = F.from_cleared(s, D * D)
    return rows


def is_reductive(L):
    """Radical equals center: checked via annotation when present, else via
    the exact splitting q = center + [q, q]; either way the Killing form must
    be nondegenerate on [q, q] (Cartan's criterion). On the ideal [q, q] it
    is the Killing form of [q, q] itself.

    The center and [q, q] are computed here, not read off L's cached
    properties: caching them raised reductive-shift peak RSS by 0.1-0.2 MB."""
    c, d = center_of(L), _derived_of(L)
    rad = L.annotations.get("solvable_radical")
    if rad is not None:
        claim = rad == c
    else:
        claim = c.dim + d.dim == L.dim and rank(L.field, list(c.basis) + list(d.basis)) == L.dim
    if not claim or rank(L.field, killing_matrix(subalgebra_of(L, d)[0])) == d.dim:
        return claim
    if rad is None:
        return False
    raise LieAlgebraError(
        "annotated radical equals the center but the Killing form "
        "degenerates on the derived algebra"
    )


def nilradical_of(L):
    """Annotated nilradical, or an exact computation for the nilpotent and
    solvable cases (Killing radical, certified nilpotent); error otherwise."""
    S = L.annotations.get("nilradical")
    if S is not None:
        return S
    if L.is_nilpotent:
        return L.span_of_indices(range(L.dim))
    if L.is_solvable:
        cand = Subspace(L.field, L.dim, kernel_basis(L.field, killing_matrix(L), L.dim))
        if _is_ideal(L, cand) and subalgebra_of(L, cand)[0].is_nilpotent:
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
    if not sub.is_nilpotent:
        raise LieAlgebraError("nilradical is not nilpotent")

    def to_ambient(S):
        return Subspace(L.field, L.dim, [_sub_to_ambient(L, b, sub_basis) for b in S.basis])

    # the center of the nonzero nilpotent sub is nonzero
    candidates = [
        to_ambient(S) for S in [sub.center, *sub.lower_central, *sub.derived_series] if S.dim
    ]
    seen = []
    for h in candidates:
        if h in seen:
            continue
        seen.append(h)
        if not subalgebra_of(L, h)[0].is_abelian:
            continue
        if not _is_ideal(L, h):
            continue
        acts = not all(_is_central(L, sw) for sw in h._cleared_basis())
        if h.dim > 1 or acts:
            return NilradicalClass(kind="abelian_ideal", nilradical=n_space, h=h)
    if n_space.dim == 1:
        return NilradicalClass(kind="line", nilradical=n_space, h=n_space)
    split = _darboux_split(L, n_space, sub, sub_basis)
    return NilradicalClass(kind="heisenberg", nilradical=n_space, split=split)


def darboux_split(L, n_space):
    """Greedy symplectic pairing on a complement of the center line.

    When a levi annotation is present the complement is chosen inside the
    kernel of a functional vanishing on [levi, n], which makes span{x, y}
    levi-stable whenever that is possible.
    """
    sub, sub_basis = subalgebra_of(L, n_space)
    return _darboux_split(L, n_space, sub, sub_basis)


def _darboux_split(L, n_space, sub, sub_basis):
    """darboux_split on the nilradical's subalgebra, as built by the caller;
    the check_split at the end also reports a center that is not central."""
    F = L.field
    zc = sub.center
    if zc.dim != 1:
        raise LieAlgebraError(
            "Darboux construction failure: nilradical center has dimension %d"
            % zc.dim
        )
    z = _sub_to_ambient(L, zc.basis[0], sub_basis)
    zline = Subspace(F, L.dim, [z])
    for _, _, (_, s) in _brackets(L, n_space._cleared_basis()):
        if s and not zline._spans(s):
            raise LieAlgebraError("Darboux construction failure: [n, n] leaves the center line")
    v_basis = _stable_complement(L, n_space, z)
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


def _stable_complement(L, n_space, z):
    F = L.field
    levi = L.annotations.get("levi")
    if levi is not None and levi.dim:
        pairs = _brackets(L, levi._cleared_basis(), n_space._cleared_basis())
        action = [b for _, _, b in pairs if b[1]]
        if not _span(L, action).contains(z):
            # functional on n: rows are n-coordinates of the action span + z
            rows = []
            rhs = []
            for b in action:
                rows.append(list(n_space._coordinates(*b)))
                rhs.append(F.zero)
            rows.append(list(n_space.coordinates(z)))
            rhs.append(F.one)
            pi = solve(F, rows, rhs) if rows else None
            if pi is not None:
                return [_sub_to_ambient(L, k, n_space.basis)
                        for k in kernel_basis(F, [pi], n_space.dim)]
    z_in_n = n_space.coordinates(z)
    lead = next(i for i, c in enumerate(z_in_n) if not c.is_zero)
    return [b for i, b in enumerate(n_space.basis) if i != lead]


def _omega(L, z, idx, su, sw):
    """omega(u, w): the coordinate idx (z's first nonzero) of [u, w] over
    z's, from the cleared supports su and sw; only that one is wrapped."""
    den, s = _bracket_cleared(L, su, sw)
    x = next((x for k, x in s if k == idx), None)
    return L.field.zero if x is None else L.field.from_cleared(x, den) / z[idx]


def _greedy_pairing(L, v_basis, z):
    """Symplectic Gram-Schmidt on v_basis for omega; each work vector is
    cleared once per round."""
    F = L.field
    idx = next(i for i, c in enumerate(z) if not c.is_zero)
    work = [list(b) for b in v_basis]
    xs, ys = [], []
    while work:
        u = work.pop(0)
        if all(c.is_zero for c in u):
            continue
        su = _kernel_support(F, u)
        supports = [_kernel_support(F, w) for w in work]
        for j, sw in enumerate(supports):
            c = _omega(L, z, idx, su, sw)
            if c:
                break
        else:
            raise LieAlgebraError(
                "Darboux construction failure: degenerate symplectic pairing"
            )
        w = work.pop(j)
        del supports[j]
        y1 = [e / c for e in w]
        sy = _kernel_support(F, y1)
        for b, sb in zip(work, supports):
            cu = _omega(L, z, idx, sb, sy)
            cy = _omega(L, z, idx, sb, su)
            for t in range(len(b)):
                if cu and u[t]:
                    b[t] = b[t] - cu * u[t]
                if cy and y1[t]:
                    b[t] = b[t] + cy * y1[t]
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
    dphi, phi = F.clear(phi)
    rows = []
    for w in v._cleared_basis():
        row = []
        for den, s in _basis_brackets(L, w):
            if not vz._spans(s):
                raise LieAlgebraError("vector outside v + span z")
            val = sum([phi[k] * x for k, x in s if phi[k]])
            row.append(F.from_cleared(val, dphi * den) if val else F.zero)
        rows.append(row)
    return Subspace(F, L.dim, kernel_basis(F, rows, L.dim))


def ltilde(L, split):
    """Bracket stabilizer l~ of v = span{x, y}: a subalgebra containing z,
    with l~ + h = q and l~ meeting h = span{x, y, z} in the center line.
    Checked here for a split of any origin (the last two facts by
    ``_check_ltilde_covers``); construct_theorem reads l~ off a checked
    split's ``l_basis`` and calls only ``_check_ltilde_covers``."""
    lb = _v_stabilizer(L, list(split.x) + list(split.y), split.z)
    if not _is_subalgebra(L, lb):
        raise LieAlgebraError("stabilizer of v failed to close under bracket")
    _check_ltilde_covers(L, split, lb)
    if not lb.contains(split.z):
        raise LieAlgebraError("stabilizer meets the ideal off the center line")
    return lb


def _check_ltilde_covers(L, split, lb):
    """Raise unless lb + h = q and lb meets h = span{x, y, z} in a line;
    for lb containing z that line is the center line."""
    h = list(split.x) + list(split.y) + [split.z]
    total = rank(L.field, list(lb.basis) + h)
    if total != L.dim:
        raise LieAlgebraError("stabilizer plus Heisenberg ideal does not span")
    if lb.dim + rank(L.field, h) - total != 1:
        raise LieAlgebraError("stabilizer meets the ideal off the center line")
