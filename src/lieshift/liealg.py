"""Lie algebras by structure constants, subspaces, and structure theory.

A LieAlgebra is a sparse bracket table over one tower field. Validation
(Jacobi, annotation sanity) is explicit and reported, never assumed. The
classification helpers cover exactly what the construction pipeline needs:
centers, derived/lower-central series, nilradical handling, abelian-ideal
candidates, Heisenberg (Darboux) splits and the bracket-stabilizer of the
symplectic complement.

Each structure fact is one function of the algebra: ``center_of``,
``_derived_of`` ([q, q], spanned by the rows of the bracket table), and
``_lower_central`` and ``_derived_series``, which start from [q, q] as the
caller computed it. A caller that needs several facts computes [q, q] once
and passes it on. A ``LieAlgebra`` stores only what more than one caller
reads: ``kernel_brackets``, the ``validate`` report, and the subalgebra of
the nilradical annotation with its lower central series, which
``validate`` builds and ``classify_nilradical`` reads.

A bracket stays cleared from the kernel to the membership test. The one
bracket kernel, ``_bracket_cleared``, takes cleared supports (index,
numerator) over one denominator and returns [a, b] the same way, over the
nonzero coordinates only; ``Subspace._spans`` tests such a support against
the basis rows, kept as primitive numerator-ring rows, in the numerator
ring. Neither scans a dense vector or wraps a scalar. Scaling is free
there: membership and span do not change when a vector is scaled, so the
closure, ideal, stability, isotropy and center-line tests bracket the
stored basis rows as they are and ignore the bracket's denominator. Only a
caller that needs values wraps: ``bracket`` and the spans of ``_span``
through ``_wrapped``, ``subalgebra_of`` and the ideal
action of ``construct`` through ``Subspace._coordinates``, and the
Heisenberg split's functional psi (``_functional``), which wraps one value
per bracket: the z-component of a vector of the nilradical, the one fact
that the Darboux pairing and the stabilizer of its complement read.

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

from dataclasses import dataclass
from functools import cached_property

from .fields import FieldElement
from .linalg import echelon_basis, kernel_basis, kernel_of_images, rank


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

    def __repr__(self):
        return "LinearForm(%s)" % (", ".join(str(c) for c in self.coords))


class Subspace:
    """Subspace of K^n in canonical reduced-echelon basis.

    ``linalg.echelon_basis`` builds the basis by one fraction-free elimination:
    each row is content-normalized and is the only row nonzero at its pivot
    column (``pivots[i]`` for ``basis[i]``). Each basis vector is its
    primitive numerator-ring row over ``Field._lead`` of its pivot entry,
    the ring row that ``echelon_basis`` hands over with the basis; it is
    kept in ``_rows`` as a cleared support, so a bracket of basis vectors
    reads the rows as they are (``_cleared_basis``).

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
        """The basis as cleared supports (lead, row), one per basis vector."""
        lead = self.field._lead
        return [(lead(piv), row) for _, piv, row in self._rows]

    def _coordinates(self, d, support):
        """``coordinates`` of the vector with cleared support x / d: on the
        basis vector row / lead, x[p] lead / (d piv)."""
        if not self._spans(support):
            return None
        x = dict(support)
        field = self.field
        zero, lead = field.zero, field._lead
        return [
            field.from_cleared(x[p] * lead(piv), d * piv) if p in x else zero
            for p, piv, _ in self._rows
        ]

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
    Three values are computed on first read and kept, each because more than
    one caller reads it: ``kernel_brackets``, the report of ``validate``, and
    the subalgebra of the nilradical annotation with its lower central
    series. Every other structure fact is a function of the algebra
    (``center_of``, ``_derived_of``, ``_lower_central``, ``_derived_series``).
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

    @cached_property
    def _validation(self):
        """The report of ``validate``, kept so that every caller that
        validates this algebra shares one Jacobi scan."""
        return ValidationReport(_jacobi_failures(self), _annotation_failures(self))

    @cached_property
    def _nilradical_sub(self):
        """(sub, sub_basis, lower central series of sub) for the nilradical
        annotation, kept so that ``classify_nilradical`` reads what
        ``validate``'s nilpotency check built. An annotation that is not
        bracket-closed raises LieAlgebraError on every read."""
        sub, sub_basis = subalgebra_of(self, self.annotations["nilradical"])
        return sub, sub_basis, _lower_central(sub, _derived_of(sub))

    @cached_property
    def kernel_brackets(self):
        """(D, {i: {j: ((k, c), ...)}}): the nonzero brackets [x_i, x_j], both
        orders, as cleared values c = D c_ij^k over the least common
        denominator D (``Field.clear``), for the arithmetic kernels. The c
        are numerator-ring values, the constants of the basis y_i = D x_i.
        Kept because every bracket, Jacobi and Killing kernel reads it."""
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


def _is_central(L, sw):
    """Is the vector with cleared support sw central?"""
    return not any(s for _, s in _basis_brackets(L, sw))


@dataclass(frozen=True)
class ValidationReport:
    """What ``validate`` found; immutable, since one report is shared by
    every caller that validates the same algebra."""

    jacobi_failures: tuple = ()
    annotation_failures: tuple = ()

    @property
    def ok(self):
        return not self.jacobi_failures and not self.annotation_failures


def validate(L):
    """Check Jacobi on all basis triples and sanity of annotations.

    The report is kept with L: the first call computes it and every later
    call returns the same report. So an algebra that ``load_algebra``
    checked is not scanned again by ``construct_theorem`` or the validate
    command, and one that nothing has validated is scanned at its first
    call. The nilradical annotation's subalgebra and lower central series,
    built for its nilpotency check, are kept for ``classify_nilradical``.
    """
    return L._validation


def _jacobi_failures(L):
    """The triples (i < j < k) on which Jacobi fails, in lexicographic order.

    Jacobi is summed from the cleared structure constants D c_ij^k of
    ``kernel_brackets``, as [[e_i, e_j], e_k] = sum_m c_ij^m [e_m, e_k] plus
    the two cyclic terms; the common factor D^2 changes no zero test.
    """
    _, rows = L.kernel_brackets
    none = {}
    out = []
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
                    out.append((i, j, k))
    return tuple(out)


def _annotation_failures(L):
    """One message per failed annotation check, central indices first."""
    _, rows = L.kernel_brackets
    out = [
        "central index %d brackets nontrivially with %d" % (i, min(rows[i]))
        for i in sorted(L.central_indices()) if i in rows
    ]
    for key in ("levi", "nilradical", "solvable_radical"):
        S = L.annotations.get(key)
        if S is not None:
            out.extend(_check_annotated_subspace(L, key, S))
    split = L.annotations.get("heisenberg_split")
    if split is not None:
        out.extend(check_split(L, split))
    return tuple(out)


def _is_subalgebra(L, S):
    return all(S._spans(s) for _, _, (_, s) in _brackets(L, S._cleared_basis()))


def _is_abelian(L, S):
    """Is every bracket of S's basis rows zero? One scan of the pairs."""
    return not any(s for _, _, (_, s) in _brackets(L, S._cleared_basis()))


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
            if key == "nilradical":
                last = L._nilradical_sub[2][-1]
            else:
                sub, _ = subalgebra_of(L, S)
                last = _derived_series(sub, _derived_of(sub))[-1]
        except LieAlgebraError:
            return out  # not bracket-closed: no structure constants to test
        if last.dim:
            out.append("%s annotation is not %s" % (
                key, "nilpotent" if key == "nilradical" else "solvable"
            ))
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
    if len(gamma.coords) != L.dim:
        raise LieAlgebraError(
            "linear form has %d coordinates, want %d" % (len(gamma.coords), L.dim)
        )
    if gamma.field != L.field:
        raise LieAlgebraError("linear form over %r, algebra over %r" % (gamma.field, L.field))
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


def _lower_central(L, derived):
    """The lower central series from derived = [q, q]: [q, C] is spanned by
    the cleared [x_i, w] over the basis rows w of C."""
    return _series(derived, lambda C: _span(L, [
        b for w in C._cleared_basis() for b in _basis_brackets(L, w)
    ]))


def _derived_series(L, derived):
    """The derived series from derived = [q, q]."""
    return _series(derived, lambda D: _bracket_span(L, D, D))


def _bracket_span(L, A, B):
    """span [A, B]; when A is B only the pairs a < b are bracketed."""
    rows = A._cleared_basis()
    pairs = _brackets(L, rows, None if A is B else B._cleared_basis())
    return _span(L, [b for _, _, b in pairs])


def _derived_labels(L, vectors, generic):
    """The labels of a basis derived from L: a vector that is a plain
    coordinate vector of L keeps its ambient label, any other takes the
    generic name at its position, and the generic names past the vectors
    label the basis elements that follow them. If a label repeats, every
    label is generic. The one naming rule of ``subalgebra_of`` and of the
    reduced algebra of ``construct``."""
    labels = list(generic)
    for idx, v in enumerate(vectors):
        hits = [k for k, c in enumerate(v) if c]
        if len(hits) == 1 and v[hits[0]].is_one:
            labels[idx] = L.labels[hits[0]]
    return labels if len(set(labels)) == len(labels) else list(generic)


def subalgebra_of(L, S):
    """Structure constants of a bracket-closed subspace in its echelon basis.

    Returns (sub_algebra, list of ambient basis vectors), labelled by
    ``_derived_labels`` with the generic names v0, v1, ...
    """
    F = L.field
    basis = list(S.basis)
    labels = _derived_labels(L, basis, ["v%d" % idx for idx in range(len(basis))])
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
    """L1 + L2 with L2's basis after L1's; a label of L2 already taken is
    primed until it is new."""
    if L1.field != L2.field:
        raise LieAlgebraError("tower-level mismatch between summands")
    labels = list(L1.labels)
    for lab in L2.labels:
        while lab in labels:
            lab += "'"
        labels.append(lab)
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
    is the Killing form of [q, q] itself."""
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


def _nilradical(L):
    """(n, sub, sub_basis, lower): the nilradical n, (sub, sub_basis) =
    subalgebra_of(L, n) and lower, the lower central series of sub, each
    built once. An annotated n is read off ``LieAlgebra._nilradical_sub``,
    which ``validate`` built; otherwise it is exact for the nilpotent and
    solvable cases (the Killing radical, certified nilpotent by the series
    returned with it), and an error for every other algebra. [q, q] is
    computed once for both series of L."""
    S = L.annotations.get("nilradical")
    if S is not None:
        return (S, *L._nilradical_sub)
    derived = _derived_of(L)
    lower = _lower_central(L, derived)
    if not lower[-1].dim:
        S = L.span_of_indices(range(L.dim))
        # the echelon basis of q is the unit basis: L's series is sub's
        return (S, *subalgebra_of(L, S), lower)
    if not _derived_series(L, derived)[-1].dim:
        cand = Subspace(L.field, L.dim, kernel_basis(L.field, killing_matrix(L), L.dim))
        if _is_ideal(L, cand):
            sub, sub_basis = subalgebra_of(L, cand)
            lower = _lower_central(sub, _derived_of(sub))
            if not lower[-1].dim:
                return cand, sub, sub_basis, lower
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

    The nilradical's subalgebra and its lower central series come from
    ``_nilradical``: nilpotency is read off the series' last term, and the
    candidates are the center, the series and the derived series.
    """
    n_space, sub, sub_basis, lower = _nilradical(L)
    if n_space.dim == 0:
        return NilradicalClass(kind="trivial", nilradical=n_space)
    # reached by an annotated nilradical of an algebra nothing validated
    if lower[-1].dim:
        raise LieAlgebraError("nilradical is not nilpotent")

    def to_ambient(S):
        return Subspace(L.field, L.dim, [_sub_to_ambient(L, b, sub_basis) for b in S.basis])

    # the center of the nonzero nilpotent sub is nonzero
    zc = center_of(sub)
    candidates = [
        to_ambient(S) for S in [zc, *lower, *_derived_series(sub, lower[0])] if S.dim
    ]
    seen = []
    for h in candidates:
        if h in seen:
            continue
        seen.append(h)
        if not _is_abelian(L, h) or not _is_ideal(L, h):
            continue
        acts = not all(_is_central(L, sw) for sw in h._cleared_basis())
        if h.dim > 1 or acts:
            return NilradicalClass(kind="abelian_ideal", nilradical=n_space, h=h)
    if n_space.dim == 1:
        return NilradicalClass(kind="line", nilradical=n_space, h=n_space)
    split = _darboux_split(L, n_space, zc, sub_basis)
    return NilradicalClass(kind="heisenberg", nilradical=n_space, split=split)


def _darboux_split(L, n_space, zc, sub_basis):
    """Greedy symplectic pairing on a complement of the center line of the
    nilradical n_space, with (sub, sub_basis) = subalgebra_of(L, n_space)
    and zc = center_of(sub) as built by the caller; l_basis is the bracket
    stabilizer of the pairs.

    One functional psi on n with psi(z) = 1 (``_stable_complement``) gives
    the z-component of every vector of n: the complement v is n cap ker psi,
    the pairing is omega(u, w) = psi([u, w]) and l_basis is cut out by
    psi([xi, w]) = 0 for w in v. When a levi annotation is present psi also
    vanishes on [levi, n] where that is possible, which makes span{x, y}
    levi-stable. The check_split at the end verifies l_basis and also
    reports a center that is not central."""
    F = L.field
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
    psi, v_basis = _stable_complement(L, n_space, z)
    pairs_x, pairs_y = _greedy_pairing(L, v_basis, psi)
    lb = _v_stabilizer(L, pairs_x + pairs_y, psi)
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
    """(psi, v): the split's functional psi, a sparse {ambient index:
    coefficient} map over the pivot columns of n_space with psi(z) = 1, and
    a basis of v = n_space cap ker psi.

    With a levi annotation, pi on n's coordinates vanishes on the action
    [levi, n] and takes 1 at z, when some such pi exists: the last kernel
    vector of [action | 0; z | -1], read over its last entry, and psi is pi
    read at n's pivots. Otherwise psi = 1/z[p] at z's first nonzero
    coordinate p, the pivot of the basis row of n that v leaves out.
    """
    F = L.field
    levi = L.annotations.get("levi")
    if levi is not None and levi.dim:
        pairs = _brackets(L, levi._cleared_basis(), n_space._cleared_basis())
        rows = [n_space._coordinates(*b) + [F.zero] for _, _, b in pairs if b[1]]
        rows.append(n_space.coordinates(z) + [-F.one])
        kernel = kernel_basis(F, rows, n_space.dim + 1)
        if kernel and kernel[-1][-1]:
            pi = kernel[-1]
            psi = {
                p: c / (pi[-1] * b[p])
                for c, b, p in zip(pi, n_space.basis, n_space.pivots) if c
            }
            v = kernel_basis(F, [pi[:-1]], n_space.dim)
            return psi, [_sub_to_ambient(L, k, n_space.basis) for k in v]
    p = next(k for k, c in enumerate(z) if c)
    return {p: 1 / z[p]}, [b for b, q in zip(n_space.basis, n_space.pivots) if q != p]


def _functional(L, psi):
    """psi as a function of a cleared vector (den, support): psi's
    coefficients are cleared once, and each value is wrapped once."""
    F = L.field
    d, values = F.clear(list(psi.values()))
    cleared = dict(zip(psi, values))

    def value(vector):
        den, s = vector
        x = sum([cleared[k] * a for k, a in s if k in cleared])
        return F.from_cleared(x, d * den) if x else F.zero

    return value


def _greedy_pairing(L, v_basis, psi):
    """Symplectic Gram-Schmidt on v_basis for omega(u, w) = psi([u, w]);
    each work vector is cleared once per round."""
    F = L.field
    omega = _functional(L, psi)
    work = [list(b) for b in v_basis]
    xs, ys = [], []
    while work:
        u = work.pop(0)
        if all(c.is_zero for c in u):
            continue
        su = _kernel_support(F, u)
        supports = [_kernel_support(F, w) for w in work]
        for j, sw in enumerate(supports):
            c = omega(_bracket_cleared(L, su, sw))
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
            cu = omega(_bracket_cleared(L, sb, sy))
            cy = omega(_bracket_cleared(L, sb, su))
            for t in range(len(b)):
                if cu and u[t]:
                    b[t] = b[t] - cu * u[t]
                if cy and y1[t]:
                    b[t] = b[t] + cy * y1[t]
        xs.append(tuple(u))
        ys.append(tuple(y1))
    return xs, ys


def _v_stabilizer(L, v_vectors, psi):
    """{xi in q : [xi, v] stays in v} for v = span v_vectors = n cap ker psi.

    Each [x_i, w] (w in v) lies in the ideal n = v + span z, so it lies in v
    exactly when psi([x_i, w]) vanishes: one row per w, one kernel.
    """
    F = L.field
    value = _functional(L, psi)
    rows = [[value(b) for b in _basis_brackets(L, w)] for w in _supports(L, v_vectors)]
    return Subspace(F, L.dim, kernel_basis(F, rows, L.dim))


def _check_ltilde_covers(L, split, lb):
    """Raise unless lb + h = q and lb meets h = span{x, y, z} in a line;
    for lb containing z that line is the center line. The split has passed
    check_split: x and y are independent and pair to z != 0, so z is outside
    their span and dim h = len(h), and one rank gives both facts."""
    h = list(split.x) + list(split.y) + [split.z]
    total = rank(L.field, list(lb.basis) + h)
    if total != L.dim:
        raise LieAlgebraError("stabilizer plus Heisenberg ideal does not span")
    if lb.dim + len(h) - total != 1:
        raise LieAlgebraError("stabilizer meets the ideal off the center line")
