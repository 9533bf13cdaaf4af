"""Commutative subalgebras of maximal transcendence degree, with certificates.

The pieces: argument-shift families in the symmetric algebra and their
symmetrized lifts, the correction map that makes a generator commute with a
Heisenberg ideal inside the localized enveloping algebra, reduction along an
abelian ideal to a smaller algebra over a rational function field, central
specialization, and the orchestrator gluing these into a certified
commutative subalgebra of transcendence degree (dim + index)/2.

The correction map and the lifts compute on cleared values. A Heisenberg
split is cleared once per level (``_Correction``); each [xi, w] comes from
``liealg._bracket_cleared`` and is multiplied into one dict of packed
numerator-ring terms (``EnvelopingAlgebra._mul_into``), z^-1 is a shift of
the packed central field, and 1/(2 z_c) with every denominator is folded
into one denominator, so ``EnvelopingAlgebra._element`` wraps each
coefficient of hat(xi) once. The corrected lift and ``lift_from_hat``
substitute through ``pbw.substitute_generators``, whose coefficient images
(polynomials in the ideal, for ``lift_from_hat``) ride the same Horner
chains.

Nothing here is trusted without a check: a reduced dimension meets the
stabilizer formula, with the generic rank of the stabilizer forms sampled
over h* (``Sampling.max_rank``) rather than read off the elimination that
built the sections; the public builders check their own output, and
construct_theorem leaves every commutator and trdeg check to _certify.
Every algebra is validated once: ``liealg.validate`` keeps its report with
the algebra, so the top level reuses the validation of ``load_algebra``
(or runs it, for an algebra nothing has validated), and each sub-level
algebra the construction builds is validated once, at its own level.

Every sampled quantity is drawn through one ``invariants.Sampling`` value,
which construct_theorem builds from its samples, bound and seed keywords and
hands down the recursion.  Each algebra's index is sampled once per
construction: the b_of of a level supplies its regular form's index, and a
reduced algebra's b, sampled as the next level's target, is checked against
the drop by dim h - 1 once that level returns.
"""

from dataclasses import dataclass, replace

from .liealg import (
    LieAlgebra,
    LieAlgebraError,
    LinearForm,
    Subspace,
    _basis_brackets,
    _bracket_cleared,
    _brackets,
    _check_ltilde_covers,
    _classify,
    _derived_labels,
    _is_abelian,
    _maps_into,
    _reductivity,
    _supports,
    _wrapped,
    check_split,
    stabilizer,
    subalgebra_of,
    validate,
    weights,
)
from .linalg import echelon_basis, kernel_basis, rank
from .polyring import PolyElement, _acc, coefficient_rows, gamma_shift, poisson
from .pbw import (
    EnvelopingAlgebra,
    PBWElement,
    _expanded,
    _substituted,
    centralizer_up_to_degree,
    commutator,
    first_noncommuting_pair,
    principal_symbol,
    specialize_central,
    substitute_generators,
    symmetrize,
)
from .invariants import (
    GeneratorSet,
    Sampling,
    b_of,
    symmetric_invariants,
    trdeg_jacobian,
)

MAX_RECURSION = 12


class ConstructError(Exception):
    pass


class IdealError(ConstructError):
    """The subspace to reduce along is not a nonzero abelian ideal."""


def _failing_pair(L, elements):
    """The first pair (a, b), a < b, whose Poisson bracket is nonzero, or
    None; ``pbw.first_noncommuting_pair`` is its pair check in U(L)."""
    for a in range(len(elements)):
        for b in range(a + 1, len(elements)):
            if not poisson(L, elements[a], elements[b]).is_zero:
                return a, b
    return None


# -- argument shifts ---------------------------------------------------------


def _shift_family(L, casimirs, gamma):
    """mf_subalgebra without the pair check; the input invariants are checked."""
    if not isinstance(gamma, LinearForm):
        gamma = LinearForm(L.field, gamma)
    gens, prov = [], []
    for idx, H in enumerate(casimirs):
        for i in range(L.dim):
            xi = PolyElement.variable(L.field, L.dim, i)
            if not poisson(L, xi, H).is_zero:
                raise ConstructError(
                    "invariant %d is not ad-invariant (fails against generator %d)"
                    % (idx, i)
                )
        for k in range(H.degree()):
            s = gamma_shift(H, gamma, k)
            if s.is_zero or s.degree() == 0:
                continue
            gens.append(s)
            prov.append("order-%d shift of invariant %d" % (k, idx))
    return GeneratorSet("poisson", gens, prov)


def _symmetrize_family(L, family):
    """Lift a Poisson family to U(L), checking principal symbols but no pairs."""
    alg = EnvelopingAlgebra(L)
    gens, prov = [], []
    for f, p in zip(family.elements, family.provenance):
        u = symmetrize(alg, f)
        if principal_symbol(u) != f.top_part():
            raise ConstructError("symmetrized lift changed the principal symbol")
        gens.append(u)
        prov.append("symmetrized " + p)
    return GeneratorSet("associative", gens, prov)


def mf_subalgebra(L, casimirs, gamma):
    """All nonconstant directional derivatives of the given invariants along
    gamma, as a Poisson-commutative generating set (commutativity verified).

    For each invariant H of degree m the shifts are the derivatives of order
    0 <= k < m; constants are dropped.
    """
    out = _shift_family(L, casimirs, gamma)
    if bad := _failing_pair(L, out.elements):
        raise ConstructError("shift family fails to Poisson-commute (generators %d, %d)" % bad)
    return out


def quantum_mf(L, casimirs, gamma):
    """Symmetrize the shift family into U(L) and verify it still commutes.

    A Poisson bracket or commutator that fails to vanish is raised with the
    offending pair (construct_theorem leaves pairs to _certify); the principal
    symbol of each lift is checked to reproduce the shift it came from.
    """
    out = _symmetrize_family(L, mf_subalgebra(L, casimirs, gamma))
    if bad := first_noncommuting_pair(out.elements):
        raise ConstructError("symmetrized shifts fail to commute in the enveloping algebra "
                             "(generators %d, %d); recording negative verdict" % bad)
    return out


# -- Heisenberg correction ---------------------------------------------------


def _split_z_index(L, split):
    hits = [k for k, c in enumerate(split.z) if not c.is_zero]
    if len(hits) != 1:
        raise ConstructError(
            "split center must be a multiple of a single basis generator"
        )
    return hits[0]


class _Correction:
    """A Heisenberg split cleared once for the correction map of one level,
    in alg or in a new hat algebra.

    zi is the index of the center z = z_c x_zi. pairs holds each (x_i, y_i)
    twice: as cleared supports over one denominator d, for
    ``_bracket_cleared``, and packed for ``EnvelopingAlgebra._mul_into``;
    units[k] is the packed x_k. With D the algebra's ``kernel_brackets``
    scale and z_c = nz / dz, hat(xi) for xi over the denominator e is xi's
    numerators times scale_xi plus the correction's times scale_corr, over
    e * den (see ``_hat``). A plain class, not a dataclass: building a
    dataclass adds about 1 ms to every import of this module."""

    __slots__ = ("alg", "zi", "units", "pairs", "scale_xi", "scale_corr", "den")

    def __init__(self, L, split, alg=None):
        self.zi = zi = _split_z_index(L, split)
        self.alg = alg = EnvelopingAlgebra(L, laurent=(zi,)) if alg is None else alg
        F = L.field
        self.units = units = tuple([1 << shift for shift in alg._shifts])
        coords = [[(k, F.coerce(c)) for k, c in enumerate(v) if c] for v in split.x + split.y]
        d, nums = F.clear([c for v in coords for _, c in v])
        it = iter(nums)
        cleared = [(d, [(k, next(it)) for k, _ in v]) for v in coords]
        packed = [{units[k]: c for k, c in s} for _, s in cleared]
        n = len(split.x)
        self.pairs = tuple(zip(cleared[:n], cleared[n:], packed[:n], packed[n:]))
        dz, (nz,) = F.clear([F.coerce(split.z[zi])])
        D = alg._scale
        self.scale_xi = 2 * nz * d * d * D
        self.scale_corr = dz
        self.den = 2 * nz * d * d * D * D


def _hat(L, cor, s):
    """hat(xi) = xi + (1/2z) sum_i ([xi, x_i] y_i - [xi, y_i] x_i) for xi with
    the cleared support s = (e, [(k, n_k), ...]), each coefficient wrapped
    once by ``EnvelopingAlgebra._element``.

    Over the y_k = D x_k, [xi, x_i] = sum b_k y_k / (e d D^2), from
    ``_bracket_cleared``, and y_i = sum n_l y_l / (d D), so every product of
    the sum is over e d^2 D^3 and all of them accumulate into one dict. With
    1/(2z) = D dz / (2 nz) y_zi^-1 the correction is that dict shifted by
    y_zi^-1, times dz, over e 2 nz d^2 D^2, and xi = sum n_k y_k / (e D)
    comes over the same denominator times 2 nz d^2 D."""
    alg, units = cor.alg, cor.units
    acc = {}
    for sx, sy, px, py in cor.pairs:
        _, bx = _bracket_cleared(L, s, sx)
        if bx:
            alg._mul_into(acc, {units[k]: b for k, b in bx}, py)
        _, by = _bracket_cleared(L, s, sy)
        if by:
            alg._mul_into(acc, {units[k]: -b for k, b in by}, px)
    z, f = units[cor.zi], cor.scale_corr
    out = {m - z: c * f for m, c in acc.items()}
    g = cor.scale_xi
    for k, n in s[1]:
        _acc(out, units[k], n * g)
    return alg._element(out, s[0] * cor.den)


@dataclass
class HatLemmaReport:
    centralizer_failures: list
    homomorphism_failures: list
    pairs_checked: int

    @property
    def ok(self):
        return not self.centralizer_failures and not self.homomorphism_failures


def verify_hat_lemmas(L, split):
    """Exact checks that the correction map kills the ideal and preserves
    brackets: [v, hat(xi)] = 0 for every ideal generator v, and
    [hat(xi), hat(eta)] = hat([xi, eta]) on the stabilizer basis.
    The split is checked first."""
    bad = check_split(L, split)
    if bad:
        raise ConstructError("invalid Heisenberg split: " + "; ".join(bad))
    return _hat_lemmas(L, split, _Correction(L, split))


def _hat_lemmas(L, split, cor):
    """verify_hat_lemmas without the split check; the caller has checked it
    and cleared it into cor, its ``_Correction``."""
    alg = cor.alg
    basis = _supports(L, split.l_basis.basis)
    hats = [_hat(L, cor, s) for s in basis]
    ideal = list(split.x) + list(split.y) + [split.z]
    cen_fail, hom_fail = [], []
    pairs = 0
    for bi, hb in enumerate(hats):
        for vi, v in enumerate(ideal):
            pairs += 1
            if not commutator(alg.from_vector(v), hb).is_zero:
                cen_fail.append(
                    "[ideal vector %d, hat of stabilizer vector %d] != 0" % (vi, bi)
                )
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            pairs += 1
            rhs = _hat(L, cor, _bracket_cleared(L, basis[i], basis[j]))
            if commutator(hats[i], hats[j]) != rhs:
                hom_fail.append(
                    "[hat %d, hat %d] is not the hat of the bracket" % (i, j)
                )
    return HatLemmaReport(cen_fail, hom_fail, pairs)


def _clear_laurent(u, zi):
    """u times the least power of the central x_zi that leaves no formal
    inverse: a shift of the exponents at zi, the coefficients unchanged."""
    m = min((exps[zi] for exps in u.terms), default=0)
    if m >= 0:
        return u
    return PBWElement._trusted(
        u.alg, {exps[:zi] + (exps[zi] - m,) + exps[zi + 1 :]: c for exps, c in u.terms.items()}
    )


def _corrected_lift(L, split, A_l, sub_vectors, cor):
    """Push the associative set A_l, over the subalgebra with the ambient
    basis sub_vectors, into U(L): each generator maps multiplicatively
    through the correction map and is multiplied by the least power of the
    split center that clears formal inverses, and the isotropic x-generators
    and the center are adjoined. The caller has validated the split and
    cleared it into cor, its ``_Correction``; the pairs and the
    transcendence degree are left to _certify."""
    alg = cor.alg
    images = [_hat(L, cor, s) for s in _supports(L, sub_vectors)]
    gens, prov = [], []
    for u, p in zip(A_l.elements, A_l.provenance):
        w = _clear_laurent(substitute_generators(u, images, alg), cor.zi)
        if w.is_zero:
            raise ConstructError("corrected image vanished; lift is broken")
        gens.append(w)
        prov.append("corrected lift of: " + p)
    z_elem = alg.from_vector(split.z)
    for i, x in enumerate(split.x):
        gens.append(alg.from_vector(x))
        prov.append("adjoined isotropic generator %d" % i)
    if all(g != z_elem for g in gens):
        gens.append(z_elem)
        prov.append("adjoined split center")
    return GeneratorSet("associative", gens, prov)


# -- abelian-ideal reduction -------------------------------------------------


@dataclass(frozen=True)
class HatAlgebra:
    """The reduced algebra over the function field of the ideal's dual space,
    which is ``algebra.field``.

    sections are full ambient-length coefficient vectors (supported on the
    complement indices); the reduced algebra's last generator is the
    distinguished central element delta standing for the ideal direction.
    min_stabilizer_dim, min dim q_alpha over alpha in h*, is dim h plus the
    number of sections, read off their kernel, which a rank sampled over h*
    checks.
    b_ambient and b_hat are set by abelian_qhat; construct_theorem leaves
    them None and checks the drop of b against its own targets.
    """

    h: Subspace
    h_vars: tuple
    sections: tuple
    algebra: LieAlgebra
    min_stabilizer_dim: int
    b_ambient: int = None
    b_hat: int = None


def _fresh_names(field, count):
    existing = set(field.all_variables())
    out = []
    k = 1
    while len(out) < count:
        name = "w%d" % k
        if name not in existing:
            out.append(name)
        k += 1
    return tuple(out)


def _ideal_action(L, h):
    """ad[e][i], the h-coordinates of [x_i, eta_e]; raises ``IdealError``
    unless h is a nonzero abelian ideal, the one check of that fact."""
    if h.dim == 0:
        raise IdealError("the ideal must be nonzero")
    if not _is_abelian(L, h):
        raise IdealError("the subspace is not abelian")
    ad = [[h._coordinates(*b) for b in _basis_brackets(L, eta)] for eta in h._cleared_basis()]
    if any(coords is None for ad_e in ad for coords in ad_e):
        raise IdealError("the subspace is not an ideal")
    return ad


def _coordinate_complement(L, h):
    """The basis indices i, in order, whose unit vector e_i is outside the
    span of h and e_0, ..., e_{i-1}; and h's basis as (l, vector) pairs, each
    vector the only one nonzero at its index l.

    e_i is inside exactly when some vector of h has its last nonzero
    coordinate at i, and these last indices l are the pivot columns of h's
    basis with the columns reversed: one elimination of dim h rows.
    """
    basis, pivots, _ = echelon_basis(L.field, [b[::-1] for b in h.basis])
    reduced = tuple([(L.dim - 1 - c, b[::-1]) for b, c in zip(basis, pivots)])
    last = {l for l, _ in reduced}
    return tuple([i for i in range(L.dim) if i not in last]), reduced


def abelian_qhat(L, h, sampling=Sampling()):
    """Reduce along an abelian ideal h: sections of the complement whose
    brackets into h vanish identically on h*, over the fraction field of h*.

    The reduced bracket is the bilinear one, with the h-component re-read as
    (linear function) * delta.  The dimension is verified against the
    generic stabilizer (min dim q_alpha - dim h + 1, its rank sampled) and b
    drops by dim h - 1.
    """
    hat = _reduce_abelian(L, h, sampling)
    b_amb, b_hat = b_of(L, sampling), b_of(hat.algebra, sampling)
    _check_b_drop(b_amb, b_hat, hat.h.dim)
    return replace(hat, b_ambient=b_amb, b_hat=b_hat)


def _check_b_drop(b_amb, b_hat, d):
    if b_hat != b_amb - d + 1:
        raise ConstructError(
            "b dropped from %s to %s; expected %s" % (b_amb, b_hat, b_amb - d + 1)
        )


def _reduce_abelian(L, h, sampling):
    """abelian_qhat without b: the reduced algebra, its dimension checked
    against the rank of the forms alpha([x_i, eta]) sampled over h*."""
    if not isinstance(h, Subspace):
        h = Subspace(L.field, L.dim, [tuple(v) for v in h])
    ad = _ideal_action(L, h)
    F = L.field
    d = h.dim
    names = _fresh_names(F, d)
    F2 = F.extend(*names)
    wvars = [F2.var(nm) for nm in names]

    def linfunc(coords):
        out = F2.zero
        for t, c in enumerate(coords):
            if not c.is_zero:
                out = out + F2.lift(c) * wvars[t]
        return out

    comp, reduced = _coordinate_complement(L, h)
    r = len(comp)
    # rows[e][k] = alpha([x_comp[k], eta_e]) as a linear function of alpha in h*
    rows = [[linfunc(ad_e[i]) for i in comp] for ad_e in ad]
    ker = kernel_basis(F2, rows, r)
    m = len(ker)
    # each kernel vector is the only one nonzero at its free column
    free = [
        next(j for j in range(r) if v[j] and not any(o[j] for o in ker if o is not v))
        for v in ker
    ]

    sections = []
    for c in ker:
        vec = [F2.zero] * L.dim
        for i, ci in zip(comp, c):
            vec[i] = ci
        sections.append(tuple(vec))

    # w = sum_k c_k e_comp[k] + sum_l s_l hbar_l, with s_l read at l, where
    # only hbar_l is nonzero; hbar_l adds phi_l to the delta-coordinate
    hbar = [(l, [F2.lift(x) for x in v], linfunc(h.coordinates(v))) for l, v in reduced]

    # L's structure constants lifted to F2, so sections bracket by the kernel
    L2 = LieAlgebra(
        F2,
        L.labels,
        {key: {k: F2.lift(c) for k, c in row.items()} for key, row in L.table.items()},
    )
    table = {}
    for a, b, cleared in _brackets(L2, _supports(L2, sections)):
        w = _wrapped(L2, cleared)
        phi = F2.zero
        for l, v, phi_l in hbar:
            if not w[l].is_zero:
                s_l = w[l] / v[l]
                phi = phi + s_l * phi_l
                w = [x if y.is_zero else x - s_l * y for x, y in zip(w, v)]
        comp_part = [w[i] for i in comp]
        for eta_idx in range(d):
            chk = F2.zero
            for i in range(r):
                chk = chk + rows[eta_idx][i] * comp_part[i]
            if not chk.is_zero:
                raise ConstructError("reduced bracket is not a section again")
        comp_entry = {
            c: comp_part[j] / ker[c][j] for c, j in enumerate(free) if not comp_part[j].is_zero
        }
        if not phi.is_zero:
            comp_entry[m] = phi
        if comp_entry:
            table[(a, b)] = comp_entry

    labels = _derived_labels(L, sections, ["u%d" % (i + 1) for i in range(m)] + ["delta"])
    qhat = LieAlgebra(F2, labels, table, {"central": [m]})

    # q_alpha is the kernel of the forms at alpha, all L.dim columns of them;
    # their generic rank, sampled at points of h* as index_of samples the
    # coadjoint form, must be the rank r - m of the kernel above
    _, values = F.clear([c for ad_e in ad for coords in ad_e for c in coords])
    it = iter(values)
    forms = [[[(((t, 1),), next(it)) for t in range(d)] for _ in ad_e] for ad_e in ad]
    generic = sampling.max_rank(F, d, forms)[0]
    if m != r - generic:
        raise ConstructError(
            "reduced dimension %d disagrees with the stabilizer formula %d"
            % (m + 1, r - generic + 1)
        )
    return HatAlgebra(
        h=h,
        h_vars=names,
        sections=tuple(sections),
        algebra=qhat,
        min_stabilizer_dim=m + d,
    )


# -- central specialization ---------------------------------------------------


def _specialize(A, z_index, before, sampling):
    """First c in 1..20 whose specialization of the central generator
    z_index keeps the transcendence degree of the nonempty associative set A
    at least before - 1, before being A's trdeg sampled with the same
    sampling. Returns (c, specialized set); constants and zeros are dropped.
    Every c is nonzero, so a formal inverse of the generator specializes too."""
    field = A.elements[0].alg.field
    for c in map(field.coerce, range(1, 21)):
        spec = [specialize_central(u, z_index, c) for u in A.elements]
        keep, kept_src = [], []
        for u, p in zip(spec, A.provenance):
            if u.is_zero or u.degree() == 0:
                continue
            keep.append(u)
            kept_src.append(p)
        after = trdeg_jacobian(keep, sampling).value
        if after >= before - 1:
            note = " | specialized center to %s (trdeg %d -> %d)" % (c, before, after)
            return c, GeneratorSet("associative", keep, [p + note for p in kept_src])
    raise ConstructError(
        "no candidate kept the transcendence degree; extend the list"
    )


# -- lifting from the reduced algebra back into U(ambient) --------------------


def lift_from_hat(hat, u, target_alg):
    """Image in U(ambient) of a delta-specialized element of the reduced
    enveloping algebra: multiplied by the least common denominator of its
    coefficients, coefficients sent to ordered products over the ideal
    (w_t to the t-th basis vector of h, scalars staying one level down),
    sections substituted for the reduced generators (function coefficients
    kept to the left).

    Both substitutions are numerator-ring Horner chains
    (``pbw._substituted``): each section's image, the sum of c_i(h) x_i over
    its entries c_i, is wrapped once, and ``substitute_generators`` wraps
    the result once."""
    m = len(hat.sections)
    for exps in u.terms:
        if exps[m] != 0:
            raise ConstructError("specialize the central element before lifting")
    F2 = hat.algebra.field
    d, nums = F2.clear(u.terms.values())
    # over its grlex leading coefficient lc, d / lc = l d', l in the
    # variables below and d' the least common denominator in w, whose
    # leading coefficient there is 1: the coefficients times d'
    lc = F2._lead(d)
    ((_, inv_l),), _ = F2.nested(F2.one / F2.from_cleared(d, lc))
    coeffs = [F2.from_cleared(n, lc) for n in nums]
    if not inv_l.is_one:
        coeffs = [c * F2.lift(inv_l) for c in coeffs]
    cleared = PBWElement._trusted(u.alg, dict(zip(u.terms, coeffs)))
    h_elems = [target_alg.from_vector(v) for v in hat.h.basis]
    images = _section_images(hat, h_elems, target_alg)
    images.append(target_alg.one())  # delta slot; exponents are zero
    return substitute_generators(cleared, images, target_alg, coeff_images=h_elems)


def _section_images(hat, h_elems, target_alg):
    """sum_i c_i(h) x_i for each section, whose entries c_i(w) are
    polynomials: the ideal vectors h_elems and the generators packed once,
    then one ``_substituted`` per section."""
    F2 = hat.algebra.field
    base = target_alg.field
    packed = [target_alg._numerators(v.terms) for v in h_elems]
    packed += [target_alg._numerators({e: base.one}) for e in target_alg._units]
    k = len(h_elems)
    out = []
    for sec in hat.sections:
        d = F2.clear(sec)[0]
        if d != F2._lead(d):  # a denominator that is not an integer
            raise ConstructError("internal: denominator not cleared before lift")
        entries = [i for i, a in enumerate(sec) if a]
        d0, terms = _expanded(F2, [sec[i] for i in entries], [(k + i,) for i in entries])
        f, raw = _substituted(target_alg, terms, packed)
        out.append(target_alg._element(raw, d0 * f))
    return out


# -- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class ConstructionCertificate:
    algebra: LieAlgebra
    generators: GeneratorSet
    trdeg: object
    b_target: int
    commutativity: dict
    trace: tuple


def _certify(L, gens, b_target, trace, sampling):
    """Check every generator pair exactly (``pbw.first_noncommuting_pair``)
    and the sampled trdeg against b_target: the only commutator and trdeg
    checks in construct_theorem."""
    if bad := first_noncommuting_pair(gens.elements):
        raise ConstructError("certificate: generators %d and %d do not commute" % bad)
    td = trdeg_jacobian(gens, sampling)
    if td.value != b_target:
        raise ConstructError(
            "certified set has transcendence degree %d but the target is %s"
            % (td.value, b_target)
        )
    pairs = len(gens) * (len(gens) - 1) // 2
    max_deg = max((g.degree() for g in gens.elements), default=0)
    return ConstructionCertificate(
        algebra=L,
        generators=gens,
        trdeg=td,
        b_target=b_target,
        commutativity={"verified": True, "pairs": pairs, "max_degree": max_deg},
        trace=tuple(trace),
    )


def _regular_form(L, ind, sampling):
    """A seeded linear form whose stabilizer has dimension ind, the caller's
    sampled index of L.

    The first draw, from stream 70_000, is set to 0 on every basis vector
    of nonzero weight (``liealg.weights``): for reductive L with a torus in
    its basis a generic such form is regular semisimple, and its shifts
    are much shorter than those of a dense form. If that draw is singular,
    as every weight-zero form of aff1 + sl2 is, the search restarts at
    stream 70_000 and draws over all of L*, streams 70_000 + i for i < 60.
    With no torus the first draw is the dense one, tried once."""
    F = L.field

    def draws():
        keep = [not any(w) for w in weights(L)]
        if not all(keep):
            pt = sampling.point(F, L.dim, 70_000)
            yield tuple([c if k else F.zero for c, k in zip(pt, keep)])
        for i in range(60):
            yield sampling.point(F, L.dim, 70_000 + i)

    for coords in draws():
        gamma = LinearForm(F, coords)
        if stabilizer(L, gamma).dim == ind:
            return gamma
    raise ConstructError("no regular linear form found in 60 seeded draws")


def construct_theorem(L, casimirs=None, max_inv_deg=3, samples=Sampling.samples, bound=Sampling.bound, seed=Sampling.seed, max_depth=MAX_RECURSION):
    """Certify a commutative subalgebra of U(L) of transcendence degree
    (dim + index)/2, following the case analysis on the nilradical.

    Cases: abelian (whole algebra), reductive (symmetrized shifts at a
    regular form), a qualifying abelian ideal (reduce, recurse over the
    function field, specialize the central element, lift, adjoin the ideal),
    and a Heisenberg nilradical (recurse on the levi factor or on the
    bracket stabilizer of the symplectic part, then lift through the
    correction map).  Each level checks that L is valid and checks its case's
    inputs: the top level reads the report of an earlier validation of L,
    such as ``load_algebra``'s, and each sub-level algebra, built by the
    level above, is validated once. Commutators and the transcendence
    degree are checked only by _certify, once per level.
    samples, bound and seed are validated as one Sampling before any work.
    A Heisenberg split and its stabilizer are checked once, by check_split
    where they are built; see _construct for the other Heisenberg checks.
    """
    return _construct(L, casimirs, max_inv_deg, Sampling(samples, bound, seed), max_depth, 0)


def _construct(L, casimirs, max_inv_deg, sampling, max_depth, depth):
    """One level of construct_theorem.  At a Heisenberg level the split
    comes from liealg._darboux_split, which checked it (check_split: the
    pairing, the center, and l~ = split.l_basis a subalgebra containing z),
    so _hat_lemmas and _corrected_lift skip that check, and the recursion on
    l~ checks only l~ + h = q and l~ meeting h in the center line
    (_check_ltilde_covers, one rank). The abelian-ideal step specializes
    through _specialize, whose before is the trdeg _certify sampled one
    level down, and adjoins every basis vector of the ideal that the lifts
    do not already contain, so _certify's pair check is also the one check
    that the lifts commute with the ideal. validate(L) scans L only if
    nothing has validated it: a loaded algebra's report is reused, a
    sub-level algebra is new here."""
    if depth > max_depth:
        raise ConstructError("reduction recursion exceeded %d levels" % max_depth)
    rep = validate(L)
    if not rep.ok:
        raise ConstructError(
            "input fails validation: %s %s"
            % (list(rep.jacobi_failures), list(rep.annotation_failures))
        )
    b_target = b_of(L, sampling)
    trace = []

    if not L.table:
        alg = EnvelopingAlgebra(L)
        gens = GeneratorSet(
            "associative",
            [alg.gen(i) for i in range(L.dim)],
            ["abelian: generator %s" % lab for lab in L.labels],
        )
        trace.append("abelian: the whole enveloping algebra, dim %d" % L.dim)
        return _certify(L, gens, b_target, trace, sampling)

    try:
        reductive, center, derived = _reductivity(L)
    except LieAlgebraError as e:
        raise ConstructError(str(e))
    if reductive:
        cas = list(casimirs) if casimirs is not None else symmetric_invariants(L, max_inv_deg)
        if not cas:
            raise ConstructError(
                "no invariants up to degree %d; cannot build the shift family"
                % max_inv_deg
            )
        gamma = _regular_form(L, 2 * b_target - L.dim, sampling)
        gens = _symmetrize_family(L, _shift_family(L, cas, gamma))
        trace.append(
            "reductive: symmetrized shift family from %d invariants at a "
            "sampled regular form" % len(cas)
        )
        return _certify(L, gens, b_target, trace, sampling)

    try:
        cls = _classify(L, center, derived)
    except LieAlgebraError as e:
        raise ConstructError(str(e))

    if cls.kind == "trivial":
        raise ConstructError(
            "zero nilradical outside the reductive case; annotations are inconsistent"
        )
    if cls.kind == "line":
        raise ConstructError(
            "a central line nilradical forces a reductive algebra; "
            "annotations are inconsistent"
        )

    if cls.kind == "abelian_ideal":
        hat = _reduce_abelian(L, cls.h, sampling)
        trace.append(
            "abelian-ideal-reduction: ideal of dim %d, reduced dim %d over %s"
            % (hat.h.dim, hat.algebra.dim, ", ".join(hat.h_vars))
        )
        sub_cert = _construct(hat.algebra, None, max_inv_deg, sampling, max_depth, depth + 1)
        _check_b_drop(b_target, sub_cert.b_target, hat.h.dim)
        trace.extend("  [reduced] " + t for t in sub_cert.trace)
        # _certify sampled the sub-certificate's trdeg with this sampling
        c, spec = _specialize(
            sub_cert.generators, hat.algebra.dim - 1, sub_cert.trdeg.value, sampling
        )
        trace.append("specialized the central element to %s" % c)
        target_alg = EnvelopingAlgebra(L)
        gens, prov = [], []
        for u, p in zip(spec.elements, spec.provenance):
            w = lift_from_hat(hat, u, target_alg)
            if w.is_zero:
                raise ConstructError("lift of a nonzero generator vanished")
            if w.degree() == 0:
                continue
            gens.append(w)
            prov.append("lifted to the ambient algebra: " + p)
        for t, hb in enumerate(hat.h.basis):
            el = target_alg.from_vector(hb)
            if all(g != el for g in gens):
                gens.append(el)
                prov.append("adjoined ideal generator %d" % t)
        gset = GeneratorSet("associative", gens, prov)
        trace.append("lifted %d generators, adjoined the ideal" % len(spec.elements))
        return _certify(L, gset, b_target, trace, sampling)

    # Heisenberg nilradical
    split = cls.split
    # one cleared split and localized algebra for the lemmas and the lift:
    # the lift reuses the products straightened for the lemma checks
    cor = _Correction(L, split)
    lemma = _hat_lemmas(L, split, cor)
    if not lemma.ok:
        raise ConstructError(
            "correction-map checks failed: %s"
            % (lemma.centralizer_failures + lemma.homomorphism_failures)
        )
    levi = L.annotations.get("levi")
    use_levi = (
        levi is not None
        and levi.dim + cls.nilradical.dim == L.dim
        and rank(L.field, list(levi.basis) + list(cls.nilradical.basis)) == L.dim
        and _maps_into(L, levi, Subspace(L.field, L.dim, list(split.x) + list(split.y)))
    )
    if use_levi:
        sub_space = levi
        trace.append(
            "heisenberg-levi: recursing on the levi factor, %d symplectic pairs"
            % len(split.x)
        )
    else:
        sub_space = split.l_basis
        _check_ltilde_covers(L, split, sub_space)
        trace.append(
            "heisenberg-stabilizer: recursing on the bracket stabilizer "
            "(dim %d), %d symplectic pairs" % (sub_space.dim, len(split.x))
        )
    sub_L, sub_vectors = subalgebra_of(L, sub_space)
    sub_cert = _construct(sub_L, None, max_inv_deg, sampling, max_depth, depth + 1)
    trace.extend("  [stabilizer] " + t for t in sub_cert.trace)
    gens = _corrected_lift(L, split, sub_cert.generators, sub_vectors, cor)
    trace.append("corrected lift with %d generators" % len(gens.elements))
    return _certify(L, gens, b_target, trace, sampling)


# -- maximality probe ----------------------------------------------------------


@dataclass
class MaximalityReport:
    degree: int
    centralizer_dim: int
    new_elements: tuple
    still_commutative: bool
    trdeg_gain: int


def maximality_probe(A, d, sampling=Sampling()):
    """Compare the degree-d centralizer of A with the span of A's own
    products: extra basis vectors are reported, together with whether the
    enlarged set still commutes and how much the transcendence degree grows.

    A probe finding nothing new is evidence (not proof) of maximality at
    that degree.
    """
    if A.flavor != "associative" or not A.elements:
        raise ConstructError("the probe needs a nonempty associative set")
    if not isinstance(d, int) or d < 1:
        raise ConstructError("the probe degree must be an integer of at least 1, got %r" % (d,))
    elements = list(A.elements)
    alg = elements[0].alg
    if bad := first_noncommuting_pair(elements):
        raise ConstructError("maximality probe input: generators %d and %d do not commute" % bad)
    cen = centralizer_up_to_degree(alg, elements, d)

    prods = [alg.one()]
    for g in elements:
        dg = g.degree()
        if dg is None or dg > d:
            continue
        for p in list(prods):
            q = p
            while (q.degree() or 0) + dg <= d:
                q = q * g
                prods.append(q)

    rows = coefficient_rows(prods + cen)
    span = Subspace(alg.field, len(rows[0]), rows[: len(prods)])
    new = [u for u, row in zip(cen, rows[len(prods) :]) if not span.contains(row)]
    enlarged = elements + new
    before = trdeg_jacobian(elements, sampling).value
    after = trdeg_jacobian(enlarged, sampling).value
    return MaximalityReport(
        degree=d,
        centralizer_dim=len(cen),
        new_elements=tuple(new),
        still_commutative=first_noncommuting_pair(enlarged) is None,
        trdeg_gain=after - before,
    )
