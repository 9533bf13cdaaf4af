"""Index, the bound b, symmetric invariants, regularity, transcendence degree.

Sampling-based quantities (index, Jacobian transcendence degree) take the
maximum of an exact rank over several random integer points, all drawn by
one frozen ``Sampling`` value (samples, bound, seed) through one loop,
``Sampling.max_rank``.  A sampled rank can only undershoot the generic rank,
and only when every point lands on a proper closed subvariety; by
Schwartz-Zippel a point does so with probability at most degree/(2 bound).
The maximum is reported as the generic value, together with the seed and
the witness point that attained it.  All arithmetic stays exact.

The symmetric invariants are the kernel of the Poisson bracket with the
generators, taken by ``linalg.kernel_of_images``, the solver that the
centralizers of ``pbw`` and the center of ``liealg`` share.
"""

import random
from dataclasses import dataclass

from .fields import FieldError
from .liealg import LinearForm, Subspace, coadjoint_form, stabilizer, subalgebra_of, weights
from .linalg import kernel_of_images, rank
from .pbw import PBWElement, principal_symbol
from .polyring import PolyElement, differential_at, monomials_of_degree, poisson


@dataclass(frozen=True)
class GeneratorSet:
    """A named family of commuting-algebra generators with its construction log.

    flavor is "poisson" for symmetric-algebra elements and "associative" for
    enveloping-algebra elements; provenance carries one log string per element
    saying which construction step produced it.
    """

    flavor: str
    elements: tuple
    provenance: tuple

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "provenance", tuple([str(p) for p in self.provenance]))
        if self.flavor not in ("poisson", "associative"):
            raise ValueError("flavor must be 'poisson' or 'associative'")
        if len(self.provenance) != len(self.elements):
            raise ValueError("one provenance entry per element")
        kind = PolyElement if self.flavor == "poisson" else PBWElement
        for el in self.elements:
            if not isinstance(el, kind):
                raise ValueError("flavor %r does not match element %r" % (self.flavor, el))
            if el.is_zero:
                raise ValueError("generator sets must not contain zero")

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class SampleReport:
    """A sampled quantity with enough context to reproduce it."""

    value: int
    method: str
    seed: int
    samples: int
    ranks: tuple
    witness: tuple


def sample_seed(seed, i):
    # distinct stream per sample index; multiplying keeps nearby base seeds
    # from sharing streams
    return seed * 1_000_003 + i


def sample_point(field, n, seed, bound, nonzero=frozenset()):
    """Random integer point, coordinates uniform in [-bound, bound].

    Indices in `nonzero` are redrawn until nonzero (they sit under a formal
    inverse somewhere in the caller's data).
    """
    if bound < 1:
        raise ValueError("bound must be at least 1, got %s" % bound)
    rng = random.Random(seed)
    pt = []
    for i in range(n):
        c = rng.randint(-bound, bound)
        while i in nonzero and c == 0:
            c = rng.randint(-bound, bound)
        pt.append(field.from_int(c))
    return tuple(pt)


@dataclass(frozen=True)
class Sampling:
    """How sampled ranks are drawn: `samples` points per rank, coordinates in
    [-bound, bound], streams derived from `seed`.  Validated once, here."""

    samples: int = 5
    bound: int = 10**4
    seed: int = 2020

    def __post_init__(self):
        if not all(isinstance(v, int) for v in (self.samples, self.bound, self.seed)):
            raise TypeError("samples, bound and seed must be integers")
        if self.samples < 1 or self.bound < 1:
            raise ValueError(
                "samples and bound must be at least 1, got %s, %s" % (self.samples, self.bound)
            )

    def point(self, field, n, stream, nonzero=frozenset()):
        """The seeded point of one stream (a sample index plus a caller offset)."""
        return sample_point(field, n, sample_seed(self.seed, stream), self.bound, nonzero)

    def max_rank(self, field, n, matrix_at, nonzero=frozenset()):
        """(best, witness, ranks): the largest exact rank of the rows
        matrix_at(p) over the points of streams 0 .. samples - 1, the first
        point attaining it, and every rank in stream order."""
        best, witness, ranks = -1, (), []
        for i in range(self.samples):
            pt = self.point(field, n, i, nonzero)
            r = rank(field, matrix_at(pt))
            ranks.append(r)
            if r > best:
                best, witness = r, pt
        return best, witness, tuple(ranks)

    def report(self, value, method, ranks=(), witness=()):
        """A SampleReport stamped with this sampling's seed and samples."""
        return SampleReport(value, method, self.seed, self.samples, ranks, witness)


def index_of(L, sampling=Sampling()):
    """Index of L: dim minus the generic rank of the coadjoint form.

    The form gamma([x_i, x_j]) is evaluated at sampled integer points of the
    dual space; its rank is maximal outside a proper closed locus.
    """
    best, witness, ranks = sampling.max_rank(
        L.field, L.dim, lambda pt: coadjoint_form(L, LinearForm(L.field, pt))
    )
    return sampling.report(L.dim - best, "coadjoint-rank-sampling", ranks, witness)


def b_of(L, sampling=Sampling()):
    """(dim + index)/2, the upper bound for transcendence degrees of
    Poisson-commutative subalgebras of S(L)."""
    two_b = L.dim + index_of(L, sampling).value
    if two_b % 2:
        # the coadjoint rank is even: an odd dim + index is a sampling failure
        raise ValueError("dim + index came out odd: the index sampling failed")
    return two_b // 2


def b_rel(L, sub, sampling=Sampling()):
    """Relative bound b(L) - b(l) + ind(l) for a bracket-closed subspace l.

    The subalgebra's own index and b are computed intrinsically on its
    structure constants.  Raises if the subspace is not bracket-closed.
    """
    if not isinstance(sub, Subspace):
        sub = Subspace(L.field, L.dim, [tuple(v) for v in sub])
    sub_alg, _ = subalgebra_of(L, sub)
    ind_l = index_of(sub_alg, sampling).value
    # b(l) - ind(l) = (dim l - ind l)/2, half the even rank of l's coadjoint form
    return b_of(L, sampling) - (sub_alg.dim - ind_l) // 2


def symmetric_invariants(L, max_deg):
    """Basis of the homogeneous Poisson-central elements in degrees 1..max_deg.

    Degree by degree: the kernel of m -> ({x_i, m})_i over the monomials m
    of that degree (``linalg.kernel_of_images``).  Only monomials of weight
    zero (``liealg.weights``) get a column: for a torus vector x_t,
    {x_t, m} is the weight of m under x_t times m, so the row (t, m) is
    nonzero in column m alone, and a column of nonzero weight is zero in
    every kernel vector.  With no torus in the basis every monomial is
    kept.  Constants are excluded; the list may be empty.
    """
    if not isinstance(max_deg, int):
        raise ValueError("max_deg must be an integer, got %r" % (max_deg,))
    F = L.field
    by_torus = list(zip(*weights(L)))
    xs = [PolyElement.variable(F, L.dim, i) for i in range(L.dim)]
    out = []
    for d in range(1, max_deg + 1):
        monos = [
            e for e in monomials_of_degree(L.dim, d)
            if not any(sum([a * w[j] for j, a in enumerate(e) if a]) for w in by_torus)
        ]
        images = []
        for e in monos:
            m = PolyElement(F, L.dim, {e: F.one})
            images.append({
                (i, oe): c for i, x in enumerate(xs) for oe, c in poisson(L, x, m).terms.items()
            })
        for coeffs in kernel_of_images(F, images):
            terms = {e: c for e, c in zip(monos, coeffs) if not c.is_zero}
            out.append(PolyElement(F, L.dim, terms))
    return out


def trdeg_jacobian(gens, sampling=Sampling()):
    """Transcendence degree of a generating set via sampled Jacobian rank.

    Enveloping-algebra elements are first replaced by their principal symbols
    (which preserves transcendence degree); the rank of the matrix of
    differentials is then sampled exactly as in index_of.  Coordinates under a
    formal inverse are kept nonzero.
    """
    if isinstance(gens, GeneratorSet):
        elements = list(gens.elements)
        if gens.flavor == "associative":
            elements = [principal_symbol(u) for u in elements]
    else:
        elements = [
            principal_symbol(u) if isinstance(u, PBWElement) else u for u in gens
        ]
    if not elements:
        return sampling.report(0, "jacobian-rank-sampling")
    F = elements[0].field
    n = elements[0].nvars
    if any(f.field is not F or f.nvars != n for f in elements):
        raise FieldError("generators live in different polynomial rings")
    nz = frozenset().union(*[f.laurent for f in elements])
    best, witness, ranks = sampling.max_rank(
        F, n, lambda pt: [differential_at(f, pt) for f in elements],
        nonzero=nz,
    )
    return sampling.report(best, "jacobian-rank-sampling", ranks, witness)


def is_regular(L, gamma, sampling=Sampling()):
    """Does gamma have a coadjoint stabilizer of the minimal dimension?"""
    if not isinstance(gamma, LinearForm):
        gamma = LinearForm(L.field, gamma)
    ind = index_of(L, sampling).value
    return stabilizer(L, gamma).dim == ind
