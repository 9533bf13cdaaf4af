"""Index, the bound b, symmetric invariants, regularity, transcendence degree.

Sampling-based quantities (index, Jacobian transcendence degree) take the
maximum of a rank over several random integer points, all drawn by one
frozen ``Sampling`` value (samples, bound, seed) through one loop,
``Sampling.max_rank``.  Its matrix has polynomial entries in the point's
coordinates: the linear forms sum_k c_ij^k x_k of the coadjoint form, or
the principal symbols' gradients.  Their coefficients are cleared and
reduced once per rank modulo the prime p = 2^61 - 1 (``Field.residues``,
which above level 0 also specializes each tower variable at a seeded
residue), and each point is evaluated and ranked mod p
(``linalg.rank_mod_prime``).

A sampled rank can only undershoot the generic rank: a minor that is
nonzero mod p is nonzero at the point, and nonzero over the field.  By
Schwartz-Zippel one sample undershoots with probability at most
degree/(2 bound + 1), plus degree/p for the tower residues, where degree is
that of the generic minor; the bound stays below (p - 1)/2, so distinct
coordinates stay distinct mod p.  The maximum is reported as the generic
value, together with the seed and the witness point that attained it.
Every other elimination (stabilizers, kernels, spans) stays exact.

The symmetric invariants are the kernel of the Poisson bracket with the
generators, taken by ``linalg.kernel_of_images``, the solver that the
centralizers of ``pbw`` and the center of ``liealg`` share.
"""

import random
from dataclasses import dataclass

from .fields import PRIME, FieldError
from .liealg import LinearForm, Subspace, stabilizer, subalgebra_of, weights
from .linalg import kernel_of_images, rank_mod_prime
from .pbw import PBWElement, principal_symbol
from .polyring import PolyElement, monomials_of_degree, poisson


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


def _draw(n, seed, bound, nonzero):
    """A random integer point as ints, coordinates uniform in [-bound, bound].

    Indices in `nonzero` are redrawn until nonzero (they sit under a formal
    inverse somewhere in the caller's data). ``Sampling`` checks the bound.
    """
    rng = random.Random(seed)
    pt = []
    for i in range(n):
        c = rng.randint(-bound, bound)
        while i in nonzero and c == 0:
            c = rng.randint(-bound, bound)
        pt.append(c)
    return pt


@dataclass(frozen=True)
class Sampling:
    """How sampled ranks are drawn: `samples` points per rank, coordinates in
    [-bound, bound], streams derived from `seed`.  Validated once, here: the
    bound stays below (p - 1)/2 for the prime p of the ranks, so distinct
    coordinates stay distinct mod p and a nonzero one stays invertible."""

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
        if self.bound >= (PRIME - 1) // 2:
            raise ValueError(
                "bound must be below (p - 1)/2 = %d for the prime p = 2^61 - 1, got %d"
                % ((PRIME - 1) // 2, self.bound)
            )

    def point(self, field, n, stream, nonzero=frozenset()):
        """The seeded point of one stream (a sample index plus a caller offset)."""
        pt = _draw(n, sample_seed(self.seed, stream), self.bound, nonzero)
        return tuple([field.from_int(c) for c in pt])

    def max_rank(self, field, n, rows, nonzero=frozenset()):
        """(best, witness, ranks): the largest rank of the matrix ``rows`` at
        the points of streams 0 .. samples - 1, the first point attaining
        it, and every rank in stream order.

        Each entry of ``rows`` is a polynomial in the n coordinates, a
        sequence of (monomial, coefficient) terms: a monomial is a tuple of
        (index, exponent) pairs, negative only at an index in ``nonzero``,
        and the coefficients are numerator-ring values (``Field.clear``).
        They are reduced mod p once; each point, drawn as ``point`` draws
        it, is evaluated mod p with its powers computed once, and ranked by
        ``rank_mod_prime``, which is never above the rank over the field.
        Only the witness is built as field elements.
        """
        monos = {}
        coeffs = []
        for row in rows:
            for entry in row:
                for m, c in entry:
                    monos.setdefault(m, len(monos))
                    coeffs.append(c)
        it = iter(field.residues(coeffs))
        # per row, (column, [(monomial number, residue), ...]) over nonzero entries
        matrix = [
            [(j, [(monos[m], next(it)) for m, _ in entry]) for j, entry in enumerate(row) if entry]
            for row in rows
        ]
        ncols = len(rows[0]) if rows else 0
        best, witness, ranks = -1, (), []
        for i in range(self.samples):
            pt = _draw(n, sample_seed(self.seed, i), self.bound, nonzero)
            powers = {}
            values = []
            for m in monos:
                v = 1
                for j, e in m:
                    x = powers.get((j, e))
                    if x is None:
                        x = powers[j, e] = pow(pt[j], e, PRIME)
                    v = v * x % PRIME
                values.append(v)
            residue_rows = []
            for row in matrix:
                out = [0] * ncols
                for j, entry in row:
                    out[j] = sum([c * values[k] for k, c in entry]) % PRIME
                residue_rows.append(out)
            r = rank_mod_prime(residue_rows)
            ranks.append(r)
            if r > best:
                best, witness = r, pt
        return best, tuple([field.from_int(c) for c in witness]), tuple(ranks)

    def report(self, value, method, ranks=(), witness=()):
        """A SampleReport stamped with this sampling's seed and samples."""
        return SampleReport(value, method, self.seed, self.samples, ranks, witness)


def index_of(L, sampling=Sampling()):
    """Index of L: dim minus the generic rank of the coadjoint form.

    The form gamma([x_i, x_j]) = sum_k c_ij^k gamma_k, read off the cleared
    table ``kernel_brackets``, is ranked at sampled integer points of the
    dual space; its rank is maximal outside a proper closed locus.
    """
    _, brackets = L.kernel_brackets
    rows = []
    for i in range(L.dim):
        row = brackets.get(i, {})
        rows.append([[(((k, 1),), c) for k, c in row.get(j, ())] for j in range(L.dim)])
    best, witness, ranks = sampling.max_rank(L.field, L.dim, rows)
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
    (which preserves transcendence degree); the gradients are built once, in
    one pass over the terms cleared over one denominator, and their rank is
    sampled as in index_of.  Coordinates under a formal inverse are kept
    nonzero.
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
    _, values = F.clear([c for f in elements for c in f.terms.values()])
    it = iter(values)
    rows = []
    for f in elements:
        grad = [[] for _ in range(n)]
        for e in f.terms:
            c = next(it)
            for i, k in enumerate(e):
                if k:  # c x^e contributes c k x^(e - eps_i) to entry i
                    d = e[:i] + (k - 1,) + e[i + 1 :]
                    grad[i].append((tuple([(j, x) for j, x in enumerate(d) if x]), c * k))
        rows.append(grad)
    best, witness, ranks = sampling.max_rank(F, n, rows, nonzero=nz)
    return sampling.report(best, "jacobian-rank-sampling", ranks, witness)


def is_regular(L, gamma, sampling=Sampling()):
    """Does gamma have a coadjoint stabilizer of the minimal dimension?"""
    if not isinstance(gamma, LinearForm):
        gamma = LinearForm(L.field, gamma)
    ind = index_of(L, sampling).value
    return stabilizer(L, gamma).dim == ind
