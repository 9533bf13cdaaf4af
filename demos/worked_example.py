"""Tour of the six-dimensional semidirect product sl2 x| h3.

Walks the construction by hand: the quadratic and cubic invariant
generators, the correction-map lemmas on the stabilizing copy of sl2, the full
orchestrated construction, and the degree probe showing where a smaller
commutative family can still grow.

Run:  python3 demos/worked_example.py
"""

from lieshift.construct import construct_theorem, maximality_probe, verify_hat_lemmas
from lieshift.fields import QQ
from lieshift.invariants import GeneratorSet, b_of, symmetric_invariants, trdeg_jacobian
from lieshift.liealg import classify_nilradical
from lieshift.pbw import EnvelopingAlgebra, centralizer_up_to_degree, commutator, symmetrize
from lieshift.polyring import PolyElement
from lieshift.presets import preset


def main():
    P = preset("sl2-semidirect-h3")
    L = P.algebra
    print("algebra:", ", ".join(L.labels), " dim", L.dim, " b =", b_of(L))

    # invariants of the nilradical action up to degree 3
    inv = symmetric_invariants(L, 3)
    print("\ninvariants of degree <= 3:")
    for p in inv:
        print("  ", p.render(L.labels))

    # a maximal commutative family: z, x, the mixed quadratic, and the
    # symmetrized cubic
    A = EnvelopingAlgebra(L)
    h, e, f, x, y, z = (A.gen(i) for i in range(6))
    hp, ep, fp, xp, yp, zp = (PolyElement.variable(QQ, 6, i) for i in range(6))
    H2 = (
        hp * hp * zp
        + hp * xp * yp * 2
        + ep * fp * zp * 4
        + ep * yp * yp * 2
        - fp * xp * xp * 2
    )
    fam = GeneratorSet(
        "associative",
        [z, x, z * A.gen(0) + x * A.gen(4), symmetrize(A, H2)],
        ["z", "x", "zh+xy", "symmetrized cubic"],
    )
    print("\ncommutative family:")
    for u in fam.elements:
        print("  ", u.render())
    pairs = [
        (a, b)
        for i, a in enumerate(fam.elements)
        for b in fam.elements[i + 1 :]
    ]
    assert all(commutator(a, b).is_zero for a, b in pairs)
    print("all %d commutators vanish, trdeg = %d" % (len(pairs), trdeg_jacobian(fam).value))

    # the correction map sends the stabilizing sl2 into the centralizer of
    # the symplectic pair and keeps its brackets
    split = classify_nilradical(L).split
    rep = verify_hat_lemmas(L, split)
    print("\ncorrection-map lemma check ok:", rep.ok, "(%d pairs)" % rep.pairs_checked)

    # a smaller family misses one generator; the probe finds it
    small = GeneratorSet("associative", [z, x, e * z * 2 - x * x], ["z", "x", "2ez-x^2"])
    probe = maximality_probe(small, 1)
    print("\nprobe on {z, x, 2ez-x^2} at degree 1:")
    print("  new elements:", [u.render() for u in probe.new_elements])
    print("  still commutative:", probe.still_commutative)
    print(
        "  degree-1 centralizer dim:",
        probe.centralizer_dim,
        "=",
        [u.render() for u in centralizer_up_to_degree(A, list(small.elements), 1)],
    )

    # the orchestrator reaches the bound on its own
    cert = construct_theorem(L, casimirs=P.casimirs)
    print("\nconstruct_theorem:")
    for line in cert.trace:
        print("  ", line)
    print("  generators:", [u.render() for u in cert.generators.elements])
    print("  trdeg %d = b %d" % (cert.trdeg.value, cert.b_target))


if __name__ == "__main__":
    main()
