"""Argument-shift families on reductive algebras, classical and symmetrized.

For a regular form gamma, directional derivatives of the symmetric
invariants along gamma Poisson-commute; symmetrization turns them into a
commutative subalgebra of the enveloping algebra of the same size.

Run:  python3 demos/shift_families.py
"""

from lieshift.construct import mf_subalgebra, quantum_mf
from lieshift.invariants import Sampling, b_of, is_regular, trdeg_jacobian
from lieshift.liealg import LinearForm
from lieshift.pbw import commutator
from lieshift.polyring import poisson
from lieshift.presets import preset


def demo(name):
    P = preset(name)
    L = P.algebra
    print("== %s  (dim %d, b = %d)" % (name, L.dim, b_of(L)))
    print("invariant generators:")
    for c in P.casimirs:
        print("  ", c.render(L.labels))

    sampling = Sampling(bound=50, seed=0)
    stream = 0
    while True:
        gamma = LinearForm(L.field, sampling.point(L.field, L.dim, stream))
        if is_regular(L, gamma):
            break
        stream += 1
    print("regular form:", [str(c) for c in gamma.coords])

    fam = mf_subalgebra(L, P.casimirs, gamma)
    print("classical shifts (%d):" % len(fam))
    for u, why in zip(fam.elements, fam.provenance):
        print("  %-40s  [%s]" % (u.render(L.labels), why))
    ok = all(
        poisson(L, a, b).is_zero
        for i, a in enumerate(fam.elements)
        for b in fam.elements[i + 1 :]
    )
    print("pairwise Poisson brackets vanish:", ok)
    print("trdeg:", trdeg_jacobian(fam).value)

    qf = quantum_mf(L, P.casimirs, gamma)
    print("symmetrized family (%d):" % len(qf))
    for u in qf.elements:
        print("  ", u.render())
    ok = all(
        commutator(a, b).is_zero
        for i, a in enumerate(qf.elements)
        for b in qf.elements[i + 1 :]
    )
    print("pairwise commutators vanish:", ok)
    print()


def main():
    demo("sl2")
    demo("sl3")


if __name__ == "__main__":
    main()
