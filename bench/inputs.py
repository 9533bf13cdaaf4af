"""Seeded inputs for the benchmark and the reference answers they are checked against.

Every input is a built-in preset under a random basis permutation drawn from
the workload seed. The permutation carries the structure constants, the
annotations (central indices, subspace vectors, the Heisenberg split) and any
preset invariants, so the permuted document describes the same algebra in
another basis. The program only ever sees the generated ``lieshift/1``
documents, the permuted invariants and a sampling seed.

Reference answers come from closed forms, never from lieshift itself.
"""

import random

# b(q) = (dim q + ind q) / 2 from closed forms: b(gl_n) = n(n+1)/2,
# b(heisenberg_n) = n + 1, and the small cases worked by hand.
REFERENCE_B = {
    "sl2": 2,
    "gl2": 3,
    "gl3": 6,
    "gl4": 10,
    "sl3": 5,
    "so4": 4,
    "aff1": 1,
    "borel-sl2": 1,
    "borel-sl3": 3,
    "sl2-semidirect-h3": 4,
    "heisenberg4": 5,
    "heisenberg8": 9,
    "heisenberg10": 11,
}
REFERENCE_DIM = {
    "sl2": 3,
    "gl2": 4,
    "gl3": 9,
    "gl4": 16,
    "sl3": 8,
    "so4": 6,
    "aff1": 2,
    "borel-sl2": 2,
    "borel-sl3": 5,
    "sl2-semidirect-h3": 6,
    "heisenberg4": 9,
    "heisenberg8": 17,
    "heisenberg10": 21,
}
# ind q = 2 b(q) - dim q
REFERENCE_INDEX = {name: 2 * b - REFERENCE_DIM[name] for name, b in REFERENCE_B.items()}
# number of independent symmetric invariants up to a degree: gl4 has
# tr X and tr X^2 in degrees <= 2 plus (tr X)^2; so4 has two quadrics, and
# nothing new in degree 3
REFERENCE_INVARIANT_COUNT = {("gl4", 2): 3, ("so4", 3): 2}


def _negate(scalar):
    return scalar[1:] if scalar.startswith("-") else "-" + scalar


def _permute_vector(vec, perm):
    return [vec[old] for old in perm]


def permute_document(doc, perm):
    """The same algebra with new basis element k equal to old element perm[k].

    ``doc`` is a level-0 ``lieshift/1`` dict as written by ``dump_algebra``.
    """
    dim = doc["dim"]
    new_index = {old: new for new, old in enumerate(perm)}
    brackets = []
    for entry in doc["brackets"]:
        i, j = new_index[entry["i"]], new_index[entry["j"]]
        coeffs = dict(entry["coeffs"])
        if i > j:
            i, j = j, i
            coeffs = {lab: _negate(c) for lab, c in coeffs.items()}
        brackets.append({"i": i, "j": j, "coeffs": coeffs})
    brackets.sort(key=lambda e: (e["i"], e["j"]))
    annotations = {}
    for key, val in doc.get("annotations", {}).items():
        if key == "central":
            annotations[key] = sorted(new_index[i] for i in val)
        elif key == "heisenberg_split":
            annotations[key] = {
                part: (
                    _permute_vector(vs, perm)
                    if part == "z"
                    else [_permute_vector(v, perm) for v in vs]
                )
                for part, vs in val.items()
            }
        else:  # subspaces (levi, nilradical, solvable_radical) as vector lists
            annotations[key] = [_permute_vector(v, perm) for v in val]
    out = {
        "format": doc["format"],
        "dim": dim,
        "basis": [doc["basis"][old] for old in perm],
        "brackets": brackets,
    }
    if annotations:
        out["annotations"] = annotations
    return out


def encode_invariant(poly):
    """A level-0 polynomial as sorted [exponents, "p/q"] pairs."""
    out = []
    for exps, c in sorted(poly.terms.items()):
        p, q = c.as_rational()
        out.append([list(exps), str(p) if q == 1 else "%d/%d" % (p, q)])
    return out


def permute_invariant(pairs, perm):
    return sorted([_permute_vector(exps, perm), c] for exps, c in pairs)


def make_case(preset_name, rng):
    """One seeded variant of a preset: the permuted document and invariants."""
    from lieshift.algfile import dump_algebra
    from lieshift.presets import preset

    P = preset(preset_name)
    doc = dump_algebra(P.algebra)
    perm = list(range(doc["dim"]))
    rng.shuffle(perm)
    return {
        "preset": preset_name,
        "perm": perm,
        "document": permute_document(doc, perm),
        "invariants": [permute_invariant(encode_invariant(c), perm) for c in P.casimirs],
    }


def case_rng(seed, tag):
    """Independent stream per (workload seed, input tag)."""
    return random.Random("%d/%s" % (seed, tag))
