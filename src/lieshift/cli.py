"""Command-line front end: presets, algebra files, deterministic reports.

Reports are plain dicts; --json prints them byte-identically for a fixed
(input, seed) pair, so wall-clock timing only appears in text mode.
Exit codes: 0 success, 1 verification failure, 2 input error, 3 internal
error (an unexpected exception, reported on stderr without a traceback).
"""

import argparse
import hashlib
import json
import sys
import time
from dataclasses import asdict

from . import presets as presets_mod
from .algfile import AlgebraFileError, dump_algebra, read_algebra
from .construct import (
    ConstructError,
    IdealError,
    MAX_RECURSION,
    _regular_form,
    abelian_qhat,
    construct_theorem,
    maximality_probe,
    mf_subalgebra,
    quantum_mf,
    verify_hat_lemmas,
)
from .fields import FieldError
from .invariants import (
    Sampling,
    b_of,
    b_rel,
    index_of,
    symmetric_invariants,
    trdeg_jacobian,
)
from .liealg import LieAlgebraError, Subspace, classify_nilradical, validate


class InputError(Exception):
    pass


class VerificationFailure(Exception):
    pass


def _load(args):
    if args.preset and args.file:
        raise InputError("give either --preset or --file, not both")
    if args.preset:
        try:
            P = presets_mod.preset(args.preset)
        except KeyError as e:
            raise InputError(str(e.args[0]))
        digest = hashlib.sha256(
            json.dumps(dump_algebra(P.algebra), sort_keys=True).encode()
        ).hexdigest()
        return P.algebra, P, "preset:%s" % args.preset, digest
    if args.file:
        try:
            with open(args.file, "rb") as fh:
                raw = fh.read()
        except OSError as e:
            raise InputError("cannot read %s: %s" % (args.file, e))
        digest = hashlib.sha256(raw).hexdigest()
        try:
            L = read_algebra(args.file, check=(args.command != "validate"))
        except AlgebraFileError as e:
            raise InputError(str(e))
        return L, None, "file:%s" % args.file, digest
    raise InputError("an algebra is required: --preset NAME or --file PATH")


def _sampling(args):
    return Sampling(args.samples, args.bound, args.seed)


def _report_sample(rep):
    return {
        "value": rep.value,
        "method": rep.method,
        "seed": rep.seed,
        "samples": rep.samples,
        "ranks": list(rep.ranks),
        "witness": [str(c) for c in rep.witness],
    }


def _report_set(gs, labels):
    return {
        "flavor": gs.flavor,
        "generators": [g.render(labels) for g in gs.elements],
        "provenance": list(gs.provenance),
    }


def _casimirs(L, P, args):
    if P is not None and P.casimirs:
        return list(P.casimirs)
    max_deg = args.max_deg if args.max_deg is not None else 3
    cas = symmetric_invariants(L, max_deg)
    if not cas:
        raise VerificationFailure(
            "no symmetric invariants up to degree %d" % max_deg
        )
    return cas


def _subspace_arg(L, spec):
    """A subspace given on the command line: an annotation name or a
    comma-separated list of basis indices."""
    if spec in ("levi", "nilradical", "solvable_radical"):
        S = L.annotations.get(spec)
        if S is None:
            raise InputError("algebra has no %r annotation" % spec)
        return S
    try:
        idxs = [int(tok) for tok in spec.split(",") if tok != ""]
    except ValueError:
        raise InputError(
            "subspace must be an annotation name or comma-separated indices, got %r"
            % spec
        )
    if not idxs or not all(0 <= i < L.dim for i in idxs):
        raise InputError("basis indices out of range in %r" % spec)
    return L.span_of_indices(idxs)


# -- command bodies --------------------------------------------------------


def _cmd_validate(L, P, args):
    rep = validate(L)
    results = {
        "ok": rep.ok,
        "jacobi_failures": list(rep.jacobi_failures),
        "annotation_failures": list(rep.annotation_failures),
    }
    if not rep.ok:
        return results, 1
    return results, 0


def _cmd_info(L, P, args):
    ann = {}
    for key, val in L.annotations.items():
        if key == "central":
            ann[key] = sorted(val)
        elif key == "heisenberg_split":
            ann[key] = "pairs=%d" % len(val.x)
        elif isinstance(val, Subspace):
            ann[key] = "dim %d" % val.dim
        else:
            ann[key] = val
    results = {
        "dim": L.dim,
        "basis": list(L.labels),
        "field": repr(L.field),
        "bracket_entries": len(L.table),
        "annotations": ann,
    }
    if P is not None:
        results["description"] = P.description
        results["casimirs"] = [c.render(L.labels) for c in P.casimirs]
    return results, 0


def _cmd_index(L, P, args):
    return {"index": _report_sample(index_of(L, _sampling(args)))}, 0


def _cmd_b(L, P, args):
    return {"b": b_of(L, _sampling(args))}, 0


def _cmd_b_rel(L, P, args):
    S = _subspace_arg(L, args.sub)
    try:
        value = b_rel(L, S, _sampling(args))
    except LieAlgebraError as e:
        raise InputError(str(e))
    return {"b_rel": value, "sub_dim": S.dim}, 0


def _cmd_invariants(L, P, args):
    max_deg = args.max_deg if args.max_deg is not None else 3
    inv = symmetric_invariants(L, max_deg)
    return {
        "max_degree": max_deg,
        "invariants": [g.render(L.labels) for g in inv],
    }, 0


def _cmd_mf(L, P, args):
    cas = _casimirs(L, P, args)
    sampling = _sampling(args)
    b = b_of(L, sampling)
    gamma = _regular_form(L, 2 * b - L.dim, sampling)
    gens = mf_subalgebra(L, cas, gamma)
    td = trdeg_jacobian(gens, sampling)
    return {
        "gamma": [str(c) for c in gamma.coords],
        "set": _report_set(gens, L.labels),
        "trdeg": _report_sample(td),
        "b": b,
    }, 0


def _cmd_quantum_mf(L, P, args):
    cas = _casimirs(L, P, args)
    sampling = _sampling(args)
    gamma = _regular_form(L, index_of(L, sampling).value, sampling)
    gens = quantum_mf(L, cas, gamma)
    td = trdeg_jacobian(gens, sampling)
    return {
        "gamma": [str(c) for c in gamma.coords],
        "set": _report_set(gens, L.labels),
        "trdeg": _report_sample(td),
        "commutative": True,
    }, 0


def _cmd_hat_check(L, P, args):
    split = L.annotations.get("heisenberg_split")
    if split is None:
        raise InputError("algebra has no heisenberg_split annotation")
    rep = verify_hat_lemmas(L, split)
    results = {
        "ok": rep.ok,
        "pairs_checked": rep.pairs_checked,
        "centralizer_failures": list(rep.centralizer_failures),
        "homomorphism_failures": list(rep.homomorphism_failures),
    }
    return results, 0 if rep.ok else 1


def _cmd_reduce_abelian(L, P, args):
    if args.ideal is not None:
        h = _subspace_arg(L, args.ideal)
    else:
        try:
            cls = classify_nilradical(L)
        except LieAlgebraError as e:
            raise InputError(str(e))
        if cls.kind != "abelian_ideal":
            raise InputError(
                "no qualifying abelian ideal found (nilradical class %r); "
                "pass one explicitly" % cls.kind
            )
        h = cls.h
    try:
        hat = abelian_qhat(L, h, _sampling(args))
    except IdealError as e:
        if args.ideal is None:  # the classifier's ideal: not the caller's fault
            raise
        raise InputError(str(e))
    table = {}
    for (i, j), comp in sorted(hat.algebra.table.items()):
        key = "[%s, %s]" % (hat.algebra.labels[i], hat.algebra.labels[j])
        table[key] = " + ".join(
            "(%s) %s" % (c, hat.algebra.labels[k]) for k, c in sorted(comp.items())
        )
    return {
        "ideal_dim": hat.h.dim,
        "function_field_vars": list(hat.h_vars),
        "reduced_dim": hat.algebra.dim,
        "reduced_basis": list(hat.algebra.labels),
        "reduced_brackets": table,
        "min_stabilizer_dim": hat.min_stabilizer_dim,
        "b_ambient": hat.b_ambient,
        "b_reduced": hat.b_hat,
    }, 0


def _certificate_results(L, cert):
    return {
        "b": cert.b_target,
        "trdeg": _report_sample(cert.trdeg),
        "set": _report_set(cert.generators, L.labels),
        "commutativity": dict(cert.commutativity),
        "trace": list(cert.trace),
    }


def _run_construct(L, P, args, inv_deg=None):
    cas = list(P.casimirs) if (P is not None and P.casimirs) else None
    if inv_deg is None:
        inv_deg = args.max_deg if args.max_deg is not None else 3
    return construct_theorem(
        L,
        casimirs=cas,
        max_inv_deg=inv_deg,
        max_depth=args.depth,
        **asdict(_sampling(args)),
    )


def _cmd_construct(L, P, args):
    return _certificate_results(L, _run_construct(L, P, args)), 0


def _cmd_trdeg(L, P, args):
    cert = _run_construct(L, P, args)
    return {
        "b": cert.b_target,
        "trdeg": _report_sample(cert.trdeg),
        "generators": [g.render(L.labels) for g in cert.generators.elements],
    }, 0


def _cmd_maximality(L, P, args):
    # --max-deg sets the probe degree; the inner construction keeps its
    # default invariant-degree bound
    cert = _run_construct(L, P, args, inv_deg=3)
    d = args.max_deg if args.max_deg is not None else 1
    rep = maximality_probe(cert.generators, d, _sampling(args))
    return {
        "degree": rep.degree,
        "centralizer_dim": rep.centralizer_dim,
        "new_elements": [u.render(L.labels) for u in rep.new_elements],
        "still_commutative": rep.still_commutative,
        "trdeg_gain": rep.trdeg_gain,
        "set": _report_set(cert.generators, L.labels),
    }, 0


def _cmd_reproduce(args):
    """The worked end-to-end example on the rank-one semidirect product,
    checked against its frozen expectations."""
    from .invariants import GeneratorSet
    from .pbw import (
        EnvelopingAlgebra,
        ad_invariant,
        centralizer_up_to_degree,
        first_noncommuting_pair,
        symmetrize,
    )
    from .polyring import coefficient_rows

    P = presets_mod.preset("sl2-semidirect-h3")
    L = P.algebra
    F = L.field
    alg = EnvelopingAlgebra(L)
    idx = {lab: i for i, lab in enumerate(L.labels)}

    def mono(**kw):
        e = [0] * L.dim
        for k, v in kw.items():
            e[idx[k]] = v
        return tuple(e)

    checks = []

    def check(name, ok, detail=""):
        checks.append({"name": name, "pass": bool(ok), "detail": detail})

    zh_xy = alg.element({mono(z=1, h=1): F.one, mono(x=1, y=1): F.one})
    ez2 = alg.element({mono(e=1, z=1): F.from_int(2), mono(x=2): -F.one})
    fz2 = alg.element({mono(f=1, z=1): F.from_int(2), mono(y=2): F.one})
    ideal = [L.basis_vector(idx[k]) for k in ("x", "y", "z")]
    for name, u in (("zh+xy", zh_xy), ("2ez-x^2", ez2), ("2fz+y^2", fz2)):
        check(
            "ideal-invariance of " + name,
            ad_invariant(u, ideal),
            u.render(L.labels),
        )

    H2 = P.casimirs[1]
    deg3 = [g for g in symmetric_invariants(L, 3) if g.degree() == 3]
    rows = coefficient_rows(deg3 + [H2])
    check(
        "degree-3 invariant solver recovers the cubic invariant",
        Subspace(F, len(rows[0]), rows[:-1]).contains(rows[-1]),
        H2.render(L.labels),
    )

    z, x = alg.gen(idx["z"]), alg.gen(idx["x"])
    A1 = GeneratorSet(
        "associative",
        [z, x, zh_xy, symmetrize(alg, H2)],
        ["z", "x", "zh+xy", "symmetrized cubic invariant"],
    )
    pair = first_noncommuting_pair(A1.elements)
    check("first algebra commutes pairwise", not pair, str([pair] if pair else []))
    sampling = _sampling(args)
    td1 = trdeg_jacobian(A1, sampling)
    b = b_of(L, sampling)
    check("first algebra trdeg equals b", td1.value == b == 4, "trdeg %d, b %d" % (td1.value, b))

    cen = centralizer_up_to_degree(alg, list(A1.elements), 1)
    want = {"1", "z", "x"}
    got = {u.render(L.labels) for u in cen}
    check("degree-1 centralizer is spanned by 1, z, x", got == want, sorted(got))

    A2 = GeneratorSet("associative", [z, x, ez2], ["z", "x", "2ez-x^2"])
    pair = first_noncommuting_pair(A2.elements)
    check("second algebra commutes pairwise", not pair, str([pair] if pair else []))
    rep = maximality_probe(A2, 1, sampling)
    found_e = [u.render(L.labels) for u in rep.new_elements]
    check(
        "probe at degree 1 enlarges the second algebra by e",
        found_e == ["e"] and rep.still_commutative,
        "new: %s, still commutative: %s" % (found_e, rep.still_commutative),
    )

    cert = construct_theorem(L, casimirs=list(P.casimirs), **asdict(sampling))
    check(
        "orchestrator certifies trdeg 4 on the preset",
        cert.trdeg.value == 4,
        "; ".join(cert.trace),
    )

    ok = all(c["pass"] for c in checks)
    return {"checks": checks, "ok": ok}, 0 if ok else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "info": _cmd_info,
    "index": _cmd_index,
    "b": _cmd_b,
    "b-rel": _cmd_b_rel,
    "invariants": _cmd_invariants,
    "mf": _cmd_mf,
    "quantum-mf": _cmd_quantum_mf,
    "hat-check": _cmd_hat_check,
    "reduce-abelian": _cmd_reduce_abelian,
    "construct": _cmd_construct,
    "trdeg": _cmd_trdeg,
    "maximality": _cmd_maximality,
}


def _int_at_least(low):
    """argparse type of an integer >= low: 1 for --samples, --bound and
    --max-deg, 0 for --depth."""

    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (low, text))
        if n < low:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %d" % (low, n))
        return n

    return parse


def _bound(text):
    """argparse type of --bound: an integer >= 1 that ``Sampling`` accepts."""
    n = _int_at_least(1)(text)
    try:
        Sampling(bound=n)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return n


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lieshift",
        description="Exact construction and verification of commutative "
        "subalgebras of maximal transcendence degree in enveloping algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--preset", help="built-in algebra name, e.g. sl2, heisenberg3")
    common.add_argument("--file", help="path to a lieshift/1 algebra file")
    common.add_argument("--seed", type=int, default=Sampling.seed)
    common.add_argument("--samples", type=_int_at_least(1), default=Sampling.samples)
    common.add_argument("--bound", type=_bound, default=Sampling.bound)
    common.add_argument(
        "--max-deg",
        type=_int_at_least(1),
        default=None,
        help="degree bound: invariant search (default 3) or probe depth (default 1)",
    )
    common.add_argument(
        "--depth",
        type=_int_at_least(0),
        default=MAX_RECURSION,
        help="reduction recursion cap",
    )
    common.add_argument("--json", action="store_true", help="deterministic JSON report")

    helps = {
        "validate": "check Jacobi identity and annotation consistency",
        "info": "dimension, basis, field, annotations",
        "index": "index (minimal coadjoint stabilizer dimension), sampled",
        "b": "the bound (dim + index)/2",
        "b-rel": "relative bound b(q) - b(l) + ind l for a subalgebra l",
        "invariants": "symmetric invariants up to --max-deg",
        "mf": "argument-shift family at a sampled regular form",
        "quantum-mf": "symmetrized argument-shift family, commutativity verified",
        "hat-check": "verify the correction-map identities for the annotated split",
        "reduce-abelian": "reduce along an abelian ideal over its function field",
        "construct": "certify a commutative subalgebra with trdeg = b",
        "trdeg": "transcendence degree of the certified subalgebra",
        "maximality": "probe the certified subalgebra's centralizer at --max-deg",
        "reproduce-paper-example": "run the worked rank-one example against frozen expectations",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "b-rel":
            p.add_argument(
                "sub",
                help="subalgebra: annotation name (levi, nilradical, "
                "solvable_radical) or comma-separated basis indices",
            )
        if name == "reduce-abelian":
            p.add_argument(
                "ideal",
                nargs="?",
                default=None,
                help="abelian ideal (annotation name or indices); defaults to "
                "the classifier's choice",
            )
    sub.add_parser("reproduce-paper-example", parents=[common],
                   help=helps["reproduce-paper-example"])
    return parser


def _emit(report, as_json, elapsed):
    if as_json:
        report["timing"] = None
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    print("command: %s" % report["command"])
    print("input: %s (sha256 %s...)" % (report["inputs"], report["digest"][:12]))
    print("seed: %d" % report["seed"])

    def show(key, val, pad=""):
        if isinstance(val, dict):
            print("%s%s:" % (pad, key))
            for k, v in val.items():
                show(k, v, pad + "  ")
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            print("%s%s:" % (pad, key))
            for v in val:
                print("%s  - %s" % (pad, json.dumps(v, sort_keys=True)))
        elif isinstance(val, list):
            print("%s%s:" % (pad, key))
            for v in val:
                print("%s  - %s" % (pad, v))
        else:
            print("%s%s: %s" % (pad, key, val))

    for key, val in report["results"].items():
        show(key, val)
    print("elapsed: %.3fs" % elapsed)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "reproduce-paper-example":
            inputs, digest = "preset:sl2-semidirect-h3", hashlib.sha256(
                b"preset:sl2-semidirect-h3"
            ).hexdigest()
            results, code = _cmd_reproduce(args)
        else:
            L, P, inputs, digest = _load(args)
            results, code = _COMMANDS[args.command](L, P, args)
    except InputError as e:
        print("input error: %s" % e, file=sys.stderr)
        return 2
    except (ConstructError, LieAlgebraError, FieldError, VerificationFailure) as e:
        print("verification failure: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    report = {
        "command": args.command,
        "inputs": inputs,
        "digest": digest,
        "seed": args.seed,
        "results": results,
    }
    _emit(report, args.json, time.monotonic() - started)
    return code


if __name__ == "__main__":
    sys.exit(main())
