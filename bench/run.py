"""lieshift benchmark: end-to-end times from untraced runs, layer times from a traced one.

Usage (from the repository root):

    python3 bench/run.py --workload reductive-shift --seed 1 --seconds 20 --trace 0

Workloads (all closed-loop, one operation at a time, one process or one
CLI child at a time):

* ``reductive-shift``: ``construct_theorem(L, casimirs=...)`` on seeded
  variants of gl2, so4, sl3 and gl3 with their preset invariants. The gl4
  path at a size that can be repeated: shift family, ``symmetrize``,
  pairwise ``commutator`` and ``poisson``, then the certificate. Bypasses
  ``symmetric_invariants``, ``classify_nilradical`` and function fields.
  gl4 itself is left out: one construction takes about 70 s.
* ``solvable-reduce``: ``construct_theorem(L)`` on seeded variants of aff1,
  borel-sl2, borel-sl3, sl2-semidirect-h3, heisenberg4 and heisenberg8. The
  non-reductive case analysis: nilradical classification, Darboux split,
  ``Subspace`` membership and ``rref``/``solve`` over Q (heisenberg8), and
  the abelian-ideal reduction over a function field (borel-sl3). Little
  ``poisson`` work, no invariant search.
* ``cli-batch``: twelve ``lieshift <cmd> --file <doc> --json`` children,
  one at a time, each running ``lieshift.cli.main`` through ``child.py``.
  Interpreter start-up and the sympy import, ``load_algebra`` with
  ``validate`` on every load, and the ``symmetric_invariants`` kernel
  search that ``--file`` inputs run. Little straightening.

The workload seed picks a basis permutation for every input and the
sampling seed of every operation. A run sets up its inputs several times
(``setup_s`` is the import time plus the median set-up), then runs timed
passes over all operations until ``--seconds`` have passed and reports the
median pass. Times are reference seconds (see ``speed.py``): per-operation
times vary by about 25 % on a shared 2-CPU VM even when CPU time equals
wall time, and whole processes run up to 1.7x slower for minutes, so every
timed part runs under a sampler of the machine's speed.

With ``--trace 1`` the run also loads its inputs and makes one pass with
spans around every public lieshift function, and one pass counting field
operations, and reports the per-layer metrics; span times include the
sampler's share (about 5 %) and are scaled like the pass. Details
(environment, per-operation digests and median times, the per-function
table and the spans) go to ``.bench_work/`` in the checkout; the last
stdout line is the result.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

LINALG = ("rref", "solve", "rank", "kernel_basis")
CLI_COMMANDS = ("info", "validate", "index", "b", "invariants", "mf",
                "quantum-mf", "construct", "hat-check", "reduce-abelian")
STAGES = ("quantum_mf", "heisenberg_lift", "verify_hat_lemmas", "lift_from_hat",
          "specialize_search", "abelian_qhat")

# (metric, unit, span name, span statistic); span name None marks metrics
# that are not read from the span table
LAYER_METRICS = (
    [("pbw.commutator.calls", "count", "pbw.commutator", "calls"),
     ("pbw.commutator.distinct_pairs", "count", "pbw.commutator", "distinct"),
     ("pbw.commutator.total_s", "s", "pbw.commutator", "total_s"),
     ("pbw.commutator.self_s", "s", "pbw.commutator", "self_s"),
     ("polyring.poisson.calls", "count", "polyring.poisson", "calls"),
     ("polyring.poisson.total_s", "s", "polyring.poisson", "total_s"),
     ("polyring.poisson.self_s", "s", "polyring.poisson", "self_s"),
     ("pbw.symmetrize.total_s", "s", "pbw.symmetrize", "total_s"),
     ("pbw.substitute_generators.total_s", "s", "pbw.substitute_generators", "total_s"),
     ("polyring.gamma_shift.total_s", "s", "polyring.gamma_shift", "total_s"),
     ("polyring.differential_at.total_s", "s", "polyring.differential_at", "total_s"),
     ("invariants.trdeg_jacobian.calls", "count", "invariants.trdeg_jacobian", "calls"),
     ("invariants.trdeg_jacobian.total_s", "s", "invariants.trdeg_jacobian", "total_s"),
     ("construct.construct_theorem.calls", "count", "construct.construct_theorem", "calls"),
     ("construct.construct_theorem.total_s", "s", "construct.construct_theorem", "total_s"),
     ("construct.construct_theorem.self_s", "s", "construct.construct_theorem", "self_s")]
    + [("construct.%s.total_s" % f, "s", "construct." + f, "total_s") for f in STAGES]
    + [("pbw.mul_cache_entries", "count", None, None),
       ("invariants.b_of.calls", "count", "invariants.b_of", "calls"),
       ("invariants.b_of.distinct_algebras", "count", "invariants.b_of", "distinct"),
       ("invariants.index_of.total_s", "s", "invariants.index_of", "total_s")]
    + [("liealg.Subspace.%s.%s" % (m, st), u, "liealg.Subspace." + m, st)
       for m in ("contains", "coordinates") for st, u in (("calls", "count"), ("total_s", "s"))]
    + [("liealg.%s.total_s" % f, "s", "liealg." + f, "total_s")
       for f in ("validate", "classify_nilradical", "stabilizer", "subalgebra_of")]
    + [("linalg.%s.%s" % (f, st), u, "linalg." + f, st) for f in LINALG
       for st, u in (("calls", "count"), ("total_s", "s"), ("self_s", "s"),
                     ("level0_s", "s"), ("tower_s", "s"))]
    + [("invariants.symmetric_invariants.total_s", "s",
        "invariants.symmetric_invariants", "total_s"),
       ("fields.ops.level0", "count", None, None),
       ("fields.ops.tower", "count", None, None),
       ("algfile.load_algebra.total_s", "s", "algfile.load_algebra", "total_s")]
    + [("cli.main.%s.total_s" % c, "s", None, None) for c in CLI_COMMANDS]
    + [("cli.import_s", "s", None, None),
       ("trace.untraced_wall_s", "s", None, None),
       ("trace.traced_wall_s", "s", None, None),
       ("trace.overhead_s", "s", None, None)]
)
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class CheckFailed(Exception):
    pass


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


def sha(data):
    return hashlib.sha256(data).hexdigest()


def env_header(args):
    import sympy
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_child(argv):
    """Run one child to completion; ``subprocess.run`` kills and reaps it on timeout."""
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


# -- in-process workloads -------------------------------------------------------


def build_invariant(L, pairs):
    from lieshift.polyring import PolyElement

    F = L.field
    terms = {}
    for exps, c in pairs:
        fr = Fraction(c)
        terms[tuple(exps)] = F.rational(fr.numerator, fr.denominator)
    return PolyElement(F, L.dim, terms)


class ConstructWorkload:
    """construct_theorem on seeded variants, checked against closed-form b."""

    def __init__(self, name, presets, variants, use_invariants):
        self.name = name
        self.presets = presets
        self.variants = variants
        self.use_invariants = use_invariants

    def generate(self, seed):
        cases = []
        for v in range(self.variants):
            for p in self.presets:
                rng = inputs.case_rng(seed, "%s/%s/%d" % (self.name, p, v))
                case = inputs.make_case(p, rng)
                case["label"] = "%s#%d" % (p, v)
                case["sampling_seed"] = rng.randrange(10**6)
                cases.append(case)
        return cases

    def load(self, cases):
        from lieshift.algfile import load_algebra

        for case in cases:
            case["algebra"] = load_algebra(case["document"])
            case["casimirs"] = (
                [build_invariant(case["algebra"], inv) for inv in case["invariants"]]
                if self.use_invariants else None
            )
        return cases

    def operations(self, cases, mode):
        return [(c["label"], self._op(c)) for c in cases]

    @staticmethod
    def _op(case):
        def op():
            from lieshift.construct import construct_theorem

            L = case["algebra"]
            cert = construct_theorem(L, casimirs=case["casimirs"],
                                     seed=case["sampling_seed"])
            n = len(cert.generators.elements)
            b = inputs.REFERENCE_B[case["preset"]]
            check(cert.b_target == b, "b_target %s, want %d" % (cert.b_target, b))
            check(cert.trdeg.value == b, "trdeg %s, want %d" % (cert.trdeg.value, b))
            check(cert.commutativity["pairs"] == n * (n - 1) // 2,
                  "pairs %s for %d generators" % (cert.commutativity["pairs"], n))
            rendered = "\n".join(g.render(L.labels) for g in cert.generators.elements)
            return sha(rendered.encode()), None
        return op


# -- the CLI workload -----------------------------------------------------------


def _construct_ok(r, name):
    b = inputs.REFERENCE_B[name]
    n = len(r["set"]["generators"])
    return (r["b"] == b and r["trdeg"]["value"] == b
            and r["commutativity"]["verified"] is True
            and r["commutativity"]["pairs"] == n * (n - 1) // 2)


# (command, preset, extra arguments, check on the "results" object)
CLI_CALLS = (
    ("info", "sl2", (), lambda r: r["dim"] == 3 and sorted(r["basis"]) == ["e", "f", "h"]),
    ("validate", "gl4", (), lambda r: r["ok"] is True),
    ("index", "gl4", (), lambda r: r["index"]["value"] == inputs.REFERENCE_INDEX["gl4"]),
    ("b", "heisenberg10", (), lambda r: r["b"] == inputs.REFERENCE_B["heisenberg10"]),
    ("invariants", "gl4", ("--max-deg", "2"),
     lambda r: len(r["invariants"]) == inputs.REFERENCE_INVARIANT_COUNT[("gl4", 2)]),
    ("invariants", "so4", ("--max-deg", "3"),
     lambda r: len(r["invariants"]) == inputs.REFERENCE_INVARIANT_COUNT[("so4", 3)]),
    ("mf", "so4", (), lambda r: r["b"] == r["trdeg"]["value"] == inputs.REFERENCE_B["so4"]),
    ("quantum-mf", "so4", (),
     lambda r: r["commutative"] is True and r["trdeg"]["value"] == inputs.REFERENCE_B["so4"]),
    ("construct", "sl2-semidirect-h3", (), lambda r: _construct_ok(r, "sl2-semidirect-h3")),
    ("construct", "borel-sl3", (), lambda r: _construct_ok(r, "borel-sl3")),
    ("hat-check", "sl2-semidirect-h3", (), lambda r: r["ok"] is True),
    ("reduce-abelian", "borel-sl3", (),
     lambda r: r["b_ambient"] == r["b_reduced"] == inputs.REFERENCE_B["borel-sl3"]),
)


def cli_argv(mode, call, path, sampling_seed, report):
    cmd, _, extra, _ = call
    # relative to the checkout, so the report's "inputs" field and its digest
    # do not depend on where the checkout lives
    path = os.path.relpath(path, ROOT)
    args = [cmd, "--file", path, "--json", "--seed", str(sampling_seed), *extra]
    return [sys.executable, os.path.join(BENCH, "child.py"), mode, report, *args]


class CliWorkload:
    def generate(self, seed):
        os.makedirs(WORK, exist_ok=True)
        paths = {}
        for name in sorted({c[1] for c in CLI_CALLS}):
            case = inputs.make_case(name, inputs.case_rng(seed, "cli/" + name))
            path = os.path.join(WORK, "cli-%s.json" % name)
            with open(path, "w") as fh:
                json.dump(case["document"], fh, indent=2, sort_keys=True)
            paths[name] = path
        rng = inputs.case_rng(seed, "cli/sampling")
        return [(call, paths[call[1]], rng.randrange(10**6)) for call in CLI_CALLS]

    def load(self, calls):
        # each child loads its own input
        return calls

    def operations(self, calls, mode):
        return [("%s:%s" % (c[0], c[1]), self._op(c, path, s, mode))
                for c, path, s in calls]

    @staticmethod
    def _op(call, path, sampling_seed, mode):
        def op():
            report = os.path.join(WORK, "child-report.json")
            code, out, err = run_child(cli_argv(mode, call, path, sampling_seed, report))
            check(code == 0, "exit %d: %s" % (code, err.decode()[-300:]))
            check(call[3](json.loads(out)["results"]), "results differ from the reference")
            with open(report) as fh:
                op.child_report = json.load(fh)
            op.child_report["command"] = call[0]
            return sha(out), op.child_report["calibration"]
        return op


WORKLOADS = {
    "reductive-shift": ConstructWorkload(
        "reductive-shift", ("gl2", "so4", "sl3", "gl3"), 4, use_invariants=True),
    "solvable-reduce": ConstructWorkload(
        "solvable-reduce",
        ("aff1", "borel-sl2", "borel-sl3", "sl2-semidirect-h3", "heisenberg4", "heisenberg8"),
        2, use_invariants=False),
    "cli-batch": CliWorkload(),
}


# -- measuring ------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.records = []

    def run_pass(self, ops):
        """Run every operation once under a Sampler; returns the pass's Stopwatch.

        An operation returns its digest and, when it ran in a child that
        sampled itself, the child's calibration; the time the sampling loops
        took is taken out of the operation's time.
        """
        total = speed.Stopwatch()
        records = []
        with speed.Sampler() as sampler:
            for label, op in ops:
                self.attempted += 1
                loop0, ref0 = sampler.calibration
                t0 = time.perf_counter()
                record = {"op": label}
                child = None
                try:
                    record["digest"], child = op()
                except Exception as e:  # a failed operation is counted, not fatal
                    self.failed += 1
                    record["error"] = "%s: %s" % (type(e).__name__, e)
                elapsed = time.perf_counter() - t0
                loop1, ref1 = sampler.calibration
                elapsed -= loop1 - loop0
                if child:
                    elapsed -= child[0]
                    part = speed.Stopwatch()
                    part.add(elapsed, child, child=True)
                    record["ref_s"] = part.ref_s
                    total.merge(part)
                else:
                    total.add(elapsed, (loop1 - loop0, ref1 - ref0))
                    record["raw_s"] = elapsed
                record["ok"] = "error" not in record
                records.append(record)
        for record in records:
            if "raw_s" in record:
                record["ref_s"] = record.pop("raw_s") / total.slowdown
        self.records.extend(records)
        return total


def timed_passes(wl, state, seconds, tally):
    ops = wl.operations(state, "plain")
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(tally.run_pass(ops))
    return passes


def merge_summary(total, part):
    for name, row in part.items():
        acc = total.setdefault(name, dict.fromkeys(row, 0))
        for k, v in row.items():
            acc[k] += v


def traced_pass(wl, seed, tally):
    """Load and run one pass with spans; then load and run one pass counting field ops.

    Returns the traced pass's Stopwatch and the layer data.
    """
    layers = {"summary": {}, "mul_cache_entries": 0, "ops": [0, 0],
              "import_s": [], "main_s": {}, "spans": []}
    state = wl.generate(seed)
    tracer = tracing.Tracer()
    with tracer:
        ops = wl.operations(wl.load(state), "spans")
        sw = tally.run_pass(ops)
    check(not tracing.leftover_wrappers(), "wrappers left after the traced pass")
    merge_summary(layers["summary"], tracer.summary())
    layers["mul_cache_entries"] += tracer.mul_cache_entries
    layers["spans"].append({"op": "in-process", "spans": tracer.compact_spans()})
    for label, op in ops:
        rep = getattr(op, "child_report", None)
        if rep is None:
            continue
        merge_summary(layers["summary"], rep["summary"])
        layers["mul_cache_entries"] += rep["mul_cache_entries"]
        layers["import_s"].append(rep["import_s"])
        main = rep["summary"].get("cli.main", {}).get("total_s", 0.0)
        layers["main_s"][rep["command"]] = layers["main_s"].get(rep["command"], 0.0) + main
        layers["spans"].append({"op": label, "spans": rep["spans"]})
    state = wl.generate(seed)
    counter = tracing.OpCounter()
    with counter:
        ops = wl.operations(wl.load(state), "ops")
        tally.run_pass(ops)
    check(not tracing.leftover_wrappers(), "field-op counters left after the counting pass")
    layers["ops"] = list(counter.counts)
    for label, op in ops:
        rep = getattr(op, "child_report", None)
        if rep is not None:
            layers["ops"][0] += rep["ops"][0]
            layers["ops"][1] += rep["ops"][1]
    return sw, layers


def layer_metrics(layers, untraced_s, traced, import_s):
    """Per-layer metrics; span times are scaled by the traced pass's slowdown."""
    summary = layers["summary"]
    scale = 1.0 / traced.slowdown
    extra = {
        "pbw.mul_cache_entries": layers["mul_cache_entries"],
        "fields.ops.level0": layers["ops"][0],
        "fields.ops.tower": layers["ops"][1],
        "cli.import_s": (statistics.median(layers["import_s"]) * scale
                         if layers["import_s"] else import_s),
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced.ref_s,
        "trace.overhead_s": traced.ref_s - untraced_s,
    }
    for c in CLI_COMMANDS:
        extra["cli.main.%s.total_s" % c] = layers["main_s"].get(c, 0.0) * scale
    out = {}
    for metric, unit, span, stat in LAYER_METRICS:
        if span is None:
            value = extra[metric]
        else:
            value = summary.get(span, {}).get(stat, 0)
            if unit == "s":
                value *= scale
        out[metric] = {"value": value, "unit": unit}
    return out


# -- main -----------------------------------------------------------------------


def import_program():
    """Import lieshift from this checkout's src/; returns the import's Stopwatch."""
    if not os.path.isfile(os.path.join(SRC, "lieshift", "cli.py")):
        raise SystemExit("bench: no lieshift sources under %s" % SRC)
    sys.path.insert(0, SRC)
    sw = speed.Stopwatch()
    sw.time(importlib.import_module, "lieshift.cli")
    import lieshift

    if not os.path.abspath(lieshift.__file__).startswith(SRC + os.sep):
        raise SystemExit("bench: imported lieshift from %s, not %s" % (lieshift.__file__, SRC))
    return sw


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    imported = import_program()
    wl = WORKLOADS[args.workload]
    env = env_header(args)
    print(json.dumps({"env": env}, sort_keys=True), flush=True)
    os.makedirs(WORK, exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        sw = speed.Stopwatch()
        state = sw.time(lambda: wl.load(wl.generate(args.seed)))
        setups.append(sw)
    tally = Tally()
    passes = timed_passes(wl, state, args.seconds, tally)
    del state
    wall_s = statistics.median(p.ref_s for p in passes)
    op_times = {}
    for r in tally.records:
        if r["ok"]:
            op_times.setdefault(r["op"], []).append(r["ref_s"])
    result = {"env": env,
              "op_median_ref_s": {op: statistics.median(t) for op, t in op_times.items()},
              "raw_s": {"import": imported.raw_s,
                                    "setups": [sw.raw_s for sw in setups],
                                    "passes": [p.raw_s for p in passes]},
              "slowdown": {"import": imported.slowdown,
                           "setups": [sw.slowdown for sw in setups],
                           "passes": [p.slowdown for p in passes]}}

    if args.trace:
        traced, layers = traced_pass(wl, args.seed, tally)
        metrics = layer_metrics(layers, wall_s, traced, imported.ref_s)
        spans = layers.pop("spans")
        spans_path = os.path.join(WORK, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(spans_path, "w") as fh:
            json.dump({"env": env, "ops": spans}, fh)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
        result["layers"] = {k: v for k, v in layers.items() if k != "summary"}
        result["functions"] = layers["summary"]
    else:
        if args.workload == "cli-batch":
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": wall_s,
            "setup_s": imported.ref_s + statistics.median(sw.ref_s for sw in setups),
            "peak_rss_mb": rss_kb / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    digests = sorted({"%s %s" % (r["op"], r["digest"]) for r in tally.records if r["ok"]})
    result["digest"] = sha("\n".join(digests).encode())
    result["digests"] = digests
    result["failures"] = [r for r in tally.records if not r["ok"]]
    result["metrics"] = metrics
    out_path = os.path.join(WORK, "result-%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    print(json.dumps({"digest": result["digest"], "details": os.path.relpath(out_path, ROOT)}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
