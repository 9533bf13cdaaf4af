"""Self-tests of the benchmark itself: ``python3 bench/selftest.py [--seed N] [WORKLOAD ...]``.

1. Counts repeat exactly: the traced pass (spans, then field-operation
   counts) runs twice on one seed, and every count metric (``*.calls``,
   ``*.distinct_*``, ``pbw.mul_cache_entries``, ``fields.ops.*``) must be
   equal in both.
2. Wrappers are gone: after each traced pass every name in every
   ``lieshift`` module and class holds the same object as before it.
3. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` reports.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import inspect
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402


def snapshot():
    """Every attribute of every lieshift module and of the classes they define."""
    snap = {}
    for m in tracing.lieshift_modules():
        for attr, val in vars(m).items():
            snap[(m.__name__, attr)] = val
            if inspect.isclass(val) and val.__module__ == m.__name__:
                for meth, fn in vars(val).items():
                    snap[(m.__name__, attr, meth)] = fn
    return snap


def changed(before, after):
    return sorted(".".join(k) for k in set(before) | set(after)
                  if before.get(k) is not after.get(k))


def count_metrics(metrics):
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


def check_workload(name, seed):
    wl = run.WORKLOADS[name]
    failures = []
    counts = []
    for attempt in range(2):
        before = snapshot()
        tally = run.Tally()
        traced, layers = run.traced_pass(wl, seed, tally)
        moved = changed(before, snapshot())
        if moved:
            failures.append("%s: names changed by the traced pass: %s" % (name, moved[:5]))
        if tally.failed:
            failures.append("%s: %d operations failed" % (name, tally.failed))
        counts.append(count_metrics(run.layer_metrics(layers, traced.ref_s, traced, 0.0)))
    diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
    if diff:
        failures.append("%s: counts differ between two traced passes: %s" % (name, diff))
    if not any(counts[0].values()):
        failures.append("%s: the traced pass counted nothing" % name)
    return failures


def check_manifest():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    failures = []
    want_layer = [(m, u) for m, u, _, _ in run.LAYER_METRICS]
    got_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if got_layer != want_layer:
        failures.append("BENCHMARK.json per_layer differs from run.LAYER_METRICS")
    got_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if got_e2e != list(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workloads", nargs="*", default=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    run.import_program()
    failures = check_manifest()
    for name in args.workloads:
        failures += check_workload(name, args.seed)
        print("checked %s" % name, flush=True)
    for f in failures:
        print("FAIL " + f)
    print("selftest: %s" % ("ok" if not failures else "%d failures" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
