"""One CLI call: ``child.py plain|spans|ops REPORT <lieshift cli arguments>``.

Calls ``lieshift.cli.main`` with the given arguments, as
``python -m lieshift.cli`` does, so stdout and the exit code are the CLI's.
The import and the call run under the ``speed.Sampler`` of this
process, because each process draws its own machine speed. ``spans`` installs the same wrappers
as an in-process traced pass; ``ops`` counts field operations. REPORT gets
the calibration, the timed import of ``lieshift.cli`` and, when traced, the
span summary or the counts.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402
import tracing  # noqa: E402


def main():
    mode, report, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tools = {"plain": None, "spans": tracing.Tracer, "ops": tracing.OpCounter}
    if mode not in tools:
        raise SystemExit("child.py: unknown mode %r" % mode)
    tool = tools[mode]() if tools[mode] else None
    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        import lieshift.cli

        import_s = time.perf_counter() - t0 - sampler.loop_s
        if tool:
            tool.install()
        try:
            code = lieshift.cli.main(argv)
        finally:
            if tool:
                tool.remove()
    sys.stdout.flush()
    out = {"import_s": import_s, "calibration": list(sampler.calibration)}
    if mode == "spans":
        out.update(summary=tool.summary(), mul_cache_entries=tool.mul_cache_entries,
                   spans=tool.compact_spans())
    elif mode == "ops":
        out["ops"] = list(tool.counts)
    with open(report, "w") as fh:
        json.dump(out, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
