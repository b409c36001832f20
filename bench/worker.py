"""One benchmark sample: a fresh process making one call.

Usage: worker.py WORKLOAD SEED TRACE SPANS_FILE

The worker imports ``cstarseq``, prints ``ready`` (the parent times set-up
up to that line), builds its inputs, times the call, and prints one JSON
line with the output document, the call's wall time and the peak RSS.  With
TRACE=1 the public functions are wrapped first (see tracing.py), every A(eps)
window is checked against a closed form, and the spans are written to
SPANS_FILE unless it is "-".
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import cstarseq.cli  # noqa: E402  (set-up ends once this import returns)

print("ready", flush=True)

import workloads  # noqa: E402


def _traced_hooks(tracer):
    """Post-call hooks: window checks and counters read from results."""
    import numpy as np

    import checks
    from cstarseq.convergence import Index
    from tracing import ENGINES

    requested = set()

    def points(result, args, kwargs):
        requested.add((args[0].name, args[1]))
        tracer.counters["sequences.points.built"] = len(requested)

    def a_eps(result, args, kwargs):
        s, m, center, eps, n_max = args
        if isinstance(center, Index):
            x = float(checks.scenario_points(s.name, np.array([center.n]))[0])
        else:
            x = float(center.x)
        tracer.counters["checks.windows"] += 1
        tracer.errors += checks.window_problems(
            s.name, m.name, x, eps, n_max, result.window, result.size)

    def engine(result, args, kwargs):
        if result.cut_index is not None:
            key = "convergence.cut_index.max"
            tracer.counters[key] = max(tracer.counters[key], result.cut_index)
        if tracer.engine_depth == 0:
            key = ("convergence.cells.unknown"
                   if result.decision.value == "unknown"
                   else "convergence.cells.decided")
            tracer.counters[key] += 1

    def dumps(result, args, kwargs):
        tracer.counters["reporting.json_bytes"] += len(result.encode())

    hooks = {"sequences.points": points,
             "convergence.a_epsilon_set": a_eps,
             "reporting.stable_dumps": dumps}
    hooks.update({"convergence." + e: engine for e in ENGINES.values()})
    return hooks


def main(workload: str, seed: int, traced: bool, spans_file: str) -> dict:
    if workload in workloads.CLI_ARGV:
        argv = workloads.CLI_ARGV[workload]
    else:
        batch = workloads.algebra_batch(seed)
    tracer = None
    if traced:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer, _traced_hooks(tracer))

    rc = 0
    start = time.perf_counter()
    if workload in workloads.CLI_ARGV:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cstarseq.cli.main(argv)
        doc = out.getvalue()
    else:
        doc = workloads.algebra_call(batch)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"rc": rc, "doc": doc, "wall_s": wall, "peak_rss_mb": rss_mb}
    if tracer is not None:
        result["trace"] = {
            "wall_s": wall - tracer.excluded,
            "check_s": tracer.excluded,
            "self_s": dict(tracer.self_s),
            "calls": dict(tracer.calls),
            "counters": dict(tracer.counters),
            "errors": tracer.errors[:20],
        }
        if spans_file != "-":
            with open(spans_file, "w") as fh:
                json.dump(tracer.span_table(), fh)
    return result


if __name__ == "__main__":
    name, seed_arg, trace_arg, spans = sys.argv[1:5]
    print(json.dumps(main(name, int(seed_arg), trace_arg == "1", spans)),
          flush=True)
