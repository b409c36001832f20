"""cstarseq benchmark: one command for every workload and metric.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each sample is a fresh worker process
making one call (worker.py), like one ``cstarseq`` invocation; samples run
one after another until S seconds have passed (at least two per run, so the
byte-determinism check always has a pair).  Every output is checked
(checks.py).  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end medians (setup_s, wall_s,
peak_rss_mb).  With --trace 1 the run alternates untraced and traced samples
and reports the per-layer metrics of the traced ones (tracing.py) and the
tracing overhead.  Full per-sample results go to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SAMPLE_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_SELF = [
    "sequences.points", "ideals.set_ops", "ideals.membership",
    "convergence.a_epsilon_set",
    *("convergence." + e for e in (
        "i_convergence", "i_cauchy_def", "i_cauchy_pair", "i_cauchy_ek",
        "i_star_cauchy", "i_star_convergence", "implication_audit",
        "counterexample_audit", "cross_check")),
    "algebra.op_norm", "algebra.is_positive", "algebra.spectrum",
    "algebra.precedes", "metrics.distance_norm", "metrics.verify_axioms",
    "norms", "reporting.stable_dumps", "reporting.run",
    "reporting.audit_paper", "cli.main",
]
PER_LAYER_CALLS = [
    "sequences.points", "ideals.set_ops", "ideals.membership",
    "convergence.a_epsilon_set",
    *("convergence." + e for e in (
        "i_convergence", "i_cauchy_def", "i_cauchy_pair", "i_cauchy_ek",
        "i_star_cauchy", "i_star_convergence")),
    "algebra.op_norm", "algebra.is_positive", "metrics.distance_norm",
]
PER_LAYER_COUNTERS = [
    "sequences.points.built", "ideals.sets.built", "ideals.sets.members",
    "ideals.tail.blocks", "convergence.cut_index.max",
    "convergence.cells.decided", "convergence.cells.unknown",
    "reporting.json_bytes",
]


def per_layer_units() -> dict:
    units = {f"{layer}.self_s": "s" for layer in PER_LAYER_SELF}
    units.update({f"{layer}.calls": "count" for layer in PER_LAYER_CALLS})
    units.update({name: "count" for name in PER_LAYER_COUNTERS})
    units["reporting.json_bytes"] = "bytes"
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_pct": "%"})
    return units


def sample(workload: str, seed: int, traced: bool, spans: str, env) -> dict:
    """One worker call: set-up and call times, peak RSS, output document."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed),
           "1" if traced else "0", spans]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - start
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"no result within {SAMPLE_TIMEOUT_S} s"}
    if ready != "ready\n" or proc.returncode != 0 or not out.strip():
        return {"error": f"worker exit {proc.returncode}: {err[-2000:]}"}
    result = json.loads(out.splitlines()[-1])
    result["setup_s"] = setup
    return result


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cstarseq" / "__init__.py").is_file():
        print(f"no cstarseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = {k: v for k, v in os.environ.items() if k != "CSTAR_SEQ_WINDOW"}
    batch = (workloads.algebra_batch(args.seed)
             if args.workload == "algebra-order" else None)

    plan = [True, False] if args.trace else [False]
    samples = []
    reference = counts_ref = None
    deadline = time.perf_counter() + args.seconds
    while len(samples) < 2 or time.perf_counter() < deadline:
        for traced in plan:
            spans = (str(RESULTS / f"spans-{tag}.json")
                     if traced and len(samples) == 0 else "-")
            s = sample(args.workload, args.seed, traced, spans, env)
            s["traced"] = traced
            problems = [s["error"]] if "error" in s else []
            if not problems:
                try:
                    problems = checks.output_problems(
                        args.workload, s["doc"], s["rc"], batch)
                except (KeyError, TypeError, ValueError) as exc:
                    problems = [f"malformed output: {exc!r}"]
                problems += s.get("trace", {}).get("errors", [])
                if reference is None:
                    reference = s["doc"]
                elif s["doc"] != reference:
                    problems.append("output differs from the first sample's")
                if traced:
                    counts = [s["trace"][k] for k in ("calls", "counters")]
                    counts_ref = counts_ref or counts
                    if counts != counts_ref:
                        problems.append("per-layer counts differ from the "
                                        "first traced sample's")
                s["wrong"] = bool(problems)
            s["problems"] = problems
            s.pop("doc", None)
            samples.append(s)

    timed = [s for s in samples if "error" not in s]
    failed = sum(bool(s["problems"]) for s in samples)
    plain = [s for s in timed if not s["traced"]]
    metrics = {}
    if args.trace:
        metrics = layer_metrics([s for s in timed if s["traced"]], plain)
    elif plain:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(s[name] for s in plain),
                             "unit": unit}
    summary = {
        "correct": not any(s.get("wrong") for s in samples),
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **summary,
        "quartiles": {name: quartiles([s[name] for s in plain])
                      for name in END_TO_END if plain},
        "samples": samples,
    }
    (RESULTS / f"result-{tag}.json").write_text(json.dumps(detail, indent=1))
    for s in samples:
        for p in s["problems"][:5]:
            print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


def layer_metrics(traced: list, plain: list) -> dict:
    """Per-layer metrics: median self times, counts from the first traced
    sample (they repeat exactly), and the tracing overhead."""
    if not (traced and plain):
        return {}
    units = per_layer_units()
    first = traced[0]["trace"]
    values = {}
    for layer in PER_LAYER_SELF:
        values[f"{layer}.self_s"] = statistics.median(
            s["trace"]["self_s"].get(layer, 0.0) for s in traced)
    for layer in PER_LAYER_CALLS:
        values[f"{layer}.calls"] = first["calls"].get(layer, 0)
    for name in PER_LAYER_COUNTERS:
        values[name] = first["counters"].get(name, 0)
    traced_wall = statistics.median(s["trace"]["wall_s"] for s in traced)
    plain_wall = statistics.median(s["wall_s"] for s in plain)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = plain_wall
    values["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


if __name__ == "__main__":
    sys.exit(main())
