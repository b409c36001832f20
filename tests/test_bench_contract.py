"""The benchmark's traced and untraced runs work on this tree.

``bench/worker.py W SEED 1 -`` wraps public functions and methods of
``cstarseq`` by name (``bench/tracing.py``), checks every A(eps) window
against a closed form, and prints one JSON document.  A name it wraps that
the library no longer has makes the worker exit non-zero, which the
benchmark counts as a failed run while the untraced output stays correct.
``bench/run.py --trace 1`` alternates untraced and traced samples and fails
any whose output differs from the first sample's, so tracing, which reads
every window, must not change the output.  This test runs one traced and
one untraced sample of each workload and checks them as the benchmark does.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_modules():
    """``bench/checks.py`` and ``bench/workloads.py``, imported without
    writing bytecode under ``bench/``."""
    sys.path.insert(0, str(BENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import checks
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(BENCH))
    return checks, workloads


checks, workloads = _bench_modules()


def _sample(workload: str, trace: str) -> dict:
    """One worker sample with seed 1, checked as the benchmark checks it."""
    env = {k: v for k, v in os.environ.items() if k != "CSTAR_SEQ_WINDOW"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), workload, "1", trace, "-"],
        cwd=BENCH.parent, env=env, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert result["rc"] == 0
    batch = (workloads.algebra_batch(1) if workload == "algebra-order"
             else None)
    assert checks.output_problems(workload, result["doc"], result["rc"],
                                  batch) == []
    return result


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_worker_sample_is_clean(workload):
    traced = _sample(workload, "1")
    assert traced["trace"]["errors"] == []
    untraced = _sample(workload, "0")
    assert "trace" not in untraced
    assert untraced["doc"] == traced["doc"]
