"""Bounded resources: extreme eps and windows end in a report or a typed
error, inside a capped address space and a wall-clock limit."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# The child caps its own address space at 1 GiB, then runs every case and
# prints the cases that raised anything but a CstarSeqError.
CHILD = textwrap.dedent("""
    import json, resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from cstarseq.errors import CstarSeqError
    from cstarseq.reporting import RunConfig, run

    failed = []
    for scenario, metric, ideal, eps, window in json.loads(sys.argv[1]):
        try:
            run(RunConfig(scenario=scenario, metric=metric, ideal=ideal,
                          eps_list=(eps,), window=window))
        except CstarSeqError:
            pass
        except Exception as exc:
            failed.append([scenario, metric, ideal, eps, window,
                           type(exc).__name__])
    print(json.dumps(failed))
""")

EPS = (1e-7, 1e-9, 1e-12, 5e-324)
ROWS = ([("block-harmonic", m, i)
         for m in ("diag", "scaled", "discrete", "reciprocal")
         for i in ("fin", "density0", "block")]
        + [("harmonic", "reciprocal", i)
           for i in ("fin", "density0", "block")])
# The largest window costs about 0.1 s a case, so it runs on two rows.
WIDE_ROWS = [("block-harmonic", "scaled", "block"),
             ("harmonic", "reciprocal", "fin")]


# Near-equal constants: 1 and 1 + 1e-15 carry the same listed name
# ("constant:1") and differ in the last bits only.
CONSTANT_ROWS = [(f"constant:{c!r}", m, i)
                 for c in (1.0, 1.0 + 1e-15)
                 for m in ("diag", "scaled", "discrete", "reciprocal")
                 for i in ("fin", "density0", "block")]


def _failures(cases) -> list:
    """The cases that raised anything but a CstarSeqError, run in one child
    under the 1 GiB cap and a 120 s timeout."""
    # One BLAS thread, so thread buffers do not count against the cap.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(cases)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_extreme_inputs_stay_bounded():
    cases = ([[*row, eps, 16] for row in ROWS for eps in EPS]
             + [[*row, eps, 1 << 20] for row in WIDE_ROWS for eps in EPS])
    assert _failures(cases) == []


def test_near_equal_constants_stay_bounded():
    cases = [[*row, eps, window] for row in CONSTANT_ROWS
             for eps in (*EPS, 1e-15, 2e-15) for window in (16, 4096)]
    assert _failures(cases) == []
