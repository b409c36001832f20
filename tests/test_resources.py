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
# The largest window runs on every block-harmonic row, whose A(eps) windows
# are built per block (a few ms a case), and on one harmonic row, whose
# points are built per index (about 0.1 s a case).
WIDE_ROWS = ([row for row in ROWS if row[0] == "block-harmonic"]
             + [("harmonic", "reciprocal", "fin")])


# Near-equal constants: 1 and 1 + 1e-15 carry the same listed name
# ("constant:1") and differ in the last bits only.
CONSTANT_ROWS = [(f"constant:{c!r}", m, i)
                 for c in (1.0, 1.0 + 1e-15)
                 for m in ("diag", "scaled", "discrete", "reciprocal")
                 for i in ("fin", "density0", "block")]


# The child caps its address space as CHILD does, then prints the
# definition, E_k and I-convergence decisions on the tests' even-zero-blocks
# scenario under diag at eps 1.5e-6, window 16, for each ideal.  Every even
# center's tail lists the 333 333 odd blocks up to 1/eps; the certificates
# are decided by kind and their lists never read.
EVEN_ZERO_CHILD = textwrap.dedent("""
    import json, resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    sys.path.insert(0, sys.argv[1])
    from test_sequences import make_even_zero_blocks
    from cstarseq.convergence import (
        i_cauchy_def_verdict, i_cauchy_ek_verdict, i_convergence_verdict)
    from cstarseq.ideals import IDEALS, ideal_by_name
    from cstarseq.metrics import metric_by_name

    m = metric_by_name("diag")
    decisions = {}
    for name in IDEALS:
        s, ideal = make_even_zero_blocks(), ideal_by_name(name)
        decisions[name] = [b.decision.value for b in (
            i_cauchy_def_verdict(s, m, ideal, 1.5e-6, 16),
            i_cauchy_ek_verdict(s, m, ideal, 1.5e-6, 16),
            i_convergence_verdict(s, m, 0.0, ideal, 1.5e-6, 16))]
    print(json.dumps(decisions))
""")


def _capped_child(code: str, arg: str):
    """The JSON that ``code`` prints, run in a child under the 1 GiB cap
    and a 120 s timeout with ``arg`` as its argument."""
    # One BLAS thread, so thread buffers do not count against the cap.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-c", code, arg],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _failures(cases) -> list:
    """The cases that raised anything but a CstarSeqError."""
    return _capped_child(CHILD, json.dumps(cases))


def test_extreme_inputs_stay_bounded():
    cases = ([[*row, eps, 16] for row in ROWS for eps in EPS]
             + [[*row, eps, 1 << 20] for row in WIDE_ROWS for eps in EPS])
    assert _failures(cases) == []


def test_near_equal_constants_stay_bounded():
    cases = [[*row, eps, window] for row in CONSTANT_ROWS
             for eps in (*EPS, 1e-15, 2e-15) for window in (16, 4096)]
    assert _failures(cases) == []


def test_alternating_block_lists_stay_bounded():
    # The same engines raised MemoryError here while every certificate
    # held its list of one-block runs.
    assert _capped_child(EVEN_ZERO_CHILD, str(Path(__file__).parent)) == {
        "fin": ["unknown", "unknown", "not_in"],
        "density0": ["unknown", "unknown", "unknown"],
        "block": ["in", "unknown", "in"],
    }
