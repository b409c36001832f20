"""Behaviour contract: two reports pinned byte for byte.

The reports are deterministic, so a change that keeps behaviour keeps their
bytes.  The digests below are the sha256 of the stdout of

    cstarseq audit-paper --json --window 8192

and of the concatenated stdout of

    cstarseq run --scenario S --metric M --ideal I --window 4096

over every registered scenario S, metric M and ideal I, in registry order.
A change that alters either report on purpose updates the digest and says
why in CHANGES.md.
"""

import contextlib
import hashlib
import io
import itertools

from cstarseq.cli import main
from cstarseq.reporting import _IDEAL_NAMES, _METRIC_NAMES, _SCENARIO_NAMES

AUDIT_8192_SHA256 = (
    "5ae98123abd03bc538ac17c63d767cea43eb3f9372914b985edefdd84ffe7f90"
)
RUN_GRID_4096_SHA256 = (
    "19cf31953a9f7a831456ba07edd2cbe7bf4c5c77c4dab0bd01e40565b08bbfc9"
)


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_audit_paper_json_is_unchanged():
    doc = _stdout(["audit-paper", "--json", "--window", "8192"])
    assert _sha256(doc) == AUDIT_8192_SHA256


def test_run_over_name_grid_is_unchanged():
    doc = "".join(
        _stdout(["run", "--scenario", s, "--metric", m, "--ideal", i,
                 "--window", "4096"])
        for s, m, i in itertools.product(_SCENARIO_NAMES, _METRIC_NAMES,
                                         _IDEAL_NAMES)
    )
    assert _sha256(doc) == RUN_GRID_4096_SHA256
