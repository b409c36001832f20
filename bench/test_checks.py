"""Each output check accepts the program's real output and rejects a
corrupted copy of it.

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from cstarseq import (  # noqa: E402
    Index, Point, a_epsilon_set, make_block_harmonic, make_harmonic,
    metric_by_name,
)
from cstarseq.cli import main as cli_main  # noqa: E402

EPS = (0.1, 0.01)


def cli_output(argv) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    return out.getvalue(), rc


@pytest.fixture(scope="module")
def block_doc():
    doc, rc = cli_output(workloads.BLOCK_RUN + [
        "--eps", "0.1", "--eps", "0.01", "--window", "4096"])
    assert rc == 0
    assert checks.block_run_problems(doc, rc, EPS, 4096) == []
    return json.loads(doc)


def recheck(report) -> list[str]:
    return checks.block_run_problems(json.dumps(report), 0, EPS, 4096)


def cell(report, question, eps):
    return next(c for c in report["cells"]
                if c["question"] == question and c["epsilon"] == eps)


@pytest.mark.parametrize("question", sorted(checks.BLOCK_TRUTH))
def test_flipped_decision_is_rejected(block_doc, question):
    report = json.loads(json.dumps(block_doc))
    target = cell(report, question, 0.1)
    if target["decision"] == "unknown":
        pytest.skip(f"{question} is undecided at eps=0.1")
    target["decision"] = {"in": "not_in", "not_in": "in"}[target["decision"]]
    assert recheck(report)


@pytest.mark.parametrize("delta", (-1, 1))
def test_off_by_one_cut_is_rejected(block_doc, delta):
    report = json.loads(json.dumps(block_doc))
    target = cell(report, "i_cauchy_pair", 0.01)
    assert target["cut_index"] == 401
    target["cut_index"] += delta
    assert recheck(report)


def test_far_definition_witness_is_rejected(block_doc):
    report = json.loads(json.dumps(block_doc))
    target = cell(report, "i_cauchy_definition", 0.1)
    assert target["decision"] == "in"
    target["witness_index"] = 1 << 19  # block 20: 2/20 is not below 0.1
    assert recheck(report)


def test_wrong_unknown_count_is_rejected(block_doc):
    report = json.loads(json.dumps(block_doc))
    report["unknown_count"] += 1
    assert recheck(report)


def test_nonzero_exit_is_rejected(block_doc):
    assert checks.block_run_problems(json.dumps(block_doc), 1, EPS, 4096)


def test_least_cut_matches_the_definition():
    assert [checks.least_cut(e) for e in (0.2, 0.1, 0.01, 1e-5)] == [
        21, 41, 401, 400001]


@pytest.fixture(scope="module")
def audit_doc():
    doc, rc = cli_output(workloads.CLI_ARGV["audit-8192"])
    assert checks.audit_problems(doc, rc) == []
    return doc


@pytest.mark.parametrize("old,new", [
    ('"n0=11 window=[1, 2, 3, 4, 5]"', '"n0=11 window=[1, 2, 3, 4, 5, 6]"'),
    ('"witness n0=201"', '"witness n0=200"'),
    ('"cut=21"', '"cut=22"'),
    ('"status": "PASS"', '"status": "FAIL"'),
])
def test_corrupted_audit_is_rejected(audit_doc, old, new):
    assert old in audit_doc
    assert checks.audit_problems(audit_doc.replace(old, new, 1), 0)


@pytest.fixture(scope="module")
def algebra_case():
    batch = workloads.algebra_batch(7)[::9]
    doc = workloads.algebra_call(batch)
    assert checks.algebra_problems(doc, batch) == []
    return batch, json.loads(doc)


@pytest.mark.parametrize("field", ("norm_a", "norm_aa", "norm_sum"))
def test_perturbed_norm_is_rejected(algebra_case, field):
    batch, rows = algebra_case
    for k in range(len(rows)):
        bad = json.loads(json.dumps(rows))
        bad[k][field] *= 1.0 + 1e-6
        assert checks.algebra_problems(json.dumps(bad), batch), (k, field)


@pytest.mark.parametrize("field", ("aa_positive", "below_positive",
                                   "aa_precedes_sum"))
def test_flipped_order_answer_is_rejected(algebra_case, field):
    batch, rows = algebra_case
    bad = json.loads(json.dumps(rows))
    bad[0][field] = not bad[0][field]
    assert checks.algebra_problems(json.dumps(bad), batch)


def test_perturbed_spectrum_is_rejected(algebra_case):
    batch, rows = algebra_case
    bad = json.loads(json.dumps(rows))
    bad[0]["spectrum_aa"][-1] *= 1.0 + 1e-6
    assert checks.algebra_problems(json.dumps(bad), batch)


@pytest.mark.parametrize("scenario,metric,center,eps", [
    (make_harmonic(), "diag", Index(11), 0.1),
    (make_harmonic(), "reciprocal", Index(1), 3.0),
    (make_block_harmonic(), "scaled", Point(0.3), 0.5),
    (make_block_harmonic(), "scaled", Index(1 << 20), 0.1),
])
def test_window_with_one_member_added_is_rejected(scenario, metric, center,
                                                  eps):
    n_max = 4096
    m = metric_by_name(metric)
    a_set = a_epsilon_set(scenario, m, center, eps, n_max)
    x = (float(scenario.generator(center.n)) if isinstance(center, Index)
         else center.x)
    args = (scenario.name, m.name, x, eps, n_max)
    assert checks.window_problems(*args, a_set.window, a_set.size) == []
    outside = min(set(range(1, n_max + 1)) - a_set.window)
    assert checks.window_problems(*args, a_set.window | {outside},
                                  a_set.size)
    if a_set.window:
        assert checks.window_problems(
            *args, a_set.window - {max(a_set.window)}, a_set.size)
