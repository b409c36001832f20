"""Lazy windows: a set's mask is built the first time it is read.

* A block run at the largest window reads no window, so it builds none:
  ``block_mask`` and ``SequenceScenario.offenders`` are never called.
* A lazy set equals the eagerly built set with the same mask, on every
  reader of the window and under every set operation.  The lazy sets are
  all built before any is read, so a builder that picked up a later value
  of some variable would show here.
* A builder's mask is checked on its first read.
"""

import itertools
import pickle
import sys

import numpy as np
import pytest

from cstarseq import ideals
from cstarseq.convergence import (
    Index,
    Point,
    a_epsilon_set,
    i_cauchy_ek_verdict,
)
from cstarseq.errors import DomainError
from cstarseq.ideals import (
    NOT_IN,
    IdealDescriptor,
    SetDescription,
    TailCertificate,
    block_mask,
    block_union,
)
from cstarseq.reporting import (
    MAX_WINDOW,
    RunConfig,
    _METRIC_NAMES,
    _SCENARIO_NAMES,
    audit_paper,
    build_metric,
    run,
)
from cstarseq.sequences import SequenceScenario, scenario_by_name

WINDOWS = (64, 4096)
EPS = (0.5, 0.1, 0.01)
CENTERS = (Point(0.0), Index(1), Index(6))


@pytest.fixture
def window_builds(monkeypatch):
    """Counts of ``block_mask`` and ``SequenceScenario.offenders`` calls,
    through every module that binds them."""
    counts = {"block_mask": 0, "offenders": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrapped = counted("block_mask", block_mask)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "cstarseq"
                and getattr(module, "block_mask", None) is block_mask):
            monkeypatch.setattr(module, "block_mask", wrapped)
    monkeypatch.setattr(SequenceScenario, "offenders",
                        counted("offenders", SequenceScenario.offenders))
    return counts


def test_block_run_at_max_window_builds_no_window(window_builds):
    report = run(RunConfig(scenario="block-harmonic", metric="scaled",
                           ideal="block", eps_list=(0.1, 0.01),
                           window=MAX_WINDOW))
    assert report.exit_code == 0 and len(report.cells) == 10
    assert window_builds == {"block_mask": 0, "offenders": 0}


def test_audit_still_reads_the_window_it_reports(window_builds):
    claims = {c["claim"]: c for c in audit_paper(8192)["claims"]}
    claim = claims["diag(alpha=0.5) eps=0.1 witness n0=11 with offenders "
                   "{1..5}"]
    assert claim["status"] == "PASS"
    assert claim["detail"] == "n0=11 window=[1, 2, 3, 4, 5]"
    assert window_builds["offenders"] > 0 and window_builds["block_mask"] > 0


def _cases():
    for name, metric, n in itertools.product(_SCENARIO_NAMES, _METRIC_NAMES,
                                             WINDOWS):
        yield scenario_by_name(name), build_metric(metric), n


def test_a_epsilon_windows_match_the_offenders():
    built = [(a_epsilon_set(s, m, center, eps, n), s, m, center, eps, n)
             for s, m, n in _cases() for eps in EPS for center in CENTERS]
    for a_set, s, m, center, eps, n in built:
        c = (center.x if isinstance(center, Point)
             else float(s.generator(center.n)))
        want = s.offenders(m.gap_profile, c, eps, n)
        assert np.array_equal(a_set.mask, want), (s.name, m.name, center, eps)
        assert not a_set.mask.flags.writeable


def test_ek_windows_match_the_failing_classes():
    ideal_list = [IdealDescriptor.fin(), IdealDescriptor.block()]
    built = [(i_cauchy_ek_verdict(s, m, ideal, eps, n), s, m, ideal, eps, n)
             for s, m, n in _cases() for eps in EPS for ideal in ideal_list]
    for bundle, s, m, ideal, eps, n in built:
        split = s.center_classes(m.gap_profile, eps, n)
        verdicts = s.class_verdicts(m.gap_profile, ideal, eps, n)
        keys = [c.key for c, v in zip(split.classes, verdicts)
                if v.decision is NOT_IN and c.key is not None]
        assert np.array_equal(bundle.witness_set.mask, split.members(keys)), (
            s.name, m.name, ideal.name, eps)


def _eager(s: SetDescription) -> SetDescription:
    return SetDescription(np.array(s.mask), s.size, s.tail)


def _lazy_sets(n):
    """Lazy A(eps) sets of two scenarios, and block unions."""
    s, h = scenario_by_name("block-harmonic"), scenario_by_name("harmonic")
    m = build_metric("scaled")
    return ([a_epsilon_set(x, m, center, eps, n)
             for x in (s, h) for eps in EPS for center in CENTERS]
            + [block_union(js, n) for js in ([], [1], [2, 3], range(1, 6))]
            + [SetDescription.full(n), SetDescription.empty(n)])


@pytest.mark.parametrize("n", WINDOWS)
def test_lazy_and_eager_sets_agree_on_every_reader(n):
    lazy = _lazy_sets(n)
    # The reference masks are read one by one as each set is built.
    masks = [np.array(s.mask) for s in _lazy_sets(n)]
    for s, mask in zip(lazy, masks):
        eager = SetDescription(mask, n, s.tail)
        assert s == eager and eager == s
        assert hash(s) == hash(eager)
        assert s.window == eager.window
        assert s.to_json() == eager.to_json()
        assert repr(s) == repr(eager)
        assert pickle.loads(pickle.dumps(s)) == eager


@pytest.mark.parametrize("n", WINDOWS)
def test_set_operations_on_lazy_operands_match_eager_truth(n):
    sets = _lazy_sets(n)
    pairs = list(itertools.combinations(range(len(sets)), 2))[::7]
    results = []
    for i, j in pairs:
        a, b = sets[i], sets[j]
        results.append((i, j, a.complement(), a.union(b), a.intersection(b),
                        a.minus(b)))
    for i, j, comp, union, inter, minus in results:
        a, b = _eager(sets[i]), _eager(sets[j])
        for got, want, truth in (
                (comp, a.complement(), ~a.mask),
                (union, a.union(b), a.mask | b.mask),
                (inter, a.intersection(b), a.mask & b.mask),
                (minus, a.minus(b), a.mask & ~b.mask)):
            assert np.array_equal(got.mask, truth)
            assert got == want
    full = SetDescription.full(n)
    assert full.mask.all() and full.tail == TailCertificate.cofinite()
    for js in ([1], [2, 3], range(1, 6)):
        want = np.isin(ideals.block_index(np.arange(1, n + 1)), list(js))
        assert np.array_equal(block_union(js, n).mask, want)


class TestBuilders:
    def test_builder_runs_once_on_first_read(self):
        calls = []

        def build():
            calls.append(1)
            return ideals.frozen_mask(np.arange(8) % 2 == 0)

        s = SetDescription(build, 8, TailCertificate.finite())
        assert calls == []
        assert s.window == {1, 3, 5, 7}
        assert s.to_json()["window"] == [[1, 1], [3, 3], [5, 5], [7, 7]]
        assert calls == [1]

    @pytest.mark.parametrize("mask", [
        np.zeros(7, dtype=bool), np.zeros((2, 4), dtype=bool),
        np.zeros(8, dtype=np.int64), [True] * 8,
    ])
    def test_wrong_mask_raises_on_first_read(self, mask):
        s = SetDescription(lambda: mask, 8, TailCertificate.finite())
        with pytest.raises(DomainError):
            s.mask
        with pytest.raises(DomainError):
            s.window

    def test_writable_result_is_copied_and_frozen(self):
        mask = np.zeros(8, dtype=bool)
        s = SetDescription(lambda: mask, 8, TailCertificate.finite())
        assert not s.mask.flags.writeable
        mask[0] = True
        assert s.window == frozenset()

    def test_eager_checks_stay_eager(self):
        with pytest.raises(DomainError):
            SetDescription(lambda: np.zeros(0, dtype=bool), 0,
                           TailCertificate.finite())
        with pytest.raises(DomainError):
            block_union([0, 1], 16)
        with pytest.raises(DomainError):
            SetDescription.full(8).union(SetDescription.full(16))

    def test_filter_membership_builds_no_complement(self, window_builds):
        s = block_union([1, 2], MAX_WINDOW).complement()
        blk = IdealDescriptor.block()
        v = ideals.filter_membership(blk, s)
        assert v.certificate.startswith("filter via complement: block/")
        assert v.decision is ideals.IN
        assert window_builds["block_mask"] == 0
        assert s.mask.sum() == MAX_WINDOW // 4
        assert window_builds["block_mask"] == 1
