"""Scenario generators and their tail analytics."""

import contextlib
import dataclasses
import io
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cstarseq import reporting, sequences
from cstarseq.cli import main
from cstarseq.errors import DomainError
from cstarseq.ideals import (
    IDEALS,
    BlockSet,
    TailCertificate,
    TailKind,
    _union_tail,
    block_index,
    block_mask,
    ideal_by_name,
    tail_membership,
)
from cstarseq.metrics import MIXED, NONE, METRICS, GapProfile, metric_by_name
from cstarseq.reporting import MAX_WINDOW
from cstarseq.sequences import (
    PROBE_BLOCKS,
    WALK_ENTRIES,
    BlockTail,
    CenterClass,
    ConvergentTail,
    SequenceScenario,
    make_alternating,
    make_block_harmonic,
    make_constant,
    make_harmonic,
    _status_over,
    probe_depth,
    scenario_by_name,
)


class TestGenerators:
    def test_harmonic_points(self):
        s = make_harmonic()
        assert np.allclose(s.points(5), [1.0, 0.5, 1 / 3, 0.25, 0.2])

    def test_block_harmonic_follows_block_index(self):
        s = make_block_harmonic()
        for n in range(1, 200):
            assert s.generator(n) == pytest.approx(1.0 / block_index(n))

    def test_alternating(self):
        s = make_alternating()
        assert list(s.points(4)) == [-1.0, 1.0, -1.0, 1.0]

    def test_constant(self):
        s = make_constant(2.5)
        assert set(s.points(10)) == {2.5}

    def test_points_cached_and_immutable(self):
        s = make_harmonic()
        p1 = s.points(64)
        p2 = s.points(64)
        assert p1 is p2
        with pytest.raises(ValueError):
            p1[0] = 5.0

    @pytest.mark.parametrize("make", [make_harmonic, make_block_harmonic,
                                      make_alternating,
                                      lambda: make_constant(-0.75)])
    def test_array_call_matches_scalar_calls(self, make):
        s = make()
        scalar = [s.generator(n) for n in range(1, 301)]
        assert all(type(x) is float for x in scalar)
        assert s.points(300).tolist() == scalar

    def test_block_index_on_arrays(self):
        n = np.arange(1, 5000, dtype=np.int64)
        assert block_index(n).tolist() == [block_index(int(k)) for k in n]
        with pytest.raises(DomainError):
            block_index(np.array([3, 0]))

    def test_points_cache_belongs_to_the_scenario(self):
        a, b = make_constant(1.0), make_constant(1.0000001)
        assert a.name == b.name
        assert a.points(8)[0] == 1.0
        assert b.points(8)[0] == 1.0000001


class TestTailModels:
    def test_harmonic_envelope_sound(self):
        s = make_harmonic()
        model = s.tail_model
        for n in (1, 10, 1000):
            assert abs(s.generator(n) - model.limit) <= model.envelope(n)

    def test_harmonic_interval_is_one_sided(self):
        s = make_harmonic()
        lo, hi = s.tail_model.interval(200)
        assert lo == 0.0
        assert hi == pytest.approx(1.0 / 201)
        for n in range(201, 400):
            assert lo <= s.generator(n) <= hi

    def test_block_value_interval(self):
        s = make_block_harmonic()
        lo, hi = s.tail_model.value_interval(10)
        assert (lo, hi) == (0.0, pytest.approx(1.0 / 11))

    def test_default_two_sided_interval(self):
        model = ConvergentTail(limit=1.0, envelope=lambda n: 1.0 / n)
        lo, hi = model.interval(9)
        assert (lo, hi) == (0.9, 1.1)

    def test_tail_hits_harmonic(self):
        s = make_harmonic()
        hits = s.tail_model.tail_hits
        assert hits(s, 1.0 / 300, 200)        # 1/300 lies beyond n=200
        assert not hits(s, 1.0 / 100, 200)    # already inside the window
        assert not hits(s, 0.123, 200)        # never attained
        assert not hits(s, 0.0, 200)          # limit never attained

    def test_alternating_is_a_block_sequence(self):
        # x_n = -1 exactly on Delta_1 (the odd n) and 1 on every other block.
        s = make_alternating()
        model = s.tail_model
        assert isinstance(model, BlockTail) and not model.injective
        assert (model.limit, s.nominal_limit) == (1.0, None)
        js = np.arange(1, 70)
        assert model.value(js).tolist() == [model.value(int(j)) for j in js]
        assert [model.value(j) for j in (1, 2, 3, 64)] == [-1.0, 1.0, 1.0, 1.0]
        n = np.arange(1, 4097)
        assert s.points(4096).tolist() == model.value(block_index(n)).tolist()
        for j in range(1, 70):
            assert abs(model.value(j) - model.limit) <= model.envelope(j)
        assert model.value_interval(0) == (-1.0, 3.0)
        assert model.value_interval(1) == model.value_interval(64) == (1.0, 1.0)


def _even_zero_value(j):
    """1/j on odd blocks, the limit 0 on even ones; an int or an array."""
    j = np.asarray(j)
    return np.where(j % 2 == 0, 0.0, 1.0 / j)


def make_even_zero_blocks() -> SequenceScenario:
    """Block-harmonic with every even block at the limit: a center in an
    even block meets its own value again beyond every probe depth, so the
    zero-separation flag decides its offence status."""
    return SequenceScenario(
        name="even-zero-blocks",
        generator=lambda n: _even_zero_value(block_index(n)),
        tail_model=BlockTail(value=_even_zero_value, limit=0.0,
                             envelope=lambda j: 1.0 / j),
        point_bounds=(0.0, 1.0),
        injective=False,
        nominal_limit=0.0,
    )


BLOCK_SCENARIOS = {"block-harmonic": make_block_harmonic,
                   "even-zero-blocks": make_even_zero_blocks,
                   "alternating": make_alternating}


@st.composite
def boundary_eps(draw, scale: float) -> float:
    """eps weighted toward the values where a block's offence status
    flips: 1/k, the gaps 1/(k(k+1)) and 2/(k(k+1)) between neighbouring
    block values, times or over the metric's scale, and one ulp either
    side of each."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.floats(1e-4, 4.0))
    k = draw(st.integers(1, 80))
    base = draw(st.sampled_from([1.0 / k, 1.0 / (k * (k + 1)),
                                 2.0 / (k * (k + 1))]))
    eps = draw(st.sampled_from([base, base * scale, scale / base]))
    return float(np.nextafter(eps, draw(st.sampled_from([eps, 0.0,
                                                         np.inf]))))


def scalar_window_classes(s, gp, eps, n_max) -> list:
    """The window classes of the block case split through the scalar path:
    per block, one ``offence_tail`` call about the block's value."""
    model = s.tail_model
    return [
        CenterClass(
            j, 1 << (j - 1),
            (model.offence_tail(s, gp, float(model.value(j)), eps, n_max),),
            TailCertificate(TailKind.BLOCK_BOUNDED, frozenset((j,))))
        for j in range(1, probe_depth(n_max) + 1)
    ]


class TestBlockCaseSplit:
    """``BlockTail.center_classes`` against the scalar path."""

    @pytest.mark.parametrize("scenario", sorted(BLOCK_SCENARIOS))
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_window_classes_match_scalar_offence_tails(self, scenario,
                                                       metric, data):
        s = BLOCK_SCENARIOS[scenario]()
        gp = metric_by_name(metric).gap_profile
        n_max = data.draw(st.sampled_from([16, 4096, 8192]))
        eps = data.draw(boundary_eps(gp.scale))
        split = s.tail_model.center_classes(s, gp, eps, n_max)
        assert len(split.classes) == probe_depth(n_max) + 1
        assert list(split.classes[:-1]) == scalar_window_classes(
            s, gp, eps, n_max)

    def test_deep_group_in_chunks_matches_scalar(self):
        # The 32 even blocks stay MIXED until depth 2^16, where they are
        # decided together and their offence walk goes in many chunks.
        s = make_even_zero_blocks()
        gp = metric_by_name("diag").gap_profile
        split = s.tail_model.center_classes(s, gp, 2e-5, 16)
        assert list(split.classes[:-1]) == scalar_window_classes(
            s, gp, 2e-5, 16)

    @pytest.mark.parametrize("eps", [0.1, 0.5])
    @pytest.mark.parametrize("metric", ["diag", "scaled", "discrete"])
    def test_audit_keys_make_no_scalar_probe(self, monkeypatch, metric, eps):
        calls = []
        scalar = BlockTail.offence_tail

        def counted(self, *args):
            calls.append(args)
            return scalar(self, *args)

        monkeypatch.setattr(BlockTail, "offence_tail", counted)
        s = make_block_harmonic()
        s.tail_model.center_classes(s, metric_by_name(metric).gap_profile,
                                    eps, 8192)
        assert calls == []


def one_shot_offence_tail(model, gp, c, eps, n_max) -> tuple:
    """``offence_tail`` with blocks 1..depth evaluated in one array: the
    same probe doubling, then one ``from_mask`` over the whole probe.
    Returns the certificate and the depth."""
    jprobe = probe_depth(n_max)
    while True:
        ahead = model.value(np.arange(jprobe + 1, jprobe + PROBE_BLOCKS + 1))
        status = _status_over(gp, *model.value_interval(jprobe), eps,
                              bool(np.any(ahead == c)), c)
        if status != MIXED or jprobe >= 1 << 20:
            break
        jprobe *= 2
    if status == MIXED:
        return TailCertificate.unknown(), jprobe
    offends = gp.norm_of_gaps(
        np.abs(model.value(np.arange(1, jprobe + 1)) - c)) >= eps
    if status == NONE:
        tail = TailCertificate.block_bounded(BlockSet.from_mask(offends))
    else:
        tail = TailCertificate.block_cobounded(BlockSet.from_mask(~offends))
    return tail, jprobe


class WalkCensus:
    """What block walks do while its patches are in place: ``scans``, the
    chunks each walk evaluates before it returns (one gap-norm call per
    chunk), ``depths``, each walk's depth, and ``builds``, the block-list
    builds run.  ``model``, a copy of the given tail model whose ``value``
    is counted, records in ``entries`` the block indices that its walks and
    builds evaluate."""

    def __init__(self, mp, model=None):
        self.scans, self.depths, self.entries, self.builds = [], [], [], 0
        self.state = None  # "scan" inside a walk, "build" inside a build
        walk, joined = BlockTail._walk, BlockSet.joined_rows
        norm_of_gaps = GapProfile.norm_of_gaps

        def walked(tail, gp, cs, eps, depth, bounded):
            self.scans.append(0)
            self.depths.append(depth)
            self.state = "scan"
            try:
                return walk(tail, gp, cs, eps, depth, bounded)
            finally:
                self.state = None

        def built(chunks, start=0):
            self.builds += 1
            self.state = "build"
            try:
                return joined(chunks, start)
            finally:
                self.state = None

        def norms(gp, gaps):
            if self.state == "scan":
                self.scans[-1] += 1
            return norm_of_gaps(gp, gaps)

        def value(j):
            if self.state is not None:
                self.entries.append(np.ravel(j))
            return model.value(j)

        mp.setattr(BlockTail, "_walk", walked)
        mp.setattr(BlockSet, "joined_rows", staticmethod(built))
        mp.setattr(GapProfile, "norm_of_gaps", norms)
        if model is not None:
            self.model = dataclasses.replace(model, value=value)

    def walked_each_block_once(self) -> bool:
        """Do the walks together evaluate blocks 1..depth of each walk,
        each once?"""
        got = np.concatenate([np.zeros(0, dtype=np.int64), *self.entries])
        want = np.concatenate([np.zeros(0, dtype=np.int64),
                               *map(np.arange, self.depths)]) + 1
        return np.array_equal(np.sort(got), np.sort(want))


class TestChunkedWalk:
    """Block probes are walked in chunks; the chunk edges change nothing."""

    @pytest.mark.parametrize("scenario", sorted(BLOCK_SCENARIOS))
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_chunk_edges_change_no_certificate(self, scenario, metric, data):
        # Each certificate's kind is decided before its list is read, and
        # once read, every walk has evaluated each of its blocks once.
        s = BLOCK_SCENARIOS[scenario]()
        model = s.tail_model
        gp = metric_by_name(metric).gap_profile
        eps = data.draw(boundary_eps(gp.scale))
        n_max = data.draw(st.sampled_from([16, 4096, 8192]))
        entries = data.draw(st.sampled_from([1, 3, 7, 64, WALK_ENTRIES]))
        j = data.draw(st.integers(0, 70))  # 0 stands for the limit
        c = model.limit if j == 0 else float(model.value(j))
        want, depth = one_shot_offence_tail(model, gp, c, eps, n_max)
        window = [one_shot_offence_tail(model, gp, float(model.value(k)),
                                        eps, n_max)
                  for k in range(1, probe_depth(n_max) + 1)]
        # A walk of one-entry chunks costs a numpy round per block; an
        # Unknown tail walks none.
        assume(entries == WALK_ENTRIES or max(
            [d for tail, d in window + [(want, depth)]
             if tail.kind is not TailKind.UNKNOWN], default=0) <= 1024)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "WALK_ENTRIES", entries)
            census = WalkCensus(mp, model)
            got = census.model.offence_tail(s, gp, c, eps, n_max)
            split = census.model.center_classes(s, gp, eps, n_max)
            tails = [cls.tails for cls in split.classes[:-1]]
            assert census.builds == 0
            assert got.kind is want.kind
            assert [t.kind for (t,) in tails] == [w.kind for w, _ in window]
            assert got == want
            assert tails == [(tail,) for tail, _ in window]
            assert census.walked_each_block_once()
        assert split.classes == model.center_classes(s, gp, eps,
                                                     n_max).classes

    @pytest.mark.parametrize("entries", [1, 3, 7, 64])
    def test_runs_join_across_chunk_edges(self, monkeypatch, entries):
        # Each listed run is longer than a chunk of one center's walk, in
        # both branches: NONE lists the offending blocks, ALL the others.
        cases = [
            ("block-harmonic", "diag", 0.0, 0.01,
             TailKind.BLOCK_BOUNDED, [[1, 100]]),
            ("block-harmonic", "reciprocal", 0.0, 200.0,
             TailKind.BLOCK_COBOUNDED, [[1, 99]]),
            ("even-zero-blocks", "scaled", 0.0, 0.05,
             TailKind.BLOCK_BOUNDED, [[j, j] for j in range(1, 41, 2)]),
            ("alternating", "discrete", -1.0, 0.5,
             TailKind.BLOCK_COBOUNDED, [[1, 1]]),
        ]
        monkeypatch.setattr(sequences, "WALK_ENTRIES", entries)
        for scenario, metric, c, eps, kind, runs in cases:
            s = BLOCK_SCENARIOS[scenario]()
            gp = metric_by_name(metric).gap_profile
            got = s.tail_model.offence_tail(s, gp, c, eps, 4096)
            assert (got.kind, got.blocks.runs) == (kind, runs)
            assert got == one_shot_offence_tail(s.tail_model, gp, c, eps,
                                                4096)[0]

    def test_audit_and_wide_runs_walk_one_chunk(self, monkeypatch):
        # These runs read only the kinds of their block tails: no list is
        # built, and every walk's scan stops at its first chunk, however
        # deep its probe (262 144 blocks at eps 1e-5).
        census = WalkCensus(monkeypatch)
        run = ["run", "--scenario", "block-harmonic", "--metric", "scaled",
               "--ideal", "block"]
        with contextlib.redirect_stdout(io.StringIO()):
            main(["audit-paper", "--json", "--window", "8192"])
            main(run + ["--eps", "0.1", "--eps", "0.01",
                        "--window", str(MAX_WINDOW)])
            main(run + ["--eps", "1e-5", "--window", "4096"])
        assert census.builds == 0
        assert census.scans and set(census.scans) == {1}
        assert max(census.depths) == 1 << 18

    @pytest.mark.parametrize("eps, end", [(1e-5, 200_000), (2.5e-6, 800_000)])
    def test_deep_probe_memory_is_flat(self, eps, end):
        # One array over every probed block peaked at 4.3 MB and 17 MB here.
        s = make_block_harmonic()
        gp = metric_by_name("scaled").gap_profile
        tracemalloc.start()
        try:
            tail = s.tail_model.offence_tail(s, gp, 0.0, eps, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tail.kind is TailKind.BLOCK_BOUNDED
        assert tail.blocks.runs == [[1, end]]
        assert peak < 1 << 20


def counted_builder(blocks):
    """A builder of the block list ``blocks``, and the list its calls are
    recorded in."""
    calls = []

    def build():
        calls.append(None)
        return BlockSet(blocks)

    return build, calls


block_lists = st.sets(st.integers(1, 40), min_size=1, max_size=8)
block_kinds = st.sampled_from([TailKind.BLOCK_BOUNDED,
                               TailKind.BLOCK_COBOUNDED])


class TestLazyCertificates:
    """A tail certificate's kind is decided at once and its block list is
    built on first read."""

    def test_builder_runs_once_on_first_read(self):
        build, calls = counted_builder([1, 2, 3, 7])
        cert = TailCertificate(TailKind.BLOCK_BOUNDED, build)
        comp = cert.complement()
        assert (cert.kind, comp.kind) == (TailKind.BLOCK_BOUNDED,
                                          TailKind.BLOCK_COBOUNDED)
        for name in IDEALS:
            tail_membership(ideal_by_name(name), cert)
            tail_membership(ideal_by_name(name), comp)
        assert calls == []
        assert comp.blocks.runs == [[1, 3], [7, 7]]
        assert cert.blocks is comp.blocks is cert.blocks
        assert len(calls) == 1

    @settings(max_examples=80, deadline=None)
    @given(js=block_lists, kind=block_kinds, other_js=block_lists)
    def test_lazy_and_eager_certificates_agree(self, js, kind, other_js):
        eager = TailCertificate(kind, BlockSet(js))
        swapped = (TailKind.BLOCK_COBOUNDED if kind is TailKind.BLOCK_BOUNDED
                   else TailKind.BLOCK_BOUNDED)

        def lazy(blocks=js, kind=kind):
            return TailCertificate(kind, lambda: BlockSet(blocks))

        assert lazy().blocks == eager.blocks
        assert lazy() == eager and eager == lazy()
        assert lazy() != lazy(kind=swapped)
        assert TailCertificate(kind, frozenset(js)) == lazy()
        assert hash(lazy()) == hash(eager) == hash(
            TailCertificate(kind, frozenset(js)))
        assert repr(lazy()) == repr(eager)
        assert lazy().to_json() == eager.to_json()
        assert pickle.loads(pickle.dumps(lazy())) == eager
        build, calls = counted_builder(js)
        comp = TailCertificate(kind, build).complement()
        assert calls == [] and comp.kind is swapped
        assert comp == eager.complement() and comp.complement() == eager
        others = [TailCertificate.finite(), TailCertificate.cofinite(),
                  TailCertificate.unknown()]
        for other_kind in (TailKind.BLOCK_BOUNDED, TailKind.BLOCK_COBOUNDED):
            others.append(TailCertificate(other_kind, BlockSet(other_js)))
            others.append(lazy(other_js, other_kind))
        for other in others:
            assert _union_tail(lazy(), other) == _union_tail(eager, other)
            assert _union_tail(other, lazy()) == _union_tail(other, eager)

    def test_class_verdicts_read_no_list(self, monkeypatch):
        # The 32 even blocks are decided together at depth 2^16.
        census = WalkCensus(monkeypatch)
        s = make_even_zero_blocks()
        gp = metric_by_name("diag").gap_profile
        for name in IDEALS:
            s.class_verdicts(gp, ideal_by_name(name), 2e-5, 16)
        assert census.builds == 0 and max(census.depths) == 1 << 16
        split = s.center_classes(gp, 2e-5, 16)
        assert list(split.classes[:-1]) == scalar_window_classes(
            s, gp, 2e-5, 16)

    @pytest.mark.parametrize("c, eps, kind, runs, scans", [
        # Block 20000 alone stays within eps of c = 1/20000, decided ALL at
        # depth 2^15: the first listed block lies in the second chunk.
        (1 / 20000, 1e-9, TailKind.BLOCK_COBOUNDED, [[20000, 20000]], 2),
        # No block is listed: the scan covers the probe and the kind is
        # FINITE (NONE) or COFINITE (ALL).
        (0.0, 2.0, TailKind.FINITE, [], 1),
        (5.0, 1.0, TailKind.COFINITE, [], 1),
    ])
    def test_first_hit_decides_the_kind(self, monkeypatch, c, eps, kind,
                                        runs, scans):
        s = make_block_harmonic()
        gp = metric_by_name("diag").gap_profile
        census = WalkCensus(monkeypatch, s.tail_model)
        tail = census.model.offence_tail(s, gp, c, eps, 4096)
        assert (tail.kind, census.scans, census.builds) == (kind, [scans], 0)
        assert tail.blocks.runs == runs
        assert tail == one_shot_offence_tail(s.tail_model, gp, c, eps,
                                             4096)[0]
        assert census.walked_each_block_once()

    def test_failed_build_leaves_the_walk_intact(self, monkeypatch):
        # A build that raises part-way, as MemoryError can under a cap,
        # leaves the next read the whole rest of the walk.
        s = make_block_harmonic()
        gp = metric_by_name("scaled").gap_profile
        tail = s.tail_model.offence_tail(s, gp, 0.0, 1e-5, 4096)
        joined = BlockSet.joined_rows

        def failing(chunks, start=0):
            for _ in chunks:
                pass
            raise MemoryError

        monkeypatch.setattr(BlockSet, "joined_rows", staticmethod(failing))
        with pytest.raises(MemoryError):
            tail.blocks
        monkeypatch.setattr(BlockSet, "joined_rows", staticmethod(joined))
        assert tail.blocks.runs == [[1, 200_000]]


class TestBlockOffenders:
    """Block scenarios build A(eps) windows from their block values."""

    @pytest.mark.parametrize("scenario", sorted(BLOCK_SCENARIOS))
    @pytest.mark.parametrize("metric", sorted(METRICS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_window_matches_pointwise_rule(self, scenario, metric, data):
        s = BLOCK_SCENARIOS[scenario]()
        gp = metric_by_name(metric).gap_profile
        eps = data.draw(boundary_eps(gp.scale))
        j = data.draw(st.integers(0, 40))  # 0 stands for the limit
        c = 0.0 if j == 0 else float(s.tail_model.value(j))
        for n in (1, 2, 3, 255, 256, 257, 4096):
            pointwise = gp.norm_of_gaps(
                np.abs(s.generator(np.arange(1, n + 1)) - c)) >= eps
            got = s.offenders(gp, c, eps, n)
            assert got.dtype == bool and got.shape == (n,)
            assert got.tolist() == pointwise.tolist()

    @pytest.mark.parametrize("with_one", [True, False])
    @given(js=st.sets(st.integers(2, 16), max_size=8),
           drawn=st.integers(0, 3000))
    def test_block_mask_matches_block_index(self, with_one, js, drawn):
        js = js | {1} if with_one else js
        for n_max in (0, 1, 2, 3, 255, 256, 257, drawn):
            want = np.isin(block_index(np.arange(1, n_max + 1)), sorted(js))
            for chosen in (js, BlockSet(js)):
                mask = block_mask(chosen, n_max)
                assert mask.shape == (n_max,) and not mask.flags.writeable
                assert mask.tolist() == want.tolist()

    def test_block_run_builds_no_points(self, monkeypatch):
        made = []

        def recorded(name, **params):
            made.append(scenario_by_name(name, **params))
            return made[-1]

        monkeypatch.setattr(reporting, "scenario_by_name", recorded)
        reporting.run(reporting.RunConfig(
            scenario="block-harmonic", metric="scaled", ideal="block",
            window=1 << 20))
        assert [s.name for s in made] == ["block-harmonic"]
        assert made[0].points_cache == {}


class TestCenterClassCache:
    """``SequenceScenario.center_classes`` computes each split once."""

    def test_audit_makes_one_split_per_key(self, monkeypatch):
        keys = []
        for model in (ConvergentTail, BlockTail):
            def counted(self, s, gp, eps, n_max, _split=model.center_classes):
                keys.append((id(s), gp, eps, n_max))
                return _split(self, s, gp, eps, n_max)

            monkeypatch.setattr(model, "center_classes", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            main(["audit-paper", "--json", "--window", "8192"])
        assert len(keys) == len(set(keys)) == 37

    @pytest.mark.parametrize("make", [make_harmonic, make_block_harmonic,
                                      make_alternating,
                                      lambda: make_constant(0.0)])
    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_cached_split_is_shared_and_read_only(self, make, metric):
        s = make()
        gp = metric_by_name(metric).gap_profile
        split = s.center_classes(gp, 0.1, 256)
        assert s.center_classes(gp, 0.1, 256) is split
        assert s.center_classes(gp, 0.2, 256) is not split
        assert make().center_classes(gp, 0.1, 256) is not split
        keys = [c.key for c in split.classes if c.key is not None]
        for chosen in (keys, keys[:1], []):
            mask = split.members(chosen)
            assert mask.dtype == bool and mask.shape == (256,)
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
        assert split.members(keys).tolist() == s.center_classes(
            gp, 0.1, 256).members(keys).tolist()

    def test_status_codes_are_int8(self):
        gp = metric_by_name("diag").gap_profile
        codes = gp.interval_status_codes(np.zeros(4), np.ones(4), 0.5,
                                         np.zeros(4, dtype=bool))
        assert codes.dtype == np.int8


class TestRegistry:
    def test_names(self):
        assert scenario_by_name("harmonic").name == "harmonic"
        assert scenario_by_name("block-harmonic").name == "block-harmonic"
        assert scenario_by_name("constant:1.5").generator(3) == 1.5
        assert isinstance(scenario_by_name("alternating").tail_model,
                          BlockTail)

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            scenario_by_name("fibonacci")
