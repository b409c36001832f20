"""Scenario generators and their tail analytics."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cstarseq import reporting
from cstarseq.cli import main
from cstarseq.errors import DomainError
from cstarseq.ideals import (
    BlockSet,
    TailCertificate,
    TailKind,
    block_index,
    block_mask,
)
from cstarseq.metrics import METRICS, metric_by_name
from cstarseq.sequences import (
    BlockTail,
    CenterClass,
    ConvergentTail,
    RecurringTail,
    SequenceScenario,
    make_alternating,
    make_block_harmonic,
    make_constant,
    make_harmonic,
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
        assert s.tail_hits(1.0 / 300, 200)        # 1/300 lies beyond n=200
        assert not s.tail_hits(1.0 / 100, 200)    # already inside the window
        assert not s.tail_hits(0.123, 200)        # never attained
        assert not s.tail_hits(0.0, 200)          # limit never attained

    def test_tail_hits_recurring(self):
        s = make_alternating()
        assert s.tail_hits(1.0, 50)
        assert not s.tail_hits(0.5, 50)


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
                   "even-zero-blocks": make_even_zero_blocks}


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
        # decided together and their offence rows go in two chunks.
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
        for model in (ConvergentTail, BlockTail, RecurringTail):
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
                          RecurringTail)

    def test_unknown_rejected(self):
        with pytest.raises(DomainError):
            scenario_by_name("fibonacci")
