"""Scenario generators and their tail analytics."""

import numpy as np
import pytest

from cstarseq.errors import DomainError
from cstarseq.ideals import block_index
from cstarseq.sequences import (
    ConvergentTail,
    RecurringTail,
    make_alternating,
    make_block_harmonic,
    make_constant,
    make_harmonic,
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
