"""Sequence scenarios: pure index-to-point generators with tail analytics.

A finite window can enumerate x_1..x_N exactly, but ideal-membership
verdicts need to know how the sequence behaves beyond the window.  Each
scenario therefore carries one of three analytic tail models:

* ``ConvergentTail``  -- |x_n - limit| <= envelope(n), nonincreasing;
* ``BlockTail``       -- x_n depends only on the dyadic block of n, with the
  block values converging to a limit;
* ``RecurringTail``   -- x_n eventually ranges over a fixed finite value set,
  each value recurring infinitely often.

The built-ins mirror the audited constructions: the harmonic sequence
x_n = 1/n, the block-harmonic sequence x_n = 1/j on Delta_j, constant
sequences and the alternating sequence (-1)^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .ideals import block_index


@dataclass(frozen=True)
class ConvergentTail:
    limit: float
    envelope: Callable[[int], float]  # |x_n - limit| <= envelope(n), noninc.
    # smallest closed interval containing {x_n : n > N}
    interval: Callable[[int], tuple] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.interval is None:
            env = self.envelope
            lim = self.limit
            object.__setattr__(
                self, "interval",
                lambda n_max: (lim - env(n_max + 1), lim + env(n_max + 1)),
            )


@dataclass(frozen=True)
class BlockTail:
    value: Callable[[int], float]     # x_n = value(block_index(n))
    limit: float
    envelope: Callable[[int], float]  # |value(j) - limit| <= envelope(j)
    # smallest closed interval containing {value(i) : i > j}
    value_interval: Callable[[int], tuple] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.value_interval is None:
            env = self.envelope
            lim = self.limit
            object.__setattr__(
                self, "value_interval",
                lambda j: (lim - env(j + 1), lim + env(j + 1)),
            )


@dataclass(frozen=True)
class RecurringTail:
    values: tuple                     # x_n in values for all n; each recurs


TailModel = Union[ConvergentTail, BlockTail, RecurringTail]


@dataclass(frozen=True, eq=False)
class SequenceScenario:
    """A named sequence x_1, x_2, ... with its tail analytics.

    ``generator`` maps an index n to x_n.  It takes an int and returns a
    float, and it takes an int64 array and returns the float array of the
    points, elementwise, so a window is enumerated in one array call.
    """

    name: str
    generator: Callable[[int], float]
    tail_model: Optional[TailModel]
    point_bounds: tuple               # (lo, hi) containing every x_n
    injective: bool
    nominal_limit: Optional[float] = None
    points_cache: dict = field(default_factory=dict, init=False,
                               compare=False, repr=False)

    def points(self, n_max: int) -> np.ndarray:
        """x_1..x_N as a read-only array (cached on this scenario)."""
        cached = self.points_cache.get(n_max)
        if cached is None:
            cached = np.asarray(
                self.generator(np.arange(1, n_max + 1)), dtype=float
            )
            cached.setflags(write=False)
            self.points_cache[n_max] = cached
        return cached

    def tail_hits(self, c: float, n_max: int) -> bool:
        """Can x_n == c for some n beyond the window?  Conservative (True
        when uncertain); used to rule zero separations in or out."""
        model = self.tail_model
        if isinstance(model, ConvergentTail):
            if self.name == "harmonic":
                if c <= 0.0:
                    return False
                inv = 1.0 / c
                return abs(inv - round(inv)) < 1e-9 and round(inv) > n_max
            if self.injective:
                # An injective convergent sequence hits c at most once; a
                # window hit excludes a tail hit.
                if any(self.generator(n) == c for n in range(1, min(n_max, 64) + 1)):
                    return False
            return abs(c - model.limit) <= model.envelope(n_max + 1)
        if isinstance(model, BlockTail):
            jcap = int(n_max).bit_length()
            return any(model.value(j) == c for j in range(1, jcap + 65))
        if isinstance(model, RecurringTail):
            return c in model.values
        return True

    def to_json(self):
        return {"name": self.name}

    def __hash__(self):
        return hash(self.name)


# ---------------------------------------------------------------------------
# Built-ins


def make_harmonic() -> SequenceScenario:
    return SequenceScenario(
        name="harmonic",
        generator=lambda n: 1.0 / n,
        tail_model=ConvergentTail(
            limit=0.0,
            envelope=lambda n: 1.0 / n,
            interval=lambda n_max: (0.0, 1.0 / (n_max + 1)),
        ),
        point_bounds=(0.0, 1.0),
        injective=True,
        nominal_limit=0.0,
    )


def make_block_harmonic() -> SequenceScenario:
    return SequenceScenario(
        name="block-harmonic",
        generator=lambda n: 1.0 / block_index(n),
        tail_model=BlockTail(
            value=lambda j: 1.0 / j,
            limit=0.0,
            envelope=lambda j: 1.0 / j,
            value_interval=lambda j: (0.0, 1.0 / (j + 1)),
        ),
        point_bounds=(0.0, 1.0),
        injective=False,
        nominal_limit=0.0,
    )


def make_constant(value: float) -> SequenceScenario:
    v = float(value)
    return SequenceScenario(
        name=f"constant:{v:g}",
        generator=lambda n: np.full(np.shape(n), v) if np.ndim(n) else v,
        tail_model=ConvergentTail(limit=v, envelope=lambda n: 0.0),
        point_bounds=(v, v),
        injective=False,
        nominal_limit=v,
    )


def make_alternating() -> SequenceScenario:
    return SequenceScenario(
        name="alternating",
        generator=lambda n: 1.0 - 2.0 * (n % 2),
        tail_model=RecurringTail(values=(-1.0, 1.0)),
        point_bounds=(-1.0, 1.0),
        injective=False,
        nominal_limit=None,
    )


def scenario_by_name(name: str, **params) -> SequenceScenario:
    if name == "harmonic":
        return make_harmonic()
    if name == "block-harmonic":
        return make_block_harmonic()
    if name == "alternating":
        return make_alternating()
    if name == "constant" or name.startswith("constant:"):
        if ":" in name:
            return make_constant(float(name.split(":", 1)[1]))
        return make_constant(float(params.get("value", 0.0)))
    raise DomainError(f"unknown scenario {name!r}")
