"""Sequence scenarios: pure index-to-point generators with tail analytics.

A finite window can enumerate x_1..x_N exactly, but ideal-membership
verdicts need to know how the sequence behaves beyond the window.  Each
scenario therefore carries one of three analytic tail models:

* ``ConvergentTail``  -- |x_n - limit| <= envelope(n), nonincreasing;
* ``BlockTail``       -- x_n depends only on the dyadic block of n, with the
  block values converging to a limit;
* ``RecurringTail``   -- x_n eventually ranges over a fixed finite value set,
  each value recurring infinitely often.

The verdict engines in ``convergence`` ask a tail model only these
questions, which every model answers: ``tail_hits`` (can x_n equal c beyond
the window?), ``offence_tail`` (the tail certificate of A(eps) about c),
``center_classes`` (all centers, grouped by shared offence tail),
``pair_status`` (do all, none or some pairs beyond a cut reach eps?), and
the pair-form and I* searches ``pair_verdict`` and ``istar``.  Each model
also lists ``values``, the values certified to recur (possibly none).
Scenarios cache ``center_classes``, which the definition and E_k forms
share.

A window's points x_1..x_N are built on demand, by one generator call over
the index array, and cached on the scenario.  Block scenarios never need
them for A(eps): ``SequenceScenario.offenders`` decides offence once per
block value and expands the offending blocks, so a run on a block scenario
under any registered metric builds no points.

The built-ins mirror the audited constructions: the harmonic sequence
x_n = 1/n, the block-harmonic sequence x_n = 1/j on Delta_j, constant
sequences and the alternating sequence (-1)^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError
from .ideals import (
    IN,
    NOT_IN,
    UNKNOWN,
    BlockSet,
    IdealKind,
    SetDescription,
    TailCertificate,
    TailKind,
    Verdict,
    block_index,
    block_mask,
    block_union,
    frozen_mask,
    max_block_index,
)
from .metrics import ALL, MIXED, NONE, STATUSES, GapKind, GapProfile

# Tail certificate of the offenders beyond the window, by offence status.
STATUS_TAIL = {
    NONE: TailCertificate.finite(),
    ALL: TailCertificate.cofinite(),
    MIXED: TailCertificate.unknown(),
}

# Block probes look at every block that meets the window and never at fewer
# than PROBE_BLOCKS blocks; a zero-separation probe looks PROBE_BLOCKS
# blocks further.
PROBE_BLOCKS = 64


def _around(limit: float, envelope: Callable[[int], float]) -> Callable:
    """k -> [limit - envelope(k + 1), limit + envelope(k + 1)]."""
    return lambda k: (limit - envelope(k + 1), limit + envelope(k + 1))


def probe_depth(n_max: int) -> int:
    return max(max_block_index(n_max), PROBE_BLOCKS)


def gap_intervals(cs: np.ndarray, lo: float, hi: float) -> tuple:
    """Bounds on |p - c| over p in [lo, hi], for each center c in ``cs``."""
    glo = np.maximum(np.maximum(lo - cs, cs - hi), 0.0)
    return glo, np.maximum(np.abs(cs - lo), np.abs(cs - hi))


def _status_over(gp: GapProfile, lo: float, hi: float, eps: float,
                 zero: bool, center: Optional[float] = None) -> str:
    """Offence status over points confined to [lo, hi]: of the pairs among
    them or, given a center, of their distances to it.  ``zero`` marks that
    a zero separation can occur."""
    if center is None:
        glo, ghi = 0.0, max(hi - lo, 0.0)
    else:  # bounds on |p - center| over p in [lo, hi]
        glo = max(lo - center, center - hi, 0.0)
        ghi = max(abs(center - lo), abs(center - hi))
    return gp.interval_status(glo, ghi, eps, zero_attainable=zero)


def _first_offending_pair(gp: GapProfile, vals: np.ndarray, eps: float):
    """First ``(i, j, gap)`` with i < j, in ``itertools.combinations``
    order, whose separation ``gap = |vals[i] - vals[j]|`` offends; None when
    no pair does.  Row-major ``argwhere`` over the upper triangle keeps
    that order."""
    gaps = np.abs(vals[:, None] - vals[None, :])
    hits = np.argwhere(np.triu(gp.norm_of_gaps(gaps) >= eps, 1))
    if not hits.size:
        return None
    i, j = hits[0]
    return int(i), int(j), float(gaps[i, j])


def _least_below(envelope, target: float, cap: int) -> int:
    """Least j >= 1 with envelope(j) < target, for a nonincreasing envelope.

    Doubling brackets the answer, bisection pins it: O(log j) evaluations.
    Raises DomainError when no j <= cap qualifies.
    """
    if envelope(1) < target:
        return 1
    lo, hi = 1, 2  # invariant: envelope(lo) >= target
    while envelope(hi) >= target:
        if hi > cap:
            raise DomainError("block cut search diverged")
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if envelope(mid) >= target:
            lo = mid
        else:
            hi = mid
    if hi > cap:
        raise DomainError("block cut search diverged")
    return hi


class CenterClass(NamedTuple):
    """Centers whose A(eps) sets share an offence tail: one of ``tails``,
    all deciding alike when the class is decided.  ``index`` stands for the
    class (or None), ``beyond`` certifies its indices beyond the window, and
    ``key`` selects its window members (None: it has none)."""

    key: object
    index: Optional[int]
    tails: tuple
    beyond: TailCertificate


@dataclass(frozen=True)
class CenterClasses:
    """Every center index, partitioned into classes in the order the
    definition form tries them.  ``members(keys)`` is the window mask of the
    classes with those keys; when ``exhaustive``, NotIn in every class
    decides the definition form, whose certificates are then ``notin`` and
    ``unknown``."""

    classes: tuple
    members: Callable[[list], np.ndarray]
    exhaustive: bool
    notin: str
    unknown: str


@dataclass(frozen=True)
class ConvergentTail:
    limit: float
    envelope: Callable[[int], float]  # |x_n - limit| <= envelope(n), noninc.
    # smallest closed interval containing {x_n : n > N}
    interval: Callable[[int], tuple] = None  # type: ignore[assignment]
    # exact answer to "x_n == c for some n > N", when the generator has one
    exact_hits: Optional[Callable[[float, int], bool]] = None

    blockwise: ClassVar[bool] = False
    values: ClassVar[tuple] = ()      # no value is certified to recur

    def __post_init__(self):
        if self.interval is None:
            object.__setattr__(self, "interval",
                               _around(self.limit, self.envelope))

    def tail_hits(self, s, c: float, n_max: int) -> bool:
        if self.exact_hits is not None:
            return self.exact_hits(c, n_max)
        # An injective convergent sequence hits c at most once; a window hit
        # excludes a tail hit.
        if s.injective and any(
            s.generator(n) == c for n in range(1, min(n_max, 64) + 1)
        ):
            return False
        return abs(c - self.limit) <= self.envelope(n_max + 1)

    def offence_tail(self, s, gp, c, eps, n_max) -> TailCertificate:
        return STATUS_TAIL[self.pair_status(s, gp, n_max, eps, c)]

    def pair_status(self, s, gp, cut, eps, center=None) -> str:
        """Over the points x_n with n > cut."""
        zero = (not s.injective if center is None
                else self.tail_hits(s, center, cut))
        return _status_over(gp, *self.interval(cut), eps, zero, center)

    def schedule(self, s, gp, eps, n_max) -> list[int]:
        """Deterministic candidate centers: the first window index within
        eps of the limit, then powers of two up to the window."""
        near = np.flatnonzero(
            gp.norm_of_gaps(np.abs(s.points(n_max) - self.limit)) < eps
        )
        powers = [1 << k for k in range(int(n_max).bit_length())]
        return list(dict.fromkeys((near[:1] + 1).tolist() + powers))

    def center_classes(self, s, gp, eps, n_max) -> CenterClasses:
        """Window centers by the offence status of their A(eps) tail (only
        NONE decides In), each stood for by its first scheduled center, then
        the centers beyond the window.  The definition form tries only the
        schedule, so these classes are not exhaustive for it: its NotIn
        comes from the distance floor."""
        pts = s.points(n_max)
        if s.injective:
            zero = np.zeros(n_max, dtype=bool)
        elif self.exact_hits is None:  # tail_hits' default rule, elementwise
            zero = np.abs(pts - self.limit) <= self.envelope(n_max + 1)
        else:
            values, where = np.unique(pts, return_inverse=True)
            zero = np.array(
                [self.exact_hits(float(p), n_max) for p in values], dtype=bool
            )[where]
        glo, ghi = gap_intervals(pts, *self.interval(n_max))
        codes = gp.interval_status_codes(glo, ghi, eps, zero)
        schedule = self.schedule(s, gp, eps, n_max)
        classes = []
        for c in np.flatnonzero(np.bincount(codes)).tolist():
            first = next((n for n in schedule if codes[n - 1] == c), None)
            classes.append(CenterClass(c, first, (STATUS_TAIL[STATUSES[c]],),
                                       TailCertificate.finite()))
        far = STATUS_TAIL[self.pair_status(s, gp, n_max, eps)]
        classes.append(CenterClass(None, None, (far,),
                                   TailCertificate.cofinite()))
        return CenterClasses(
            tuple(classes), lambda keys: frozen_mask(np.isin(codes, keys)),
            False, "", "schedule exhausted without certificate",
        )

    def pair_verdict(self, s, gp, ideal, eps, n_max) -> Optional[dict]:
        """D = the empty set, else D = E_k(eps/3) for a scheduled k: a
        finite D off which the window points, with the whole tail, lie in
        an interval where every pair stays below eps.  When eps/3
        underflows to 0, E_k(0) is all of N and no k is tried."""
        pts = s.points(n_max)
        if self._off_d_status(s, gp, pts, eps, n_max) == NONE:
            return dict(
                verdict=Verdict(IN, "all pairwise distances certified < eps"),
                witness_set=SetDescription.empty(n_max),
                trace="D = empty set",
            )
        third = eps / 3.0
        if third == 0.0:
            return None
        for k in self.schedule(s, gp, third, n_max):
            c = float(s.generator(k))
            tail = self.offence_tail(s, gp, c, third, n_max)
            if tail.kind is not TailKind.FINITE:
                continue
            d_mask = frozen_mask(s.offenders(gp, c, third, n_max))
            if self._off_d_status(s, gp, pts[~d_mask], eps, n_max) == NONE:
                return dict(
                    verdict=Verdict(IN, "off-D pairwise distances certified "
                                        "< eps"),
                    witness_set=SetDescription(d_mask, n_max, tail),
                    witness_index=k, trace=f"D = E_k(eps/3) with k={k}",
                )
        return None

    def _off_d_status(self, s, gp, pts_off, eps, n_max) -> str:
        """Pair status over the off-D window points and the whole tail."""
        lo, hi = self.interval(n_max)
        if pts_off.size:
            lo = min(lo, float(np.min(pts_off)))
            hi = max(hi, float(np.max(pts_off)))
        return _status_over(gp, lo, hi, eps, not s.injective)

    def istar(self, s, gp, witness, eps, n_max, limit) -> dict:
        """Double the cut until the far pairs (or the far distances to the
        limit) are decided.  A set in the dual filter is infinite, so the
        witness needs no inspection."""
        pairs = limit is None
        cut = 1
        while cut <= 2 ** 48:
            status = self.pair_status(s, gp, cut, eps, limit)
            if status == NONE:
                return dict(verdict=Verdict(
                    IN, "subsequence pairs beyond the cut < eps" if pairs
                    else "tail distances to the limit < eps"), cut_index=cut)
            if status == ALL:
                return dict(verdict=Verdict(
                    NOT_IN, "all far pairs keep distance >= eps" if pairs
                    else "tail distances to the limit >= eps"))
            cut *= 2
        return dict(verdict=Verdict(
            UNKNOWN, "no pair cut certified" if pairs else "no cut certified"))


@dataclass(frozen=True)
class BlockTail:
    # x_n = value(block_index(n)); takes an int or an int64 array
    value: Callable[[int], float]
    limit: float
    envelope: Callable[[int], float]  # |value(j) - limit| <= envelope(j)
    # smallest closed interval containing {value(i) : i > j}
    value_interval: Callable[[int], tuple] = None  # type: ignore[assignment]

    interval: ClassVar[None] = None   # every block recurs; no tail interval
    blockwise: ClassVar[bool] = True
    values: ClassVar[tuple] = ()      # block values recur, but none is listed

    def __post_init__(self):
        if self.value_interval is None:
            object.__setattr__(self, "value_interval",
                               _around(self.limit, self.envelope))

    def tail_hits(self, s, c: float, n_max: int) -> bool:
        jcap = max_block_index(n_max) + PROBE_BLOCKS
        return bool(np.any(self.value(np.arange(1, jcap + 1)) == c))

    def offence_tail(self, s, gp, c, eps, n_max) -> TailCertificate:
        # Deepen the probe while the far-block interval stays ambiguous;
        # the interval shrinks toward the limit, so the status stabilizes
        # unless the gap norm sits exactly on the eps boundary.
        jprobe = probe_depth(n_max)
        while True:
            ahead = np.arange(jprobe + 1, jprobe + PROBE_BLOCKS + 1)
            zero = bool(np.any(self.value(ahead) == c))
            status = _status_over(gp, *self.value_interval(jprobe), eps,
                                  zero, c)
            if status != MIXED or jprobe >= 1 << 20:
                break
            jprobe *= 2
        if status == MIXED:
            return TailCertificate.unknown()
        gaps = np.abs(self.value(np.arange(1, jprobe + 1)) - c)
        offends = gp.norm_of_gaps(gaps) >= eps
        if status == NONE:
            return TailCertificate.block_bounded(BlockSet.from_mask(offends))
        return TailCertificate.block_cobounded(BlockSet.from_mask(~offends))

    def pair_status(self, s, gp, cut, eps, center=None) -> str:
        """Over the values of the blocks beyond block ``cut``; each recurs,
        so a zero separation can occur."""
        return _status_over(gp, *self.value_interval(cut), eps, True, center)

    def center_classes(self, s, gp, eps, n_max) -> CenterClasses:
        """A center's offence tail depends only on its block: one class per
        block up to the probe depth, stood for by its first member, then the
        farther blocks.  Their values lie in a small interval around the
        limit; per-block offence can stay ambiguous for finitely many blocks
        without changing the decision, so the far class carries both
        resolutions of the ambiguity.

        The probed block values are evaluated once.  Every center block's
        far status comes from one vector status rule over the far-block
        interval, and its bounded/cobounded block list from one offence
        matrix ``||d(value(i), value(j))|| >= eps`` over the probed blocks.
        The same rule gives every center's status at each deeper depth
        ``offence_tail`` may double to, so the centers still MIXED at the
        probe depth are deepened together.  Each class's tail equals
        ``offence_tail`` of its block value, which stays the scalar path."""
        jprobe = probe_depth(n_max)
        vals = self.value(np.arange(1, jprobe + 1))
        # The depths offence_tail's doubling visits, the probe depth first.
        depths = [jprobe]
        while depths[-1] < 1 << 20:
            depths.append(2 * depths[-1])
        lo, hi = np.array([self.value_interval(jp) for jp in depths]).T
        glo, ghi = gap_intervals(vals[:, None], lo, hi)  # blocks x depths
        classes = [
            CenterClass(j, 1 << (j - 1), (tail,),
                        TailCertificate(TailKind.BLOCK_BOUNDED,
                                        BlockSet(range(j, j + 1))))
            for j, tail in enumerate(
                self._center_tails(gp, vals, eps, depths, glo, ghi), 1)
        ]
        codes = gp.interval_status_codes(glo[:, 0], ghi[:, 0], eps,
                                         np.zeros(jprobe, dtype=bool))
        quiet, loud, mixed = ((np.flatnonzero(codes == k) + 1).tolist()
                              for k in range(3))
        far_status = _status_over(gp, *self.value_interval(jprobe), eps,
                                  True)
        if far_status == MIXED:
            tails = ()
        elif far_status == NONE:
            tails = (TailCertificate.block_bounded(loud),
                     TailCertificate.block_bounded(loud + mixed))
        else:
            tails = (TailCertificate.block_cobounded(quiet + mixed),
                     TailCertificate.block_cobounded(quiet))
        classes.append(CenterClass(
            None, None, tails,
            TailCertificate.block_cobounded(range(1, jprobe + 1)),
        ))
        return CenterClasses(
            tuple(classes), lambda keys: block_mask(set(keys), n_max), True,
            "block case split: every center block fails",
            "block case split inconclusive",
        )

    def _center_tails(self, gp, vals, eps, depths, glo, ghi) -> list:
        """``offence_tail`` of each center in ``vals``, the values of blocks
        1..len(vals), whose gaps to the blocks beyond ``depths[d]`` lie in
        [glo[:, d], ghi[:, d]].  Each center's status is taken at every
        depth at once; its first decided depth is where ``offence_tail``
        stops doubling, and the probed blocks up to it give its list."""
        # A zero gap needs the center inside the far interval (glo == 0):
        # only there is it compared with the blocks just beyond the depth.
        inside = np.nonzero(glo <= 0.0)
        ahead = np.add.outer(np.take(depths, inside[1]),
                             np.arange(1, PROBE_BLOCKS + 1))
        zero = np.zeros(glo.shape, dtype=bool)
        zero[inside] = (vals[inside[0]][:, None]
                        == self.value(ahead.ravel()).reshape(ahead.shape)
                        ).any(1)
        codes = gp.interval_status_codes(glo, ghi, eps, zero)
        decided = codes != STATUSES.index(MIXED)
        first = np.where(decided.any(1), decided.argmax(1), -1)
        tails = [TailCertificate.unknown()] * len(vals)
        for d in sorted(set(first[first >= 0].tolist())):
            probed = vals if d == 0 else self.value(np.arange(1, depths[d] + 1))
            group = np.flatnonzero(first == d)
            # Deep groups go in chunks of rows, so that an offence matrix
            # holds about 2^20 entries at most, as one deep scalar probe does.
            step = max(1, (1 << 20) // len(probed))
            for rows in np.split(group, range(step, len(group), step)):
                offends = gp.norm_of_gaps(
                    np.abs(vals[rows][:, None] - probed)) >= eps
                # NONE lists the offending blocks, ALL the others.
                bounded = codes[rows, d] == STATUSES.index(NONE)
                listed = BlockSet.rows(offends == bounded[:, None])
                for i, b, js in zip(rows.tolist(), bounded.tolist(), listed):
                    tails[i] = (TailCertificate.block_bounded(js) if b
                                else TailCertificate.block_cobounded(js))
        return tails

    def pair_verdict(self, s, gp, ideal, eps, n_max) -> Optional[dict]:
        target = eps / (2.0 * gp.scale)
        if (ideal.kind is IdealKind.BLOCK and gp.kind is GapKind.LINEAR
                and target > 0.0):
            # Cut rule: smallest J with envelope(J) < target; off the first
            # J blocks every pair norm stays below eps.  D is one run of
            # blocks, so J may reach 2^53, the last J a float holds
            # exactly.  When the target underflows to 0 no cut is tried,
            # as ConvergentTail tries no E_k(0), and the rules below decide.
            j_cut = _least_below(self.envelope, target, 2 ** 53)
            if self.pair_status(s, gp, j_cut, eps) == NONE:
                return dict(
                    verdict=Verdict(IN, "off-D blocks have pairwise "
                                        "distances < eps"),
                    witness_set=block_union(range(1, j_cut + 1), n_max),
                    cut_index=j_cut, trace=f"D = union of blocks 1..{j_cut}",
                )
        if ideal.kind is IdealKind.FIN:
            # Finite D cannot remove any block; every distinct-block pair
            # recurs beyond it.
            pair = _first_offending_pair(
                gp, self.value(np.arange(1, probe_depth(n_max) + 1)), eps)
            if pair is not None:
                i, j, _ = pair
                return dict(verdict=Verdict(
                    NOT_IN, f"blocks {i + 1},{j + 1} recur off every "
                            f"finite D with distance >= eps"))
        floor = s.pair_floor(gp)
        if ideal.kind is IdealKind.BLOCK and floor is not None and floor >= eps:
            # Off any block-ideal D infinitely many whole blocks remain;
            # their distinct values defeat discrete/reciprocal bounds.
            return dict(verdict=Verdict(
                NOT_IN, "distinct block values keep distance >= eps off "
                        "every D in the ideal"))
        return None

    def istar(self, s, gp, witness, eps, n_max, limit) -> dict:
        """A witness keeps every block (cofinite) or all but finitely many
        (block-cobounded); an offending block, or pair of blocks, among the
        kept ones recurs beyond every cut."""
        if witness.tail.kind not in (TailKind.COFINITE,
                                     TailKind.BLOCK_COBOUNDED):
            return dict(verdict=Verdict(UNKNOWN,
                                        "witness block structure unknown"))
        jprobe = probe_depth(n_max)
        active = list(BlockSet(range(1, jprobe + 1)) - witness.tail.blocks)
        vals = self.value(np.array(active, dtype=np.int64))
        if limit is None:
            pair = _first_offending_pair(gp, vals, eps)
            if pair is not None:
                i, j, gap = pair
                norm = gp.norm_of_gap(gap)
                return dict(verdict=Verdict(
                    NOT_IN, f"blocks {active[i]},{active[j]} stay in the "
                            f"witness with distance {norm!r} >= eps"),
                    trace=f"defeating gap norm {norm!r}")
            if active and self.pair_status(s, gp, active[0] - 1, eps) == NONE:
                return dict(verdict=Verdict(
                    IN, "all active-block pairs certified < eps"),
                    cut_index=active[0])
            return dict(verdict=Verdict(UNKNOWN,
                                        "active block pairs inconclusive"))
        far = np.flatnonzero(gp.norm_of_gaps(np.abs(vals - limit)) >= eps)
        if far.size:
            return dict(verdict=Verdict(
                NOT_IN, f"active block {active[far[0]]} keeps distance >= "
                        f"eps from the limit"))
        if self.pair_status(s, gp, jprobe, eps, limit) == NONE:
            return dict(verdict=Verdict(
                IN, "all active blocks within eps of the limit"),
                cut_index=active[0] if active else 1)
        return dict(verdict=Verdict(UNKNOWN, "far blocks undecided"))


@dataclass(frozen=True)
class RecurringTail:
    values: tuple                     # x_n in values for all n; each recurs

    interval: ClassVar[None] = None   # the values recur; no limit
    blockwise: ClassVar[bool] = False

    def tail_hits(self, s, c: float, n_max: int) -> bool:
        return c in self.values

    def offence_tail(self, s, gp, c, eps, n_max) -> TailCertificate:
        status = self.pair_status(s, gp, n_max, eps, c)
        if status == MIXED:
            return TailCertificate.infinite()
        return STATUS_TAIL[status]

    def pair_status(self, s, gp, cut, eps, center=None) -> str:
        """Over the values, which recur beyond every cut."""
        if center is None:
            gaps = [abs(v - w) for v in self.values for w in self.values]
        else:
            gaps = [abs(v - center) for v in self.values]
        hits = [gp.offends(g, eps) for g in gaps]
        return NONE if not any(hits) else ALL if all(hits) else MIXED

    def center_classes(self, s, gp, eps, n_max) -> CenterClasses:
        """One class per value, stood for by its first window index (1
        when the window misses it)."""
        pts = s.points(n_max)
        classes = []
        for v in self.values:
            hits = np.flatnonzero(pts == v)
            classes.append(CenterClass(
                v, int(hits[0]) + 1 if hits.size else 1,
                (self.offence_tail(s, gp, v, eps, n_max),),
                TailCertificate.infinite(),
            ))
        return CenterClasses(
            tuple(classes), lambda keys: frozen_mask(np.isin(pts, keys)), True,
            "every recurring center value fails",
            "recurring case split inconclusive",
        )

    def pair_verdict(self, s, gp, ideal, eps, n_max) -> Optional[dict]:
        if self.pair_status(s, gp, n_max, eps) == NONE:
            return dict(verdict=Verdict(IN, "all recurring value pairs < eps"),
                        witness_set=SetDescription.empty(n_max))
        if ideal.kind is IdealKind.FIN:
            return dict(verdict=Verdict(
                NOT_IN, "a recurring value pair keeps distance >= eps off "
                        "every finite D"))
        return None

    def istar(self, s, gp, witness, eps, n_max, limit) -> dict:
        """Only a cofinite witness certifies that every value recurs in it."""
        if witness.tail.kind is not TailKind.COFINITE:
            return dict(verdict=Verdict(
                UNKNOWN, "witness does not certify which values recur"))
        if self.pair_status(s, gp, n_max, eps, limit) == NONE:
            return dict(verdict=Verdict(
                IN, "recurring value pairs all < eps" if limit is None
                else "all recurring values within eps of the limit"),
                cut_index=1)
        if limit is None:
            return dict(verdict=Verdict(
                NOT_IN, "a recurring value pair keeps distance >= eps"))
        v = next(v for v in self.values if gp.offends(abs(v - limit), eps))
        return dict(verdict=Verdict(
            NOT_IN, f"recurring value {v} stays >= eps from the limit"))


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
    classes_cache: dict = field(default_factory=dict, init=False,
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

    def center_classes(self, gp: GapProfile, eps: float,
                       n_max: int) -> CenterClasses:
        """The tail model's ``center_classes`` (cached on this scenario,
        like the points; the split does not depend on the ideal)."""
        key = (gp, eps, n_max)
        cached = self.classes_cache.get(key)
        if cached is None:
            cached = self.tail_model.center_classes(self, gp, eps, n_max)
            self.classes_cache[key] = cached
        return cached

    def tail_hits(self, c: float, n_max: int) -> bool:
        """Can x_n == c for some n beyond the window?  Conservative (True
        when uncertain); used to rule zero separations in or out."""
        model = self.tail_model
        return model is None or model.tail_hits(self, c, n_max)

    def offenders(self, gp: GapProfile, c: float, eps: float,
                  n_max: int) -> np.ndarray:
        """Window mask of {n <= N : ||d(x_n, c)|| >= eps} under ``gp``.

        A block tail's x_n is value(block_index(n)), so the rule is taken
        once per block meeting the window, on the J = floor(log2 N) + 1
        block values, and ``block_mask`` expands the offending blocks; no
        points are built.  The mask is bit-identical to the pointwise one:
        each point is its block's value, bit for bit, and ``norm_of_gaps``
        maps each gap on its own (scale * g, scale / g or a constant)."""
        model = self.tail_model
        if model is not None and model.blockwise:
            js = np.arange(1, max_block_index(n_max) + 1)
            hits = gp.norm_of_gaps(np.abs(model.value(js) - c)) >= eps
            return block_mask(set(js[hits].tolist()), n_max)
        return gp.norm_of_gaps(np.abs(self.points(n_max) - c)) >= eps

    def pair_floor(self, gp: GapProfile) -> Optional[float]:
        """A lower bound on ||d(x_m, x_n)|| over all pairs of *distinct
        points* of the scenario, when the gap profile admits one."""
        lo, hi = self.point_bounds
        diam = hi - lo
        if gp.kind is GapKind.RECIPROCAL:
            return math.inf if diam == 0.0 else gp.scale / diam
        if gp.kind is GapKind.DISCRETE:
            return gp.scale
        return None  # linear norms vanish on nearby points

    def to_json(self):
        return {"name": self.name}

    def __hash__(self):
        return hash(self.name)


# ---------------------------------------------------------------------------
# Built-ins


def _harmonic_hits(c: float, n_max: int) -> bool:
    """1/n == c for some n > N exactly when 1/c is an integer beyond N."""
    if c <= 0.0:
        return False
    inv = 1.0 / c
    return abs(inv - round(inv)) < 1e-9 and round(inv) > n_max


def make_harmonic() -> SequenceScenario:
    return SequenceScenario(
        name="harmonic",
        generator=lambda n: 1.0 / n,
        tail_model=ConvergentTail(
            limit=0.0,
            envelope=lambda n: 1.0 / n,
            interval=lambda n_max: (0.0, 1.0 / (n_max + 1)),
            exact_hits=_harmonic_hits,
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
    if not math.isfinite(v):
        raise DomainError(f"a constant must be finite, got {v!r}")
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


# Scenario factories by base name, in listing order, each with the argument
# its listed name carries ("constant:0"); None marks a factory that takes
# no argument.
SCENARIOS = {
    "harmonic": (make_harmonic, None),
    "block-harmonic": (make_block_harmonic, None),
    "alternating": (make_alternating, None),
    "constant": (make_constant, "0"),
}


def scenario_by_name(name: str, **params) -> SequenceScenario:
    base, sep, arg = name.partition(":")
    factory, listed_arg = SCENARIOS.get(base, (None, None))
    if factory is None or (sep and listed_arg is None):
        raise DomainError(f"unknown scenario {name!r}")
    if listed_arg is None:
        return factory()
    try:
        value = float(arg) if sep else float(params.get("value", 0.0))
    except ValueError as exc:
        raise DomainError(f"scenario {name!r} needs a number after ':'") from exc
    return factory(value)
