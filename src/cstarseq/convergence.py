"""Verdict engines for ideal convergence and the Cauchy criteria.

All decisions are certificate-backed: the offending-index set
``A(eps) = {n : ||d(x_n, c)|| >= eps}`` is enumerated exactly on the window
``[1..N]`` and equipped with a tail certificate derived from the scenario's
analytic tail model and the metric's gap profile.  Ideal membership of the
certified set then gives the verdict; Unknown is returned whenever no
certificate applies.

The engines cover I-convergence, the three equivalent I-Cauchy criteria
(definition, pair form, E_k form), I*-Cauchy / I*-convergence against an
explicit filter witness, the AP-based I*-witness construction, and the
block-partition counterexample and implication audits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DomainError, PreconditionError, UnsupportedOperationError
from .ideals import (
    Decision,
    IN,
    IdealDescriptor,
    IdealKind,
    NOT_IN,
    SetDescription,
    TailCertificate,
    TailKind,
    UNKNOWN,
    Verdict,
    block_mask,
    block_union,
    filter_membership,
    frozen_mask,
    max_block_index,
    membership,
)
from .metrics import ALL, CstarMetric, GapKind, MIXED, NONE, distance_norm
from .sequences import (
    BlockTail,
    ConvergentTail,
    RecurringTail,
    SequenceScenario,
)


# ---------------------------------------------------------------------------
# Centers, questions, bundles


@dataclass(frozen=True)
class Point:
    x: float


@dataclass(frozen=True)
class Index:
    n: int


Center = Union[Point, Index]


class Question(enum.Enum):
    ICONV = "i_convergence"
    ICAUCHY_DEF = "i_cauchy_definition"
    ICAUCHY_PAIR = "i_cauchy_pair"
    ICAUCHY_EK = "i_cauchy_ek"
    ISTAR_CAUCHY = "i_star_cauchy"
    ISTAR_CONV = "i_star_convergence"
    NORM_CONV = "norm_convergence"


@dataclass(frozen=True)
class VerdictBundle:
    question: Question
    epsilon: float
    verdict: Verdict
    witness_set: Optional[SetDescription] = None
    witness_index: Optional[int] = None
    cut_index: Optional[int] = None
    trace: str = ""

    @property
    def decision(self) -> Decision:
        return self.verdict.decision

    def to_json(self):
        out = {
            "question": self.question.value,
            "epsilon": self.epsilon,
            "verdict": self.verdict.to_json(),
            "trace": self.trace,
        }
        if self.witness_set is not None:
            out["witness_set"] = self.witness_set.to_json()
        if self.witness_index is not None:
            out["witness_index"] = self.witness_index
        if self.cut_index is not None:
            out["cut_index"] = self.cut_index
        return out


def _require_eps(eps: float):
    if not (eps > 0.0):
        raise DomainError("eps must be positive")


def _resolve_center(s: SequenceScenario, center: Center) -> float:
    if isinstance(center, Point):
        return float(center.x)
    if center.n < 1:
        raise DomainError("center index must be >= 1")
    return float(s.generator(center.n))


def _gap_interval(c: float, lo: float, hi: float) -> tuple:
    """Bounds on |p - c| over p in [lo, hi]."""
    if lo <= c <= hi:
        glo = 0.0
    else:
        glo = lo - c if c < lo else c - hi
    return glo, max(abs(c - lo), abs(c - hi))


# ---------------------------------------------------------------------------
# Tail certification for A(eps) sets


def _a_eps_tail(
    s: SequenceScenario, m: CstarMetric, c: float, eps: float, n_max: int
) -> TailCertificate:
    """Certificate for {n > N : ||d(x_n, c)|| >= eps}."""
    gp = m.gap_profile
    model = s.tail_model
    if gp is None or model is None:
        return TailCertificate.unknown()

    if isinstance(model, ConvergentTail):
        lo, hi = model.interval(n_max)
        glo, ghi = _gap_interval(c, lo, hi)
        zero = s.tail_hits(c, n_max)
        status = gp.interval_status(glo, ghi, eps, zero_attainable=zero)
        if status == NONE:
            return TailCertificate.finite()
        if status == ALL:
            return TailCertificate.cofinite()
        return TailCertificate.unknown()

    if isinstance(model, BlockTail):
        # Deepen the probe while the far-block interval stays ambiguous;
        # the interval shrinks toward the limit, so the status stabilizes
        # unless the gap norm sits exactly on the eps boundary.
        jprobe = max(max_block_index(n_max), 64)
        cap = 1 << 20
        while True:
            lo, hi = model.value_interval(jprobe)
            glo, ghi = _gap_interval(c, lo, hi)
            zero = bool(np.any(
                model.value(np.arange(jprobe + 1, jprobe + 65)) == c
            ))
            status = gp.interval_status(glo, ghi, eps, zero_attainable=zero)
            if status != MIXED or jprobe >= cap:
                break
            jprobe *= 2
        if status == MIXED:
            return TailCertificate.unknown()
        gaps = np.abs(model.value(np.arange(1, jprobe + 1)) - c)
        offends = gp.norm_of_gaps(gaps) >= eps
        if status == NONE:
            return TailCertificate.block_bounded(np.flatnonzero(offends) + 1)
        return TailCertificate.block_cobounded(np.flatnonzero(~offends) + 1)

    # RecurringTail
    offending_vals = [v for v in model.values if gp.offends(abs(v - c), eps)]
    if not offending_vals:
        return TailCertificate.finite()
    if len(offending_vals) == len(model.values):
        return TailCertificate.cofinite()
    return TailCertificate.infinite()


def _window_mask(
    s: SequenceScenario, m: CstarMetric, c: float, eps: float, n_max: int
) -> np.ndarray:
    gp = m.gap_profile
    pts = s.points(n_max)
    if gp is not None:
        return gp.norm_of_gaps(np.abs(pts - c)) >= eps
    return np.array(
        [distance_norm(m, float(p), c) >= eps for p in pts], dtype=bool
    )


def a_epsilon_set(
    s: SequenceScenario,
    m: CstarMetric,
    center: Center,
    eps: float,
    n_max: int,
) -> SetDescription:
    """A(eps) = {n : ||d(x_n, c)|| >= eps}: exact window, certified tail."""
    _require_eps(eps)
    c = _resolve_center(s, center)
    mask = frozen_mask(_window_mask(s, m, c, eps, n_max))
    tail = _a_eps_tail(s, m, c, eps, n_max)
    return SetDescription(mask, n_max, tail)


# ---------------------------------------------------------------------------
# I-convergence


def i_convergence_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    limit: float,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    _require_eps(eps)
    a_set = a_epsilon_set(s, m, Point(limit), eps, n_max)
    v = membership(ideal, a_set)
    return VerdictBundle(
        question=Question.ICONV,
        epsilon=eps,
        verdict=v,
        witness_set=a_set,
        trace=f"A(eps) tail={a_set.tail.kind.value}; ideal={ideal.name}",
    )


# ---------------------------------------------------------------------------
# I-Cauchy: definition form


def _center_schedule(
    s: SequenceScenario, m: CstarMetric, eps: float, n_max: int
) -> list[int]:
    """Deterministic candidate centers: the analytically suggested index
    first, then powers of two up to the window."""
    suggested: list[int] = []
    gp = m.gap_profile
    model = s.tail_model
    if gp is not None and isinstance(model, ConvergentTail):
        pts = s.points(n_max)
        good = gp.norm_of_gaps(np.abs(pts - model.limit)) < eps
        hits = np.nonzero(good)[0]
        if hits.size:
            suggested.append(int(hits[0]) + 1)
    powers = []
    p = 1
    while p <= n_max:
        powers.append(p)
        p *= 2
    out: list[int] = []
    for n in suggested + powers:
        if n not in out:
            out.append(n)
    return out


def _universal_pair_floor(s: SequenceScenario, m: CstarMetric) -> Optional[float]:
    """A lower bound on ||d(x_m, x_n)|| over all pairs of *distinct points*
    of the scenario, when the gap profile admits one."""
    gp = m.gap_profile
    if gp is None:
        return None
    lo, hi = s.point_bounds
    diam = hi - lo
    if gp.kind is GapKind.RECIPROCAL:
        return math.inf if diam == 0.0 else gp.scale / diam
    if gp.kind is GapKind.DISCRETE:
        return gp.scale
    return None  # linear norms vanish on nearby points


def _decision_from_tail(ideal: IdealDescriptor, tail: TailCertificate) -> Verdict:
    return membership(ideal, SetDescription((), 1, tail))


def _block_center_case_split(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
):
    """For block-profiled scenarios the verdict of A(eps) w.r.t. center
    x_{n0} depends only on the block of n0.  Returns (per-block decisions
    for blocks represented in the window, decision for all farther blocks).
    """
    model = s.tail_model
    gp = m.gap_profile
    jprobe = max(max_block_index(n_max), 64)
    decisions = {}
    for j0 in range(1, jprobe + 1):
        tail = _a_eps_tail(s, m, model.value(j0), eps, n_max)
        decisions[j0] = _decision_from_tail(ideal, tail)

    # Centers in blocks beyond jprobe: the value is confined to a small
    # interval around the limit.  Per-block offence can stay ambiguous for
    # finitely many blocks without changing the verdict, as long as the
    # decision agrees under both resolutions of the ambiguity.
    lo, hi = model.value_interval(jprobe)
    far_offending: list[int] = []
    far_mixed: list[int] = []
    for j in range(1, jprobe + 1):
        glo, ghi = _gap_interval(model.value(j), lo, hi)
        status = gp.interval_status(glo, ghi, eps, zero_attainable=False)
        if status == ALL:
            far_offending.append(j)
        elif status == MIXED:
            far_mixed.append(j)
    far_status = gp.interval_status(0.0, hi - lo, eps, zero_attainable=True)
    if far_status == MIXED:
        far_decision = Verdict(UNKNOWN, "far-block case not uniform")
    else:
        if far_status == NONE:
            lo_cert = TailCertificate.block_bounded(far_offending)
            hi_cert = TailCertificate.block_bounded(far_offending + far_mixed)
        else:
            loud = set(far_offending) | set(far_mixed)
            quiet = [j for j in range(1, jprobe + 1) if j not in loud]
            lo_cert = TailCertificate.block_cobounded(quiet + far_mixed)
            hi_cert = TailCertificate.block_cobounded(quiet)
        d_lo = _decision_from_tail(ideal, lo_cert)
        d_hi = _decision_from_tail(ideal, hi_cert)
        if d_lo.decision is d_hi.decision:
            far_decision = d_lo
        else:
            far_decision = Verdict(UNKNOWN, "far-block case ambiguous")
    return decisions, far_decision


def i_cauchy_def_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """Definition form: some center n0 puts A(eps) into the ideal."""
    _require_eps(eps)
    model = s.tail_model

    if isinstance(model, BlockTail) and m.gap_profile is not None:
        decisions, far_decision = _block_center_case_split(s, m, ideal, eps, n_max)
        for j0 in sorted(decisions):
            if decisions[j0].decision is IN:
                n0 = 1 << (j0 - 1)
                a_set = a_epsilon_set(s, m, Index(n0), eps, n_max)
                return VerdictBundle(
                    Question.ICAUCHY_DEF, eps, Verdict(IN, decisions[j0].certificate),
                    witness_set=a_set, witness_index=n0,
                    trace=f"center n0={n0} (block {j0}); A(eps) "
                          f"tail={a_set.tail.kind.value}",
                )
        all_dec = list(decisions.values()) + [far_decision]
        if all(v.decision is NOT_IN for v in all_dec):
            return VerdictBundle(
                Question.ICAUCHY_DEF, eps,
                Verdict(NOT_IN, "block case split: every center block fails"),
                trace="A(eps) not in ideal for every block of candidate centers",
            )
        return VerdictBundle(
            Question.ICAUCHY_DEF, eps,
            Verdict(UNKNOWN, "block case split inconclusive"),
        )

    if isinstance(model, RecurringTail) and m.gap_profile is not None:
        pts = s.points(n_max)
        results = {}
        for v0 in model.values:
            tail = _a_eps_tail(s, m, v0, eps, n_max)
            results[v0] = (tail, _decision_from_tail(ideal, tail))
        for v0, (tail, dec) in results.items():
            if dec.decision is IN:
                hits = np.nonzero(pts == v0)[0]
                n0 = int(hits[0]) + 1 if hits.size else 1
                a_set = a_epsilon_set(s, m, Index(n0), eps, n_max)
                return VerdictBundle(
                    Question.ICAUCHY_DEF, eps, Verdict(IN, dec.certificate),
                    witness_set=a_set, witness_index=n0,
                    trace=f"center value {v0}",
                )
        if all(dec.decision is NOT_IN for _, dec in results.values()):
            return VerdictBundle(
                Question.ICAUCHY_DEF, eps,
                Verdict(NOT_IN, "every recurring center value fails"),
            )
        return VerdictBundle(
            Question.ICAUCHY_DEF, eps, Verdict(UNKNOWN, "recurring case split "
                                                        "inconclusive"),
        )

    # Convergent-tail (or profile-free) scenarios: deterministic schedule.
    traces = []
    for n0 in _center_schedule(s, m, eps, n_max):
        a_set = a_epsilon_set(s, m, Index(n0), eps, n_max)
        v = membership(ideal, a_set)
        traces.append(f"n0={n0}: tail={a_set.tail.kind.value} -> {v.decision.value}")
        if v.decision is IN:
            return VerdictBundle(
                Question.ICAUCHY_DEF, eps, Verdict(IN, v.certificate),
                witness_set=a_set, witness_index=n0,
                trace="; ".join(traces),
            )
    floor = _universal_pair_floor(s, m)
    if floor is not None and s.injective and floor >= eps:
        return VerdictBundle(
            Question.ICAUCHY_DEF, eps,
            Verdict(
                NOT_IN,
                "distance floor over distinct points >= eps: A(eps) is "
                "cofinite for every center",
            ),
            trace="; ".join(traces),
        )
    return VerdictBundle(
        Question.ICAUCHY_DEF, eps,
        Verdict(UNKNOWN, "schedule exhausted without certificate"),
        trace="; ".join(traces),
    )


# ---------------------------------------------------------------------------
# I-Cauchy: pair form


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


def _pair_status_over_interval(
    m: CstarMetric, lo: float, hi: float, eps: float, zero_attainable: bool
) -> str:
    """Offence status of pairs drawn from points confined to [lo, hi]."""
    gp = m.gap_profile
    return gp.interval_status(0.0, max(hi - lo, 0.0), eps,
                              zero_attainable=zero_attainable)


def _off_window_interval(
    s: SequenceScenario, pts_off: np.ndarray, n_max: int
) -> tuple:
    """Interval containing the off-D window points together with the whole
    tail of the sequence (used when D's tail is Finite)."""
    model = s.tail_model
    lo, hi = model.interval(n_max)
    if pts_off.size:
        lo = min(lo, float(np.min(pts_off)))
        hi = max(hi, float(np.max(pts_off)))
    return lo, hi


def i_cauchy_pair_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """Pair form: exists D in I with ||d(x_m, x_n)|| < eps off D."""
    _require_eps(eps)
    gp = m.gap_profile
    model = s.tail_model

    if gp is not None and isinstance(model, ConvergentTail):
        # Fast path: D = empty set.
        pts = s.points(n_max)
        lo, hi = _off_window_interval(s, pts, n_max)
        if _pair_status_over_interval(m, lo, hi, eps, not s.injective) == NONE:
            return VerdictBundle(
                Question.ICAUCHY_PAIR, eps,
                Verdict(IN, "all pairwise distances certified < eps"),
                witness_set=SetDescription.empty(n_max),
                trace="D = empty set",
            )
        # D = E_k(eps/3) over the deterministic schedule.
        for k in _center_schedule(s, m, eps / 3.0, n_max):
            d_set = a_epsilon_set(s, m, Index(k), eps / 3.0, n_max)
            if membership(ideal, d_set).decision is not IN:
                continue
            if d_set.tail.kind is not TailKind.FINITE:
                continue
            pts_off = pts[~d_set.mask]
            lo, hi = _off_window_interval(s, pts_off, n_max)
            if _pair_status_over_interval(m, lo, hi, eps, not s.injective) == NONE:
                return VerdictBundle(
                    Question.ICAUCHY_PAIR, eps,
                    Verdict(IN, "off-D pairwise distances certified < eps"),
                    witness_set=d_set, witness_index=k,
                    trace=f"D = E_k(eps/3) with k={k}",
                )

    if gp is not None and isinstance(model, BlockTail):
        if ideal.kind is IdealKind.BLOCK and gp.kind is GapKind.LINEAR:
            # Cut rule: smallest J with envelope(J) < eps / (2 * scale);
            # off the first J blocks every pair norm stays below eps.
            j_cut = _least_below(model.envelope, eps / (2.0 * gp.scale),
                                 10 ** 9)
            lo, hi = model.value_interval(j_cut)
            if _pair_status_over_interval(m, lo, hi, eps, True) == NONE:
                d_set = block_union(range(1, j_cut + 1), n_max)
                return VerdictBundle(
                    Question.ICAUCHY_PAIR, eps,
                    Verdict(IN, "off-D blocks have pairwise distances < eps"),
                    witness_set=d_set, cut_index=j_cut,
                    trace=f"D = union of blocks 1..{j_cut}",
                )
        # Defeating pair certificates.
        jprobe = max(max_block_index(n_max), 64)
        vals = [model.value(j) for j in range(1, jprobe + 1)]
        if ideal.kind is IdealKind.FIN:
            # Finite D cannot remove any block; every distinct-block pair
            # recurs beyond it.
            for i in range(len(vals)):
                for j in range(i + 1, len(vals)):
                    if gp.offends(abs(vals[i] - vals[j]), eps):
                        return VerdictBundle(
                            Question.ICAUCHY_PAIR, eps,
                            Verdict(NOT_IN,
                                    f"blocks {i + 1},{j + 1} recur off every "
                                    f"finite D with distance >= eps"),
                        )
        if ideal.kind is IdealKind.BLOCK and gp.kind in (
            GapKind.DISCRETE, GapKind.RECIPROCAL
        ):
            # Off any block-ideal D infinitely many whole blocks remain;
            # their distinct values defeat discrete/reciprocal bounds.
            floor = gp.scale if gp.kind is GapKind.DISCRETE else None
            if gp.kind is GapKind.RECIPROCAL:
                diam = s.point_bounds[1] - s.point_bounds[0]
                floor = math.inf if diam == 0 else gp.scale / diam
            if floor is not None and floor >= eps:
                return VerdictBundle(
                    Question.ICAUCHY_PAIR, eps,
                    Verdict(NOT_IN, "distinct block values keep distance >= eps "
                                    "off every D in the ideal"),
                )

    if gp is not None and isinstance(model, RecurringTail):
        pair_norms = [
            gp.norm_of_gap(abs(v - w))
            for i, v in enumerate(model.values)
            for w in model.values[i:]
        ]
        if max(pair_norms) < eps:
            return VerdictBundle(
                Question.ICAUCHY_PAIR, eps,
                Verdict(IN, "all recurring value pairs < eps"),
                witness_set=SetDescription.empty(n_max),
            )
        if ideal.kind is IdealKind.FIN:
            return VerdictBundle(
                Question.ICAUCHY_PAIR, eps,
                Verdict(NOT_IN, "a recurring value pair keeps distance >= eps "
                                "off every finite D"),
            )

    floor = _universal_pair_floor(s, m)
    if floor is not None and s.injective and floor >= eps:
        return VerdictBundle(
            Question.ICAUCHY_PAIR, eps,
            Verdict(NOT_IN, "distance floor over distinct points >= eps; the "
                            "complement of any D in I contains such a pair"),
        )
    return VerdictBundle(
        Question.ICAUCHY_PAIR, eps,
        Verdict(UNKNOWN, "no pair certificate found"),
    )


# ---------------------------------------------------------------------------
# I-Cauchy: E_k form


_STATUS_CODE = {NONE: 0, ALL: 1, MIXED: 2}


def _ek_tail_kind_from_status(code: int) -> TailCertificate:
    if code == 0:
        return TailCertificate.finite()
    if code == 1:
        return TailCertificate.cofinite()
    return TailCertificate.unknown()


def i_cauchy_ek_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """E_k form: the set K = {k : E_k(eps) not in I} must itself be in I."""
    _require_eps(eps)
    gp = m.gap_profile
    model = s.tail_model
    if gp is None or model is None:
        return VerdictBundle(
            Question.ICAUCHY_EK, eps,
            Verdict(UNKNOWN, "no gap profile / tail model"),
        )

    if isinstance(model, BlockTail):
        block_verdicts, far_decision = _block_center_case_split(
            s, m, ideal, eps, n_max
        )
        block_dec = {j: v.decision for j, v in block_verdicts.items()}
        members = block_mask(
            {j for j, dec in block_dec.items() if dec is NOT_IN}, n_max
        )
        if any(dec is UNKNOWN for dec in block_dec.values()) or \
                far_decision.decision is UNKNOWN:
            tail = TailCertificate.unknown()
        elif far_decision.decision is IN:
            tail = TailCertificate.block_bounded(
                [j for j, dec in block_dec.items() if dec is NOT_IN]
            )
        else:
            tail = TailCertificate.block_cobounded(
                [j for j, dec in block_dec.items() if dec is not NOT_IN]
            )
        k_set = SetDescription(members, n_max, tail)
        v = membership(ideal, k_set)
        return VerdictBundle(
            Question.ICAUCHY_EK, eps, v, witness_set=k_set,
            trace=f"K tail={tail.kind.value}",
        )

    if isinstance(model, ConvergentTail):
        pts = s.points(n_max)
        lo, hi = model.interval(n_max)
        glo = np.empty(n_max)
        ghi = np.empty(n_max)
        inside = (pts >= lo) & (pts <= hi)
        below = pts < lo
        glo[inside] = 0.0
        glo[below] = lo - pts[below]
        above = ~inside & ~below
        glo[above] = pts[above] - hi
        ghi = np.maximum(np.abs(pts - lo), np.abs(pts - hi))
        if s.injective:
            zero = np.zeros(n_max, dtype=bool)
        else:
            values, where = np.unique(pts, return_inverse=True)
            zero = np.array(
                [s.tail_hits(float(p), n_max) for p in values], dtype=bool
            )[where]
        codes = _interval_status_vec(gp, glo, ghi, eps, zero)
        counts = np.bincount(codes, minlength=3)
        code_dec = {
            code: _decision_from_tail(ideal, tail).decision
            for code, tail in ((0, TailCertificate.finite()),
                               (1, TailCertificate.cofinite()),
                               (2, TailCertificate.unknown()))
            if counts[code]
        }
        members = frozen_mask(np.isin(
            codes, [code for code, dec in code_dec.items() if dec is NOT_IN]
        ))
        unknown_count = int(sum(
            counts[code] for code, dec in code_dec.items() if dec is UNKNOWN
        ))
        # Tail of K: centers beyond the window also sit in [lo, hi].
        far_status = _pair_status_over_interval(m, lo, hi, eps, not s.injective)
        far_dec = membership(
            ideal,
            SetDescription((), 1, _ek_tail_kind_from_status(
                _STATUS_CODE[far_status]))
        ).decision
        if far_dec is IN:
            tail = TailCertificate.finite()
        elif far_dec is NOT_IN:
            tail = TailCertificate.cofinite()
        else:
            tail = TailCertificate.unknown()
        k_set = SetDescription(members, n_max, tail)
        v = membership(ideal, k_set)
        trace = f"K tail={tail.kind.value}"
        if unknown_count:
            trace += (f"; {unknown_count} window centers undecided "
                      f"(cannot affect the tail-certified verdict)")
        return VerdictBundle(
            Question.ICAUCHY_EK, eps, v, witness_set=k_set, trace=trace,
        )

    # RecurringTail
    pts = s.points(n_max)
    value_dec = {}
    for v0 in model.values:
        tail = _a_eps_tail(s, m, v0, eps, n_max)
        value_dec[v0] = _decision_from_tail(ideal, tail).decision
    members = frozen_mask(np.isin(
        pts, [v0 for v0, dec in value_dec.items() if dec is NOT_IN]
    ))
    decs = set(value_dec.values())
    if decs == {NOT_IN}:
        tail = TailCertificate.cofinite()
    elif decs == {IN}:
        tail = TailCertificate.finite()
    elif UNKNOWN in decs:
        tail = TailCertificate.unknown()
    else:
        tail = TailCertificate.infinite()
    k_set = SetDescription(members, n_max, tail)
    v = membership(ideal, k_set)
    return VerdictBundle(
        Question.ICAUCHY_EK, eps, v, witness_set=k_set,
        trace=f"K tail={tail.kind.value}",
    )


def _interval_status_vec(gp, glo, ghi, eps, zero) -> np.ndarray:
    """Vectorized GapProfile.interval_status; returns codes 0=none, 1=all,
    2=mixed."""
    out = np.full(glo.shape, 2, dtype=int)
    if gp.kind is GapKind.LINEAR:
        out[gp.scale * glo >= eps] = 1
        out[gp.scale * ghi < eps] = 0
    elif gp.kind is GapKind.RECIPROCAL:
        cut = gp.scale / eps
        zero_possible = zero & (glo <= 0.0)
        out[(ghi <= cut) & (ghi > 0.0) & ~zero_possible] = 1
        out[(glo > cut) | (ghi == 0.0)] = 0
    else:
        zero_possible = zero & (glo <= 0.0)
        if gp.scale < eps:
            out[:] = 0
        else:
            out[~zero_possible] = 1
            out[ghi == 0.0] = 0
    return out


# ---------------------------------------------------------------------------
# Criteria cross-check


def cauchy_criteria_cross_check(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps_list: Sequence[float],
    n_max: int,
) -> dict:
    """Run the three equivalent I-Cauchy criteria; flag any {In, NotIn}
    conflict (Unknown is compatible with anything)."""
    cells = []
    conflicts = []
    for eps in eps_list:
        bundles = {
            "definition": i_cauchy_def_verdict(s, m, ideal, eps, n_max),
            "pair": i_cauchy_pair_verdict(s, m, ideal, eps, n_max),
            "ek": i_cauchy_ek_verdict(s, m, ideal, eps, n_max),
        }
        decisions = {name: b.decision for name, b in bundles.items()}
        cell = {
            "epsilon": eps,
            "decisions": {k: d.value for k, d in decisions.items()},
        }
        if IN in decisions.values() and NOT_IN in decisions.values():
            conflicts.append(cell)
        cells.append(cell)
    return {
        "scenario": s.name,
        "metric": m.name,
        "ideal": ideal.name,
        "cells": cells,
        "conflicts": conflicts,
        "consistent": not conflicts,
    }


# ---------------------------------------------------------------------------
# I*-Cauchy and I*-convergence


def _active_blocks_of_witness(witness: SetDescription) -> Optional[frozenset]:
    """Blocks fully retained by the witness (up to finite error), or None."""
    if witness.tail.kind is TailKind.COFINITE:
        return frozenset()
    if witness.tail.kind is TailKind.BLOCK_COBOUNDED:
        return witness.tail.blocks
    return None


def i_star_cauchy_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    witness_m: SetDescription,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """Is the subsequence indexed by the witness Cauchy at level eps, with
    the witness certified to belong to the dual filter?"""
    _require_eps(eps)
    fm = filter_membership(ideal, witness_m)
    if fm.decision is NOT_IN:
        return VerdictBundle(
            Question.ISTAR_CAUCHY, eps,
            Verdict(NOT_IN, "witness set is not in the dual filter"),
            witness_set=witness_m,
        )
    if fm.decision is UNKNOWN:
        return VerdictBundle(
            Question.ISTAR_CAUCHY, eps,
            Verdict(UNKNOWN, "witness filter membership undecided"),
            witness_set=witness_m,
        )
    gp = m.gap_profile
    model = s.tail_model
    if gp is None or model is None:
        return VerdictBundle(
            Question.ISTAR_CAUCHY, eps,
            Verdict(UNKNOWN, "no gap profile / tail model"),
            witness_set=witness_m,
        )

    if isinstance(model, ConvergentTail):
        cut = 1
        while cut <= 2 ** 48:
            lo, hi = model.interval(cut)
            status = _pair_status_over_interval(m, lo, hi, eps, not s.injective)
            if status == NONE:
                return VerdictBundle(
                    Question.ISTAR_CAUCHY, eps,
                    Verdict(IN, "subsequence pairs beyond the cut < eps"),
                    witness_set=witness_m, cut_index=cut,
                )
            if status == ALL:
                # Pairs beyond every cut keep distance >= eps; the witness
                # is infinite because it lies in the dual filter.
                return VerdictBundle(
                    Question.ISTAR_CAUCHY, eps,
                    Verdict(NOT_IN, "all far pairs keep distance >= eps"),
                    witness_set=witness_m,
                )
            cut *= 2
        return VerdictBundle(
            Question.ISTAR_CAUCHY, eps,
            Verdict(UNKNOWN, "no pair cut certified"),
            witness_set=witness_m,
        )

    if isinstance(model, BlockTail):
        excluded = _active_blocks_of_witness(witness_m)
        if excluded is None:
            return VerdictBundle(
                Question.ISTAR_CAUCHY, eps,
                Verdict(UNKNOWN, "witness block structure unknown"),
                witness_set=witness_m,
            )
        jprobe = max(max_block_index(n_max), 64)
        active = [j for j in range(1, jprobe + 1) if j not in excluded]
        # A defeating pair of active blocks recurs beyond every cut.
        for ai in range(len(active)):
            for aj in range(ai + 1, len(active)):
                i_blk, j_blk = active[ai], active[aj]
                gap = abs(model.value(i_blk) - model.value(j_blk))
                if gp.offends(gap, eps):
                    return VerdictBundle(
                        Question.ISTAR_CAUCHY, eps,
                        Verdict(NOT_IN,
                                f"blocks {i_blk},{j_blk} stay in the witness "
                                f"with distance {gp.norm_of_gap(gap)!r} >= eps"),
                        witness_set=witness_m,
                        trace=f"defeating gap norm {gp.norm_of_gap(gap)!r}",
                    )
        if active:
            j_min = active[0]
            lo, hi = model.value_interval(j_min - 1)
            status = _pair_status_over_interval(m, lo, hi, eps, True)
            if status == NONE:
                return VerdictBundle(
                    Question.ISTAR_CAUCHY, eps,
                    Verdict(IN, "all active-block pairs certified < eps"),
                    witness_set=witness_m, cut_index=j_min,
                )
        return VerdictBundle(
            Question.ISTAR_CAUCHY, eps,
            Verdict(UNKNOWN, "active block pairs inconclusive"),
            witness_set=witness_m,
        )

    # RecurringTail
    if witness_m.tail.kind is TailKind.COFINITE:
        worst = max(
            gp.norm_of_gap(abs(v - w))
            for v in model.values for w in model.values
        )
        if worst < eps:
            return VerdictBundle(
                Question.ISTAR_CAUCHY, eps,
                Verdict(IN, "recurring value pairs all < eps"),
                witness_set=witness_m, cut_index=1,
            )
        return VerdictBundle(
            Question.ISTAR_CAUCHY, eps,
            Verdict(NOT_IN, "a recurring value pair keeps distance >= eps"),
            witness_set=witness_m,
        )
    return VerdictBundle(
        Question.ISTAR_CAUCHY, eps,
        Verdict(UNKNOWN, "witness does not certify which values recur"),
        witness_set=witness_m,
    )


def i_star_convergence_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    limit: float,
    witness_m: SetDescription,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """Subsequence indexed by the witness converges to the limit at level
    eps, witness certified in the dual filter."""
    _require_eps(eps)
    fm = filter_membership(ideal, witness_m)
    if fm.decision is not IN:
        dec = NOT_IN if fm.decision is NOT_IN else UNKNOWN
        return VerdictBundle(
            Question.ISTAR_CONV, eps,
            Verdict(dec, "witness filter membership: " + fm.certificate),
            witness_set=witness_m,
        )
    gp = m.gap_profile
    model = s.tail_model
    if gp is None or model is None:
        return VerdictBundle(
            Question.ISTAR_CONV, eps, Verdict(UNKNOWN, "no tail analytics"),
            witness_set=witness_m,
        )
    if isinstance(model, ConvergentTail):
        cut = 1
        while cut <= 2 ** 48:
            lo, hi = model.interval(cut)
            glo, ghi = _gap_interval(limit, lo, hi)
            status = gp.interval_status(
                glo, ghi, eps, zero_attainable=s.tail_hits(limit, cut)
            )
            if status == NONE:
                return VerdictBundle(
                    Question.ISTAR_CONV, eps,
                    Verdict(IN, "tail distances to the limit < eps"),
                    witness_set=witness_m, cut_index=cut,
                )
            if status == ALL:
                return VerdictBundle(
                    Question.ISTAR_CONV, eps,
                    Verdict(NOT_IN, "tail distances to the limit >= eps"),
                    witness_set=witness_m,
                )
            cut *= 2
        return VerdictBundle(
            Question.ISTAR_CONV, eps, Verdict(UNKNOWN, "no cut certified"),
            witness_set=witness_m,
        )
    if isinstance(model, BlockTail):
        excluded = _active_blocks_of_witness(witness_m)
        if excluded is None:
            return VerdictBundle(
                Question.ISTAR_CONV, eps,
                Verdict(UNKNOWN, "witness block structure unknown"),
                witness_set=witness_m,
            )
        jprobe = max(max_block_index(n_max), 64)
        active = [j for j in range(1, jprobe + 1) if j not in excluded]
        for j in active:
            if gp.offends(abs(model.value(j) - limit), eps):
                return VerdictBundle(
                    Question.ISTAR_CONV, eps,
                    Verdict(NOT_IN, f"active block {j} keeps distance >= eps "
                                    f"from the limit"),
                    witness_set=witness_m,
                )
        lo, hi = model.value_interval(jprobe)
        glo, ghi = _gap_interval(limit, lo, hi)
        if gp.interval_status(glo, ghi, eps, zero_attainable=True) == NONE:
            return VerdictBundle(
                Question.ISTAR_CONV, eps,
                Verdict(IN, "all active blocks within eps of the limit"),
                witness_set=witness_m, cut_index=active[0] if active else 1,
            )
        return VerdictBundle(
            Question.ISTAR_CONV, eps, Verdict(UNKNOWN, "far blocks undecided"),
            witness_set=witness_m,
        )
    # RecurringTail
    if witness_m.tail.kind is TailKind.COFINITE:
        offending = [
            v for v in model.values if gp.offends(abs(v - limit), eps)
        ]
        if not offending:
            return VerdictBundle(
                Question.ISTAR_CONV, eps,
                Verdict(IN, "all recurring values within eps of the limit"),
                witness_set=witness_m, cut_index=1,
            )
        return VerdictBundle(
            Question.ISTAR_CONV, eps,
            Verdict(NOT_IN, f"recurring value {offending[0]} stays >= eps "
                            f"from the limit"),
            witness_set=witness_m,
        )
    return VerdictBundle(
        Question.ISTAR_CONV, eps,
        Verdict(UNKNOWN, "witness does not certify which values recur"),
        witness_set=witness_m,
    )


# ---------------------------------------------------------------------------
# AP-based witness construction (I-Cauchy to I*-Cauchy bridge)


def istar_witness_from_ap(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    n_max: int,
    probe_count: int = 10,
) -> SetDescription:
    """Build the I*-Cauchy witness P from the AP lemma: for each k the set
    B_k = {n : ||d(x_n, x_{m_k})|| < 1/k} lies in the dual filter; P comes
    out of the lemma with every P \\ B_k finite."""
    if not ideal.has_ap():
        raise UnsupportedOperationError(
            f"ideal {ideal.name!r} lacks property (AP); no witness construction"
        )
    b_sets = []
    from .ideals import ap_lemma_witness  # local import to avoid cycle noise

    for k in range(1, probe_count + 1):
        eps = 1.0 / k
        bundle = i_cauchy_def_verdict(s, m, ideal, eps, n_max)
        if bundle.decision is not IN:
            raise PreconditionError(
                f"sequence is not certified I-Cauchy at eps=1/{k}; "
                f"got {bundle.decision.value}"
            )
        b_sets.append(bundle.witness_set.complement())
    return ap_lemma_witness(ideal, b_sets)


# ---------------------------------------------------------------------------
# Audits


def counterexample_audit(
    l_max: int,
    n_max: int,
    metric: CstarMetric,
    scenario: Optional[SequenceScenario] = None,
) -> dict:
    """Reproduce the block-partition counterexample: the block-harmonic
    sequence is I-Cauchy for the block ideal yet defeats every I*-witness.

    For each prefix length l the two blocks l+1 and l+2 survive inside any
    candidate witness, and their fixed distance exceeds the challenge value
    eps0 = scale / (3 (l+1)(l+2)) no matter how late the cut is placed.
    """
    from .sequences import make_block_harmonic

    if n_max < 2 ** (l_max + 2):
        raise DomainError(f"window {n_max} too small for l_max={l_max}")
    s = scenario or make_block_harmonic()
    gp = metric.gap_profile
    if gp is None or gp.kind is not GapKind.LINEAR:
        raise PreconditionError("counterexample audit needs a linear metric")
    scale = gp.scale
    ideal = IdealDescriptor.block()
    entries = []
    ok = True
    cuts = []
    k = 1
    while k <= n_max // 2:
        cuts.append(k)
        k *= 4

    for l in range(1, l_max + 1):
        expected_gap = scale / ((l + 1) * (l + 2))
        eps0 = scale / (3.0 * (l + 1) * (l + 2))
        witness = block_union(range(1, l + 1), n_max).complement()
        pair_entries = []
        for cut in cuts:
            m_idx = _first_block_member_at_least(l + 1, cut)
            n_idx = _first_block_member_at_least(l + 2, cut)
            gap = distance_norm(
                metric, s.generator(m_idx), s.generator(n_idx)
            )
            gap_ok = abs(gap - expected_gap) <= 1e-12 * expected_gap
            exceeds = gap > eps0
            ok = ok and gap_ok and exceeds
            pair_entries.append({
                "cut": cut, "m": m_idx, "n": n_idx, "gap": gap,
                "gap_matches_formula": gap_ok, "exceeds_eps0": exceeds,
            })
        istar = i_star_cauchy_verdict(s, metric, ideal, witness, eps0, n_max)
        pair = i_cauchy_pair_verdict(s, metric, ideal, eps0, n_max)
        ok = ok and istar.decision is NOT_IN and pair.decision is IN
        entries.append({
            "l": l,
            "expected_gap": expected_gap,
            "eps0": eps0,
            "pairs": pair_entries,
            "i_star_verdict": istar.verdict.to_json(),
            "i_cauchy_pair_verdict": pair.verdict.to_json(),
        })

    witness_unsupported = False
    try:
        istar_witness_from_ap(s, metric, ideal, n_max)
    except UnsupportedOperationError:
        witness_unsupported = True
    ok = ok and witness_unsupported
    return {
        "l_max": l_max,
        "window": n_max,
        "entries": entries,
        "ap_witness_unsupported": witness_unsupported,
        "reproduced": ok,
        "conclusion": "I-Cauchy but not I*-Cauchy" if ok else "NOT reproduced",
    }


def _first_block_member_at_least(j: int, k: int) -> int:
    start = 1 << (j - 1)
    step = 1 << j
    if k <= start:
        return start
    return start + step * math.ceil((k - start) / step)


def implication_audit(
    scenarios: Sequence[SequenceScenario],
    ideals: Sequence[IdealDescriptor],
    metric_list: Sequence[CstarMetric],
    eps_list: Sequence[float],
    n_max: int,
) -> dict:
    """Grid audit of the one-way implications and the proof inclusion
    B(2 eps) within A(eps)."""
    rows = []
    violations = []
    for s in scenarios:
        for ideal in ideals:
            for m in metric_list:
                for eps in eps_list:
                    row = _implication_row(s, ideal, m, eps, n_max)
                    rows.append(row)
                    violations.extend(row["violations"])
    return {
        "rows": rows,
        "violations": violations,
        "consistent": not violations,
    }


def _implication_row(s, ideal, m, eps, n_max) -> dict:
    label = f"{s.name}/{ideal.name}/{m.name}/eps={eps:g}"
    violations = []
    ic_def = i_cauchy_def_verdict(s, m, ideal, eps, n_max)
    ic_pair = i_cauchy_pair_verdict(s, m, ideal, eps, n_max)
    ic_ek = i_cauchy_ek_verdict(s, m, ideal, eps, n_max)
    decisions = [ic_def.decision, ic_pair.decision, ic_ek.decision]
    if IN in decisions and NOT_IN in decisions:
        violations.append(f"{label}: I-Cauchy criteria conflict")
    icauchy_not_notin = NOT_IN not in decisions

    iconv = None
    inclusion_ok = None
    if s.nominal_limit is not None:
        iconv = i_convergence_verdict(s, m, s.nominal_limit, ideal, eps, n_max)
        if iconv.decision is IN:
            if not icauchy_not_notin:
                violations.append(f"{label}: IConv=In but ICauchy=NotIn")
            inclusion_ok = _proof_inclusion_holds(s, m, iconv.witness_set,
                                                  eps, n_max)
            if not inclusion_ok:
                violations.append(f"{label}: B(2eps) not within A(eps)")

    istar_witnesses = [SetDescription.full(n_max)]
    if isinstance(s.tail_model, BlockTail) and ideal.kind is IdealKind.BLOCK:
        for l in (1, 2, 3):
            istar_witnesses.append(
                block_union(range(1, l + 1), n_max).complement()
            )
    istar_results = []
    for w in istar_witnesses:
        b = i_star_cauchy_verdict(s, m, ideal, w, eps, n_max)
        istar_results.append(b)
        if b.decision is IN and not icauchy_not_notin:
            violations.append(f"{label}: IStarCauchy=In but ICauchy=NotIn")
    istar_conv = None
    if s.nominal_limit is not None:
        istar_conv = i_star_convergence_verdict(
            s, m, ideal, s.nominal_limit, SetDescription.full(n_max),
            eps, n_max,
        )
        if istar_conv.decision is IN and not icauchy_not_notin:
            violations.append(f"{label}: IStarConv=In but ICauchy=NotIn")

    return {
        "label": label,
        "i_cauchy": {
            "definition": ic_def.decision.value,
            "pair": ic_pair.decision.value,
            "ek": ic_ek.decision.value,
        },
        "i_convergence": iconv.decision.value if iconv else None,
        "proof_inclusion_b2eps_in_aeps": inclusion_ok,
        "i_star_cauchy": [b.decision.value for b in istar_results],
        "i_star_convergence": istar_conv.decision.value if istar_conv else None,
        "violations": violations,
    }


def _proof_inclusion_holds(s, m, a_set: SetDescription, eps, n_max) -> bool:
    """The inclusion used in the convergence-implies-Cauchy proof:
    B(2 eps) about the first center off A(eps) sits inside A(eps)."""
    off = np.flatnonzero(~a_set.mask)
    if not off.size:
        return True
    n0 = int(off[0]) + 1
    b_set = a_epsilon_set(s, m, Index(n0), 2.0 * eps, n_max)
    return not np.any(b_set.mask & ~a_set.mask)
