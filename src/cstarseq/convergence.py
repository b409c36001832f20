"""Verdict engines for ideal convergence and the Cauchy criteria.

All decisions are certificate-backed: the offending-index set
``A(eps) = {n : ||d(x_n, c)|| >= eps}`` is enumerated exactly on the window
``[1..N]`` and equipped with a tail certificate derived from the scenario's
analytic tail model and the metric's gap profile.  Ideal membership of the
certified set then gives the verdict; Unknown is returned whenever no
certificate applies.

The engines cover I-convergence, the three equivalent I-Cauchy criteria
(definition, pair form, E_k form), I*-Cauchy / I*-convergence against an
explicit filter witness, the I*-witness that property (AP) gives Fin and
density zero, and the block-partition counterexample and implication
audits.  Each engine is one body over the tail-model protocol of
``sequences``: it never asks which model a scenario carries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import reduce
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
    _union_tail,
    block_union,
    filter_membership,
    frozen_mask,
    membership,
)
from .metrics import CstarMetric, GapKind, distance_norm
from .sequences import SequenceScenario, make_block_harmonic


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


def _require_eps(eps: float):
    if not (eps > 0.0):
        raise DomainError("eps must be positive")


def _resolve_center(s: SequenceScenario, center: Center) -> float:
    if isinstance(center, Point):
        return float(center.x)
    if center.n < 1:
        raise DomainError("center index must be >= 1")
    return float(s.generator(center.n))


# ---------------------------------------------------------------------------
# A(eps) sets


def a_epsilon_set(
    s: SequenceScenario,
    m: CstarMetric,
    center: Center,
    eps: float,
    n_max: int,
) -> SetDescription:
    """A(eps) = {n : ||d(x_n, c)|| >= eps}: exact window, certified tail.

    The window is built only when it is read; the tail, which every verdict
    reads, is certified at once."""
    _require_eps(eps)
    c = _resolve_center(s, center)
    gp = m.gap_profile
    tail = s.tail_model.offence_tail(s, gp, c, eps, n_max)
    return SetDescription(lambda: frozen_mask(s.offenders(gp, c, eps, n_max)),
                          n_max, tail)


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


def _floor_defeats(s: SequenceScenario, m: CstarMetric, eps: float) -> bool:
    """Do distinct points keep distance >= eps while the sequence, being
    injective, has infinitely many distinct points off any D in I?"""
    floor = s.pair_floor(m.gap_profile) if s.injective else None
    return floor is not None and floor >= eps


def i_cauchy_def_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """Definition form: some center n0 puts A(eps) into the ideal."""
    _require_eps(eps)
    split = s.center_classes(m.gap_profile, eps, n_max)
    verdicts = s.class_verdicts(m.gap_profile, ideal, eps, n_max)
    for cls, v in zip(split.classes, verdicts):
        if v.decision is IN and cls.index is not None:
            a_set = a_epsilon_set(s, m, Index(cls.index), eps, n_max)
            return VerdictBundle(
                Question.ICAUCHY_DEF, eps, Verdict(IN, v.certificate),
                witness_set=a_set, witness_index=cls.index,
                trace=f"center n0={cls.index}; A(eps) "
                      f"tail={a_set.tail.kind.value}",
            )
    if split.exhaustive and all(v.decision is NOT_IN for v in verdicts):
        return VerdictBundle(
            Question.ICAUCHY_DEF, eps, Verdict(NOT_IN, split.notin),
            trace="A(eps) not in ideal for every class of centers",
        )
    if _floor_defeats(s, m, eps):
        return VerdictBundle(
            Question.ICAUCHY_DEF, eps,
            Verdict(
                NOT_IN,
                "distance floor over distinct points >= eps: A(eps) is "
                "cofinite for every center",
            ),
        )
    return VerdictBundle(Question.ICAUCHY_DEF, eps,
                         Verdict(UNKNOWN, split.unknown))


# ---------------------------------------------------------------------------
# I-Cauchy: pair form


def i_cauchy_pair_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """Pair form: exists D in I with ||d(x_m, x_n)|| < eps off D."""
    _require_eps(eps)
    found = s.tail_model.pair_verdict(s, m.gap_profile, ideal, eps, n_max)
    if found is not None:
        return VerdictBundle(Question.ICAUCHY_PAIR, eps, **found)
    if _floor_defeats(s, m, eps):
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


def i_cauchy_ek_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    eps: float,
    n_max: int,
) -> VerdictBundle:
    """E_k form: the set K = {k : E_k(eps) not in I} must itself be in I."""
    _require_eps(eps)
    split = s.center_classes(m.gap_profile, eps, n_max)
    decisions = [v.decision for v in
                 s.class_verdicts(m.gap_profile, ideal, eps, n_max)]
    failing = [c for c, d in zip(split.classes, decisions) if d is NOT_IN]
    undecided = [c for c, d in zip(split.classes, decisions) if d is UNKNOWN]
    # K is the union of the failing classes, all of N when every class
    # fails.  An undecided class leaves the tail of K open unless its
    # members all lie in the window.
    if len(failing) == len(decisions):
        tail = TailCertificate.cofinite()
    elif any(c.beyond.kind is not TailKind.FINITE for c in undecided):
        tail = TailCertificate.unknown()
    else:
        tail = reduce(_union_tail, (c.beyond for c in failing),
                      TailCertificate.finite())
    keys = [c.key for c in failing if c.key is not None]
    k_set = SetDescription(lambda: split.members(keys), n_max, tail)
    v = membership(ideal, k_set)
    trace = f"K tail={tail.kind.value}"
    in_window = [c.key for c in undecided if c.beyond.kind is TailKind.FINITE]
    if in_window:
        count = int(np.count_nonzero(split.members(in_window)))
        trace += (f"; {count} window centers undecided "
                  f"(cannot affect the tail-certified verdict)")
    return VerdictBundle(
        Question.ICAUCHY_EK, eps, v, witness_set=k_set, trace=trace,
    )


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


def _i_star_verdict(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    witness_m: SetDescription,
    eps: float,
    n_max: int,
    limit: Optional[float],
) -> VerdictBundle:
    """The subsequence indexed by the witness stays within eps of itself
    (I*-Cauchy, no limit) or of the limit (I*-convergence), the witness
    being certified in the dual filter."""
    _require_eps(eps)
    pairs = limit is None
    fm = filter_membership(ideal, witness_m)
    if fm.decision is not IN:
        if not pairs:
            text = "witness filter membership: " + fm.certificate
        elif fm.decision is NOT_IN:
            text = "witness set is not in the dual filter"
        else:
            text = "witness filter membership undecided"
        found = dict(verdict=Verdict(fm.decision, text))
    else:
        found = s.tail_model.istar(s, m.gap_profile, witness_m, eps, n_max,
                                   limit)
    question = Question.ISTAR_CAUCHY if pairs else Question.ISTAR_CONV
    return VerdictBundle(question, eps, witness_set=witness_m, **found)


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
    return _i_star_verdict(s, m, ideal, witness_m, eps, n_max, None)


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
    return _i_star_verdict(s, m, ideal, witness_m, eps, n_max, limit)


# ---------------------------------------------------------------------------
# I*-witness under property (AP) (I-Cauchy to I*-Cauchy bridge)

# The (AP) witness needs the definition form In at eps = 1/k, k <= AP_PROBES.
AP_PROBES = 10


def istar_witness_from_ap(
    s: SequenceScenario,
    m: CstarMetric,
    ideal: IdealDescriptor,
    n_max: int,
) -> SetDescription:
    """The I*-Cauchy witness P of the (AP) lemma, once the definition form
    certifies the sequence I-Cauchy at eps = 1/k for k <= ``AP_PROBES``.

    For each k the set B_k = {n : ||d(x_n, x_{m_k})|| < 1/k} lies in the
    dual filter, and (AP) gives P in F(I) with every P \\ B_k finite.  Under
    Fin and density zero only a FINITE tail is certified In, so every
    A_k = N \\ B_k is finite, (AP) may replace each A_k by the empty set, and
    P = N."""
    if not ideal.has_ap():
        raise UnsupportedOperationError(
            f"ideal {ideal.name!r} lacks property (AP); no witness construction"
        )
    for k in range(1, AP_PROBES + 1):
        bundle = i_cauchy_def_verdict(s, m, ideal, 1.0 / k, n_max)
        if bundle.decision is not IN:
            raise PreconditionError(
                f"sequence is not certified I-Cauchy at eps=1/{k}; "
                f"got {bundle.decision.value}"
            )
    return SetDescription.full(n_max)


# ---------------------------------------------------------------------------
# Audits


def counterexample_audit(
    l_max: int,
    n_max: int,
    metric: CstarMetric,
) -> dict:
    """Reproduce the block-partition counterexample: the block-harmonic
    sequence is I-Cauchy for the block ideal yet defeats every I*-witness.

    For each prefix length l the two blocks l+1 and l+2 survive inside any
    candidate witness, and their fixed distance exceeds the challenge value
    eps0 = scale / (3 (l+1)(l+2)) no matter how late the cut is placed.
    """
    if n_max < 2 ** (l_max + 2):
        raise DomainError(f"window {n_max} too small for l_max={l_max}")
    s = make_block_harmonic()
    gp = metric.gap_profile
    if gp.kind is not GapKind.LINEAR:
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
    cauchy = cauchy_criteria_cross_check(s, m, ideal, [eps], n_max)
    if not cauchy["consistent"]:
        violations.append(f"{label}: I-Cauchy criteria conflict")
    icauchy = cauchy["cells"][0]["decisions"]
    icauchy_not_notin = NOT_IN.value not in icauchy.values()

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
    if s.tail_model.blockwise and ideal.kind is IdealKind.BLOCK:
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
        "i_cauchy": icauchy,
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
