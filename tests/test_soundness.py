"""Soundness oracle: tail certificates checked past the window they came from.

Every A(eps) tail certificate derived on the window [1..N] describes the
offenders beyond N.  Here it is checked against an exact offender
enumeration on [N+1..8N], for every registered scenario and metric, eps from
1 down to 1e-3 and centers at several indices and points.  The oracle's
points and distance norms are closed forms written in this file, not the
library's gap profiles.
"""

import itertools

import numpy as np
import pytest

from cstarseq.convergence import Index, Point, a_epsilon_set
from cstarseq.ideals import TailKind
from cstarseq.reporting import _METRIC_NAMES, _SCENARIO_NAMES, build_metric
from cstarseq.sequences import scenario_by_name

N = 256
FAR = np.arange(N + 1, 8 * N + 1)
EPS = (1.0, 0.5, 0.25, 0.2, 0.1, 0.05, 0.01, 1e-3)
# Point(1 / 300) is the harmonic term x_300, beyond the window, so the
# separation to it is zero somewhere in the tail.
CENTERS = tuple(Index(k) for k in (1, 2, 3, 4, 7, 64, N)) + (
    Point(0.0), Point(0.3), Point(1 / 300))


def oracle_block(n: np.ndarray) -> np.ndarray:
    """j with n in Delta_j: the trailing binary zeros of n, plus one."""
    return np.array([(int(k) & -int(k)).bit_length() for k in n])


def oracle_points(scenario: str, n: np.ndarray) -> np.ndarray:
    if scenario == "harmonic":
        return 1.0 / n
    if scenario == "block-harmonic":
        return 1.0 / oracle_block(n)
    if scenario == "alternating":
        return np.where(n % 2 == 1, -1.0, 1.0)
    assert scenario == "constant:0"
    return np.zeros(len(n))


def oracle_norms(metric: str, gaps: np.ndarray) -> np.ndarray:
    """||d(x, c)|| from the separation |x - c|.  The scaled and reciprocal
    metrics use f = 2 on the grid, so ||f|| = 2; scaled-diag has weights
    (1, 2), so its induced norm is 2 |t|."""
    if metric in ("diag", "induced:real-abs"):
        return gaps * 1.0
    if metric in ("scaled", "induced:scaled-diag"):
        return 2.0 * gaps
    if metric == "reciprocal":
        return np.array([2.0 / g if g > 0 else 0.0 for g in gaps])
    assert metric == "discrete"
    return (gaps > 0) * 1.0


def _certificate_holds(tail, offend: np.ndarray) -> bool:
    kind = tail.kind
    if kind is TailKind.FINITE:
        return not offend.any()
    if kind is TailKind.COFINITE:
        return bool(offend.all())
    if kind in (TailKind.BLOCK_BOUNDED, TailKind.BLOCK_COBOUNDED):
        listed = np.isin(oracle_block(FAR), sorted(tail.blocks))
        if kind is TailKind.BLOCK_COBOUNDED:
            listed = ~listed
        return bool(np.array_equal(offend, listed))
    return True  # Unknown promises nothing


@pytest.mark.parametrize(
    "scenario,metric", list(itertools.product(_SCENARIO_NAMES, _METRIC_NAMES))
)
def test_tail_certificates_hold_beyond_the_window(scenario, metric):
    s = scenario_by_name(scenario)
    m = build_metric(metric)
    far = oracle_points(scenario, FAR)
    wrong = []
    for eps, center in itertools.product(EPS, CENTERS):
        if isinstance(center, Index):
            c = float(oracle_points(scenario, np.array([center.n]))[0])
        else:
            c = center.x
        offend = oracle_norms(metric, np.abs(far - c)) >= eps
        tail = a_epsilon_set(s, m, center, eps, N).tail
        if not _certificate_holds(tail, offend):
            wrong.append((eps, center, tail.kind.value))
    assert wrong == []
