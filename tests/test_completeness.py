"""Completeness ratchet over the registered name grid.

Every registered scenario x metric x ideal is run at window 4096 over eps
{0.25, 0.1, 0.01, 1e-3}.  A row is one (scenario, metric, ideal, eps) and
its three equivalent I-Cauchy criteria.  The three criteria must never
conflict (In against NotIn), and the Unknown counts may only go down: a
change that decides more lowers the pins below, and one that decides less
fails here.
"""

import itertools

from cstarseq.reporting import (
    _CAUCHY_QUESTIONS,
    _IDEAL_NAMES,
    _METRIC_NAMES,
    _SCENARIO_NAMES,
    RunConfig,
    run,
)

EPS = (0.25, 0.1, 0.01, 1e-3)

MAX_UNKNOWN_CELLS = 254
MAX_DISAGREEING_ROWS = 54   # one criterion decides, another says Unknown
MAX_ALL_UNKNOWN_ROWS = 48


def test_name_grid_completeness_ratchet():
    unknown = 0
    rows = []
    for s, m, i in itertools.product(_SCENARIO_NAMES, _METRIC_NAMES,
                                     _IDEAL_NAMES):
        cells = run(RunConfig(scenario=s, metric=m, ideal=i, eps_list=EPS,
                              window=4096)).cells
        unknown += sum(c["decision"] == "unknown" for c in cells)
        for eps in EPS:
            rows.append({c["decision"] for c in cells
                         if c["epsilon"] == eps
                         and c["question"] in _CAUCHY_QUESTIONS})
    assert len(rows) == 288
    assert [r for r in rows if {"in", "not_in"} <= r] == []
    assert unknown <= MAX_UNKNOWN_CELLS
    assert sum(len(r) > 1 and "unknown" in r
               for r in rows) <= MAX_DISAGREEING_ROWS
    assert sum(r == {"unknown"} for r in rows) <= MAX_ALL_UNKNOWN_ROWS
