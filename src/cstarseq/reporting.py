"""Run configuration, deterministic JSON reports and the audit battery.

Reports are byte-stable: keys are emitted sorted, floats are formatted with
the shortest round-trip representation, and wall-clock time is kept out of
the serialized payload (it goes to the human-readable table only).

Exit-code contract for runs:

* 0 -- every requested verdict decided, no violations;
* 1 -- an audit violation or criteria conflict was detected;
* 2 -- invalid configuration;
* 3 -- strict mode and at least one verdict came back Unknown.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from dataclasses import dataclass, fields
from typing import Optional

from .convergence import (
    Question,
    cauchy_criteria_cross_check,
    counterexample_audit,
    i_cauchy_def_verdict,
    i_cauchy_ek_verdict,
    i_cauchy_pair_verdict,
    i_convergence_verdict,
    i_star_cauchy_verdict,
    implication_audit,
    istar_witness_from_ap,
)
from .errors import ConfigError, CstarSeqError
from .ideals import (
    Decision,
    IN,
    NOT_IN,
    SetDescription,
    UNKNOWN,
    IDEALS,
    IdealDescriptor,
    ideal_by_name,
)
from .metrics import METRICS, CstarMetric, metric_by_name, verify_axioms
from .norms import (
    NORMS,
    discrete_metric_homogeneity_witness,
    induce_metric,
    invariance_audit,
    norm_by_name,
    norm_convergence_verdict,
    verify_norm_axioms,
)
from .sequences import SCENARIOS, scenario_by_name

DEFAULT_WINDOW = 4096
WINDOW_ENV_VAR = "CSTAR_SEQ_WINDOW"
MAX_WINDOW = 1 << 20

# The engine of each run question, in report order, called as
# (scenario, metric, ideal, limit, eps, window).  Each entry looks its engine
# up in this module's globals at call time, so a wrapper rebound over the
# module attribute (bench/tracing.py installs such wrappers) sees every call.
_ENGINES = {
    Question.ICONV: lambda s, m, ideal, limit, eps, n: (
        None if limit is None
        else i_convergence_verdict(s, m, limit, ideal, eps, n)),
    Question.ICAUCHY_DEF: lambda s, m, ideal, limit, eps, n: (
        i_cauchy_def_verdict(s, m, ideal, eps, n)),
    Question.ICAUCHY_PAIR: lambda s, m, ideal, limit, eps, n: (
        i_cauchy_pair_verdict(s, m, ideal, eps, n)),
    Question.ICAUCHY_EK: lambda s, m, ideal, limit, eps, n: (
        i_cauchy_ek_verdict(s, m, ideal, eps, n)),
    Question.ISTAR_CAUCHY: lambda s, m, ideal, limit, eps, n: (
        i_star_cauchy_verdict(s, m, ideal, SetDescription.full(n), eps, n)),
}
_QUESTIONS = tuple(q.value for q in _ENGINES)
# The three equivalent I-Cauchy criteria, compared for conflicts.
_CAUCHY_QUESTIONS = (Question.ICAUCHY_DEF.value, Question.ICAUCHY_PAIR.value,
                     Question.ICAUCHY_EK.value)

# Listed names, read from the registries.
_SCENARIO_NAMES = tuple(name if arg is None else f"{name}:{arg}"
                        for name, (_, arg) in SCENARIOS.items())
_METRIC_NAMES = tuple(METRICS) + tuple(f"induced:{n}" for n in NORMS)
_IDEAL_NAMES = tuple(IDEALS)


def _checked_window(value, source: str = "window") -> int:
    """``value`` if it is an integer index window in [16, MAX_WINDOW]."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or not 16 <= value <= MAX_WINDOW):
        raise ConfigError(
            f"{source} must be an integer in [16, {MAX_WINDOW}], "
            f"got {value!r}", field="window")
    return value


def default_window() -> int:
    raw = os.environ.get(WINDOW_ENV_VAR)
    if raw is None:
        return DEFAULT_WINDOW
    try:
        value = int(raw)
    except ValueError:
        value = raw
    return _checked_window(value, WINDOW_ENV_VAR)


def _as_float(x) -> Optional[float]:
    """float(x) for a real number x, or None for another value or an integer
    beyond the float range."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return None
    try:
        return float(x)
    except OverflowError:
        return None


def _require(ok: bool, name: str, what: str, value) -> None:
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}", field=name)


@dataclass(frozen=True)
class RunConfig:
    """The settings of one run.  The fields are also the keys of a
    ``cstarseq run --config`` file and the destinations of the ``run``
    flags; ``validated`` checks every value, whatever its source."""

    scenario: str = "harmonic"
    metric: str = "diag"
    ideal: str = "fin"
    eps_list: tuple = (0.1, 0.01)
    window: Optional[int] = None
    limit: Optional[float] = None
    questions: tuple = _QUESTIONS
    strict: bool = False

    def validated(self) -> "RunConfig":
        """A copy with the window resolved, eps as floats and the questions
        in report order; ConfigError names the first bad field."""
        return self._resolved()[0]

    def _resolved(self) -> tuple:
        """``validated()`` and the scenario, metric and ideal its names
        select, each built once by its registry."""
        built = []
        for name, build in (("scenario", scenario_by_name),
                            ("metric", build_metric),
                            ("ideal", ideal_by_name)):
            value = getattr(self, name)
            _require(isinstance(value, str), name, "a string", value)
            try:
                built.append(build(value))
            except ValueError as exc:
                raise ConfigError(str(exc), field=name) from exc
        eps = self.eps_list
        floats = ([_as_float(e) for e in eps]
                  if isinstance(eps, (list, tuple)) else [])
        _require(len(floats) > 0
                 and all(e is not None and e > 0 for e in floats),
                 "eps_list", "a nonempty list of positive numbers", eps)
        window = (default_window() if self.window is None
                  else _checked_window(self.window))
        limit = _as_float(self.limit)
        _require(self.limit is None
                 or (limit is not None and not math.isnan(limit)),
                 "limit", "a number or null", self.limit)
        _require(isinstance(self.questions, (list, tuple))
                 and all(q in _QUESTIONS for q in self.questions),
                 "questions", f"a list drawn from {list(_QUESTIONS)}",
                 self.questions)
        _require(isinstance(self.strict, bool), "strict", "true or false",
                 self.strict)
        cfg = RunConfig(
            scenario=self.scenario, metric=self.metric, ideal=self.ideal,
            eps_list=tuple(floats), window=window,
            limit=self.limit,
            questions=tuple(q for q in _QUESTIONS if q in self.questions),
            strict=self.strict,
        )
        return cfg, tuple(built)

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}


def build_metric(name: str, **params) -> CstarMetric:
    """Metric registry including the induced metrics."""
    if name.startswith("induced:"):
        return induce_metric(norm_by_name(name.split(":", 1)[1], **params))
    return metric_by_name(name, **params)


# ---------------------------------------------------------------------------
# Deterministic JSON


def _format_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (float("inf"), float("-inf")):
        return '"Infinity"' if x > 0 else '"-Infinity"'
    if x == int(x) and abs(x) < 1e16:
        return f"{x:.1f}"
    return format(x, ".17g")


def stable_dumps(obj, indent: int = 0) -> str:
    """json.dumps replacement with sorted keys and fixed float formatting,
    so byte-identical inputs give byte-identical documents."""
    pad = " " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        out = out.replace("\n", "\\n").replace("\t", "\\t")
        return f'"{out}"'
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [stable_dumps(v, indent + 2) for v in obj]
        inner = ",\n".join(f"{pad}  {item}" for item in items)
        return f"[\n{inner}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            items.append(
                f'{pad}  "{k}": {stable_dumps(obj[k], indent + 2)}'
            )
        inner = ",\n".join(items)
        return f"{{\n{inner}\n{pad}}}"
    if hasattr(obj, "to_json"):
        return stable_dumps(obj.to_json(), indent)
    raise ConfigError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Runs


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    cells: tuple
    conflicts: tuple
    unknown_count: int
    exit_code: int
    wall_seconds: float  # excluded from the JSON payload on purpose

    def to_json(self):
        return {
            "config": self.config.to_json(),
            "cells": [c for c in self.cells],
            "conflicts": [c for c in self.conflicts],
            "unknown_count": self.unknown_count,
            "exit_code": self.exit_code,
        }

    def table(self) -> str:
        lines = [
            f"scenario={self.config.scenario} metric={self.config.metric} "
            f"ideal={self.config.ideal} window={self.config.window}",
            f"{'question':<22} {'eps':>8} {'decision':<8} certificate",
            "-" * 78,
        ]
        for cell in self.cells:
            lines.append(
                f"{cell['question']:<22} {cell['epsilon']:>8g} "
                f"{cell['decision']:<8} {cell['certificate']}"
            )
        lines.append("-" * 78)
        lines.append(
            f"unknown={self.unknown_count} conflicts={len(self.conflicts)} "
            f"exit={self.exit_code} wall={self.wall_seconds:.3f}s"
        )
        return "\n".join(lines)


def run(config: RunConfig) -> RunReport:
    t0 = time.monotonic()
    cfg, (s, m, ideal) = config._resolved()
    limit = cfg.limit if cfg.limit is not None else s.nominal_limit

    cells = []
    unknown = 0
    conflicts = []
    for eps in cfg.eps_list:
        by_criterion: dict[str, Decision] = {}
        for q in cfg.questions:
            bundle = _ENGINES[Question(q)](s, m, ideal, limit, eps, cfg.window)
            if bundle is None:
                continue
            if bundle.decision is UNKNOWN:
                unknown += 1
            if q in _CAUCHY_QUESTIONS:
                by_criterion[q] = bundle.decision
            cells.append({
                "question": q,
                "epsilon": eps,
                "decision": bundle.decision.value,
                "certificate": bundle.verdict.certificate,
                "witness_index": bundle.witness_index,
                "cut_index": bundle.cut_index,
            })
        if IN in by_criterion.values() and NOT_IN in by_criterion.values():
            conflicts.append({
                "epsilon": eps,
                "decisions": {k: d.value for k, d in by_criterion.items()},
            })

    if conflicts:
        code = 1
    elif cfg.strict and unknown:
        code = 3
    else:
        code = 0
    return RunReport(
        config=cfg,
        cells=tuple(cells),
        conflicts=tuple(conflicts),
        unknown_count=unknown,
        exit_code=code,
        wall_seconds=time.monotonic() - t0,
    )


# ---------------------------------------------------------------------------
# Full audit battery


def _claim(name: str, ok: bool, detail: str = "") -> dict:
    return {"claim": name, "status": "PASS" if ok else "FAIL",
            "detail": detail}


def audit_paper(window: Optional[int] = None) -> dict:
    """Re-derive every audited claim and report one PASS/FAIL line each."""
    t0 = time.monotonic()
    n = (_checked_window(window) if window is not None
         else max(default_window(), 8192))
    claims: list[dict] = []

    fin = IdealDescriptor.fin()
    blk = IdealDescriptor.block()
    d0 = IdealDescriptor.density_zero()
    harmonic = scenario_by_name("harmonic")
    block_seq = scenario_by_name("block-harmonic")

    # -- linear diagonal metric: the harmonic sequence is Cauchy.
    for alpha in (0.5, 2.0):
        m = metric_by_name("diag", alpha=alpha)
        for eps in (0.1, 0.01):
            b = i_cauchy_def_verdict(harmonic, m, fin, eps, n)
            claims.append(_claim(
                f"diag(alpha={alpha:g}) harmonic Fin-Cauchy at eps={eps:g}",
                b.decision is IN,
                f"witness n0={b.witness_index}",
            ))
    m05 = metric_by_name("diag", alpha=0.5)
    b = i_cauchy_def_verdict(harmonic, m05, fin, 0.1, n)
    claims.append(_claim(
        "diag(alpha=0.5) eps=0.1 witness n0=11 with offenders {1..5}",
        b.witness_index == 11 and b.witness_set.window == frozenset(range(1, 6)),
        f"n0={b.witness_index} window={sorted(b.witness_set.window)}",
    ))

    # -- reciprocal metric: the harmonic sequence is not Cauchy.
    mr = metric_by_name("reciprocal")
    for eps in (0.1, 0.5, 1.0):
        b = i_cauchy_def_verdict(harmonic, mr, fin, eps, n)
        claims.append(_claim(
            f"reciprocal metric defeats Fin-Cauchy at eps={eps:g}",
            b.decision is NOT_IN, b.verdict.certificate[:60],
        ))

    # -- criteria equivalence.
    cc = cauchy_criteria_cross_check(harmonic, m05, fin, (1.0, 0.1, 0.01), n)
    claims.append(_claim("three Cauchy criteria agree (harmonic, Fin)",
                         cc["consistent"]))

    # -- block sequence: pair-form witness is the union of blocks 1..21.
    ms = metric_by_name("scaled")
    pb = i_cauchy_pair_verdict(block_seq, ms, blk, 0.2, n)
    claims.append(_claim(
        "block sequence pair witness D = blocks 1..21 at eps=0.2",
        pb.decision is IN and pb.cut_index == 21,
        f"cut={pb.cut_index}",
    ))

    # -- counterexample: I-Cauchy without I*-Cauchy for the block ideal.
    ce = counterexample_audit(10, max(n, 8192), ms)
    claims.append(_claim(
        "block counterexample reproduced for l=1..10",
        ce["reproduced"], ce["conclusion"],
    ))
    claims.append(_claim(
        "AP witness construction refuses the block ideal",
        ce["ap_witness_unsupported"],
    ))

    # -- implications hold over the scenario grid.
    scen = [harmonic, block_seq, scenario_by_name("constant:0"),
            scenario_by_name("alternating")]
    mets = [m05, ms, metric_by_name("discrete")]
    imp = implication_audit(scen, (fin, d0, blk), mets, (0.1, 0.5), n)
    claims.append(_claim(
        "one-way implications and B(2eps) within A(eps) hold on the grid",
        imp["consistent"], f"{len(imp['rows'])} rows",
    ))

    # -- metric axioms.
    pts = (-1.0, -0.25, 0.0, 0.5, 2.0)
    for metric in (m05, ms, metric_by_name("discrete")):
        rep = verify_axioms(metric, pts)
        claims.append(_claim(f"metric axioms hold: {metric.name}",
                             rep.all_pass()))
    # The reciprocal construction is asserted as a metric without proof and
    # 1/|x - y| is not subadditive on the reals; only positivity,
    # definiteness and symmetry are expected to hold, and the sampled
    # triangle status is reported verbatim.
    rep = verify_axioms(mr, pts)
    claims.append(_claim(
        f"metric axioms I-II hold (triangle sample-checked): {mr.name}",
        rep.axiom_i_pass and rep.axiom_ii_pass,
        f"sampled triangle status: "
        f"{'holds' if rep.axiom_iii_pass else 'violated on samples'}",
    ))

    # -- normed structure.
    nd = norm_by_name("scaled-diag")
    na = norm_by_name("real-abs")
    for nrm in (nd, na):
        rep = verify_norm_axioms(nrm, pts)
        claims.append(_claim(f"norm axioms hold: {nrm.name}", rep.all_pass()))
    for nrm in (nd, na):
        dm = induce_metric(nrm)
        rep = verify_axioms(dm, pts)
        inv = invariance_audit(dm, pts)
        claims.append(_claim(
            f"induced metric is a translation-invariant homogeneous metric: "
            f"{dm.name}",
            rep.all_pass() and inv.translation_pass and inv.homogeneity_pass,
        ))
    wd = discrete_metric_homogeneity_witness()
    claims.append(_claim(
        "discrete metric is not induced by any norm (homogeneity fails)",
        wd["fails_homogeneity"],
        f"D(2,0) norm {wd['lhs_norm']:g} vs 2 D(1,0) norm {wd['rhs_norm']:g}",
    ))
    nc = norm_convergence_verdict(harmonic, nd, 0.0, 0.01, n)
    claims.append(_claim(
        "harmonic norm convergence witness n0=201 at eps=0.01",
        nc.decision is IN and nc.witness_index == 201,
        f"n0={nc.witness_index}",
    ))

    # -- AP witness route for Fin.
    try:
        w = istar_witness_from_ap(harmonic, m05, fin, n)
        b = i_star_cauchy_verdict(harmonic, m05, fin, w, 0.1, n)
        ap_ok = b.decision is IN
    except CstarSeqError:
        ap_ok = False
    claims.append(_claim("AP route yields an I*-Cauchy witness for Fin",
                         ap_ok))

    failed = [c for c in claims if c["status"] == "FAIL"]
    return {
        "window": n,
        "claims": claims,
        "failed": len(failed),
        "total": len(claims),
        "all_pass": not failed,
        "wall_seconds": time.monotonic() - t0,  # stripped before serializing
    }


def audit_lines(report: dict) -> str:
    lines = []
    for c in report["claims"]:
        detail = f"  ({c['detail']})" if c["detail"] else ""
        lines.append(f"[{c['status']}] {c['claim']}{detail}")
    lines.append(
        f"{report['total'] - report['failed']}/{report['total']} claims pass"
    )
    return "\n".join(lines)


def audit_json(report: dict) -> str:
    payload = {k: v for k, v in report.items() if k != "wall_seconds"}
    return stable_dumps(payload)


def list_scenarios() -> dict:
    return {
        "scenarios": list(_SCENARIO_NAMES),
        "metrics": list(_METRIC_NAMES),
        "ideals": list(_IDEAL_NAMES),
        "questions": list(_QUESTIONS),
    }
