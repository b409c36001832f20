"""Output checks computed apart from the program.

Every check returns a list of problems (empty when the output is right).
None compares with a stored copy of an earlier output: the expected values
come from closed forms, from numpy, or from properties the method must have.
"""

from __future__ import annotations

import json
import re

import numpy as np

from workloads import FINE_EPS

BLOCK_TRUTH = {
    # block-harmonic x_n = 1/j on Delta_j, scaled metric ||d(x, y)|| = 2|x-y|,
    # block ideal: I-convergent to 0, I-Cauchy in all three forms, and not
    # I*-Cauchy for the full witness (blocks 1 and 2 stay at distance 1).
    "i_convergence": "in",
    "i_cauchy_definition": "in",
    "i_cauchy_pair": "in",
    "i_cauchy_ek": "in",
    "i_star_cauchy": "not_in",
}
SCALE = 2.0  # ||f|| for the scaled metric's f = 2 on the grid


# ---------------------------------------------------------------------------
# Closed forms


def block_of(n):
    """j with n in Delta_j: trailing binary zeros of n, plus 1."""
    n = np.asarray(n, dtype=np.int64)
    return np.log2(n & -n).astype(np.int64) + 1


def scenario_points(name: str, n: np.ndarray) -> np.ndarray:
    if name == "harmonic":
        return 1.0 / n
    if name == "block-harmonic":
        return 1.0 / block_of(n)
    if name == "alternating":
        return np.where(n % 2 == 1, -1.0, 1.0)
    if name.startswith("constant:"):
        return np.full(n.shape, float(name.split(":", 1)[1]))
    raise ValueError(f"no closed form for scenario {name!r}")


def metric_norms(name: str, gaps: np.ndarray) -> np.ndarray:
    """||d(x, y)|| as a function of the gap |x - y|, from the metric's
    definition (not from its gap profile)."""
    nums = [float(v) for v in re.findall(r"=([0-9.eE+-]+)", name)]
    if name.startswith("diag("):
        return max(1.0, nums[0]) * gaps
    if name.startswith("scaled("):
        return nums[0] * gaps
    if name.startswith("reciprocal("):
        return np.where(gaps > 0.0, nums[0] / np.where(gaps > 0, gaps, 1.0), 0.0)
    if name == "discrete":
        return np.where(gaps > 0.0, 1.0, 0.0)
    if name.startswith("induced:scaled-diag("):
        return max(nums) * gaps
    if name == "induced:real-abs":
        return 1.0 * gaps
    raise ValueError(f"no closed form for metric {name!r}")


def least_cut(eps: float) -> int:
    """Least J with 1/J < eps/4, compared in doubles as defined."""
    j = max(1, int(4.0 / eps) - 2)
    while not 1.0 / j < eps / 4.0:
        j += 1
    return j


def first_below(slope: float, eps: float, n_max: int) -> int:
    """Least n with slope * (1/n) < eps."""
    n = np.arange(1, n_max + 1)
    return int(np.flatnonzero(slope * (1.0 / n) < eps)[0]) + 1


# ---------------------------------------------------------------------------
# Windows


def window_problems(scenario: str, metric: str, center: float, eps: float,
                    n_max: int, window, size: int) -> list[str]:
    """Compare an A(eps) window with {n <= N : ||d(x_n, c)|| >= eps}."""
    n = np.arange(1, n_max + 1)
    gaps = np.abs(scenario_points(scenario, n) - center)
    expected = np.flatnonzero(metric_norms(metric, gaps) >= eps) + 1
    got = np.fromiter(window, dtype=np.int64, count=len(window))
    got.sort()
    label = f"A(eps={eps!r}) of {scenario}/{metric} about {center!r}"
    if size != n_max:
        return [f"{label}: window size {size} != {n_max}"]
    if not np.array_equal(got, expected):
        extra = np.setdiff1d(got, expected)[:5].tolist()
        missing = np.setdiff1d(expected, got)[:5].tolist()
        return [f"{label}: extra members {extra}, missing members {missing}"]
    return []


# ---------------------------------------------------------------------------
# Block runs (block-wide, block-fine-eps)


def block_run_problems(doc: str, rc: int, eps_list, window: int) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        report = json.loads(doc)
    except json.JSONDecodeError as exc:
        return problems + [f"not JSON: {exc}"]
    cfg = report["config"]
    if cfg["window"] != window or cfg["eps_list"] != list(eps_list):
        problems.append(f"config {cfg['window']} {cfg['eps_list']} was not "
                        f"the one requested")
    if report["exit_code"] != 0 or report["conflicts"]:
        problems.append(f"exit_code {report['exit_code']}, conflicts "
                        f"{report['conflicts']}")
    cells = report["cells"]
    keys = sorted((c["question"], c["epsilon"]) for c in cells)
    if keys != sorted((q, e) for q in BLOCK_TRUTH for e in eps_list):
        problems.append(f"cells {keys} do not cover the question grid")
    unknown = sum(c["decision"] == "unknown" for c in cells)
    if report["unknown_count"] != unknown:
        problems.append(f"unknown_count {report['unknown_count']} != {unknown}")
    for cell in cells:
        problems += _block_cell_problems(cell)
    return problems


def _block_cell_problems(cell: dict) -> list[str]:
    q, eps, decision = cell["question"], cell["epsilon"], cell["decision"]
    label = f"{q} at eps={eps!r}"
    if not eps <= 1.0:
        return [f"{label}: the closed-form truth is for eps <= 1"]
    if decision == "unknown":
        return []
    if decision != BLOCK_TRUTH[q]:
        return [f"{label}: {decision}, the truth is {BLOCK_TRUTH[q]}"]
    if q == "i_cauchy_pair" and cell["cut_index"] != least_cut(eps):
        return [f"{label}: cut {cell['cut_index']}, least J with 1/J < eps/4 "
                f"is {least_cut(eps)}"]
    if q == "i_cauchy_definition":
        n0 = cell["witness_index"]
        if not (isinstance(n0, int) and n0 >= 1
                and SCALE / int(block_of(n0)) < eps):
            return [f"{label}: witness n0={n0} is not a center with "
                    f"2/j0 < eps"]
    if q == "i_star_cauchy":
        found = re.search(r"blocks (\d+),(\d+) .* distance ([0-9.eE+-]+)",
                          cell["certificate"])
        if not found:
            return [f"{label}: certificate names no defeating block pair"]
        i, j, stated = int(found[1]), int(found[2]), float(found[3])
        gap = SCALE * abs(1.0 / i - 1.0 / j)
        if stated != gap or gap < eps:
            return [f"{label}: blocks {i},{j} at distance {stated}, closed "
                    f"form {gap}, eps {eps}"]
    return []


# ---------------------------------------------------------------------------
# audit-paper


def audit_problems(doc: str, rc: int, n_max: int = 8192) -> list[str]:
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    try:
        report = json.loads(doc)
    except json.JSONDecodeError as exc:
        return problems + [f"not JSON: {exc}"]
    if report["window"] != n_max:
        problems.append(f"window {report['window']} was not {n_max}")
    claims = {c["claim"]: c for c in report["claims"]}
    if not (report["all_pass"] and report["failed"] == 0
            and report["total"] == len(report["claims"]) == len(claims)):
        problems.append("summary fields do not say every claim passes")
    problems += [f"claim failed: {name}" for name, c in claims.items()
                 if c["status"] != "PASS"]

    expected = {}
    for alpha in (0.5, 2.0):
        for eps in (0.1, 0.01):
            n0 = first_below(max(1.0, alpha), eps, n_max)
            expected[f"diag(alpha={alpha:g}) harmonic Fin-Cauchy at "
                     f"eps={eps:g}"] = f"witness n0={n0}"
    n0 = first_below(1.0, 0.1, n_max)
    n = np.arange(1, n_max + 1)
    offenders = (np.flatnonzero(np.abs(1.0 / n - 1.0 / n0) >= 0.1) + 1).tolist()
    expected["diag(alpha=0.5) eps=0.1 witness n0=11 with offenders {1..5}"] = (
        f"n0={n0} window={offenders}")
    expected["block sequence pair witness D = blocks 1..21 at eps=0.2"] = (
        f"cut={least_cut(0.2)}")
    # scaled-diag(1, 2): ||x_n||_A has norm 2/n; n0 is one past the last
    # offender.
    last = int(np.flatnonzero(2.0 * (1.0 / n) >= 0.01)[-1]) + 1
    expected["harmonic norm convergence witness n0=201 at eps=0.01"] = (
        f"n0={last + 1}")
    expected["block counterexample reproduced for l=1..10"] = (
        "I-Cauchy but not I*-Cauchy")
    for name, detail in expected.items():
        if name not in claims:
            problems.append(f"claim missing: {name}")
        elif claims[name]["detail"] != detail:
            problems.append(f"{name}: detail {claims[name]['detail']!r}, "
                            f"closed form gives {detail!r}")
    for l in range(1, 11):
        gap = SCALE * abs(1.0 / (l + 1) - 1.0 / (l + 2))
        eps0 = SCALE / (3.0 * (l + 1) * (l + 2))
        if not (abs(gap - SCALE / ((l + 1) * (l + 2))) <= 1e-15 and gap > eps0):
            problems.append(f"counterexample gap at l={l} is not above eps0")
    return problems


# ---------------------------------------------------------------------------
# algebra-order


def algebra_problems(doc: str, batch) -> list[str]:
    try:
        rows = json.loads(doc)
    except json.JSONDecodeError as exc:
        return [f"not JSON: {exc}"]
    if len(rows) != len(batch):
        return [f"{len(rows)} outputs for {len(batch)} pairs"]
    problems = []
    for k, ((kind, scalars, a, b), row) in enumerate(zip(batch, rows)):
        label = f"pair {k} ({kind}, {scalars}, {a.shape})"
        if kind == "matrix":
            aa = a.conj().T @ a
            total = aa + b.conj().T @ b
            norm_a = np.linalg.svd(a, compute_uv=False)[0]
            norm_sum = np.linalg.svd(total, compute_uv=False)[0]
            spec = np.linalg.eigvalsh(aa)
        else:
            norm_a = np.max(np.abs(a))
            norm_sum = np.max(np.abs(a) ** 2 + np.abs(b) ** 2)
            spec = np.sort(np.abs(a) ** 2)
        problems += [f"{label}: {p}" for p in _algebra_row_problems(
            row, norm_a, norm_sum, spec)]
    return problems


def _close(x: float, y: float, rel: float = 1e-9) -> bool:
    return abs(x - y) <= rel * (1.0 + abs(y))


def _algebra_row_problems(row, norm_a, norm_sum, spec) -> list[str]:
    problems = []
    if not _close(row["norm_a"], norm_a):
        problems.append(f"op_norm(a) {row['norm_a']} != svd {norm_a}")
    if not _close(row["norm_aa"], row["norm_a"] ** 2):
        problems.append(f"||a*a|| {row['norm_aa']} != ||a||^2 "
                        f"{row['norm_a'] ** 2}")
    if not _close(row["norm_sum"], norm_sum):
        problems.append(f"op_norm(a*a + b*b) {row['norm_sum']} != {norm_sum}")
    got = np.asarray(row["spectrum_aa"])
    if got.shape != spec.shape or not np.all(
            np.abs(got - spec) <= 1e-9 * (1.0 + np.max(np.abs(spec)))):
        problems.append(f"spectrum(a*a) {got[:4]} != eigvalsh {spec[:4]}")
    if row["aa_positive"] is not True:
        problems.append("a*a is not positive")
    if row["below_positive"] is not False:
        problems.append("-(a*a) - 1 is positive")
    if row["aa_precedes_sum"] is not True:
        problems.append("a*a does not precede a*a + b*b")
    if not row["norm_aa"] <= row["norm_sum"] * (1.0 + 1e-12):
        problems.append(f"||a*a|| {row['norm_aa']} > ||a*a + b*b|| "
                        f"{row['norm_sum']}")
    return problems


def output_problems(workload: str, doc: str, rc: int, batch) -> list[str]:
    """Dispatch to the workload's checker; ``batch`` is algebra-order's
    input (None for the CLI workloads)."""
    if workload == "audit-8192":
        return audit_problems(doc, rc)
    if workload == "block-wide":
        return block_run_problems(doc, rc, (0.1, 0.01), 1 << 20)
    if workload == "block-fine-eps":
        return block_run_problems(doc, rc, (FINE_EPS,), 4096)
    if workload == "algebra-order":
        return algebra_problems(doc, batch)
    raise ValueError(f"unknown workload {workload!r}")
