"""Regression harness: rerun both pipeline stages on the bundled study and
compare every computed value against the study's printed digits."""
from __future__ import annotations

from typing import Any, NamedTuple

from .dataset import PaperStudy, renumber_selected
from .delphi import screen
from .errors import ValidationError
from .fahp import run_fahp
from .tfn import TriangularFuzzyNumber

SCORE_TOL = 0.01
ROW_MEAN_TOL = 0.005
TOTAL_TOL = 0.005
INVERSE_TOL = 0.0005
WEIGHT_TOL = 0.002


class CheckResult(NamedTuple):
    name: str
    expected: str
    computed: str
    tolerance: str
    ok: bool


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _fmt_tfn(t: TriangularFuzzyNumber) -> str:
    return f"({_fmt(t.l)}, {_fmt(t.m)}, {_fmt(t.u)})"


def _num_check(name: str, expected: float, computed: float, tol: float) -> CheckResult:
    return CheckResult(name, _fmt(expected), _fmt(computed), _fmt(tol),
                       abs(computed - expected) <= tol)


def _tfn_check(
    name: str, expected: TriangularFuzzyNumber, computed: TriangularFuzzyNumber, tol: float
) -> CheckResult:
    dev = max(abs(a - b) for a, b in zip(computed, expected))
    return CheckResult(name, _fmt_tfn(expected), _fmt_tfn(computed), _fmt(tol), dev <= tol)


def run_study_checks(study: PaperStudy) -> list[CheckResult]:
    """All reproduction checks, in pipeline order."""
    checks: list[CheckResult] = []

    screening = screen(study.delphi_panel)
    dexp = study.delphi_expected
    for row in screening.rows:
        checks.append(
            _num_check(
                f"screening score {row.barrier.id}",
                dexp.scores[row.barrier.id],
                row.score,
                SCORE_TOL,
            )
        )
    lo, hi = dexp.threshold_range
    checks.append(
        CheckResult(
            "screening threshold",
            f"[{_fmt(lo)}, {_fmt(hi)}]",
            _fmt(screening.threshold),
            "range",
            lo <= screening.threshold <= hi,
        )
    )
    decisions_ok = all(
        ("selected" if r.selected else "rejected") == dexp.decisions[r.barrier.id]
        for r in screening.rows
    )
    n_sel = len(dexp.selected_ids())
    checks.append(
        CheckResult(
            "screening decisions",
            f"{n_sel} selected / {len(dexp.decisions) - n_sel} rejected",
            f"{len(screening.selected_ids)} selected / {len(screening.rejected_ids)} rejected",
            "exact",
            decisions_ok,
        )
    )

    matrix_ids = study.fahp_matrix.ids
    try:
        renumbered = [c.id for c in renumber_selected(screening, study.renumber_map)]
        renumber_ok = renumbered == matrix_ids
        renumber_str = " ".join(renumbered)
    except ValidationError as exc:
        renumber_ok = False
        renumber_str = f"error: {exc}"
    checks.append(
        CheckResult(
            "renumbered survivors match ranking criteria",
            " ".join(matrix_ids),
            renumber_str,
            "exact",
            renumber_ok,
        )
    )

    ranking = run_fahp(study.fahp_matrix)
    rexp = study.fahp_expected
    for i, cid in enumerate(ranking.ids):
        checks.append(
            _tfn_check(
                f"row geometric mean {cid}",
                rexp.row_geometric_means[cid],
                ranking.row_means[i],
                ROW_MEAN_TOL,
            )
        )
    checks.append(_tfn_check("row-mean total", rexp.total, ranking.total, TOTAL_TOL))
    checks.append(
        _tfn_check("inverse total", rexp.inverse_total, ranking.inverse, INVERSE_TOL)
    )
    n_by_id = ranking.normalized_by_id()
    for cid in ranking.ids:
        checks.append(
            _num_check(
                f"normalized weight {cid}",
                rexp.weights_normalized[cid],
                n_by_id[cid],
                WEIGHT_TOL,
            )
        )
    checks.append(
        CheckResult(
            "rank order",
            " > ".join(rexp.rank_order),
            " > ".join(ranking.rank_order),
            "exact",
            ranking.rank_order == rexp.rank_order,
        )
    )
    top = rexp.rank_order[:3]
    top_ok = n_by_id[top[0]] > n_by_id[top[1]] > n_by_id[top[2]]
    checks.append(
        CheckResult(
            "top-three weights strictly ordered",
            f"N({top[0]}) > N({top[1]}) > N({top[2]})",
            " > ".join(_fmt(n_by_id[c]) for c in top),
            "strict",
            top_ok,
        )
    )
    return checks


def checks_passed(checks: list[CheckResult]) -> bool:
    return all(c.ok for c in checks)


def format_text(study: PaperStudy, checks: list[CheckResult]) -> str:
    """Side-by-side comparison plus the known-anomaly list."""
    lines = [f"reproducing bundled study: {study.key}", ""]
    name_w = max(len(c.name) for c in checks) + 2
    exp_w = max(len(c.expected) for c in checks) + 2
    comp_w = max(len(c.computed) for c in checks) + 2
    lines.append(
        f"{'status':<8}{'check':<{name_w}}{'expected':<{exp_w}}"
        f"{'computed':<{comp_w}}tolerance"
    )
    for c in checks:
        status = "ok" if c.ok else "FAIL"
        lines.append(
            f"{status:<8}{c.name:<{name_w}}{c.expected:<{exp_w}}"
            f"{c.computed:<{comp_w}}{c.tolerance}"
        )
    lines.append("")
    lines.append("known anomalies in the study's printed tables (expected, non-fatal):")
    for a in study.anomalies:
        lines.append(f"  - {a.id} @ {a.location}")
        lines.append(f"    {a.description}")
    lines.append("")
    n_ok = sum(1 for c in checks if c.ok)
    verdict = "PASS" if n_ok == len(checks) else "FAIL"
    failed = [c.name for c in checks if not c.ok]
    suffix = "" if not failed else f"; failed: {', '.join(failed)}"
    lines.append(f"result: {verdict} ({n_ok}/{len(checks)} checks){suffix}")
    return "\n".join(lines) + "\n"


def to_json_dict(study: PaperStudy, checks: list[CheckResult]) -> dict[str, Any]:
    return {
        "study": study.key,
        "checks": [c._asdict() for c in checks],
        "anomalies": [a._asdict() for a in study.anomalies],
        "passed": checks_passed(checks),
    }
