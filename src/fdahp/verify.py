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


def _table_checks(name: str, tol: float, rows: list[tuple[str, Any, Any]]) -> list[CheckResult]:
    """One check per `(label, printed, computed)` row of a printed table, named
    `name` and its label. A float prints through `_fmt` and a TFN through `str`;
    the deviation is the largest absolute component difference."""
    checks = []
    for label, printed, computed in rows:
        if isinstance(printed, TriangularFuzzyNumber):
            text, pairs = str, zip(computed, printed)
        else:
            text, pairs = _fmt, [(computed, printed)]
        dev = max(abs(c - p) for c, p in pairs)
        checks.append(CheckResult(f"{name} {label}".rstrip(), text(printed), text(computed),
                                  _fmt(tol), dev <= tol))
    return checks


def run_study_checks(study: PaperStudy) -> list[CheckResult]:
    """All reproduction checks, in pipeline order: one `_table_checks` call per
    printed numeric table, between the hand-written threshold, decision,
    renumbering and ranking checks."""
    screening = screen(study.delphi_panel)
    ranking = run_fahp(study.fahp_matrix)
    dexp = study.delphi_expected
    rexp = study.fahp_expected
    n_by_id = ranking.normalized_by_id()

    scores = [(r.barrier.id, dexp.scores[r.barrier.id], r.score) for r in screening.rows]
    row_means = [(cid, rexp.row_geometric_means[cid], r)
                 for cid, r in zip(ranking.ids, ranking.row_means)]
    weights = [(cid, rexp.weights_normalized[cid], n_by_id[cid]) for cid in ranking.ids]

    lo, hi = dexp.threshold_range
    decisions_ok = all(
        ("selected" if r.selected else "rejected") == dexp.decisions[r.barrier.id]
        for r in screening.rows
    )
    n_sel = len(dexp.selected_ids())
    matrix_ids = study.fahp_matrix.ids
    try:
        renumbered = [c.id for c in renumber_selected(screening, study.renumber_map)]
        renumber_ok = renumbered == matrix_ids
        renumber_str = " ".join(renumbered)
    except ValidationError as exc:
        renumber_ok = False
        renumber_str = f"error: {exc}"
    top = rexp.rank_order[:3]

    return [
        *_table_checks("screening score", SCORE_TOL, scores),
        CheckResult("screening threshold", f"[{_fmt(lo)}, {_fmt(hi)}]",
                    _fmt(screening.threshold), "range", lo <= screening.threshold <= hi),
        CheckResult("screening decisions",
                    f"{n_sel} selected / {len(dexp.decisions) - n_sel} rejected",
                    f"{len(screening.selected_ids)} selected / "
                    f"{len(screening.rejected_ids)} rejected",
                    "exact", decisions_ok),
        CheckResult("renumbered survivors match ranking criteria", " ".join(matrix_ids),
                    renumber_str, "exact", renumber_ok),
        *_table_checks("row geometric mean", ROW_MEAN_TOL, row_means),
        *_table_checks("row-mean total", TOTAL_TOL, [("", rexp.total, ranking.total)]),
        *_table_checks("inverse total", INVERSE_TOL, [("", rexp.inverse_total, ranking.inverse)]),
        *_table_checks("normalized weight", WEIGHT_TOL, weights),
        CheckResult("rank order", " > ".join(rexp.rank_order), " > ".join(ranking.rank_order),
                    "exact", ranking.rank_order == rexp.rank_order),
        CheckResult("top-three weights strictly ordered",
                    f"N({top[0]}) > N({top[1]}) > N({top[2]})",
                    " > ".join(_fmt(n_by_id[c]) for c in top),
                    "strict", n_by_id[top[0]] > n_by_id[top[1]] > n_by_id[top[2]]),
    ]


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
