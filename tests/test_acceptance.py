"""Acceptance gate: every release criterion at its pinned tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them on success).
Criteria 1-7 reproduce the bundled study against its printed values; criteria
1-6 take their verdicts from the named checks of `fdahp.verify`, which holds
every study tolerance. Criterion 8 is a randomized property suite that never
touches the study's numbers.
"""
import json

import numpy as np
import pytest

from helpers import grid_matrix, random_reciprocal_matrix
from fdahp import (
    DELPHI_10,
    RatingPanel,
    TFN,
    build_matrix,
    run_fahp,
    screen,
    tfn_multiply,
)
from fdahp.cli import main
from fdahp.tfn import ValidationMode
from fdahp.verify import run_study_checks

STUDY_ORDER = ["B10", "B9", "B7", "B5", "B3", "B2", "B4", "B1", "B8", "B6", "B11"]


def check(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {criterion}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def checks(study):
    return {c.name: c for c in run_study_checks(study)}


def named(checks, prefix):
    return [c for name, c in checks.items() if name.startswith(prefix)]


def check_study(criterion, picked, pinned=True, detail=None):
    """One line whose verdict is that of the picked study checks, plus pinned facts."""
    failed = [c.name for c in picked if not c.ok]
    if detail is None:
        detail = f"{len(picked) - len(failed)}/{len(picked)} checks ok"
    if failed:
        detail += f"; failed: {', '.join(failed)}"
    check(criterion, pinned and not failed, detail)


def test_criterion_1_delphi_scores(checks):
    scores = named(checks, "screening score ")
    check_study(
        "criterion 1: all 16 screening scores within 0.01 of the printed values",
        scores,
        pinned=len(scores) == 16,
    )


def test_criterion_2_threshold_and_partition(checks):
    threshold, decisions = checks["screening threshold"], checks["screening decisions"]
    check_study(
        "criterion 2: mean threshold in [7.11, 7.14] and 11/5 partition exact",
        [threshold, decisions],
        pinned=decisions.computed == "11 selected / 5 rejected",
        detail=f"threshold {threshold.computed}, {decisions.computed}",
    )


def test_criterion_3_row_geometric_means(checks):
    row_means = named(checks, "row geometric mean ")
    check_study(
        "criterion 3: 11 row geometric means and their total within 0.005",
        row_means + [checks["row-mean total"]],
        pinned=len(row_means) == 11,
    )


def test_criterion_4_inverse_total(checks):
    inverse = checks["inverse total"]
    check_study(
        "criterion 4: inverse total within 0.0005 of (0.06254, 0.074827, 0.090821)",
        [inverse],
        detail=f"computed {inverse.computed}",
    )


def test_criterion_5_normalized_weights(checks):
    weights = named(checks, "normalized weight ")
    check_study(
        "criterion 5: all 11 normalized weights within 0.002 of the printed values",
        weights,
        pinned=len(weights) == 11,
    )


def test_criterion_6_rank_order(checks):
    order, top = checks["rank order"], checks["normalized weight B10"]
    check_study(
        "criterion 6: exact rank order with strictly ordered top three",
        [order, checks["top-three weights strictly ordered"], top],
        pinned=order.computed == " > ".join(STUDY_ORDER),
        detail=f"order {order.computed}, N(B10) {top.computed}",
    )


def test_criterion_7_known_anomaly_report(capsys):
    code = main(["paper-verify"])
    out = capsys.readouterr().out
    lists_modal = "modal-multiplier-slip" in out and "0.111" in out
    lists_cells = (
        "(B8,B4)" in out
        and "(0.17, 0.2, 0.17)" in out
        and "(B1,B5)" in out
        and "(B7,B11)" in out
    )
    check(
        "criterion 7: paper-verify lists the known anomalies and still exits 0",
        code == 0 and lists_modal and lists_cells,
        f"exit {code}",
    )


def test_criterion_8a_unit_sum_on_random_matrices():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 13))
        result = run_fahp(random_reciprocal_matrix(rng, n))
        worst = max(worst, abs(sum(result.normalized) - 1.0))
    check(
        "criterion 8a: sum(N) = 1 within 1e-9 on 1000 random matrices (sizes 2-12)",
        worst <= 1e-9,
        f"worst |sum-1| {worst:.2e}",
    )


def test_criterion_8b_relabeling_and_scale_invariance():
    rng = np.random.default_rng(103)
    worst_perm, worst_scale = 0.0, 0.0
    ranks_ok = True
    for _ in range(200):
        n = int(rng.integers(2, 13))
        m = random_reciprocal_matrix(rng, n, continuous=True)
        base = run_fahp(m)

        perm = list(rng.permutation(n))
        permuted = run_fahp(
            grid_matrix(
                tuple(m.criteria[i] for i in perm),
                tuple(tuple(m.cells[i][j] for j in perm) for i in perm),
                m.mode,
            )
        )
        for k, i in enumerate(perm):
            worst_perm = max(
                worst_perm, abs(permuted.normalized[k] - base.normalized[i])
            )
            ranks_ok = ranks_ok and permuted.ranks[k] == base.ranks[i]

        c = float(rng.uniform(0.2, 5.0))
        scaler = TFN(c, c, c)
        scaled = run_fahp(
            grid_matrix(
                m.criteria,
                tuple(tuple(tfn_multiply(t, scaler) for t in row) for row in m.cells),
                ValidationMode.LENIENT,
            )
        )
        ranks_ok = ranks_ok and scaled.ranks == base.ranks
        worst_scale = max(
            worst_scale,
            max(abs(a - b) for a, b in zip(scaled.normalized, base.normalized)),
        )
    check(
        "criterion 8b: relabeling equivariance and scale invariance "
        "(ranks identical, N within 1e-12)",
        ranks_ok and worst_perm <= 1e-12 and worst_scale <= 1e-12,
        f"worst N dev: perm {worst_perm:.2e}, scale {worst_scale:.2e}",
    )


def test_criterion_8c_consistent_matrix_recovery():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 13))
        raw = rng.uniform(0.05, 1.0, n)
        true_w = raw / raw.sum()
        ids = [f"C{i}" for i in range(n)]
        entries = [
            (ids[i], ids[j], TFN(*(float(true_w[i] / true_w[j]),) * 3))
            for i in range(n)
            for j in range(n)
            if i != j
        ]
        result = run_fahp(build_matrix(entries, ids, ValidationMode.LENIENT))
        worst = max(
            worst,
            max(abs(g - w) / w for g, w in zip(result.normalized, true_w)),
        )
    check(
        "criterion 8c: consistent crisp matrices recover their weights within 1e-9",
        worst <= 1e-9,
        f"worst relative error {worst:.2e}",
    )


def test_criterion_8d_expert_permutation_invariance():
    rng = np.random.default_rng(109)
    all_ok = True
    for _ in range(1000):
        n_b = int(rng.integers(1, 13))
        n_e = int(rng.integers(1, 9))
        experts = [f"E{k}" for k in range(n_e)]
        levels = rng.integers(1, 11, (n_b, n_e))
        barriers = [f"B{i}" for i in range(n_b)]
        grid = {
            (bid, eid): DELPHI_10.tfn(int(v))
            for bid, row in zip(barriers, levels)
            for eid, v in zip(experts, row)
        }
        panel = RatingPanel(barriers, experts, grid)
        perm = list(rng.permutation(n_e))
        # the same (barrier, expert) cells, read in a permuted expert order
        shuffled = RatingPanel(barriers, [experts[j] for j in perm], grid)
        assert shuffled.row(barriers[0]) == tuple(panel.row(barriers[0])[j] for j in perm)
        a, b = screen(panel), screen(shuffled)
        for ra, rb in zip(a.rows, b.rows):
            all_ok = all_ok and ra.selected == rb.selected and ra.score == rb.score
    check(
        "criterion 8d: screening decisions invariant under expert permutation "
        "on 1000 random panels",
        all_ok,
    )


def test_acceptance_summary_via_cli(capsys):
    # the machine-readable verification must agree with the criteria above
    code = main(["paper-verify", "--emit", "json"])
    doc = json.loads(capsys.readouterr().out)
    check(
        "paper-verify JSON: every bundled-study check green",
        code == 0 and doc["passed"] and all(c["ok"] for c in doc["checks"]),
        f"{sum(c['ok'] for c in doc['checks'])}/{len(doc['checks'])} checks",
    )
