"""Output checker, independent of fdahp's internals.

Inputs are re-read here with `csv`/`json` and the expected results are
recomputed with NumPy: Buckley row geometric means -> fuzzy weights ->
centroid -> unit-sum weights -> ranks, and Delphi min/geomean/max ->
centroid -> mean threshold -> decisions. Reports are parsed from the text
the program emitted (JSON, CSV or Markdown), never from its objects.

NumPy is imported here only; `run.py` loads this module after every timed phase, and no measured
process ever loads it.
"""
from __future__ import annotations

import csv
import io
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

# Tolerances fixed in advance. JSON and CSV reports print 6 significant
# digits, so a printed value is within 5e-6 relative of the float64 result;
# 1e-5 doubles that. Float64 reordering error over <= 150 terms is ~1e-13 and
# is covered by the 1e-12 floor. Markdown prints 4 decimals of a 6-digit
# value, so it may be off by 5e-5 absolute plus the 6-digit rounding.
REL_TOL = 1e-5
ABS_FLOOR = 1e-12
MD_ABS_TOL = 5e-5
# Reference values closer than this (relative) are treated as ties, so a
# rank or decision may legitimately go either way between them.
TIE_TOL = 1e-9
RECIPROCITY_TOLERANCE = 0.05

# The ten-level linguistic scale of the source study, (l, m, u) per rating.
DELPHI_10 = {
    1: (0, 0, 1), 2: (1, 2, 3), 3: (2, 3, 4), 4: (3, 4, 5), 5: (4, 5, 6),
    6: (5, 6, 7), 7: (6, 7, 8), 8: (7, 8, 9), 9: (8, 9, 10), 10: (10, 10, 10),
}

# Published outcome of the bundled study (Delphi survivors, then the ranking
# of the 11 renumbered criteria).
PUBLISHED_SELECTED = ["B1", "B2", "B4", "B5", "B9", "B10", "B11", "B13", "B14", "B15", "B16"]
PUBLISHED_RANK_ORDER = ["B10", "B9", "B7", "B5", "B3", "B2", "B4", "B1", "B8", "B6", "B11"]
PAPER_VERIFY_CHECKS = 45


# ---------------------------------------------------------------- inputs

def _first_seen(seq):
    return list(dict.fromkeys(seq))


def load_ratings(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Barrier ids and a (barriers, experts, 3) array from a ratings file."""
    path = Path(path)
    cells: dict[tuple[str, str], tuple[float, float, float]] = {}
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as f:
            for rec in csv.DictReader(f):
                key = (rec["barrier_id"], rec["expert_id"])
                if "rating" in rec:
                    cells[key] = DELPHI_10[int(rec["rating"])]
                else:
                    cells[key] = (float(rec["l"]), float(rec["m"]), float(rec["u"]))
        barriers = _first_seen(b for b, _ in cells)
        experts = _first_seen(e for _, e in cells)
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        barriers = [b if isinstance(b, str) else b["id"] for b in doc["barriers"]]
        experts = [str(e) for e in doc["experts"]]
        for rec in doc["ratings"]:
            t = rec["tfn"] if "tfn" in rec else DELPHI_10[rec["rating"]]
            cells[(rec["barrier_id"], rec["expert_id"])] = tuple(t)
    arr = np.array([[cells[(b, e)] for e in experts] for b in barriers], dtype=float)
    return barriers, arr


def load_matrix(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Criterion ids and an (n, n, 3) array from a full matrix file."""
    path = Path(path)
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as f:
            recs = [(r["row_id"], r["col_id"], (float(r["l"]), float(r["m"]), float(r["u"])))
                    for r in csv.DictReader(f)]
        ids = _first_seen(x for r, c, _ in recs for x in (r, c))
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        ids = [c if isinstance(c, str) else c["id"] for c in doc["criteria"]]
        recs = [(c["row"], c["col"], tuple(c["tfn"])) for c in doc["cells"]]
    return ids, _fill(ids, recs)


def load_entries(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Criterion ids and the auto-filled (n, n, 3) array of a sparse entry set."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["criteria"], _fill(doc["criteria"], doc["entries"])


def _fill(ids, recs) -> np.ndarray:
    """Dense matrix: unit diagonal, given cells verbatim, mirrors reciprocal."""
    index = {c: k for k, c in enumerate(ids)}
    n = len(ids)
    arr = np.full((n, n, 3), np.nan)
    arr[np.arange(n), np.arange(n)] = 1.0
    for r, c, t in recs:
        arr[index[r], index[c]] = t
    gap = np.isnan(arr[..., 0])
    arr[gap] = 1.0 / arr.transpose(1, 0, 2)[gap][:, ::-1]
    return arr


# ------------------------------------------------------------- references

def _geomean(x: np.ndarray, axis: int) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.exp(np.log(x).mean(axis=axis))


def delphi_reference(ratings: np.ndarray) -> dict:
    """Min/geomean/max aggregate, centroid score, mean threshold, decisions."""
    agg = np.stack(
        [ratings[..., 0].min(1), _geomean(ratings[..., 1], 1), ratings[..., 2].max(1)], -1
    )
    score = agg.mean(-1)
    threshold = score.mean()
    return {"aggregate": agg, "score": score, "threshold": threshold,
            "selected": score >= threshold}


def fahp_reference(cells: np.ndarray) -> dict:
    """Buckley row geometric means, fuzzy weights, unit-sum crisp weights, warning count."""
    r = _geomean(cells, 1)
    total = r.sum(0)
    weights = r / total[::-1]
    crisp = weights.mean(1)
    normalized = crisp / crisp.sum()
    return {"row_means": r, "weights": weights, "normalized": normalized,
            "warnings": count_violations(cells)}


def count_violations(cells: np.ndarray) -> int:
    """Unordered cells, non-unit diagonal cells, and unpaired or non-reciprocal pairs."""
    n = len(cells)
    unordered = int(((cells[..., 0] > cells[..., 1]) | (cells[..., 1] > cells[..., 2])).sum())
    diagonal = int((cells[np.arange(n), np.arange(n)] != 1.0).any(-1).sum())
    iu, ju = np.triu_indices(n, 1)
    fwd, back = cells[iu, ju], cells[ju, iu]
    positive = (fwd > 0).all(-1) & (back > 0).all(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = 1.0 / fwd[:, ::-1]
        rel = (np.abs(back - expected) / expected).max(-1)
    breaches = int((~positive).sum() + (positive & (rel > RECIPROCITY_TOLERANCE)).sum())
    return unordered + diagonal + breaches


# ---------------------------------------------------------------- reports

def parse_report(text: str, fmt: str) -> dict:
    """Screening rows, ranking rows and warning count of an emitted report."""
    out = {"screening": None, "ranking": None, "warnings": 0}
    if fmt == "json":
        doc = json.loads(text)
        if doc["screening"]:
            s = doc["screening"]
            out["screening"] = {"threshold": s["threshold"], "rows": [
                (b["id"], b["aggregate"], b["score"], b["decision"]) for b in s["barriers"]]}
        if doc["ranking"]:
            out["ranking"] = [(c["id"], c["row_geometric_mean"], c["fuzzy_weight"],
                               c["weight_normalized"], c["rank"])
                              for c in doc["ranking"]["criteria"]]
        out["warnings"] = len(doc["warnings"])
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
        screening = [r for r in rows if r[0] == "screening"]
        summary = [r for r in rows if r[0] == "summary"]
        if summary:
            out["screening"] = {"threshold": float(summary[0][9]), "rows": [
                (r[1], [float(x) for x in r[3:6]], float(r[9]), r[12]) for r in screening]}
        ranking = [r for r in rows if r[0] == "ranking"]
        if ranking:
            out["ranking"] = [(r[1], [float(x) for x in r[3:6]], [float(x) for x in r[6:9]],
                               float(r[10]), int(r[11])) for r in ranking]
        out["warnings"] = sum(r[0] == "warning" for r in rows)
    elif fmt == "md":
        section = None
        screening, ranking = [], []
        for line in text.splitlines():
            if line.startswith("## "):
                section = line[3:]
            elif line.startswith("Threshold: "):
                threshold = float(line.split()[1])
            elif line.startswith("| ") and not line.startswith(("| ---", "| Barrier", "| Criterion")):
                cols = [c.strip() for c in line.strip("|").split("|")]
                if section == "Screening":
                    screening.append((cols[0], None, float(cols[2]), cols[3]))
                elif section == "Ranking":
                    ranking.append((cols[0], None, None, float(cols[2]), int(cols[3])))
            elif line.startswith("- `") and section == "Warnings":
                out["warnings"] += 1
        if screening:
            out["screening"] = {"threshold": threshold, "rows": screening}
        if ranking:
            out["ranking"] = ranking
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return out


def _close(got, want, fmt: str) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if fmt == "md":
        tol = MD_ABS_TOL + REL_TOL * np.abs(want) + ABS_FLOOR
    else:
        tol = REL_TOL * np.abs(want) + ABS_FLOOR
    return bool((np.abs(got - want) <= tol).all())


def _tied(values: np.ndarray, i: int, other: float) -> bool:
    return abs(values[i] - other) <= TIE_TOL * max(1.0, abs(other))


def check_screening(rep: dict | None, ref: dict, ids: list[str], fmt: str) -> list[str]:
    if rep is None:
        return ["report has no screening section"]
    errors = []
    if [r[0] for r in rep["rows"]] != ids:
        return [f"screening ids {[r[0] for r in rep['rows']]} != {ids}"]
    if not _close(rep["threshold"], ref["threshold"], fmt):
        errors.append(f"threshold {rep['threshold']} != {ref['threshold']:.9g}")
    for i, (bid, agg, score, decision) in enumerate(rep["rows"]):
        if agg is not None and not _close(agg, ref["aggregate"][i], fmt):
            errors.append(f"{bid}: aggregate {agg} != {ref['aggregate'][i]}")
        if not _close(score, ref["score"][i], fmt):
            errors.append(f"{bid}: score {score} != {ref['score'][i]:.9g}")
        want = "selected" if ref["selected"][i] else "rejected"
        if decision != want and not _tied(ref["score"], i, ref["threshold"]):
            errors.append(f"{bid}: decision {decision} != {want}")
    return errors


def check_ranking(rep: list | None, ref: dict, ids: list[str], fmt: str) -> list[str]:
    if rep is None:
        return ["report has no ranking section"]
    if [r[0] for r in rep] != ids:
        return [f"ranking ids {[r[0] for r in rep]} != {ids}"]
    errors = []
    norm = ref["normalized"]
    for i, (cid, row_mean, weight, normalized, rank) in enumerate(rep):
        if row_mean is not None and not _close(row_mean, ref["row_means"][i], fmt):
            errors.append(f"{cid}: row geometric mean {row_mean} != {ref['row_means'][i]}")
        if weight is not None and not _close(weight, ref["weights"][i], fmt):
            errors.append(f"{cid}: fuzzy weight {weight} != {ref['weights'][i]}")
        if not _close(normalized, norm[i], fmt):
            errors.append(f"{cid}: normalized weight {normalized} != {norm[i]:.9g}")
        above = sum(1 for j in range(len(norm)) if norm[j] > norm[i] and not _tied(norm, j, norm[i]))
        level = sum(1 for j in range(len(norm)) if _tied(norm, j, norm[i]))
        if not above < rank <= above + level:
            errors.append(f"{cid}: rank {rank} outside [{above + 1}, {above + level}]")
    return errors


def rank_order(rep: list) -> list[str]:
    return [cid for cid, *_, rank in sorted(rep, key=lambda r: r[-1])]


def check_paper_verify(text: str, fmt: str) -> list[str]:
    if fmt == "json":
        doc = json.loads(text)
        n_ok = sum(c["ok"] for c in doc["checks"])
        ok = doc["passed"] and n_ok == len(doc["checks"]) == PAPER_VERIFY_CHECKS
    else:
        ok = text.rstrip().endswith(f"result: PASS ({PAPER_VERIFY_CHECKS}/{PAPER_VERIFY_CHECKS} checks)")
        n_ok = "?"
    return [] if ok else [f"paper-verify did not pass {PAPER_VERIFY_CHECKS}/{PAPER_VERIFY_CHECKS} (ok={n_ok})"]


# ------------------------------------------------------------ operations

@lru_cache(maxsize=None)
def _screening_reference(path: str):
    ids, ratings = load_ratings(path)
    return ids, delphi_reference(ratings)


@lru_cache(maxsize=None)
def _ranking_reference(path: str):
    ids, cells = (load_entries if path.endswith(".entries.json") else load_matrix)(path)
    return ids, fahp_reference(cells)


def check_output(op: dict, text: str) -> list[str]:
    """Errors in one operation's emitted report; empty when it is correct.

    `op` names the subcommand, the report format and the input files; a
    `study` flag adds the published-outcome checks of the bundled study.
    """
    fmt = op["emit"]
    if op["command"] == "paper-verify":
        return check_paper_verify(text, fmt)
    rep = parse_report(text, fmt)
    errors = []
    selected = None
    if "ratings" in op:
        ids, ref = _screening_reference(op["ratings"])
        errors += check_screening(rep["screening"], ref, ids, fmt)
        selected = [b for b, s in zip(ids, ref["selected"]) if s]
        if op.get("study") and selected != PUBLISHED_SELECTED:
            errors.append(f"survivors {selected} != published {PUBLISHED_SELECTED}")
    if "matrix" in op:
        ids, ref = _ranking_reference(op["matrix"])
        if selected is not None and len(ids) != len(selected):
            errors.append(f"{len(selected)} survivors but a {len(ids)}x{len(ids)} matrix")
        errors += check_ranking(rep["ranking"], ref, ids, fmt)
        if rep["warnings"] != ref["warnings"]:
            errors.append(f"{rep['warnings']} warnings reported, reference finds {ref['warnings']}")
        if op.get("study") and rep["ranking"] and rank_order(rep["ranking"]) != PUBLISHED_RANK_ORDER:
            errors.append(f"rank order {rank_order(rep['ranking'])} != published")
    return errors


def input_properties(ops: list[dict]) -> dict:
    """Measured properties of a workload's inputs: survivor and violation shares."""
    props = {}
    ratings = sorted({op["ratings"] for op in ops if "ratings" in op})
    matrices = sorted({op["matrix"] for op in ops if "matrix" in op})
    if ratings:
        props["survivor_share"] = float(np.mean(
            [_screening_reference(p)[1]["selected"].mean() for p in ratings]))
    if matrices:
        shares = []
        for p in matrices:
            ids, ref = _ranking_reference(p)
            shares.append(ref["warnings"] / (len(ids) * (len(ids) - 1) / 2))
        props["violation_share"] = float(np.mean(shares))
    return props
