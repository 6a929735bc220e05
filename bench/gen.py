"""Seeded input generator for the benchmark workloads.

`generate(workload, seed, dest, export)` writes the workload's input files
under `dest` and returns its manifest: the generation parameters, the rows
and bytes of every file, and the list of operations the workload cycles
through. The same seed gives the same files and the same operation order.
The program under test sees only these files (or, for `matrix-large`, the
entries loaded from them).
"""
from __future__ import annotations

import csv
import json
import random
from pathlib import Path

# Fuzzy 1..9 importance scale used to draw pairwise comparisons.
SAATY = {1: (1, 1, 1), 2: (1, 2, 3), 3: (2, 3, 4), 4: (3, 4, 5), 5: (4, 5, 6),
         6: (5, 6, 7), 7: (6, 7, 8), 8: (7, 8, 9), 9: (9, 9, 9)}

STUDY_BARRIERS, STUDY_EXPERTS, STUDY_SURVIVORS = 16, 4, 11
BATCH_VARIANTS = 6
LARGE_N, LARGE_SETS, OFF_RECIPROCAL_SHARE = 150, 3, 0.05
PANEL_BARRIERS, PANEL_EXPERTS, PANEL_SETS = 400, 25, 2
EMITS = ("json", "csv", "md")


def _recip(t, digits=None):
    r = tuple(1.0 / x for x in reversed(t))
    return tuple(round(x, digits) for x in r) if digits else r


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _file_info(path: Path) -> dict:
    """Data rows and bytes of an input file, as the program will read it."""
    if path.suffix == ".csv":
        with open(path, encoding="utf-8") as f:
            rows = sum(1 for _ in f) - 1
    else:
        doc = json.loads(path.read_text(encoding="utf-8"))
        rows = len(doc.get("ratings") or doc.get("cells") or doc.get("entries"))
    return {"rows": rows, "bytes": path.stat().st_size}


def _study_ratings(rng: random.Random, survivors_of) -> list[list[int]]:
    """16x4 integer ratings with exactly 11 survivors of the mean threshold."""
    while True:
        strong = set(rng.sample(range(STUDY_BARRIERS), STUDY_SURVIVORS))
        levels = [rng.uniform(6.5, 9.5) if b in strong else rng.uniform(3.0, 6.5)
                  for b in range(STUDY_BARRIERS)]
        grid = [[min(10, max(1, round(lv + rng.gauss(0, 0.8)))) for _ in range(STUDY_EXPERTS)]
                for lv in levels]
        if survivors_of(grid) == STUDY_SURVIVORS:
            return grid


def _study_matrix(rng: random.Random, n: int) -> list[list[tuple]]:
    """Full n x n matrix as printed in studies: two-decimal reciprocals, one
    unordered cell and one mirrored-not-inverted cell, so three warnings."""
    cells = [[(1.0, 1.0, 1.0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    levels = {p: rng.randint(1, 9) for p in pairs}
    for (i, j) in pairs:
        t = tuple(map(float, SAATY[levels[(i, j)]]))
        fwd, back = (t, _recip(t, 2)) if rng.random() < 0.5 else (_recip(t, 2), t)
        cells[i][j], cells[j][i] = fwd, back
    unordered, mirrored = rng.sample([p for p in pairs if 1 < levels[p] < 9], 2)
    i, j = unordered
    b = cells[j][i]
    cells[j][i] = (b[0], b[1], b[0]) if b[0] < b[1] else (b[2], b[1], b[2])
    i, j = mirrored
    cells[j][i] = cells[i][j]
    return cells


def _write_ratings(dest: Path, stem: str, grid, barriers, experts) -> dict[str, Path]:
    csv_path, json_path = dest / f"{stem}.csv", dest / f"{stem}.json"
    _write_csv(csv_path, ["barrier_id", "expert_id", "rating"],
               [[b, e, grid[i][k]] for i, b in enumerate(barriers) for k, e in enumerate(experts)])
    _write_json(json_path, {
        "scale": "delphi-10", "barriers": barriers, "experts": experts,
        "ratings": [{"barrier_id": b, "expert_id": e, "rating": grid[i][k]}
                    for i, b in enumerate(barriers) for k, e in enumerate(experts)],
    })
    return {"csv": csv_path, "json": json_path}


def _write_matrix(dest: Path, stem: str, cells, ids) -> dict[str, Path]:
    csv_path, json_path = dest / f"{stem}.csv", dest / f"{stem}.json"
    _write_csv(csv_path, ["row_id", "col_id", "l", "m", "u"],
               [[r, c, *map(repr, cells[i][j])] for i, r in enumerate(ids) for j, c in enumerate(ids)])
    _write_json(json_path, {
        "criteria": ids, "mode": "lenient",
        "cells": [{"row": r, "col": c, "tfn": list(cells[i][j])}
                  for i, r in enumerate(ids) for j, c in enumerate(ids)],
    })
    return {"csv": csv_path, "json": json_path}


def _export_study(dest: Path, export) -> dict[str, dict[str, Path]]:
    """The bundled study's tables, as `fdahp export` writes them."""
    for fmt in ("csv", "json"):
        export(dest, fmt)
    return {"ratings": {f: dest / f"delphi_ratings.{f}" for f in ("csv", "json")},
            "matrix": {f: dest / f"fahp_matrix.{f}" for f in ("csv", "json")}}


def _study_cli(rng, dest, export) -> tuple[dict, list[dict]]:
    study = _export_study(dest / "study", export)
    ops = [{"command": "paper-verify", "emit": e, "argv": ["paper-verify", "--emit", e], "study": True}
           for e in ("text", "json")]
    for fmt in ("csv", "json"):
        ratings, matrix = str(study["ratings"][fmt]), str(study["matrix"][fmt])
        config = dest / f"pipeline_{fmt}.json"
        _write_json(config, {"ratings": {"path": ratings}, "matrix": {"path": matrix},
                             "mode": "lenient"})
        for e in EMITS:
            ops += [
                {"command": "screen", "emit": e, "ratings": ratings, "study": True,
                 "argv": ["screen", "--ratings", ratings, "--emit", e]},
                {"command": "rank", "emit": e, "matrix": matrix, "study": True,
                 "argv": ["rank", "--matrix", matrix, "--mode", "lenient", "--emit", e]},
                {"command": "pipeline", "emit": e, "ratings": ratings, "matrix": matrix,
                 "study": True, "argv": ["pipeline", "--config", str(config), "--emit", e]},
            ]
    return {"inputs": "bundled study via `fdahp export`", "cycle": "4 subcommands x emit x csv/json"}, ops


def _study_batch(rng, dest, export) -> tuple[dict, list[dict]]:
    import numpy as np
    from check import DELPHI_10, delphi_reference  # NumPy; only run.py's own process loads it

    def survivors_of(grid):
        arr = np.array([[DELPHI_10[r] for r in row] for row in grid], dtype=float)
        return int(delphi_reference(arr)["selected"].sum())

    variants = {"study": {**_export_study(dest / "study", export), "study": True}}
    barriers = [f"B{k + 1}" for k in range(STUDY_BARRIERS)]
    experts = [f"E{k + 1}" for k in range(STUDY_EXPERTS)]
    criteria = [f"B{k + 1}" for k in range(STUDY_SURVIVORS)]
    for v in range(1, BATCH_VARIANTS + 1):
        grid = _study_ratings(rng, survivors_of)
        variants[f"v{v}"] = {
            "ratings": _write_ratings(dest, f"v{v}_ratings", grid, barriers, experts),
            "matrix": _write_matrix(dest, f"v{v}_matrix", _study_matrix(rng, STUDY_SURVIVORS), criteria),
        }
    ops = [{"command": "batch", "emit": e, "ratings": str(v["ratings"][fmt]),
            "matrix": str(v["matrix"][fmt]), "study": v.get("study", False)}
           for v in variants.values() for fmt in ("csv", "json") for e in EMITS]
    params = {"variants": ["study"] + [f"v{v}" for v in range(1, BATCH_VARIANTS + 1)],
              "shape": f"{STUDY_BARRIERS}x{STUDY_EXPERTS} ratings, {STUDY_SURVIVORS} survivors, "
                       f"{STUDY_SURVIVORS}x{STUDY_SURVIVORS} lenient matrix with 3 warnings",
              "strong_level": [6.5, 9.5], "weak_level": [3.0, 6.5], "expert_noise_sd": 0.8}
    return params, ops


def _matrix_large(rng, dest, export) -> tuple[dict, list[dict]]:
    ids = [f"C{k + 1}" for k in range(LARGE_N)]
    pairs = [(i, j) for i in range(LARGE_N) for j in range(i + 1, LARGE_N)]
    ops = []
    for s in range(1, LARGE_SETS + 1):
        entries = []
        for i, j in pairs:
            t = tuple(map(float, SAATY[rng.randint(1, 9)]))
            entries.append([ids[i], ids[j], list(t if rng.random() < 0.5 else _recip(t))])
        for k in rng.sample(range(len(pairs)), round(OFF_RECIPROCAL_SHARE * len(pairs))):
            i, j = pairs[k]
            f = rng.uniform(1.1, 1.5)
            entries.append([ids[j], ids[i], [x * f for x in _recip(entries[k][2])]])
        path = dest / f"m{s}.entries.json"
        _write_json(path, {"criteria": ids, "entries": entries})
        ops.append({"command": "matrix", "emit": "json", "matrix": str(path)})
    params = {"n": LARGE_N, "sets": LARGE_SETS, "off_reciprocal_share": OFF_RECIPROCAL_SHARE,
              "off_reciprocal_factor": [1.1, 1.5], "entries": "upper triangle + off-reciprocal mirrors"}
    return params, ops


def _panel_large(rng, dest, export) -> tuple[dict, list[dict]]:
    barriers = [f"P{k + 1}" for k in range(PANEL_BARRIERS)]
    experts = [f"E{k + 1}" for k in range(PANEL_EXPERTS)]
    ops = []
    for s in range(1, PANEL_SETS + 1):
        bias = [rng.gauss(0, 0.5) for _ in experts]
        levels = [rng.uniform(2.5, 9.5) for _ in barriers]
        grid = [[min(10, max(1, round(lv + b + rng.gauss(0, 1.0)))) for b in bias] for lv in levels]
        path = dest / f"p{s}_ratings.csv"
        _write_csv(path, ["barrier_id", "expert_id", "rating"],
                   [[b, e, grid[i][k]] for i, b in enumerate(barriers) for k, e in enumerate(experts)])
        ops.append({"command": "panel", "emit": "json", "ratings": str(path)})
    params = {"barriers": PANEL_BARRIERS, "experts": PANEL_EXPERTS, "sets": PANEL_SETS,
              "barrier_level": [2.5, 9.5], "expert_bias_sd": 0.5, "rating_noise_sd": 1.0}
    return params, ops


WORKLOADS = {"study-cli": _study_cli, "study-batch": _study_batch,
             "matrix-large": _matrix_large, "panel-large": _panel_large}


def generate(workload: str, seed: int, dest: Path, export) -> dict:
    """Write `workload`'s inputs for `seed` under `dest`; return its manifest.

    `export(dir, fmt)` must run `fdahp export --dest dir --format fmt`.
    """
    rng = random.Random(f"{workload}:{seed}")
    dest.mkdir(parents=True, exist_ok=True)
    params, ops = WORKLOADS[workload](rng, dest, export)
    rng.shuffle(ops)
    files = sorted({op[k] for op in ops for k in ("ratings", "matrix") if k in op})
    return {"workload": workload, "seed": seed, "params": params,
            "files": {f: _file_info(Path(f)) for f in files}, "ops": ops}
