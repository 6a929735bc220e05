"""File ingestion and export for rating panels and pairwise matrices.

CSV schemas (UTF-8, one cell per row):
  ratings, integer path:  barrier_id,expert_id,rating
  ratings, triple path:   barrier_id,expert_id,l,m,u
  matrix:                 row_id,col_id,l,m,u   (diagonal/reciprocals optional)

CSV input is UTF-8 with an optional byte-order mark, as Excel's "CSV UTF-8"
writes it. Excel pads every row of a wider sheet with trailing commas, so
trailing empty fields are ignored on every line, the header included. The
rest of the header must match exactly; blank lines are skipped. Every field
named by the header must be non-empty. A non-empty field beyond the header is
an error, never silently dropped. Error messages give the physical line of
the file (for a quoted field that spans lines, the line on which its row
ends).

JSON schemas:
  ratings: {"scale": ..., "barriers": [...], "experts": [...],
            "ratings": [{"barrier_id", "expert_id", "rating"|"tfn"}]}
  matrix:  {"criteria": [...], "mode": "strict"|"lenient",
            "cells": [{"row", "col", "tfn": [l, m, u]}]}

Barriers/criteria may be bare id strings or {"id", "name"} objects.
"""
from __future__ import annotations

import csv
import json
from itertools import zip_longest
from pathlib import Path
from typing import Any, Iterator, Sequence, TextIO

from .delphi import Barrier, LinguisticScale, RatingPanel, get_scale
from .errors import ValidationError
from .fahp import PairwiseMatrix, build_matrix
from .tfn import TFN, TriangularFuzzyNumber, ValidationMode

RATINGS_INT_HEADER = ["barrier_id", "expert_id", "rating"]
RATINGS_TFN_HEADER = ["barrier_id", "expert_id", "l", "m", "u"]
MATRIX_HEADER = ["row_id", "col_id", "l", "m", "u"]


def detect_format(path: str | Path, explicit: str | None = None) -> str:
    if explicit:
        if explicit not in ("csv", "json"):
            raise ValidationError(f"unknown input format {explicit!r}")
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise ValidationError(f"cannot infer format of {path}; pass format explicitly")


def load_json(path: str | Path) -> Any:
    """Parse a UTF-8 JSON file; bad bytes or syntax raise a `ValidationError` naming it."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or an overlong integer
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None


def _located(where: str | Path, build, *args):
    """`build(*args)`, with `where` (a file, or a place in one) prefixed to any
    validation error it raises."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _csv_rows(f: TextIO, path: Path) -> Iterator[tuple[int, list[str] | None]]:
    """Yield (line, fields) for the header, then for each non-blank data row.

    The header is yielded without its trailing empty fields (None for an
    empty file); the caller checks it before asking for rows. A data row that
    is short or has an empty field raises; so do non-empty fields beyond the
    header, while trailing empty ones are dropped. Rows are yielded
    header-wide.
    """
    reader = csv.reader(f)
    try:
        header = next(reader, None)
        while header and not header[-1]:
            header.pop()
        yield reader.line_num, header
        width = len(header)  # type: ignore[arg-type]
        for row in reader:
            if len(row) != width or "" in row:
                if not row:
                    continue
                line = reader.line_num
                if len(row) < width or "" in row[:width]:
                    # the record as csv.DictReader builds it: None for missing fields
                    rec: dict = dict(zip_longest(header, row[:width]))  # type: ignore[arg-type]
                    if row[width:]:
                        rec[None] = row[width:]
                    raise ValidationError(f"{path} line {line}: incomplete row {rec}")
                if any(row[width:]):
                    raise ValidationError(
                        f"{path} line {line}: non-empty fields beyond the header: {row[width:]}"
                    )
                row = row[:width]
            yield reader.line_num, row
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None


def _parse_float(path: Path, line: int, fieldname: str, raw: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValidationError(
            f"{path} line {line}: field {fieldname!r} is not a number: {raw!r}"
        ) from None


def _parse_tfn_fields(path: Path, line: int, l: str, m: str, u: str) -> TriangularFuzzyNumber:
    try:
        return TFN(float(l), float(m), float(u))
    except ValueError:  # ValidationError included
        pass  # name the first bad field, in l, m, u order
    values = [_parse_float(path, line, k, raw) for k, raw in zip("lmu", (l, m, u))]
    try:
        return TFN(*values)
    except ValidationError as exc:
        raise ValidationError(f"{path} line {line}: {exc}") from None


def _scale_rating(path: Path, line: int, scale: LinguisticScale, raw: str) -> TriangularFuzzyNumber:
    try:
        rating = int(raw)
    except ValueError:
        raise ValidationError(
            f"{path} line {line}: field 'rating' is not an integer: {raw!r}"
        ) from None
    try:
        return scale.tfn(rating)
    except ValidationError as exc:
        raise ValidationError(f"{path} line {line}: {exc}") from None


def _json_tfn(where: str, triple) -> TriangularFuzzyNumber:
    if (
        not isinstance(triple, list)
        or len(triple) != 3
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in triple)
    ):
        raise ValidationError(f"{where}: tfn must be a numeric [l, m, u] triple")
    try:
        return TFN(*triple)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def read_ratings_csv(
    path: str | Path,
    scale: LinguisticScale | None = None,
    mode: ValidationMode = ValidationMode.STRICT,
) -> RatingPanel:
    """Read a rating panel from CSV; the header picks the integer or triple path."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        rows = _csv_rows(f, path)
        _, header = next(rows)
        if header == RATINGS_INT_HEADER:
            integer_path = True
        elif header == RATINGS_TFN_HEADER:
            integer_path = False
        else:
            raise ValidationError(
                f"{path} line 1: unexpected ratings header {header or []}; "
                f"expected {RATINGS_INT_HEADER} or {RATINGS_TFN_HEADER}"
            )
        if integer_path and scale is None:
            scale = get_scale("delphi-10")
        grid: dict[tuple[str, str], TriangularFuzzyNumber] = {}
        for line, (bid, eid, *values) in rows:
            key = (bid, eid)
            if key in grid:
                raise ValidationError(f"{path} line {line}: duplicate rating for ({bid}, {eid})")
            if integer_path:
                grid[key] = _scale_rating(path, line, scale, values[0])  # type: ignore[arg-type]
            else:
                grid[key] = _parse_tfn_fields(path, line, *values)
    if not grid:
        raise ValidationError(f"{path}: no rating rows")
    # grid keys are in row order, so these keep each id's first-seen position
    bids, eids = zip(*grid)
    barriers, experts = dict.fromkeys(bids), dict.fromkeys(eids)
    return _located(path, RatingPanel, tuple(map(Barrier, barriers)), tuple(experts), grid, mode)


def _parse_barrier_list(where: str, items: Sequence[Any]) -> list[Barrier]:
    out = []
    for k, item in enumerate(items):
        if isinstance(item, str):
            out.append(Barrier(item))
        elif isinstance(item, dict) and "id" in item:
            out.append(Barrier(str(item["id"]), str(item.get("name", ""))))
        else:
            raise ValidationError(
                f"{where}[{k}]: bad barrier entry {item!r}; expected id string or object"
            )
    return out


def _json_list(path: Path, doc: Any, key: str) -> list:
    """`doc[key]`, which must be a JSON array."""
    items = doc[key]
    if not isinstance(items, list):
        raise ValidationError(f"{path}: {key!r} must be a list, got {type(items).__name__}")
    return items


def read_ratings_json(
    path: str | Path,
    scale: LinguisticScale | None = None,
    mode: ValidationMode = ValidationMode.STRICT,
) -> RatingPanel:
    path = Path(path)
    doc = load_json(path)
    try:
        barriers = _parse_barrier_list(f"{path} barriers", _json_list(path, doc, "barriers"))
        experts = [str(e) for e in _json_list(path, doc, "experts")]
        entries = _json_list(path, doc, "ratings")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: missing or malformed field: {exc}") from None
    if scale is None:
        scale = _located(path, get_scale, doc.get("scale", "delphi-10"))
    grid: dict[tuple[str, str], TriangularFuzzyNumber] = {}
    for k, rec in enumerate(entries):
        where = f"{path} ratings[{k}]"
        if not isinstance(rec, dict) or "barrier_id" not in rec or "expert_id" not in rec:
            raise ValidationError(f"{where}: needs barrier_id and expert_id")
        key = (str(rec["barrier_id"]), str(rec["expert_id"]))
        if key in grid:
            raise ValidationError(f"{where}: duplicate rating for {key}")
        if "tfn" in rec:
            grid[key] = _json_tfn(where, rec["tfn"])
        elif "rating" in rec:
            rating = rec["rating"]
            if isinstance(rating, bool) or not isinstance(rating, int):
                raise ValidationError(f"{where}: rating must be an integer, got {rating!r}")
            grid[key] = _located(where, scale.tfn, rating)
        else:
            raise ValidationError(f"{where}: needs either 'rating' or 'tfn'")
    return _located(path, RatingPanel, tuple(barriers), tuple(experts), grid, mode)


def read_ratings(
    path: str | Path,
    fmt: str | None = None,
    scale: LinguisticScale | None = None,
    mode: ValidationMode = ValidationMode.STRICT,
) -> RatingPanel:
    fmt = detect_format(path, fmt)
    if fmt == "csv":
        return read_ratings_csv(path, scale, mode)
    return read_ratings_json(path, scale, mode)


def read_matrix_csv(
    path: str | Path, mode: ValidationMode = ValidationMode.STRICT
) -> PairwiseMatrix:
    """Read a pairwise matrix from CSV; criteria appear in first-seen order."""
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as f:
        rows = _csv_rows(f, path)
        _, header = next(rows)
        if header != MATRIX_HEADER:
            raise ValidationError(
                f"{path} line 1: unexpected matrix header {header}; expected {MATRIX_HEADER}"
            )
        entries = [(rid, cid, _parse_tfn_fields(path, line, l, m, u))
                   for line, (rid, cid, l, m, u) in rows]
    if not entries:
        raise ValidationError(f"{path}: no matrix rows")
    criteria = dict.fromkeys(x for rid, cid, _ in entries for x in (rid, cid))
    return _located(path, build_matrix, entries, list(criteria), mode)


def read_matrix_json(
    path: str | Path, mode: ValidationMode | None = None
) -> PairwiseMatrix:
    """Read a pairwise matrix from JSON; an explicit `mode` overrides the file's."""
    path = Path(path)
    doc = load_json(path)
    try:
        criteria = _parse_barrier_list(f"{path} criteria", _json_list(path, doc, "criteria"))
        cells = _json_list(path, doc, "cells")
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"{path}: missing or malformed field: {exc}") from None
    if mode is None:
        mode = _located(path, ValidationMode.parse, doc.get("mode", "strict"))
    entries = []
    for k, rec in enumerate(cells):
        where = f"{path} cells[{k}]"
        if not isinstance(rec, dict) or not {"row", "col", "tfn"} <= set(rec):
            raise ValidationError(f"{where}: needs row, col, and tfn")
        entries.append((str(rec["row"]), str(rec["col"]), _json_tfn(where, rec["tfn"])))
    return _located(path, build_matrix, entries, criteria, mode)


def read_matrix(
    path: str | Path, fmt: str | None = None, mode: ValidationMode | None = None
) -> PairwiseMatrix:
    fmt = detect_format(path, fmt)
    if fmt == "csv":
        return read_matrix_csv(path, mode or ValidationMode.STRICT)
    return read_matrix_json(path, mode)


# ---------------------------------------------------------------------------
# writers (used by the dataset export capability and for templating studies)

def write_ratings_csv(panel: RatingPanel, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(RATINGS_TFN_HEADER)
        for bid in panel.barrier_ids:
            for eid, t in zip(panel.experts, panel.row(bid)):
                w.writerow([bid, eid, repr(t.l), repr(t.m), repr(t.u)])


def write_ratings_json(panel: RatingPanel, path: str | Path, scale_name: str = "delphi-10") -> None:
    doc = {
        "scale": scale_name,
        "barriers": [{"id": b.id, "name": b.name} for b in panel.barriers],
        "experts": list(panel.experts),
        "ratings": [
            {"barrier_id": bid, "expert_id": eid, "tfn": list(t)}
            for bid in panel.barrier_ids
            for eid, t in zip(panel.experts, panel.row(bid))
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def write_matrix_csv(matrix: PairwiseMatrix, path: str | Path) -> None:
    ids = matrix.ids
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(MATRIX_HEADER)
        for i, rid in enumerate(ids):
            for j, cid in enumerate(ids):
                t = matrix.cells[i][j]
                w.writerow([rid, cid, repr(t.l), repr(t.m), repr(t.u)])


def write_matrix_json(matrix: PairwiseMatrix, path: str | Path) -> None:
    ids = matrix.ids
    doc = {
        "criteria": [{"id": c.id, "name": c.name} for c in matrix.criteria],
        "mode": matrix.mode.value,
        "cells": [
            {"row": rid, "col": cid, "tfn": list(matrix.cells[i][j])}
            for i, rid in enumerate(ids)
            for j, cid in enumerate(ids)
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
