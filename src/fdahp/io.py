"""File ingestion and export for rating panels and pairwise matrices.

Each kind has one reader and one writer. Both take the format from `fmt`,
"csv" or "json", or else from the file's extension (.csv or .json, in any
case); any other `fmt` or extension raises.

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
ends). Only a plain integer-rating file (three fields and a line break on
every line; no quote, NUL or lone CR) that is also barrier-major (each
barrier's lines together, every barrier listing the same distinct experts in
the same order) skips the `csv.reader` loop: it is split in bulk and its
ratings go to `RatingPanel.from_rows` as rows, with the same results and
errors as the loop.

JSON schemas:
  ratings: {"scale": ..., "barriers": [...], "experts": [...],
            "ratings": [{"barrier_id", "expert_id", "rating"|"tfn"}]}
  matrix:  {"criteria": [...], "mode": "strict"|"lenient",
            "cells": [{"row", "col", "tfn": [l, m, u]}]}

Barriers/criteria may be bare id strings or {"id", "name"} objects. Any other
top-level key is an error that names the nearest known one, and a ratings
record gives either "rating" or "tfn", not both.
"""
from __future__ import annotations

import csv
import json
from functools import partial
from itertools import zip_longest
from pathlib import Path
from typing import Any, Iterator, Sequence

from .delphi import Barrier, LinguisticScale, RatingPanel, get_scale
from .errors import ValidationError, _located, _nogc, _shown
from .fahp import PairwiseMatrix, build_matrix
from .tfn import TFN, TriangularFuzzyNumber, ValidationMode

RATINGS_INT_HEADER = ["barrier_id", "expert_id", "rating"]
RATINGS_TFN_HEADER = ["barrier_id", "expert_id", "l", "m", "u"]
MATRIX_HEADER = ["row_id", "col_id", "l", "m", "u"]
# how every CSV input is opened: UTF-8 with an optional byte-order mark, as Excel writes it
_CSV_TEXT = {"newline": "", "encoding": "utf-8-sig"}
# the bytes csv reads as field text: all but its separators, its quote and NUL
_FIELD_BYTES = bytes(sorted(set(range(256)) - set(b',\n\r"\0')))


def detect_format(path: str | Path, explicit: str | None = None) -> str:
    if explicit is not None:
        if explicit not in ("csv", "json"):
            raise ValidationError(f"unknown format {explicit!r}; expected 'csv' or 'json'")
        return explicit
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    if suffix == ".json":
        return "json"
    raise ValidationError(f"cannot infer format of {path}; pass format explicitly")


def load_json(path: str | Path, what: str) -> dict[str, Any]:
    """Parse a UTF-8 JSON file that holds one object, the `what` that errors name; bad
    bytes or syntax, an escape of an unpaired surrogate, which no UTF-8 output can hold,
    nesting too deep for the parser, an integer over the interpreter's digit limit, or
    any other document raise a `ValidationError` naming the file. The texts of the last
    two are fixed, since the interpreter's own differ by version."""
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.loads(text := f.read())
            if "\\" in text:  # a lone surrogate needs a \u escape, so most files skip this
                json.dumps(doc, ensure_ascii=False).encode()
        except RecursionError:
            raise ValidationError(f"{path}: invalid JSON: nested too deeply") from None
        except UnicodeEncodeError as exc:
            bad = exc.object[exc.start]
            raise ValidationError(f"{path}: invalid JSON: unpaired surrogate escape {bad!r}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from None
        except ValueError:  # an integer with more digits than int() may convert
            raise ValidationError(f"{path}: invalid JSON: an integer has too many digits") from None
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return doc


def _known_keys(path: str | Path, where: str, obj: dict, known: tuple[str, ...]) -> None:
    """Raise for the first key of `obj` not in `known`, naming the nearest known one."""
    for key in obj:
        if key not in known:
            from difflib import get_close_matches  # only on this error path
            near = get_close_matches(key, known, 1)
            hint = f" (did you mean {where + near[0]!r}?)" if near else ""
            raise ValidationError(f"{path}: unknown key {_shown(where + key)}{hint}")


def _csv_rows(path: Path, kind: str, *headers: list[str]) -> Iterator[Any]:
    """Open the CSV table at `path`; yield `(header, reader)`, then each non-blank data row.

    The header loses its trailing empty fields ([] for an empty file) and must be one of
    `headers`; the error names the table's `kind`. A data row that is short or has an
    empty field raises; so do non-empty fields beyond the header, while trailing empty
    ones are dropped. Rows are yielded header-wide. This never reads ahead, so while the
    caller holds a row, `reader.line_num` is the physical line on which that row ends.
    """
    with open(path, **_CSV_TEXT) as f:
        reader = csv.reader(f)
        try:
            header = next(reader, [])
            while header and not header[-1]:
                header.pop()
            if header not in headers:
                raise ValidationError(f"{path} line 1: unexpected {kind} header {header}; "
                                      f"expected {' or '.join(map(str, headers))}")
            yield header, reader
            width = len(header)
            for row in reader:
                if len(row) != width or "" in row:
                    if not row:
                        continue
                    line = reader.line_num
                    if len(row) < width or "" in row[:width]:
                        # the record as csv.DictReader builds it: None for missing fields
                        rec: dict = dict(zip_longest(header, row[:width]))
                        if row[width:]:
                            rec[None] = row[width:]
                        raise ValidationError(f"{path} line {line}: incomplete row {rec}")
                    if any(row[width:]):
                        raise ValidationError(
                            f"{path} line {line}: non-empty fields beyond the header: {row[width:]}"
                        )
                    row = row[:width]
                yield row
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except csv.Error as exc:
            raise ValidationError(f"{path} line {reader.line_num}: {exc}") from None


def _parse_tfn_fields(path: Path, reader: Any, row: list[str]) -> TriangularFuzzyNumber:
    """The TFN of the l, m, u fields, the last three, of the `row` that `reader` last read;
    errors name its line and the first bad field, in l, m, u order."""
    try:
        return TFN(float(row[-3]), float(row[-2]), float(row[-1]))
    except ValueError:  # ValidationError included
        where = f"{path} line {reader.line_num}"
    for name, raw in zip("lmu", row[-3:]):
        try:
            float(raw)
        except ValueError:
            raise ValidationError(f"{where}: field {name!r} is not a number: {raw!r}") from None
    return _located(where, TFN, *map(float, row[-3:]))


def _json_tfn(t) -> TriangularFuzzyNumber:
    """`TFN(*t)` for a JSON [l, m, u] array; errors carry no location."""
    try:
        return TFN(*t)
    except (TypeError, ValidationError):  # TypeError: not iterable, or not three items
        if type(t) is list and len(t) == 3 and all(type(x) in (int, float) for x in t):
            raise  # a number TFN rejects: NaN, an infinity, an int too large
        raise ValidationError("tfn must be a numeric [l, m, u] triple") from None


def _parse_barrier_list(where: str, items: Sequence[Any]) -> list[Barrier]:
    out = []
    for k, item in enumerate(items):
        if isinstance(item, str):
            out.append(Barrier(item))
        elif isinstance(item, dict) and "id" in item:
            out.append(Barrier(str(item["id"]), str(item.get("name", ""))))
        else:
            raise ValidationError(
                f"{where}[{k}]: bad barrier entry {_shown(item)}; expected id string or object"
            )
    return out


def _json_list(path: Path, doc: dict[str, Any], key: str) -> list:
    """`doc[key]`, which must be present and a JSON array."""
    if key not in doc:
        raise ValidationError(f"{path}: missing or malformed field: {key!r}")
    items = doc[key]
    if not isinstance(items, list):
        raise ValidationError(f"{path}: {key!r} must be a list, got {type(items).__name__}")
    return items


def _plain_int_ratings(
    path: Path, scale: LinguisticScale, mode: ValidationMode
) -> RatingPanel | None:
    """The panel of a plain, barrier-major integer-rating CSV file (each barrier's lines
    together, listing the same distinct experts in the same order), split in bulk and given
    to `RatingPanel.from_rows` as rows; None for any other file, or for a bad rating, which
    the `csv.reader` loop reads and names by line."""
    try:
        with open(path, **_CSV_TEXT) as f:
            text = f.read()
    except UnicodeDecodeError:
        return None
    eol = "\r\n" if text.endswith("\r\n") else "\n"
    head = ",".join(RATINGS_INT_HEADER) + eol
    # three fields a line; csv ends a record only at CR or LF, never at \x85 as splitlines() does
    if (not text.startswith(head) or text.encode().translate(None, _FIELD_BYTES)
            != (",," + eol).encode() * text.count("\n")):
        return None
    cells = text[len(head):-len(eol)].replace(eol, ",").split(",")
    too_long = len(text) > (limit := csv.field_size_limit()) and max(map(len, cells)) > limit
    del text
    if too_long or "" in cells:
        return None
    bids, eids, raws = cells[0::3], cells[1::3], cells[2::3]
    del cells
    heads = bids[::(ne := bids.count(bids[0]))]
    if not (eids == eids[:ne] * len(heads) and len({*heads}) == len(heads)
            and len({*eids[:ne]}) == ne and all(bids[j::ne] == heads for j in range(1, ne))):
        return None
    try:
        parsed = {raw: scale.tfn(int(raw)) for raw in set(raws)}
    except ValueError:  # ValidationError included
        return None
    cells = tuple(map(parsed.__getitem__, raws))
    rows = {bid: cells[k * ne:k * ne + ne] for k, bid in enumerate(heads)}
    return _located(path, RatingPanel.from_rows, map(Barrier, heads), eids[:ne], rows, mode)


@_nogc
def read_ratings(
    path: str | Path,
    fmt: str | None = None,
    scale: LinguisticScale | None = None,
    mode: ValidationMode = ValidationMode.STRICT,
) -> RatingPanel:
    """Read a rating panel; a CSV header picks the integer or triple path."""
    fmt = detect_format(path, fmt)
    path = Path(path)
    grid: dict[tuple[str, str], TriangularFuzzyNumber] = {}
    if fmt == "csv":
        scale = scale or get_scale("delphi-10")
        if (panel := _plain_int_ratings(path, scale, mode)) is not None:
            return panel
        rows = _csv_rows(path, "ratings", RATINGS_INT_HEADER, RATINGS_TFN_HEADER)
        header, reader = next(rows)
        if header == RATINGS_INT_HEADER:
            parsed: dict[str, TriangularFuzzyNumber] = {}  # raw text -> TFN; no error is kept
            def cell(row: list[str]) -> TriangularFuzzyNumber:
                if (t := parsed.get(raw := row[2])) is None:
                    try:
                        rating = int(raw)
                    except ValueError:
                        raise ValidationError(f"{path} line {reader.line_num}: field 'rating' "
                                              f"is not an integer: {raw!r}") from None
                    t = parsed[raw] = _located(f"{path} line {reader.line_num}", scale.tfn, rating)
                return t
        else:
            cell = partial(_parse_tfn_fields, path, reader)
        for row in rows:
            if (key := (row[0], row[1])) in grid:
                raise ValidationError(
                    f"{path} line {reader.line_num}: duplicate rating for ({', '.join(key)})"
                )
            grid[key] = cell(row)
        if not grid:
            raise ValidationError(f"{path}: no rating rows")
        # grid keys are in row order, so these keep each id's first-seen position
        bids, eids = zip(*grid)
        barriers, experts = map(Barrier, dict.fromkeys(bids)), dict.fromkeys(eids)
    else:
        doc = load_json(path, "ratings file")
        _known_keys(path, "", doc, ("scale", "barriers", "experts", "ratings"))
        barriers = _parse_barrier_list(f"{path} barriers", _json_list(path, doc, "barriers"))
        experts = [str(e) for e in _json_list(path, doc, "experts")]
        entries = _json_list(path, doc, "ratings")
        if scale is None:
            scale = _located(path, get_scale, doc.get("scale", "delphi-10"))
        for k, rec in enumerate(entries):
            try:
                key = (str(rec["barrier_id"]), str(rec["expert_id"]))
                if key in grid:
                    raise ValidationError(f"duplicate rating for {key}")
                if "tfn" in rec:
                    if "rating" in rec:
                        raise ValidationError("give either 'rating' or 'tfn', not both")
                    grid[key] = _json_tfn(rec["tfn"])
                elif "rating" in rec:
                    if type(rating := rec["rating"]) is not int:
                        raise ValidationError(f"rating must be an integer, got {_shown(rating)}")
                    grid[key] = scale.tfn(rating)
                else:
                    raise ValidationError("needs either 'rating' or 'tfn'")
            except (KeyError, TypeError):  # a missing id, or a record that is not an object
                raise ValidationError(f"{path} ratings[{k}]: needs barrier_id and expert_id") from None
            except ValidationError as exc:
                raise ValidationError(f"{path} ratings[{k}]: {exc}") from None
    return _located(path, RatingPanel, tuple(barriers), tuple(experts), grid, mode)


@_nogc
def read_matrix(
    path: str | Path, fmt: str | None = None, mode: ValidationMode | None = None
) -> PairwiseMatrix:
    """Read a pairwise matrix; CSV criteria appear in first-seen order. An explicit
    `mode` overrides a JSON file's own; a CSV file without one is strict."""
    fmt = detect_format(path, fmt)
    path = Path(path)
    if fmt == "csv":
        rows = _csv_rows(path, "matrix", MATRIX_HEADER)
        _, reader = next(rows)
        entries = [(row[0], row[1], _parse_tfn_fields(path, reader, row)) for row in rows]
        if not entries:
            raise ValidationError(f"{path}: no matrix rows")
        criteria = list(dict.fromkeys(x for rid, cid, _ in entries for x in (rid, cid)))
        mode = mode or ValidationMode.STRICT
    else:
        doc = load_json(path, "matrix file")
        _known_keys(path, "", doc, ("criteria", "mode", "cells"))
        criteria = _parse_barrier_list(f"{path} criteria", _json_list(path, doc, "criteria"))
        cells = _json_list(path, doc, "cells")
        if mode is None:
            mode = _located(path, ValidationMode.parse, doc.get("mode", "strict"))
        entries = []
        for k, rec in enumerate(cells):
            try:
                entries.append((str(rec["row"]), str(rec["col"]), _json_tfn(rec["tfn"])))
            except (KeyError, TypeError):  # a missing field, or a record that is not an object
                raise ValidationError(f"{path} cells[{k}]: needs row, col, and tfn") from None
            except ValidationError as exc:
                raise ValidationError(f"{path} cells[{k}]: {exc}") from None
    return _located(path, build_matrix, entries, criteria, mode)


# ---------------------------------------------------------------------------
# writers (used by the dataset export capability and for templating studies)

def _write_csv(path: str | Path, header: list[str], cells) -> None:
    """One row per ((a, b), tfn) of `cells`: a, b, then l, m, u at full precision."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows([a, b, repr(t.l), repr(t.m), repr(t.u)] for (a, b), t in cells)


def _write_json(path: str | Path, doc: dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def write_ratings(panel: RatingPanel, path: str | Path, fmt: str | None = None) -> None:
    """Write `panel` with every rating as a triple: CSV on the triple path, or JSON."""
    if detect_format(path, fmt) == "csv":
        _write_csv(path, RATINGS_TFN_HEADER, panel.ratings.items())
    else:
        _write_json(path, {
            "scale": "delphi-10",
            "barriers": [{"id": b.id, "name": b.name} for b in panel.barriers],
            "experts": list(panel.experts),
            "ratings": [{"barrier_id": bid, "expert_id": eid, "tfn": list(t)}
                        for (bid, eid), t in panel.ratings.items()],
        })


def write_matrix(matrix: PairwiseMatrix, path: str | Path, fmt: str | None = None) -> None:
    """Write all n*n cells of `matrix`, row by row, as CSV or as JSON with its mode."""
    ids = matrix.ids
    cells = [((rid, cid), t) for rid, row in zip(ids, matrix.cells) for cid, t in zip(ids, row)]
    if detect_format(path, fmt) == "csv":
        _write_csv(path, MATRIX_HEADER, cells)
    else:
        _write_json(path, {
            "criteria": [{"id": c.id, "name": c.name} for c in matrix.criteria],
            "mode": matrix.mode.value,
            "cells": [{"row": rid, "col": cid, "tfn": list(t)} for (rid, cid), t in cells],
        })
