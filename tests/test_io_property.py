"""Property tests for the CSV and JSON readers: round trips, error hygiene, and
reference readers."""
import csv
import json
from functools import partial
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import TFN, Barrier, RatingPanel, ValidationError, ValidationMode  # noqa: E402
from fdahp.delphi import DELPHI_10  # noqa: E402
from fdahp.fahp import PairwiseMatrix, build_matrix  # noqa: E402
from helpers import grid_matrix  # noqa: E402
from fdahp.io import (  # noqa: E402
    MATRIX_HEADER,
    RATINGS_INT_HEADER,
    RATINGS_TFN_HEADER,
    read_matrix,
    read_ratings,
    write_matrix,
    write_ratings,
)

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

# Ids are any non-empty text the csv module can quote: commas, quotes, line
# breaks and non-ASCII included; surrogates cannot be written as UTF-8.
IDS = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=6)
COMPONENTS = st.floats(0.0, 1e6, allow_subnormal=True)
POSITIVE = st.floats(1e-3, 1e3)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("io-property") / "in.csv"


@st.composite
def panels(draw):
    """Lenient panels of nonnegative triples, some of them unordered."""
    barriers = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    experts = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    triples = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)
    ratings = {(b, e): TFN(*draw(triples)) for b in barriers for e in experts}
    return RatingPanel(tuple(map(Barrier, barriers)), tuple(experts), ratings,
                       ValidationMode.LENIENT)


@SETTINGS
@given(panels())
def test_ratings_round_trip(path, panel):
    write_ratings(panel, path, "csv")
    back = read_ratings(path, "csv", mode=ValidationMode.LENIENT)
    assert back.barrier_ids == panel.barrier_ids
    assert back.experts == panel.experts
    assert list(back.ratings.items()) == list(panel.ratings.items())
    assert back.warnings == panel.warnings


@st.composite
def matrices(draw):
    """Lenient matrices of positive triples: unordered, off-diagonal, non-reciprocal."""
    ids = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    triples = st.tuples(POSITIVE, POSITIVE, POSITIVE)
    cells = tuple(tuple(TFN(*draw(triples)) for _ in ids) for _ in ids)
    return grid_matrix(tuple(map(Barrier, ids)), cells, ValidationMode.LENIENT)


@SETTINGS
@given(matrices())
def test_matrix_round_trip(path, matrix):
    write_matrix(matrix, path, "csv")
    back = read_matrix(path, "csv", ValidationMode.LENIENT)
    assert back.ids == matrix.ids
    assert back.cells == matrix.cells
    assert back.warnings == matrix.warnings


@SETTINGS
@given(panels())
def test_ratings_json_round_trip(path, panel):
    write_ratings(panel, path, "json")
    back = read_ratings(path, "json", mode=ValidationMode.LENIENT)
    assert back.barriers == panel.barriers
    assert back.experts == panel.experts
    assert list(back.ratings.items()) == list(panel.ratings.items())
    assert back.warnings == panel.warnings


@SETTINGS
@given(matrices())
def test_matrix_json_round_trip(path, matrix):
    write_matrix(matrix, path, "json")
    back = read_matrix(path, "json")  # the file's own mode, lenient
    assert back.mode is ValidationMode.LENIENT
    assert back.criteria == matrix.criteria
    assert back.cells == matrix.cells
    assert back.warnings == matrix.warnings

# Fields that reach every branch of the readers: valid ratings and numbers,
# empties, non-numbers, non-finite and overflowing values, huge integers.
FIELDS = st.one_of(
    st.sampled_from(["", "0", "1", "5", "10", "11", "-1", "2.5", "1e400", "nan", "-inf",
                     "x", " 3", "1_0", "9" * 5000, "A", "B", "E1"]),
    st.text(max_size=5),
)
HEADERS = st.one_of(
    st.sampled_from([RATINGS_INT_HEADER, RATINGS_TFN_HEADER, MATRIX_HEADER]),
    st.lists(st.text(max_size=4), max_size=6),
)
ROWS = st.lists(st.lists(FIELDS, max_size=7), max_size=8)


@st.composite
def csv_bytes(draw):
    """CSV text from header and rows, or arbitrary bytes, with an optional BOM."""
    if draw(st.booleans()):
        lines = [draw(HEADERS)] + draw(ROWS)
        text = "".join(
            ",".join(f'"{x}"' if draw(st.booleans()) else x for x in line) + "\r\n"
            for line in lines
        )
        data = text.encode("utf-8")
    else:
        data = draw(st.binary(max_size=200))
    return (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + data


@SETTINGS
@given(csv_bytes(), st.sampled_from(ValidationMode))
def test_readers_raise_only_validation_errors(path, data, mode):
    path.write_bytes(data)
    try:
        assert isinstance(read_ratings(path, "csv", mode=mode), RatingPanel)
    except ValidationError:
        pass
    try:
        assert isinstance(read_matrix(path, "csv", mode), PairwiseMatrix)
    except ValidationError:
        pass


def reference_ratings(path, mode):
    """The rating reader as a plain csv.DictReader loop, for well-formed files."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        integer_path = reader.fieldnames == RATINGS_INT_HEADER
        grid = {}
        for rec in reader:
            key = (rec["barrier_id"], rec["expert_id"])
            if integer_path:
                grid[key] = DELPHI_10.tfn(int(rec["rating"]))
            else:
                grid[key] = TFN(float(rec["l"]), float(rec["m"]), float(rec["u"]))
    barriers = list(dict.fromkeys(b for b, _ in grid))
    experts = list(dict.fromkeys(e for _, e in grid))
    return RatingPanel(tuple(map(Barrier, barriers)), tuple(experts), grid, mode)


@st.composite
def well_formed_ratings(draw):
    """A complete ratings table in either schema, rows shuffled, with blank
    lines and trailing empty fields sprinkled in."""
    barriers = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    experts = draw(st.lists(IDS, min_size=1, max_size=4, unique=True))
    integer_path = draw(st.booleans())
    rows = []
    for b in barriers:
        for e in experts:
            if integer_path:
                k = draw(st.integers(1, 10))
                # any text int() accepts, not only str(k)
                forms = [str(k), f"0{k}", f" {k}", f"{k} ", f"+{k}"] + ["1_0"] * (k == 10)
                values = [draw(st.sampled_from(forms))]
            else:
                triple = draw(st.tuples(COMPONENTS, COMPONENTS, COMPONENTS))
                values = list(map(repr, sorted(triple)))
            rows.append([b, e, *values, *[""] * draw(st.integers(0, 2))])
    rows = draw(st.permutations(rows))
    blanks = draw(st.lists(st.integers(0, len(rows)), max_size=3))
    for k in sorted(blanks, reverse=True):
        rows.insert(k, [])
    header = RATINGS_INT_HEADER if integer_path else RATINGS_TFN_HEADER
    return header, rows


@SETTINGS
@given(well_formed_ratings(), st.sampled_from(ValidationMode))
def test_ratings_reader_matches_dictreader_reference(path, table, mode):
    header, rows = table
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)
    got, want = read_ratings(path, "csv", mode=mode), reference_ratings(path, mode)
    assert got.barrier_ids == [b.id for b in want.barriers]
    assert got.experts == want.experts
    assert list(got.ratings.items()) == list(want.ratings.items())
    for b in want.barrier_ids:
        assert got.row(b) == tuple(want.ratings[b, e] for e in want.experts)


# Characters an edit puts into a field: the ones the csv module treats specially,
# the ones str.splitlines() also breaks at (\x85, \u2028), a BOM, and spaces and
# signs, which int() may accept.
SPECIALS = [",", '"', "\r", "\n", "\r\n", "\x00", "\x85", "\u2028", "\ufeff", " ", "+", "-"]


@st.composite
def integer_rating_csvs(draw):
    """Integer-rating CSV files: a full grid over digit and letter ids, some rows edited
    (a special character put into a field, a field quoted, digits joined by a character
    that splitlines() breaks at and csv does not, an extra field, a duplicate or a
    missing cell); either line break, with or without a last one, a BOM, or a byte that
    is not UTF-8."""
    ids = st.sampled_from(["1", "2", "3", "A", "E1", "E2"])
    barriers = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    experts = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    ratings = st.sampled_from([*map(str, range(1, 11)), " 4", "+3", "07"] * 3 + ["0", "11", "x"])
    rows = [[b, e, draw(ratings)] for b in barriers for e in experts]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        j = draw(st.integers(0, 2))
        edit = draw(st.sampled_from(["special", "quote", "breaks", "extra", "duplicate", "drop"]))
        if edit == "special":
            k = draw(st.integers(0, len(row[j])))
            row[j] = row[j][:k] + draw(st.sampled_from(SPECIALS)) + row[j][k:]
        elif edit == "quote":
            row[j] = f'"{row[j]}"'
        elif edit == "breaks":
            digits = draw(st.lists(st.sampled_from("123"), min_size=2, max_size=4))
            row[j] = draw(st.sampled_from(["\x85", "\u2028"])).join(digits)
        elif edit == "extra":
            row.append(draw(st.sampled_from(["", "7"])))
        elif edit == "duplicate":
            rows.insert(draw(st.integers(0, len(rows))), row[:2] + [draw(ratings)])
        elif len(rows) > 1:
            rows.remove(row)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    last = draw(st.sampled_from([eol, eol, ""]))
    text = eol.join(map(",".join, [RATINGS_INT_HEADER, *rows])) + last
    data = (draw(st.sampled_from(["", "\ufeff"])) + text).encode()
    if draw(st.integers(0, 7)) == 0:
        k = draw(st.integers(0, len(data)))
        data = data[:k] + b"\xff" + data[k:]
    return data


def _outcome(path):
    try:
        return read_ratings(path, "csv")
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(integer_rating_csvs())
def test_bulk_integer_reader_matches_the_row_by_row_one(path, data):
    path.write_bytes(data)
    with patch("fdahp.io._plain_int_ratings", return_value=None):
        want = _outcome(path)
    assert _outcome(path) == want


# JSON record values: every type json.load makes, with numbers that reach each
# branch of TFN and of the scale lookup (bools, ints, ints too large for a
# float, NaN, infinities, floats equal to an on-scale rating).
SCALARS = st.one_of(
    st.floats(0.1, 9.0),
    st.sampled_from([0.0, -0.0, -1.0, 1e-310, 5.0, float("nan"), float("inf"), -float("inf")]),
    st.integers(-1, 11),
    st.sampled_from([10 ** 400, True, False, None, "", "5", "x"]),
)
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4),
                        st.dictionaries(st.sampled_from(["l", "id"]), SCALARS, max_size=2))
TRIPLE_VALUES = st.one_of(st.lists(SCALARS, min_size=3, max_size=3), JSON_VALUES)
# str ids, and values whose str() is one of them or is not a known id
JSON_IDS = st.sampled_from(["A", "B", "1", "True", 1, True, None, 1.0, ["A"]])


@st.composite
def bad_records(draw, id_keys, value_keys):
    """A record that is not a dict, or a dict holding each id key (3 times in
    4) and each value key (1 time in 2) with an arbitrary value."""
    if draw(st.integers(0, 5)) == 0:
        return draw(JSON_VALUES)
    rec = {}
    for key in id_keys + value_keys:
        if draw(st.integers(0, 3)) > (key in value_keys):
            rec[key] = draw(JSON_IDS if key in id_keys else TRIPLE_VALUES)
    return rec


def _edited(draw, records, id_keys, near_misses, bad, values):
    """`records` shuffled, then one of: left as they are; one record's ids
    kept with fields from `near_misses`; or one or two edits, each a record
    replaced by a `bad` one, a `bad` record inserted, or a record's ids kept
    with fields from `values`, in its place or inserted elsewhere as a
    duplicate key."""
    records = draw(st.permutations(records))

    def refill(k, fields):
        return {**{key: records[k][key] for key in id_keys if key in records[k]}, **draw(fields)}

    kind = draw(st.sampled_from(["clean", "near miss", "edits"]))
    if kind == "near miss":
        k = draw(st.integers(0, len(records) - 1))
        records[k] = refill(k, near_misses)
    for _ in range(draw(st.integers(1, 2)) if kind == "edits" else 0):
        k = draw(st.integers(0, len(records) - 1))
        edit = draw(st.sampled_from(["refill", "duplicate", "replace", "insert"]))
        if edit == "replace":
            records[k] = draw(bad)
        elif edit == "insert":
            records.insert(k, draw(bad))
        elif isinstance(records[k], dict):
            rec = refill(k, values)
            if edit == "refill":
                records[k] = rec
            else:
                records.insert(draw(st.integers(0, len(records))), rec)
    return records


# ordered triples of floats or of ints
ORDERED = st.one_of(st.lists(st.floats(0.1, 9.0), min_size=3, max_size=3),
                    st.lists(st.integers(1, 9), min_size=3, max_size=3)).map(sorted)
# values one type test away from a valid component or rating: bools, ints too
# large for a float, NaN, text, null; floats equal to an on-scale rating;
# unhashable values, which a scale lookup before the type test would trip on
COMPONENT_MISSES = st.sampled_from([True, False, float("nan"), 10 ** 400, "5", None])
RATING_MISSES = st.sampled_from([True, 5.0, 7.0, "5", None, 11, [5], {}])
# an ordered triple with one component replaced
SPOILED = st.tuples(ORDERED, st.integers(0, 2), COMPONENT_MISSES).map(
    lambda a: [*a[0][:a[1]], a[2], *a[0][a[1] + 1:]]
)
# a valid "tfn" or "rating" field; an edit may give a record both, which raises
RATING_VALUES = st.one_of(
    st.fixed_dictionaries({"tfn": ORDERED}),
    st.fixed_dictionaries({"rating": st.integers(1, 10)}),
)


@st.composite
def ratings_docs(draw):
    """A complete ratings document of float triples and integer ratings, edited."""
    barriers, experts = ["A", "B", "1"], ["A", "True"]
    records = [{"barrier_id": b, "expert_id": e, **draw(RATING_VALUES)}
               for b in barriers for e in experts]
    near_misses = st.one_of(st.fixed_dictionaries({"tfn": SPOILED}),
                            st.fixed_dictionaries({"rating": RATING_MISSES}))
    bad = st.one_of(bad_records(["barrier_id", "expert_id"], ["tfn", "rating"]),
                    bad_records(["barrier_id", "expert_id"], ["rating"]))
    values = RATING_VALUES | st.fixed_dictionaries(
        {}, optional={"tfn": TRIPLE_VALUES, "rating": SCALARS})
    ratings = _edited(draw, records, ["barrier_id", "expert_id"], near_misses, bad, values)
    return {"barriers": barriers, "experts": experts, "ratings": ratings}


@st.composite
def matrix_docs(draw):
    """Upper triangles of ordered triples; unit, absent or other diagonal cells;
    exact, absent or free lower cells; then edited."""
    criteria = ["A", "B", "1"]
    cells = {}
    for i, r in enumerate(criteria):
        for j, c in enumerate(criteria[i:], i):
            if i == j:
                tfn = draw(st.sampled_from([None, [1.0, 1.0, 1.0], [1, 1, 1], [1.0, 2.0, 3.0]]))
            else:
                tfn = draw(ORDERED)
                lower = draw(st.sampled_from(["exact", "absent", "free"]))
                if lower != "absent":
                    cells[c, r] = [1 / x for x in tfn[::-1]] if lower == "exact" else draw(ORDERED)
            if tfn is not None:
                cells[r, c] = tfn
    records = [{"row": r, "col": c, "tfn": t} for (r, c), t in cells.items()]
    cells = _edited(draw, records, ["row", "col"], st.fixed_dictionaries({"tfn": SPOILED}),
                    bad_records(["row", "col"], ["tfn"]),
                    st.fixed_dictionaries({"tfn": ORDERED | TRIPLE_VALUES}))
    return {"criteria": criteria, "mode": "lenient", "cells": cells}


def _tfn(where, t):
    if not (type(t) is list and len(t) == 3 and all(type(x) in (int, float) for x in t)):
        raise ValidationError(f"{where}: tfn must be a numeric [l, m, u] triple")
    try:
        return TFN(*t)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _prefixed(path, build, *args):
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def reference_ratings_json(path, mode):
    """The ratings record loop with every check on every record, for
    documents whose id lists are well formed and whose scale is the default."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    grid = {}
    for k, rec in enumerate(doc["ratings"]):
        where = f"{path} ratings[{k}]"
        if not isinstance(rec, dict) or "barrier_id" not in rec or "expert_id" not in rec:
            raise ValidationError(f"{where}: needs barrier_id and expert_id")
        key = (str(rec["barrier_id"]), str(rec["expert_id"]))
        if key in grid:
            raise ValidationError(f"{where}: duplicate rating for {key}")
        if "tfn" in rec and "rating" in rec:
            raise ValidationError(f"{where}: give either 'rating' or 'tfn', not both")
        if "tfn" in rec:
            grid[key] = _tfn(where, rec["tfn"])
        elif "rating" in rec:
            if type(rec["rating"]) is not int:
                raise ValidationError(f"{where}: rating must be an integer, got {rec['rating']!r}")
            grid[key] = _prefixed(where, DELPHI_10.tfn, rec["rating"])
        else:
            raise ValidationError(f"{where}: needs either 'rating' or 'tfn'")
    barriers = tuple(map(Barrier, doc["barriers"]))
    return _prefixed(path, RatingPanel, barriers, tuple(doc["experts"]), grid, mode)


def reference_matrix_json(path, mode):
    """The matrix record loop with every check on every record."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    entries = []
    for k, rec in enumerate(doc["cells"]):
        where = f"{path} cells[{k}]"
        if not isinstance(rec, dict) or not {"row", "col", "tfn"} <= set(rec):
            raise ValidationError(f"{where}: needs row, col, and tfn")
        entries.append((str(rec["row"]), str(rec["col"]), _tfn(where, rec["tfn"])))
    return _prefixed(path, build_matrix, entries, doc["criteria"], mode)


def _read(reader, path, mode):
    """What `reader` makes of `path`, as text: the value, or the error."""
    try:
        got = reader(path, mode=mode)
    except ValidationError as exc:
        return f"error: {exc}"
    if isinstance(got, RatingPanel):
        return repr((got.barrier_ids, got.experts, list(got.ratings.items()), got.warnings))
    return repr((got.ids, got.cells, got.warnings))


@settings(SETTINGS, max_examples=200)
@given(ratings_docs(), st.sampled_from(ValidationMode))
def test_ratings_json_reader_matches_reference(path, doc, mode):
    path.write_text(json.dumps(doc), encoding="utf-8")
    got = _read(partial(read_ratings, fmt="json"), path, mode)
    assert got == _read(reference_ratings_json, path, mode)


@settings(SETTINGS, max_examples=200)
@given(matrix_docs(), st.sampled_from(ValidationMode))
def test_matrix_json_reader_matches_reference(path, doc, mode):
    path.write_text(json.dumps(doc), encoding="utf-8")
    got = _read(partial(read_matrix, fmt="json"), path, mode)
    assert got == _read(reference_matrix_json, path, mode)


JSON_TREES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["barriers", "experts", "ratings", "criteria", "cells",
                                       "scale", "mode", "id", "tfn", "rating"]), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def json_docs(draw):
    """Any JSON value, or a ratings or matrix document with a top-level field
    dropped or replaced."""
    if draw(st.booleans()):
        return draw(JSON_TREES)
    doc = draw(st.one_of(ratings_docs(), matrix_docs()))
    if draw(st.booleans()):
        key = draw(st.sampled_from(["barriers", "experts", "ratings", "criteria", "cells",
                                    "scale", "mode"]))
        doc[key] = draw(st.one_of(JSON_TREES, st.sampled_from(["delphi-10", "lenient", "x"])))
    if draw(st.booleans()) and doc:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@SETTINGS
@given(json_docs(), st.sampled_from(ValidationMode))
def test_json_readers_raise_only_validation_errors(path, doc, mode):
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        assert isinstance(read_ratings(path, "json", mode=mode), RatingPanel)
    except ValidationError:
        pass
    for matrix_mode in (mode, None):
        try:
            assert isinstance(read_matrix(path, "json", matrix_mode), PairwiseMatrix)
        except ValidationError:
            pass
