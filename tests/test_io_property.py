"""Property tests for the CSV readers: round trips, error hygiene, and a reference reader."""
import csv

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import TFN, Barrier, RatingPanel, ValidationError, ValidationMode  # noqa: E402
from fdahp.delphi import DELPHI_10  # noqa: E402
from fdahp.fahp import PairwiseMatrix  # noqa: E402
from fdahp.io import (  # noqa: E402
    MATRIX_HEADER,
    RATINGS_INT_HEADER,
    RATINGS_TFN_HEADER,
    read_matrix_csv,
    read_ratings_csv,
    write_matrix_csv,
    write_ratings_csv,
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
    write_ratings_csv(panel, path)
    back = read_ratings_csv(path, mode=ValidationMode.LENIENT)
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
    return PairwiseMatrix(tuple(map(Barrier, ids)), cells, ValidationMode.LENIENT)


@SETTINGS
@given(matrices())
def test_matrix_round_trip(path, matrix):
    write_matrix_csv(matrix, path)
    back = read_matrix_csv(path, ValidationMode.LENIENT)
    assert back.ids == matrix.ids
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
        assert isinstance(read_ratings_csv(path, mode=mode), RatingPanel)
    except ValidationError:
        pass
    try:
        assert isinstance(read_matrix_csv(path, mode), PairwiseMatrix)
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
    got, want = read_ratings_csv(path, mode=mode), reference_ratings(path, mode)
    assert got.barrier_ids == [b.id for b in want.barriers]
    assert got.experts == want.experts
    assert list(got.ratings.items()) == list(want.ratings.items())
    for b in want.barrier_ids:
        assert got.row(b) == tuple(want.ratings[b, e] for e in want.experts)
