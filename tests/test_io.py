"""CSV/JSON ingestion: schema detection, error naming, both rating paths, and the
garbage-collector pause of each whole-file reader."""
import gc
import json
from functools import partial

import pytest

import fdahp.io
from fdahp import TFN, RatingPanel, ValidationError
from fdahp.io import detect_format, read_matrix, read_ratings, write_matrix, write_ratings
from fdahp.tfn import ValidationMode
from helpers import cell, collections_inside


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestDetectFormat:
    def test_by_extension(self):
        assert detect_format("x.csv") == "csv"
        assert detect_format("x.JSON") == "json"

    def test_explicit_wins(self):
        assert detect_format("x.dat", "csv") == "csv"

    def test_unknown(self):
        with pytest.raises(ValidationError, match=r"^cannot infer format of x\.dat;"):
            detect_format("x.dat")
        for explicit in ("xml", "", "CSV"):
            with pytest.raises(ValidationError) as exc:
                detect_format("x.csv", explicit)
            assert str(exc.value) == f"unknown format {explicit!r}; expected 'csv' or 'json'"

    def test_an_empty_format_is_not_absent(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,5\n")
        with pytest.raises(ValidationError, match="^unknown format ''"):
            read_ratings(p, "")
        with pytest.raises(ValidationError, match="^unknown format ''"):
            read_matrix(p, "")


class TestWriters:
    def test_the_extension_picks_the_format(self, study, tmp_path):
        for ext in ("csv", "json", "CSV"):
            write_ratings(study.delphi_panel, tmp_path / f"r.{ext}")
            write_matrix(study.fahp_matrix, tmp_path / f"m.{ext}")
            fmt = ext.lower()
            assert read_ratings(tmp_path / f"r.{ext}", fmt).rows == study.delphi_panel.rows
            back = read_matrix(tmp_path / f"m.{ext}", fmt, ValidationMode.LENIENT)
            assert back.cells == study.fahp_matrix.cells
        assert (tmp_path / "r.csv").read_bytes().startswith(b"barrier_id,expert_id,l,m,u\r\n")
        assert (tmp_path / "m.json").read_text(encoding="utf-8").startswith('{\n  "criteria": [')

    def test_an_explicit_format_wins(self, study, tmp_path):
        write_ratings(study.delphi_panel, tmp_path / "r.csv", "json")
        write_matrix(study.fahp_matrix, tmp_path / "m.json", "csv")
        write_ratings(study.delphi_panel, tmp_path / "r.txt", "csv")
        assert json.loads((tmp_path / "r.csv").read_text(encoding="utf-8"))["scale"] == "delphi-10"
        assert (tmp_path / "m.json").read_text(encoding="utf-8").startswith("row_id,col_id,")
        assert read_ratings(tmp_path / "r.txt", "csv").rows == study.delphi_panel.rows

    @pytest.mark.parametrize("write, table", [(write_ratings, "delphi_panel"),
                                              (write_matrix, "fahp_matrix")])
    def test_an_unknown_extension_raises_and_writes_nothing(self, study, tmp_path, write, table):
        p = tmp_path / "out.txt"
        with pytest.raises(ValidationError) as exc:
            write(getattr(study, table), p)
        assert str(exc.value) == f"cannot infer format of {p}; pass format explicitly"
        with pytest.raises(ValidationError, match="unknown format 'xml'"):
            write(getattr(study, table), tmp_path / "out.csv", "xml")
        assert list(tmp_path.iterdir()) == []


class TestRatingsCsv:
    def test_integer_path(self, tmp_path):
        p = write(
            tmp_path,
            "r.csv",
            "barrier_id,expert_id,rating\nA,E1,1\nA,E2,10\nB,E1,5\nB,E2,5\n",
        )
        panel = read_ratings(p)
        assert panel.row("A") == (TFN(0, 0, 1), TFN(10, 10, 10))
        assert panel.row("B") == (TFN(4, 5, 6), TFN(4, 5, 6))

    def test_triple_path(self, tmp_path):
        p = write(
            tmp_path,
            "r.csv",
            "barrier_id,expert_id,l,m,u\nA,E1,1,2,3\nA,E2,0.5,0.7,0.9\n",
        )
        panel = read_ratings(p)
        assert panel.row("A") == (TFN(1, 2, 3), TFN(0.5, 0.7, 0.9))

    def test_bad_header(self, tmp_path):
        p = write(tmp_path, "r.csv", "who,what\nx,y\n")
        with pytest.raises(ValidationError, match="line 1"):
            read_ratings(p)

    def test_rating_off_scale_names_line(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,11\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_ratings(p)

    def test_bad_rating_texts_are_not_cached(self, tmp_path):
        # each distinct rating text is parsed once, but a bad one is never remembered
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,7\nA,E2,x\n"
                  "B,E1,7\nB,E2,x\n")
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == f"{p} line 3: field 'rating' is not an integer: 'x'"
        # nor kept from one read to the next
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,7\nA,E2,7\nB,E1,x\n")
        with pytest.raises(ValidationError, match="r.csv line 4: field 'rating'"):
            read_ratings(p)
        good = "".join(f"B{k},E1,{k % 10 + 1}\n" for k in range(50))
        p = write(tmp_path, "r.csv", f"barrier_id,expert_id,rating\n{good}Z,E1,11\nZ,E2,11\n")
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == (
            f"{p} line 52: rating 11 is not on scale 'delphi-10' (valid: 1..10)"
        )

    def test_non_integer_rating_names_field(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,high\n")
        with pytest.raises(ValidationError, match="'rating'"):
            read_ratings(p)

    def test_bad_number_in_triple(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,l,m,u\nA,E1,1,x,3\n")
        with pytest.raises(ValidationError, match="line 2.*'m'"):
            read_ratings(p)

    def test_incomplete_row(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1\n")
        with pytest.raises(ValidationError, match="line 2"):
            read_ratings(p)

    def test_duplicate_cell(self, tmp_path):
        p = write(
            tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,5\nA,E1,6\n"
        )
        with pytest.raises(ValidationError, match="duplicate"):
            read_ratings(p)

    def test_ids_keep_first_seen_order(self, tmp_path):
        p = write(
            tmp_path,
            "r.csv",
            "barrier_id,expert_id,rating\n"
            "B2,E2,5\nB1,E2,6\nB2,E1,7\nB3,E1,5\nB1,E1,4\nB3,E2,5\n",
        )
        panel = read_ratings(p)
        assert panel.barrier_ids == ["B2", "B1", "B3"]
        assert panel.experts == ("E2", "E1")
        assert panel.row("B1") == (TFN(5, 6, 7), TFN(3, 4, 5))

    def test_excel_utf8_bom(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes("barrier_id,expert_id,rating\nA,E1,5\n".encode("utf-8-sig"))
        assert read_ratings(p).row("A") == (TFN(4, 5, 6),)

    def test_error_names_physical_line(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nB1,E1,5\n\nB1,E2,x\n")
        with pytest.raises(ValidationError, match="r.csv line 4: field 'rating'"):
            read_ratings(p)

    def test_extra_non_empty_field_rejected(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nB1,E1,5\nB1,E2,7,9\n")
        with pytest.raises(ValidationError, match=r"line 3: non-empty fields beyond .*\['9'\]"):
            read_ratings(p)

    def test_trailing_empty_fields_accepted(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,l,m,u\nA,E1,1,2,3,\nA,E2,2,3,4,,\n")
        assert read_ratings(p).row("A") == (TFN(1, 2, 3), TFN(2, 3, 4))

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_padded_header_accepted(self, tmp_path, encoding):
        p = tmp_path / "r.csv"
        p.write_bytes("barrier_id,expert_id,rating,,\nA,E1,5,,\n".encode(encoding))
        assert read_ratings(p).row("A") == (TFN(4, 5, 6),)

    def test_incomplete_row_message(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,,5,\n")
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == (
            f"{p} line 2: incomplete row "
            "{'barrier_id': 'A', 'expert_id': '', 'rating': '5', None: ['']}"
        )

    def test_overflowing_value_names_line(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,l,m,u\nA,E1,1,2,3\nA,E2,1,2,1e400\n")
        with pytest.raises(ValidationError, match="r.csv line 3: TFN component u must be finite"):
            read_ratings(p)

    def test_undecodable_bytes(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_bytes(b"barrier_id,expert_id,rating\nA,E1,5\xff\n")
        with pytest.raises(ValidationError, match="r.csv: not UTF-8 text"):
            read_ratings(p)

    def test_oversized_field_names_line(self, tmp_path):
        huge = "9" * 200_000
        p = write(tmp_path, "r.csv", f"barrier_id,expert_id,rating\nA,E1,5\nA,E2,{huge}\n")
        with pytest.raises(ValidationError, match="r.csv line 3: field larger than field limit"):
            read_ratings(p)

    def test_oversized_id_names_line(self, tmp_path):
        huge = "B" * 200_000
        p = write(tmp_path, "r.csv", f"barrier_id,expert_id,rating\nA,E1,5\n{huge},E1,5\n")
        with pytest.raises(ValidationError, match="r.csv line 3: field larger than field limit"):
            read_ratings(p)

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_a_plain_integer_file_is_split_in_bulk(self, tmp_path, monkeypatch, eol):
        rows = ["barrier_id,expert_id,rating", "B,E2,7", "B,E1,3", "A,E2,10", "A,E1, 4"]
        p = write(tmp_path, "r.csv", eol.join(rows) + eol)
        monkeypatch.setattr(fdahp.io, "_csv_rows", None)  # the row-by-row reader is not used
        panel = read_ratings(p)
        assert (panel.barrier_ids, panel.experts) == (["B", "A"], ("E2", "E1"))
        assert panel.row("A") == (TFN(10, 10, 10), TFN(3, 4, 5))

    @staticmethod
    def _large(tmp_path, name, barrier_major):
        """A 400 x 25 plain integer-rating file, given barrier by barrier or expert by expert."""
        keys = [(f"P{b}", f"E{e}") for b in range(1, 401) for e in range(1, 26)]
        if not barrier_major:
            keys.sort(key=lambda key: int(key[1][1:]))
        lines = [f"{b},{e},{1 + (int(b[1:]) * int(e[1:])) % 10}" for b, e in keys]
        return write(tmp_path, name, "\n".join(["barrier_id,expert_id,rating", *lines, ""]))

    def test_a_barrier_major_file_never_calls_the_keyed_maker(self, tmp_path, monkeypatch):
        barrier_major = self._large(tmp_path, "b.csv", True)
        expert_major = self._large(tmp_path, "e.csv", False)
        want = read_ratings(expert_major)
        calls, keyed = [], RatingPanel.__new__

        def counted(cls, *args):
            calls.append(args)
            return keyed(cls, *args)

        monkeypatch.setattr(RatingPanel, "__new__", counted)
        assert read_ratings(barrier_major) == want and calls == []
        assert read_ratings(expert_major) == want and len(calls) == 1  # the wrapper counts

    def test_an_expert_major_plain_file_is_read_row_by_row(self, tmp_path, monkeypatch):
        p = self._large(tmp_path, "e.csv", False)
        assert fdahp.io._plain_int_ratings(p, fdahp.DELPHI_10, ValidationMode.LENIENT) is None
        with monkeypatch.context() as m:
            m.setattr(fdahp.io, "_plain_int_ratings", lambda *args: None)
            want = read_ratings(p, mode="lenient")  # the csv.reader loop
        got = read_ratings(p, mode="lenient")
        assert got == want
        assert (got.barrier_ids[:2], got.experts[:2]) == (["P1", "P2"], ("E1", "E2"))

    @pytest.mark.parametrize("body, message", [
        ("A,E1,5\nA,E2,6\nA,E1,7\nB,E1,5\nB,E2,6\nB,E1,7\n",
         "line 4: duplicate rating for (A, E1)"),
        ("A,E1,5\nA,E1,6\nB,E1,5\nB,E1,6\n", "line 3: duplicate rating for (A, E1)"),
        ("A,E1,5\nA,E2,6\nB,E1,5\nB,E2,6\nC,E1,5\nC,E2,6\nB,E1,7\nB,E2,8\n",
         "line 8: duplicate rating for (B, E1)"),
    ], ids=["expert", "only expert", "barrier block"])
    def test_a_repeated_expert_or_block_names_its_line(self, tmp_path, body, message):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\n" + body)
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == f"{p} {message}"

    # each expert list repeats and the block heads are distinct, but a block mixes barriers
    @pytest.mark.parametrize("body, row_b", [
        ("A,E1,1\nB,E2,2\nB,E1,3\nA,E2,4\n", (TFN(2, 3, 4), TFN(1, 2, 3))),
        ("A,E1,1\nA,E2,2\nB,E1,3\nC,E2,4\nC,E1,5\nB,E2,6\n", (TFN(2, 3, 4), TFN(5, 6, 7))),
    ], ids=["two barriers", "three barriers"])
    def test_interleaved_barriers_are_keyed_by_cell(self, tmp_path, monkeypatch, body, row_b):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\n" + body)
        got = read_ratings(p)
        assert got.row("B") == row_b
        monkeypatch.setattr(fdahp.io, "_plain_int_ratings", lambda *args: None)
        assert got == read_ratings(p)  # the csv.reader loop

    def test_incomplete_grid(self, tmp_path):
        p = write(
            tmp_path, "r.csv", "barrier_id,expert_id,rating\nA,E1,5\nB,E2,6\n"
        )
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == f"{p}: panel is missing the rating for (A, E2)"

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "r.csv", "barrier_id,expert_id,rating\n")
        with pytest.raises(ValidationError, match="no rating rows"):
            read_ratings(p)


# Each file's second row holds a quoted field that spans two lines, so every later row
# ends one physical line below its record number; errors name the physical line.
_SPANNING = {
    "int": 'barrier_id,expert_id,rating\nA,"E\n1",7\n',
    "tfn": 'barrier_id,expert_id,l,m,u\nA,"E\n1",1,2,3\n',
    "matrix": 'row_id,col_id,l,m,u\n"A\n",B,1,2,3\n',
}


@pytest.mark.parametrize(
    "kind, rows, message",
    [
        ("int", "A,E2,5\nA,E2,6\n", "line 5: duplicate rating for (A, E2)"),
        ("int", "A,E2,5\nA,E3,x\n", "line 5: field 'rating' is not an integer: 'x'"),
        ("int", "A,E2,11\n", "line 4: rating 11 is not on scale 'delphi-10' (valid: 1..10)"),
        ("tfn", "A,E2,1,2,3\nA,E2,1,2,3\n", "line 5: duplicate rating for (A, E2)"),
        ("tfn", "A,E2,1,2,3\nA,E3,1,x,3\n", "line 5: field 'm' is not a number: 'x'"),
        ("tfn", "A,E2,1,2,1e400\n", "line 4: TFN component u must be finite, got inf"),
        ("matrix", "B,A,1,y,3\n", "line 4: field 'm' is not a number: 'y'"),
    ],
)
def test_csv_errors_name_the_physical_line_after_a_multi_line_field(tmp_path, kind, rows, message):
    p = write(tmp_path, "f.csv", _SPANNING[kind] + rows)
    with pytest.raises(ValidationError) as exc:
        (read_matrix if kind == "matrix" else read_ratings)(p)
    assert str(exc.value) == f"{p} {message}"


class TestRatingsJson:
    def test_mixed_rating_and_tfn(self, tmp_path):
        doc = {
            "scale": "delphi-10",
            "barriers": [{"id": "A", "name": "Alpha"}, "B"],
            "experts": ["E1"],
            "ratings": [
                {"barrier_id": "A", "expert_id": "E1", "rating": 7},
                {"barrier_id": "B", "expert_id": "E1", "tfn": [1, 2, 3]},
            ],
        }
        p = write(tmp_path, "r.json", json.dumps(doc))
        panel = read_ratings(p)
        assert panel.row("A") == (TFN(6, 7, 8),)
        assert panel.row("B") == (TFN(1, 2, 3),)
        assert panel.barriers[0].name == "Alpha"

    def test_entry_without_value(self, tmp_path):
        doc = {
            "barriers": ["A"],
            "experts": ["E1"],
            "ratings": [{"barrier_id": "A", "expert_id": "E1"}],
        }
        p = write(tmp_path, "r.json", json.dumps(doc))
        with pytest.raises(ValidationError, match=r"ratings\[0\]"):
            read_ratings(p)

    def test_non_integer_rating(self, tmp_path):
        doc = {
            "barriers": ["A"],
            "experts": ["E1"],
            "ratings": [{"barrier_id": "A", "expert_id": "E1", "rating": "high"}],
        }
        p = write(tmp_path, "r.json", json.dumps(doc))
        with pytest.raises(ValidationError, match="integer"):
            read_ratings(p)

    def test_non_numeric_tfn(self, tmp_path):
        doc = {
            "barriers": ["A"],
            "experts": ["E1"],
            "ratings": [{"barrier_id": "A", "expert_id": "E1", "tfn": [1, "x", 3]}],
        }
        p = write(tmp_path, "r.json", json.dumps(doc))
        with pytest.raises(ValidationError, match="numeric"):
            read_ratings(p)

    def test_invalid_json(self, tmp_path):
        p = write(tmp_path, "r.json", "{not json")
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_ratings(p)
        p.write_bytes(b'{"barriers": ["\xff"]}')
        with pytest.raises(ValidationError, match="invalid JSON: 'utf-8' codec"):
            read_ratings(p)

    def test_only_an_unpaired_surrogate_escape_is_invalid(self, tmp_path):
        text = '{"barriers": ["A%s"], "experts": ["E1"], ' \
               '"ratings": [{"barrier_id": "A%s", "expert_id": "E1", "rating": 5}]}'
        p = write(tmp_path, "r.json", text % ((r"\ud83d\ude00",) * 2))  # a pair: one character
        assert read_ratings(p).barrier_ids == ["A\U0001f600"]
        p = write(tmp_path, "r.json", text % ((r"\ud83d",) * 2))
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == f"{p}: invalid JSON: unpaired surrogate escape '\\ud83d'"

    def test_panel_errors_name_the_file(self, tmp_path):
        doc = {
            "barriers": ["A", "B"],
            "experts": ["E1", "E2"],
            "ratings": [
                {"barrier_id": b, "expert_id": e, "rating": 5}
                for b, e in (("A", "E1"), ("A", "E2"), ("B", "E1"))
            ],
        }
        p = write(tmp_path, "grid.json", json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == f"{p}: panel is missing the rating for (B, E2)"

    def test_missing_field(self, tmp_path):
        p = write(tmp_path, "r.json", json.dumps({"barriers": ["A"]}))
        with pytest.raises(ValidationError, match="malformed"):
            read_ratings(p)

    # each record failure, at ratings[1] after a good record
    @pytest.mark.parametrize("rec, message", [
        (["A", "E1", 5], "needs barrier_id and expert_id"),
        ({"barrier_id": "A", "rating": 5}, "needs barrier_id and expert_id"),
        ({"barrier_id": "A", "expert_id": "E1", "rating": 5},
         "duplicate rating for ('A', 'E1')"),
        ({"barrier_id": "A", "expert_id": "E1", "tfn": [1.0, 2.0, 3.0]},
         "duplicate rating for ('A', 'E1')"),
        ({"barrier_id": "B", "expert_id": "E1"}, "needs either 'rating' or 'tfn'"),
        ({"barrier_id": "B", "expert_id": "E1", "rating": True},
         "rating must be an integer, got True"),
        ({"barrier_id": "B", "expert_id": "E1", "rating": 5.0},
         "rating must be an integer, got 5.0"),
        ({"barrier_id": "B", "expert_id": "E1", "rating": 11},
         "rating 11 is not on scale 'delphi-10' (valid: 1..10)"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [1.0, 2.0]},
         "tfn must be a numeric [l, m, u] triple"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [1.0, True, 3.0]},
         "tfn must be a numeric [l, m, u] triple"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": "1,2,3"},
         "tfn must be a numeric [l, m, u] triple"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [1.0, None, 3.0]},
         "tfn must be a numeric [l, m, u] triple"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [1.0, 2.0, float("nan")]},
         "TFN component u must be finite, got nan"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [10 ** 400, 2.0, 3.0]},
         "TFN component l must be finite, got an integer too large for a float"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [1, 2, 3], "rating": 9},
         "give either 'rating' or 'tfn', not both"),
        ({"barrier_id": "B", "expert_id": "E1", "tfn": [1.0, None, 3.0], "rating": 5},
         "give either 'rating' or 'tfn', not both"),
    ])
    def test_record_error_text(self, tmp_path, rec, message):
        doc = {"barriers": ["A", "B"], "experts": ["E1"],
               "ratings": [{"barrier_id": "A", "expert_id": "E1", "tfn": [1.0, 2.0, 3.0]}, rec]}
        p = write(tmp_path, "r.json", json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            read_ratings(p)
        assert str(exc.value) == f"{p} ratings[1]: {message}"

    def test_records_the_fast_path_leaves_alone(self, tmp_path):
        # int and non-str ids, and int components
        doc = {"barriers": ["1", "B", "None"], "experts": ["True"],
               "ratings": [{"barrier_id": 1, "expert_id": True, "rating": 7},
                           {"barrier_id": "B", "expert_id": "True", "tfn": [1, 2, 3]},
                           {"barrier_id": None, "expert_id": "True", "tfn": [0.5, 1, 2.5]}]}
        p = write(tmp_path, "r.json", json.dumps(doc))
        panel = read_ratings(p)
        assert panel.ratings == {("1", "True"): TFN(6, 7, 8), ("B", "True"): TFN(1, 2, 3),
                                 ("None", "True"): TFN(0.5, 1, 2.5)}
        assert all(type(x) is float for t in panel.ratings.values() for x in t)
        with pytest.raises(ValidationError) as exc:
            read_ratings(write(tmp_path, "d.json", json.dumps(
                {**doc, "ratings": doc["ratings"] + [{"barrier_id": "1", "expert_id": "True",
                                                      "rating": 2}]})))
        assert str(exc.value).endswith("ratings[3]: duplicate rating for ('1', 'True')")


class TestMatrixFiles:
    def test_csv_with_autofill(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nA,B,2,3,4\n")
        m = read_matrix(p)
        assert m.ids == ["A", "B"]
        assert cell(m, "B", "A") == pytest.approx((0.25, 1 / 3, 0.5))

    def test_csv_criteria_keep_first_seen_order(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nC,A,2,3,4\nB,C,1,1,1\nA,B,1,2,3\n")
        m = read_matrix(p)
        assert m.ids == ["C", "A", "B"]
        assert cell(m, "C", "A") == TFN(2, 3, 4)
        assert cell(m, "B", "A") == TFN(1 / 3, 0.5, 1.0)

    def test_csv_bad_header(self, tmp_path):
        p = write(tmp_path, "m.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="header"):
            read_matrix(p)

    def test_csv_bad_value_names_line_and_field(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nA,B,2,3,oops\n")
        with pytest.raises(ValidationError, match="line 2.*'u'"):
            read_matrix(p)

    def test_csv_excel_utf8_bom(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes("row_id,col_id,l,m,u\nA,B,2,3,4\n".encode("utf-8-sig"))
        assert read_matrix(p).ids == ["A", "B"]

    def test_csv_error_names_physical_line(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nA,B,2,3,4\n\nA,C,2,x,4\n")
        with pytest.raises(ValidationError, match="m.csv line 4: field 'm'"):
            read_matrix(p)

    def test_csv_extra_non_empty_field_rejected(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nA,B,2,3,4,5\n")
        with pytest.raises(ValidationError, match=r"line 2: non-empty fields beyond .*\['5'\]"):
            read_matrix(p)

    def test_csv_trailing_empty_fields_accepted(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nA,B,2,3,4,\nB,A,0.25,0.33,0.5,,\n")
        assert cell(read_matrix(p), "B", "A") == TFN(0.25, 0.33, 0.5)

    @pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig"])
    def test_csv_padded_header_accepted(self, tmp_path, encoding):
        p = tmp_path / "m.csv"
        p.write_bytes("row_id,col_id,l,m,u,\nA,B,2,3,4,\nA,C,1,1,1,9\n".encode(encoding))
        with pytest.raises(ValidationError, match=r"line 3: non-empty fields beyond .*\['9'\]"):
            read_matrix(p)
        p.write_bytes("row_id,col_id,l,m,u,\nA,B,2,3,4,\n".encode(encoding))
        assert cell(read_matrix(p), "A", "B") == TFN(2, 3, 4)

    def test_csv_overflowing_value_names_line(self, tmp_path):
        p = write(tmp_path, "m.csv", "row_id,col_id,l,m,u\nA,B,1e400,3,4\n")
        with pytest.raises(ValidationError, match="m.csv line 2: TFN component l must be finite"):
            read_matrix(p)

    def test_matrix_errors_name_the_file(self, tmp_path):
        zero = write(tmp_path, "zero.csv", "row_id,col_id,l,m,u\nA,B,0,1,2\n")
        with pytest.raises(ValidationError, match=r"zero.csv: auto-fill of \(B,A\) from \(A,B\)"):
            read_matrix(zero)
        doc = {
            "criteria": ["A", "B"],
            "cells": [
                {"row": "A", "col": "B", "tfn": [1, 2, 3]},
                {"row": "B", "col": "A", "tfn": [1, 2, 3]},
            ],
        }
        breach = write(tmp_path, "breach.json", json.dumps(doc))
        with pytest.raises(ValidationError, match=r"breach.json: \(A,B\)/\(B,A\): "):
            read_matrix(breach)

    def test_json_overflowing_integer_names_cell(self, tmp_path):
        big = "1" + "0" * 400
        p = write(tmp_path, "m.json", f'{{"criteria": ["A"], "cells": '
                  f'[{{"row": "A", "col": "A", "tfn": [1, 1, {big}]}}]}}')
        with pytest.raises(ValidationError, match=r"cells\[0\]: TFN component u must be finite"):
            read_matrix(p)
        p = write(tmp_path, "m.json", '{"criteria": ["A"], "cells": [' + "9" * 5000 + "]}")
        with pytest.raises(ValidationError, match="invalid JSON"):
            read_matrix(p)

    def test_json_mode_from_file_and_override(self, tmp_path):
        doc = {
            "criteria": ["A", "B"],
            "mode": "lenient",
            "cells": [
                {"row": "A", "col": "B", "tfn": [3, 2, 4]},
                {"row": "B", "col": "A", "tfn": [0.25, 0.5, 0.33]},
            ],
        }
        p = write(tmp_path, "m.json", json.dumps(doc))
        m = read_matrix(p)
        assert m.mode is ValidationMode.LENIENT
        assert len(m.warnings) >= 1
        with pytest.raises(ValidationError):
            read_matrix(p, mode=ValidationMode.STRICT)

    def test_json_cell_shape(self, tmp_path):
        doc = {"criteria": ["A"], "cells": [{"row": "A", "col": "A", "tfn": [1, 1]}]}
        p = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(ValidationError, match="triple"):
            read_matrix(p)

    # each record failure after a good record: the text follows the file name
    @pytest.mark.parametrize("rec, message", [
        ("A,B,1,2,3", " cells[1]: needs row, col, and tfn"),
        ({"row": "A", "col": "B"}, " cells[1]: needs row, col, and tfn"),
        ({"row": "A", "col": "B", "tfn": [1.0, 2.0, 3.0, 4.0]},
         " cells[1]: tfn must be a numeric [l, m, u] triple"),
        ({"row": "A", "col": "B", "tfn": [False, 2.0, 3.0]},
         " cells[1]: tfn must be a numeric [l, m, u] triple"),
        ({"row": "A", "col": "B", "tfn": {"l": 1.0, "m": 2.0, "u": 3.0}},
         " cells[1]: tfn must be a numeric [l, m, u] triple"),
        ({"row": "A", "col": "B", "tfn": [1.0, float("inf"), 3.0]},
         " cells[1]: TFN component m must be finite, got inf"),
        ({"row": "A", "col": "A", "tfn": [1.0, 1.0, 1.0]}, ": duplicate entry for cell (A,A)"),
        ({"row": "A", "col": "C", "tfn": [1.0, 1.0, 1.0]},
         ": entry col id 'C' is not a known criterion"),
    ])
    def test_json_record_error_text(self, tmp_path, rec, message):
        doc = {"criteria": ["A", "B"],
               "cells": [{"row": "A", "col": "A", "tfn": [1.0, 1.0, 1.0]}, rec]}
        p = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            read_matrix(p)
        assert str(exc.value) == f"{p}{message}"

    def test_json_records_the_fast_path_leaves_alone(self, tmp_path):
        doc = {"criteria": ["1", "B"],
               "cells": [{"row": 1, "col": "B", "tfn": [2, 3, 4]},
                         {"row": "B", "col": "1", "tfn": [0.25, 1 / 3, 0.5]}]}
        m = read_matrix(write(tmp_path, "m.json", json.dumps(doc)))
        assert m.ids == ["1", "B"]
        assert m.cells[0][1] == TFN(2.0, 3.0, 4.0)
        assert all(type(x) is float for row in m.cells for t in row for x in t)

    def test_json_repeated_criteria(self, tmp_path):
        doc = {"criteria": ["A", "A"], "cells": [{"row": "A", "col": "A", "tfn": [1, 1, 1]}]}
        p = write(tmp_path, "m.json", json.dumps(doc))
        with pytest.raises(ValidationError) as exc:
            read_matrix(p)
        assert str(exc.value) == f"{p}: criterion ids must be unique"

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.csv")


def _large_ratings_csv(tmp_path, last="5"):
    """A 400 x 25 integer-path ratings CSV whose final rating reads `last`."""
    rows = [f"B{b},E{e},{(b + e) % 10 + 1}" for b in range(400) for e in range(25)]
    rows[-1] = f"B399,E24,{last}"
    return write(tmp_path, "large.csv", "barrier_id,expert_id,rating\n" + "\n".join(rows) + "\n")


_RATINGS_JSON = {"barriers": ["A"], "experts": ["E1"],
                 "ratings": [{"barrier_id": "A", "expert_id": "E1", "rating": 5}]}
_MATRIX_JSON = {"criteria": ["A", "B"], "cells": [{"row": "A", "col": "B", "tfn": [1, 2, 3]}]}
# (reader, file name, a file it reads, a file it rejects); the bad matrix CSV raises
# inside build_matrix, which the reader calls. Each reader is named <function>_<fmt>.
READERS = [
    (partial(read_ratings, fmt="csv"), "r.csv", "barrier_id,expert_id,rating\nA,E1,5\n",
     "barrier_id,expert_id,rating\nA,E1,x\n"),
    (partial(read_ratings, fmt="json"), "r.json", json.dumps(_RATINGS_JSON),
     json.dumps({**_RATINGS_JSON, "ratings": [{"barrier_id": "A", "expert_id": "E1",
                                                "rating": 11}]})),
    (partial(read_matrix, fmt="csv"), "m.csv", "row_id,col_id,l,m,u\nA,B,1,2,3\n",
     "row_id,col_id,l,m,u\nA,B,1,2,3\nA,B,1,2,3\n"),
    (partial(read_matrix, fmt="json"), "m.json", json.dumps(_MATRIX_JSON),
     json.dumps({**_MATRIX_JSON, "cells": [{"row": "A", "col": "B", "tfn": [1, 2, "x"]}]})),
]


def _reader_id(x):
    return f"{x.func.__name__}_{x.keywords['fmt']}" if isinstance(x, partial) else None


# a misspelled or unknown top-level key raises, naming the nearest known key if any
@pytest.mark.parametrize("reader, doc, message", [
    (read_ratings, {"sclae": "delphi-10", "barriers": ["A"], "experts": ["E1"],
                    "ratings": [{"barrier_id": "A", "expert_id": "E1", "rating": 7}]},
     "unknown key 'sclae' (did you mean 'scale'?)"),
    (read_ratings, {"barriers": ["A"], "experts": ["E1"], "ratings": [], "note": "x"},
     "unknown key 'note'"),
    (read_matrix, {"criteria": ["A", "B"], "mdoe": "lenient",
                   "cells": [{"row": "A", "col": "B", "tfn": [2, 3, 4]},
                             {"row": "B", "col": "A", "tfn": [1, 2, 3]}]},
     "unknown key 'mdoe' (did you mean 'mode'?)"),
    (read_matrix, {"criteria": ["A"], "cells": [], "cell": []},
     "unknown key 'cell' (did you mean 'cells'?)"),
], ids=["ratings, near", "ratings, far", "matrix, near", "matrix, one letter off"])
def test_json_unknown_key_is_named(tmp_path, reader, doc, message):
    p = write(tmp_path, "d.json", json.dumps(doc))
    with pytest.raises(ValidationError) as exc:
        reader(p)
    assert str(exc.value) == f"{p}: {message}"


class TestCollectorPause:
    def test_a_large_panel_starts_no_collection(self, tmp_path):
        assert gc.isenabled()
        panel, passes = collections_inside(read_ratings, _large_ratings_csv(tmp_path), "csv")
        assert (len(panel.barriers), len(panel.experts), passes) == (400, 25, 0)
        assert gc.isenabled()

    def test_collector_is_back_on_after_a_late_error(self, tmp_path):
        p = _large_ratings_csv(tmp_path, last="x")
        with pytest.raises(ValidationError) as exc:
            read_ratings(p, "csv")
        assert str(exc.value) == f"{p} line 10001: field 'rating' is not an integer: 'x'"
        assert gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False], ids=["caller-enabled", "caller-disabled"])
    @pytest.mark.parametrize("reader, name, good, bad", READERS, ids=_reader_id)
    def test_the_callers_state_is_kept(self, tmp_path, reader, name, good, bad, enabled):
        if not enabled:
            gc.disable()
        try:
            reader(write(tmp_path, name, good))
            assert gc.isenabled() is enabled
            with pytest.raises(ValidationError):
                reader(write(tmp_path, name, bad))
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
