"""CSV/JSON ingestion: schema detection, error naming, both rating paths."""
import json

import pytest

from fdahp import TFN, ValidationError
from fdahp.io import detect_format, read_matrix, read_ratings
from fdahp.tfn import ValidationMode
from helpers import cell


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
        with pytest.raises(ValidationError):
            detect_format("x.dat")
        with pytest.raises(ValidationError):
            detect_format("x.csv", "xml")


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

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_matrix(tmp_path / "absent.csv")
