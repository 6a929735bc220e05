"""Command-line behavior: exit codes, report formats, determinism."""
import csv
import io
import json

import pytest

from fdahp.cli import main

STUDY_ORDER = ["B10", "B9", "B7", "B5", "B3", "B2", "B4", "B1", "B8", "B6", "B11"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScreen:
    def test_study_csv(self, capsys, exported):
        code, out, _ = run(
            capsys, ["screen", "--ratings", str(exported / "delphi_ratings.csv")]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["screening"]["selected_count"] == 11
        assert doc["screening"]["rejected_count"] == 5
        assert doc["screening"]["threshold"] == pytest.approx(7.12438, abs=1e-4)
        assert doc["ranking"] is None
        assert doc["tool"]["name"] == "fdahp"
        assert doc["inputs"]["ratings"]["sha256"]

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["screen", "--ratings", str(tmp_path / "missing.csv")]
        )
        assert code == 3
        assert "error" in err

    def test_rating_off_scale_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad_rating.csv"
        bad.write_text("barrier_id,expert_id,rating\nA,E1,11\n", encoding="utf-8")
        code, _, err = run(
            capsys, ["screen", "--ratings", str(bad), "--scale", "delphi-10"]
        )
        assert code == 2
        assert "11" in err

    def test_json_ratings_not_a_list_exits_2(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('{"barriers": ["A"], "experts": ["E1"], "ratings": 5}', encoding="utf-8")
        code, out, err = run(capsys, ["screen", "--ratings", str(f)])
        assert (code, out) == (2, "")
        assert err == f"error: {f}: 'ratings' must be a list, got int\n"

    @pytest.mark.parametrize("field", ["barriers", "experts"])
    def test_json_id_string_is_not_a_list(self, capsys, tmp_path, field):
        # a string must not be read as one id per character
        doc = {"barriers": ["A"], "experts": ["E1"],
               "ratings": [{"barrier_id": "A", "expert_id": "E1", "rating": 5}]}
        doc[field] = "AE1"
        f = tmp_path / "r.json"
        f.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, ["screen", "--ratings", str(f)])
        assert (code, out) == (2, "")
        assert err == f"error: {f}: {field!r} must be a list, got str\n"

    def test_json_file_scale_applies(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('{"scale": "likert-5", "barriers": ["A"], "experts": ["E1"], '
                     '"ratings": [{"barrier_id": "A", "expert_id": "E1", "rating": 5}]}',
                     encoding="utf-8")
        code, out, err = run(capsys, ["screen", "--ratings", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f}: unknown linguistic scale 'likert-5' (available: ")
        code, out, _ = run(capsys, ["screen", "--ratings", str(f), "--scale", "delphi-10"])
        assert code == 0
        assert json.loads(out)["screening"]["barriers"][0]["aggregate"] == [4.0, 5.0, 6.0]

    def test_json_rating_off_scale_names_the_entry(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        rec = {"barrier_id": "A", "expert_id": "E1", "rating": 11}
        f.write_text(json.dumps({"barriers": ["A"], "experts": ["E1"], "ratings": [rec]}),
                     encoding="utf-8")
        code, out, err = run(capsys, ["screen", "--ratings", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f} ratings[0]: rating 11 is not on scale 'delphi-10'")

    def test_json_bad_barrier_entry_names_the_entry(self, capsys, tmp_path):
        f = tmp_path / "r.json"
        f.write_text('{"barriers": ["A", ["B"]], "experts": ["E1"], "ratings": []}',
                     encoding="utf-8")
        code, out, err = run(capsys, ["screen", "--ratings", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f} barriers[1]: bad barrier entry ['B']")

    def test_fixed_threshold(self, capsys, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text(
            "barrier_id,expert_id,rating\nA,E1,9\nB,E1,2\n", encoding="utf-8"
        )
        code, out, _ = run(
            capsys, ["screen", "--ratings", str(f), "--threshold", "fixed:5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["screening"]["threshold"] == 5.0
        decisions = {b["id"]: b["decision"] for b in doc["screening"]["barriers"]}
        assert decisions == {"A": "selected", "B": "rejected"}

    def test_byte_identical_reports(self, capsys, exported):
        argv = ["screen", "--ratings", str(exported / "delphi_ratings.csv")]
        _, first, _ = run(capsys, argv)
        _, second, _ = run(capsys, argv)
        assert first == second

    def test_json_report_round_trips(self, capsys, exported):
        _, out, _ = run(
            capsys, ["screen", "--ratings", str(exported / "delphi_ratings.csv")]
        )
        assert json.dumps(json.loads(out), indent=2, ensure_ascii=False) + "\n" == out


class TestRank:
    def test_study_matrix_lenient(self, capsys, exported):
        code, out, _ = run(
            capsys,
            ["rank", "--matrix", str(exported / "fahp_matrix.csv"), "--mode", "lenient"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ranking"]["rank_order"] == STUDY_ORDER
        top = doc["ranking"]["criteria"][9]
        assert top["id"] == "B10"
        assert top["rank"] == 1
        assert top["weight_normalized"] == pytest.approx(0.21185, abs=2e-3)

    def test_lenient_warnings_each_exactly_once(self, capsys, exported):
        _, out, _ = run(
            capsys,
            ["rank", "--matrix", str(exported / "fahp_matrix.csv"), "--mode", "lenient"],
        )
        warnings = json.loads(out)["warnings"]
        keys = [(w["stage"], w["code"], w["location"]) for w in warnings]
        assert len(keys) == len(set(keys)) == 3
        assert ("rank", "non_monotone", "(B8,B4)") in keys

    def test_strict_mode_names_offending_cell(self, capsys, exported):
        code, _, err = run(
            capsys,
            ["rank", "--matrix", str(exported / "fahp_matrix.csv"), "--mode", "strict"],
        )
        assert code == 2
        assert "(B8,B4)" in err

    def test_failed_autofill_exits_2_naming_the_cell(self, capsys, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("row_id,col_id,l,m,u\nA,B,0,1,2\n", encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f), "--mode", "lenient"])
        assert (code, out) == (2, "")
        assert "auto-fill of (B,A) from (A,B)" in err

    def test_matrix_errors_name_the_file(self, capsys, tmp_path, exported):
        f = tmp_path / "zero.csv"
        f.write_text("row_id,col_id,l,m,u\nA,B,0,1,2\n", encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f}: auto-fill of (B,A) from (A,B): ")
        study = exported / "fahp_matrix.csv"
        code, out, err = run(capsys, ["rank", "--matrix", str(study), "--mode", "strict"])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {study}: (B8,B4): ")

    def test_overflowing_integer_exits_2(self, capsys, tmp_path):
        f = tmp_path / "big.json"
        big = "1" + "0" * 400
        cell = f'{{"row": "A", "col": "B", "tfn": [1, 2, {big}]}}'
        f.write_text(f'{{"criteria": ["A", "B"], "cells": [{cell}]}}', encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert f"{f} cells[0]: TFN component u must be finite" in err

    def test_overflowing_weight_total_exits_2(self, capsys, tmp_path):
        f = tmp_path / "huge.csv"
        cells = "".join(f"{a},{b},1e308,1e308,1e308\n" for a in "AB" for b in "AB")
        f.write_text("row_id,col_id,l,m,u\n" + cells, encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f), "--mode", "lenient"])
        assert (code, out) == (2, "")
        assert err.startswith("error: weight normalization: ")

    def test_subnormal_weight_total_exits_2(self, capsys, tmp_path):
        f = tmp_path / "tiny.csv"
        f.write_text("row_id,col_id,l,m,u\nA,A,1e-310,1e-310,1e-310\n", encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f), "--mode", "lenient"])
        assert (code, out) == (2, "")
        assert err.startswith("error: weight normalization: ")

    def test_json_cells_not_a_list_exits_2(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('{"criteria": ["A"], "cells": 5}', encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err == f"error: {f}: 'cells' must be a list, got int\n"

    def test_json_criteria_string_is_not_a_list(self, capsys, tmp_path):
        # a string must not be read as one criterion id per character
        f = tmp_path / "m.json"
        f.write_text('{"criteria": "AB", "cells": [{"row": "A", "col": "B", "tfn": [1, 2, 3]}]}',
                     encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err == f"error: {f}: 'criteria' must be a list, got str\n"

    def test_json_bad_criterion_entry_names_the_entry(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        f.write_text('{"criteria": [3], "cells": []}', encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {f} criteria[0]: bad barrier entry 3")

    def test_json_non_string_mode_exits_2(self, capsys, tmp_path):
        f = tmp_path / "m.json"
        cell = '{"row": "A", "col": "B", "tfn": [1, 2, 3]}'
        f.write_text(f'{{"criteria": ["A", "B"], "mode": 5, "cells": [{cell}]}}',
                     encoding="utf-8")
        code, out, err = run(capsys, ["rank", "--matrix", str(f)])
        assert (code, out) == (2, "")
        assert err == f"error: {f}: validation mode must be a string, got 5\n"

    def test_json_matrix_uses_its_own_mode(self, capsys, exported):
        code, out, _ = run(
            capsys, ["rank", "--matrix", str(exported / "fahp_matrix.json")]
        )
        assert code == 0
        assert json.loads(out)["ranking"]["rank_order"] == STUDY_ORDER

    def test_identity_matrix_splits_evenly(self, capsys, tmp_path):
        f = tmp_path / "identity3.csv"
        f.write_text(
            "row_id,col_id,l,m,u\nA,B,1,1,1\nA,C,1,1,1\nB,C,1,1,1\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, ["rank", "--matrix", str(f)])
        assert code == 0
        # report numbers carry 6 significant digits
        for c in json.loads(out)["ranking"]["criteria"]:
            assert c["weight_normalized"] == pytest.approx(1 / 3, abs=1e-6)


class TestPipeline:
    def make_config(self, tmp_path, exported, **extra):
        cfg = {
            "ratings": {"path": str(exported / "delphi_ratings.csv"), "format": "csv"},
            "matrix": {"path": str(exported / "fahp_matrix.csv"), "format": "csv"},
            "scale": "delphi-10",
            "threshold": "mean",
            "mode": "lenient",
            "renumber": "sequential",
            "tie_break": "index",
        }
        cfg.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def test_study_end_to_end(self, capsys, tmp_path, exported, study):
        cfg = self.make_config(tmp_path, exported)
        code, out, _ = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(out)
        assert doc["screening"]["selected_count"] == 11
        decisions = {b["id"]: b["decision"] for b in doc["screening"]["barriers"]}
        assert decisions == study.delphi_expected.decisions
        assert doc["ranking"]["rank_order"] == STUDY_ORDER
        ranks = {c["id"]: c["rank"] for c in doc["ranking"]["criteria"]}
        assert ranks == study.fahp_expected.ranking
        assert {w["location"] for w in doc["warnings"]} == {
            "(B8,B4)", "(B4,B8)/(B8,B4)", "(B7,B11)/(B11,B7)"
        }

    def test_unreachable_threshold_exits_2(self, capsys, tmp_path, exported):
        cfg = self.make_config(tmp_path, exported, threshold="fixed:100")
        code, _, err = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 2
        assert "no barriers" in err

    def test_single_barrier_study(self, capsys, tmp_path):
        (tmp_path / "one.csv").write_text(
            "barrier_id,expert_id,rating\nonly,E1,7\n", encoding="utf-8"
        )
        (tmp_path / "one_matrix.csv").write_text(
            "row_id,col_id,l,m,u\nB1,B1,1,1,1\n", encoding="utf-8"
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "ratings": {"path": str(tmp_path / "one.csv")},
                    "matrix": {"path": str(tmp_path / "one_matrix.csv")},
                }
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(out)
        assert [c["weight_normalized"] for c in doc["ranking"]["criteria"]] == [1.0]

    def test_mismatched_matrix_criteria_exit_2(self, capsys, tmp_path, exported):
        cfg = self.make_config(tmp_path, exported, renumber="none")
        code, _, err = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 2
        assert "[rank]" in err

    def test_derive_matrix_refused(self, capsys, tmp_path, exported):
        cfg = self.make_config(
            tmp_path, exported, matrix={"path": "derive:prompt-free"}
        )
        code, _, err = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 2
        assert "never derived" in err

    def test_unsupported_tie_break_exits_2(self, capsys, tmp_path, exported):
        cfg = self.make_config(tmp_path, exported, tie_break="random")
        code, out, err = run(capsys, ["pipeline", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert "unsupported tie_break 'random'" in err

    @pytest.mark.parametrize("extra, message", [
        ({"mode": 5}, "validation mode must be a string, got 5"),
        ({"scale": ["delphi-10"]}, "unknown linguistic scale ['delphi-10']"),
    ])
    def test_bad_mode_or_scale_names_the_config(self, capsys, tmp_path, exported,
                                                extra, message):
        cfg = self.make_config(tmp_path, exported, **extra)
        code, out, err = run(capsys, ["pipeline", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}: {message}")

    @pytest.mark.parametrize("content", [b'{"ratings": "\xff"}', b"[1, 2]"])
    def test_unusable_config_exits_2(self, capsys, tmp_path, content):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(content)
        code, out, err = run(capsys, ["pipeline", "--config", str(cfg)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {cfg}: ")

    def test_command_line_emit_overrides_config(self, capsys, tmp_path, exported):
        cfg = self.make_config(tmp_path, exported, emit="csv")
        code, out, _ = run(capsys, ["pipeline", "--config", str(cfg), "--emit", "json"])
        assert code == 0
        assert json.loads(out)["ranking"]["rank_order"] == STUDY_ORDER

    def test_output_file_from_config(self, capsys, tmp_path, exported):
        out_path = tmp_path / "report.json"
        cfg = self.make_config(tmp_path, exported, output=str(out_path))
        code, out, _ = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["ranking"]["rank_order"] == STUDY_ORDER


class TestPaperVerify:
    def test_passes_and_lists_anomalies(self, capsys):
        code, out, _ = run(capsys, ["paper-verify"])
        assert code == 0
        assert "modal-multiplier-slip" in out
        assert "(B8,B4)" in out
        assert "(B1,B5)" in out
        assert "result: PASS" in out

    def test_json_emission(self, capsys):
        code, out, _ = run(capsys, ["paper-verify", "--emit", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all(c["ok"] for c in doc["checks"])
        assert {a["id"] for a in doc["anomalies"]} >= {
            "modal-multiplier-slip",
            "non-monotone-cell-b8-b4",
            "off-reciprocal-cell-b1-b5",
        }

    def test_check_harness_catches_perturbations(self, study):
        # a half-point nudge on one panel cell must fail a named check
        from fdahp.dataset import PaperStudy
        from fdahp.delphi import RatingPanel
        from fdahp.tfn import TFN
        from fdahp.verify import checks_passed, run_study_checks

        panel = study.delphi_panel
        rows = {bid: list(panel.row(bid)) for bid in panel.barrier_ids}
        t = rows["B1"][0]
        rows["B1"][0] = TFN(t.l + 0.5, t.m + 0.5, t.u + 0.5)
        tampered_panel = RatingPanel.from_rows(
            list(panel.barriers), list(panel.experts), rows
        )
        tampered = PaperStudy(
            key=study.key,
            title=study.title,
            delphi_panel=tampered_panel,
            delphi_expected=study.delphi_expected,
            fahp_matrix=study.fahp_matrix,
            fahp_expected=study.fahp_expected,
            renumber_map=study.renumber_map,
            renumber_map_inferred=study.renumber_map_inferred,
            anomalies=study.anomalies,
        )
        checks = run_study_checks(tampered)
        assert not checks_passed(checks)
        failed = [c.name for c in checks if not c.ok]
        assert "screening score B1" in failed


class TestFormats:
    def test_markdown_mirrors_weight_rank_layout(self, capsys, exported):
        _, out, _ = run(
            capsys,
            ["rank", "--matrix", str(exported / "fahp_matrix.json"), "--emit", "md"],
        )
        assert "| Criterion | Name | Weight | Rank |" in out
        assert "| B10 | Lack of top management's commitment" in out
        assert "| 0.2117 | 1 |" in out

    def test_csv_report_parses(self, capsys, exported):
        _, out, _ = run(
            capsys,
            ["rank", "--matrix", str(exported / "fahp_matrix.json"), "--emit", "csv"],
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        sections = {r["section"] for r in rows}
        assert "ranking" in sections and "warning" in sections
        ranked = [r for r in rows if r["section"] == "ranking"]
        assert len(ranked) == 11

    def test_combined_csv_has_both_sections(self, capsys, tmp_path, exported):
        cfg = TestPipeline().make_config(tmp_path, exported, emit="csv")
        code, out, _ = run(capsys, ["pipeline", "--config", str(cfg)])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        sections = {r["section"] for r in rows}
        assert {"summary", "screening", "ranking"} <= sections

    def test_timing_flag_populates_field(self, capsys, exported):
        _, out, _ = run(
            capsys,
            ["screen", "--ratings", str(exported / "delphi_ratings.csv"), "--timing"],
        )
        assert json.loads(out)["timing_ms"] > 0

    def test_timing_omitted_by_default(self, capsys, exported):
        _, out, _ = run(
            capsys, ["screen", "--ratings", str(exported / "delphi_ratings.csv")]
        )
        assert json.loads(out)["timing_ms"] is None


class TestExport:
    def test_writes_both_tables(self, exported):
        for name in (
            "delphi_ratings.csv",
            "fahp_matrix.csv",
            "delphi_ratings.json",
            "fahp_matrix.json",
        ):
            assert (exported / name).exists()

    def test_no_command_prints_help(self, capsys):
        code, out, _ = run(capsys, [])
        assert code == 0
        assert "screen" in out and "paper-verify" in out
