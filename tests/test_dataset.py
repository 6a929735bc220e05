"""Bundled study: integrity, structure, renumbering, export round-trips."""
import pytest

import fdahp.dataset as dataset_mod
from fdahp import (
    Barrier,
    DatasetError,
    TFN,
    ValidationError,
    load_paper_study,
    renumber_selected,
    screen,
    sequential_renumber_map,
)
from fdahp.io import (
    read_matrix_csv,
    read_matrix_json,
    read_ratings_csv,
    read_ratings_json,
    write_matrix_csv,
    write_matrix_json,
    write_ratings_csv,
    write_ratings_json,
)
from fdahp.tfn import ValidationMode
from helpers import cell

EXPECTED_MAP = {
    "B1": "B1", "B2": "B2", "B4": "B3", "B5": "B4", "B9": "B5", "B10": "B6",
    "B11": "B7", "B13": "B8", "B14": "B9", "B15": "B10", "B16": "B11",
}


class TestLoad:
    def test_panel_shape(self, study):
        assert len(study.delphi_panel.barriers) == 16
        assert len(study.delphi_panel.experts) == 4

    def test_matrix_shape_and_spot_cell(self, study):
        assert study.fahp_matrix.size == 11
        assert cell(study.fahp_matrix, "B2", "B5") == TFN(9, 9, 9)
        assert cell(study.fahp_matrix, "B8", "B4") == TFN(0.17, 0.2, 0.17)

    def test_expected_top_criterion(self, study):
        assert study.fahp_expected.ranking["B10"] == 1
        assert study.fahp_expected.weights_normalized["B10"] == 0.21185

    def test_renumber_map_is_the_inferred_sequential_one(self, study):
        assert study.renumber_map == EXPECTED_MAP
        assert study.renumber_map_inferred is True

    def test_matrix_is_lenient_with_known_warnings(self, study):
        assert study.fahp_matrix.mode is ValidationMode.LENIENT
        codes = sorted(w.code for w in study.fahp_matrix.warnings)
        assert codes == ["non_monotone", "reciprocity_breach", "reciprocity_breach"]

    def test_anomalies_cover_known_issues(self, study):
        ids = {a.id for a in study.anomalies}
        assert "modal-multiplier-slip" in ids
        assert "non-monotone-cell-b8-b4" in ids
        assert any("b1-b5" in i for i in ids)

    def test_checksum_guard(self, monkeypatch):
        raw = dataset_mod._load_bytes()
        tampered = raw.replace(b"0.21185", b"0.71185")
        assert tampered != raw
        monkeypatch.setattr(dataset_mod, "_load_bytes", lambda: tampered)
        with pytest.raises(DatasetError, match="sha256"):
            dataset_mod.load_paper_study()

    def test_load_is_reproducible(self, study):
        again = load_paper_study()
        assert again.fahp_matrix.cells == study.fahp_matrix.cells
        assert again.delphi_expected == study.delphi_expected


class TestRenumber:
    def test_study_selection(self, study):
        screening = screen(study.delphi_panel)
        criteria = renumber_selected(screening, study.renumber_map)
        assert [c.id for c in criteria] == [f"B{k}" for k in range(1, 12)]
        assert criteria[-1].id == "B11"
        assert criteria[-1].name == "Absence of Standardization"

    def test_sequential_map_matches_bundled_map(self, study):
        screening = screen(study.delphi_panel)
        assert sequential_renumber_map(screening.selected_ids) == study.renumber_map

    def test_identity_map_keeps_labels(self, study):
        screening = screen(study.delphi_panel)
        identity = {b: b for b in screening.selected_ids}
        criteria = renumber_selected(screening, identity)
        assert [c.id for c in criteria] == screening.selected_ids

    def test_coverage_must_be_exact(self, study):
        screening = screen(study.delphi_panel)
        partial = dict(study.renumber_map)
        partial.pop("B16")
        with pytest.raises(ValidationError, match="missing"):
            renumber_selected(screening, partial)
        extra = dict(study.renumber_map, B3="B12")
        with pytest.raises(ValidationError, match="extra"):
            renumber_selected(screening, extra)

    def test_empty_selection_rejected(self, study):
        from fdahp import ScreeningResult, ThresholdStrategy
        from fdahp.delphi import BarrierScreening

        empty = ScreeningResult(
            rows=[BarrierScreening(Barrier("A"), TFN(1, 2, 3), 2.0, False)],
            threshold=100.0,
            strategy=ThresholdStrategy.fixed(100.0),
        )
        with pytest.raises(ValidationError, match="no barriers"):
            renumber_selected(empty, {})


class TestPipelineReproduction:
    def test_screen_reproduces_expected_decisions(self, study):
        screening = screen(study.delphi_panel)
        got = {
            r.barrier.id: ("selected" if r.selected else "rejected")
            for r in screening.rows
        }
        assert got == study.delphi_expected.decisions

    def test_fahp_reproduces_expected_ranks(self, study):
        from fdahp import run_fahp

        result = run_fahp(study.fahp_matrix)
        got = dict(zip(result.ids, result.ranks))
        assert got == study.fahp_expected.ranking


class TestExportRoundTrip:
    def test_csv(self, study, tmp_path):
        ratings = tmp_path / "ratings.csv"
        matrix = tmp_path / "matrix.csv"
        write_ratings_csv(study.delphi_panel, ratings)
        write_matrix_csv(study.fahp_matrix, matrix)
        panel = read_ratings_csv(ratings)
        assert panel.barrier_ids == study.delphi_panel.barrier_ids
        assert panel.experts == study.delphi_panel.experts
        for bid in panel.barrier_ids:
            assert panel.row(bid) == study.delphi_panel.row(bid)
        m = read_matrix_csv(matrix, ValidationMode.LENIENT)
        assert m.ids == study.fahp_matrix.ids
        assert m.cells == study.fahp_matrix.cells

    def test_json(self, study, tmp_path):
        ratings = tmp_path / "ratings.json"
        matrix = tmp_path / "matrix.json"
        write_ratings_json(study.delphi_panel, ratings)
        write_matrix_json(study.fahp_matrix, matrix)
        panel = read_ratings_json(ratings)
        for bid in panel.barrier_ids:
            assert panel.row(bid) == study.delphi_panel.row(bid)
        assert [b.name for b in panel.barriers] == [
            b.name for b in study.delphi_panel.barriers
        ]
        m = read_matrix_json(matrix)
        assert m.mode is ValidationMode.LENIENT
        assert m.cells == study.fahp_matrix.cells
