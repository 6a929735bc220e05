"""Screening stage: scale encoding, aggregation, thresholding, decisions."""
import copy
import math
import pickle

import numpy as np
import pytest

from fdahp import (
    DELPHI_10,
    Barrier,
    LinguisticScale,
    RatingPanel,
    ScreeningResult,
    TFN,
    ThresholdStrategy,
    ValidationError,
    ValidationMode,
    aggregate_panel,
    compute_threshold,
    get_scale,
    score_barriers,
    screen,
)
from fdahp.delphi import BarrierScreening

# Crisp scores recomputed with a 50-digit arithmetic oracle and frozen here;
# the study's printed values are asserted separately at their own tolerance.
ORACLE_SCORES = {
    "B1": 7.412541385133463, "B2": 8.068898133068094, "B3": 5.985964045176316,
    "B4": 8.413022858542824, "B5": 7.623986228353907, "B6": 5.0600133760742345,
    "B7": 4.84233968527929, "B8": 3.8876138338282353, "B9": 9.16227766016838,
    "B10": 7.902314316344777, "B11": 8.060415659490031, "B12": 3.8876138338282353,
    "B13": 8.216871818048073, "B14": 8.068898133068094, "B15": 9.24667915475099,
    "B16": 8.150646580594591,
}
ORACLE_THRESHOLD = 7.124381043859346


def make_panel(rows, experts=None, mode=ValidationMode.STRICT):
    """A panel from one opinion list per barrier id, in expert order."""
    experts = experts or [f"E{k + 1}" for k in range(len(next(iter(rows.values()))))]
    grid = {
        (bid, eid): t for bid, row in rows.items() for eid, t in zip(experts, row, strict=True)
    }
    return RatingPanel(list(rows), experts, grid, mode)


class TestScale:
    def test_builtin_matches_ten_level_scale(self):
        want = {
            1: (0, 0, 1), 2: (1, 2, 3), 3: (2, 3, 4), 4: (3, 4, 5), 5: (4, 5, 6),
            6: (5, 6, 7), 7: (6, 7, 8), 8: (7, 8, 9), 9: (8, 9, 10), 10: (10, 10, 10),
        }
        assert DELPHI_10.entries == want

    def test_encode_extremes_and_middle(self):
        assert DELPHI_10.tfn(1) == TFN(0, 0, 1)
        assert DELPHI_10.tfn(10) == TFN(10, 10, 10)
        assert DELPHI_10.tfn(5) == TFN(4, 5, 6)

    def test_unknown_rating_names_scale_and_value(self):
        with pytest.raises(ValidationError, match=r"11.*delphi-10"):
            DELPHI_10.tfn(11)

    def test_unknown_scale_name(self):
        for name in ("nope-5", ["delphi-10"]):  # a JSON list is unhashable
            with pytest.raises(ValidationError, match="unknown linguistic scale"):
                get_scale(name)

    def test_scale_must_be_contiguous(self):
        from fdahp import LinguisticScale

        with pytest.raises(ValidationError):
            LinguisticScale("gappy", {1: TFN(0, 0, 1), 3: TFN(1, 2, 3)})


class TestPanelValidation:
    def test_missing_cell(self):
        with pytest.raises(ValidationError) as exc:
            RatingPanel(
                (Barrier("A"),), ("E1", "E2"), {("A", "E1"): TFN(1, 2, 3)}
            )
        assert str(exc.value) == "panel is missing the rating for (A, E2)"

    def test_needs_barriers_and_experts(self):
        with pytest.raises(ValidationError):
            RatingPanel((), ("E1",), {})
        with pytest.raises(ValidationError):
            RatingPanel((Barrier("A"),), (), {})

    def test_negative_rating_rejected(self):
        with pytest.raises(ValidationError):
            make_panel({"A": [TFN(-1, 0, 1)]})

    def test_non_monotone_cell_strict_vs_lenient(self):
        rows = {"A": [TFN(3, 2, 4)]}
        with pytest.raises(ValidationError):
            make_panel(rows)
        panel = make_panel(rows, mode=ValidationMode.LENIENT)
        assert len(panel.warnings) == 1
        assert panel.warnings[0].code == "non_monotone"

    def test_non_tfn_cell_named(self):
        for cell in [(1.0, 2.0, 3.0), "5", 5, None]:
            with pytest.raises(ValidationError) as exc:
                RatingPanel(
                    (Barrier("A"),), ("E1", "E2"), {("A", "E1"): TFN(1, 2, 3), ("A", "E2"): cell}
                )
            assert str(exc.value) == f"rating (A, E2) = {cell!r} is not a TFN"

    def test_rating_for_unknown_cell(self):
        ratings = {("A", "E1"): TFN(1, 2, 3), ("A", "E9"): TFN(1, 2, 3)}
        with pytest.raises(ValidationError, match=r"unknown cells: \[\('A', 'E9'\)\]"):
            RatingPanel((Barrier("A"),), ("E1",), ratings)

    def test_negative_check_precedes_order_check_in_both_modes(self):
        rows = {"A": [TFN(1, 2, 3), TFN(2, -1, 1)]}
        for mode in ValidationMode:
            with pytest.raises(ValidationError, match=r"\(A, E2\) = \(2, -1, 1\) has negative"):
                make_panel(rows, mode=mode)

    def test_lenient_warnings_follow_barrier_then_expert_order(self):
        rows = {"A": [TFN(3, 2, 4), TFN(1, 2, 3)], "B": [TFN(0, 2, 1), TFN(5, 4, 3)]}
        panel = make_panel(rows, mode=ValidationMode.LENIENT)
        assert [w.location for w in panel.warnings] == ["(A, E1)", "(B, E1)", "(B, E2)"]
        assert panel.warnings[0].message == "rating (3, 2, 4) is not ordered l <= m <= u"
        with pytest.raises(ValidationError, match=r"rating \(A, E1\) = \(3, 2, 4\) is not ordered"):
            make_panel(rows)

    def test_parse_rejects_non_string(self):
        with pytest.raises(ValidationError):
            ThresholdStrategy.parse(5.0)

    def test_mode_string_is_parsed(self):
        unordered = ["A"], ["E"], {("A", "E"): TFN(3, 2, 4)}
        with pytest.raises(ValidationError) as exc:
            RatingPanel(*unordered, "strict")
        assert str(exc.value) == "rating (A, E) = (3, 2, 4) is not ordered l <= m <= u"
        panel = RatingPanel(*unordered, "Lenient")
        assert panel.mode is ValidationMode.LENIENT
        assert [w.code for w in panel.warnings] == ["non_monotone"]
        ordered = ["A"], ["E"], {("A", "E"): TFN(2, 3, 4)}
        assert RatingPanel(*ordered, "strict").mode is ValidationMode.STRICT
        with pytest.raises(ValidationError) as exc:
            RatingPanel(*ordered, "bogus")
        assert str(exc.value) == (
            "unknown validation mode 'bogus'; expected 'strict' or 'lenient'"
        )
        with pytest.raises(ValidationError) as exc:
            RatingPanel(*ordered, None)
        assert str(exc.value) == "validation mode must be a string, got None"


class TestRecords:
    """Records are named tuples; the validated ones re-validate on `_replace`."""

    def test_barrier_is_a_value(self):
        a = Barrier("A", "alpha")
        assert a == Barrier("A", "alpha") and hash(a) == hash(Barrier("A", "alpha"))
        assert a != Barrier("A")
        assert repr(a) == "Barrier(id='A', name='alpha')"
        bid, name = a
        assert (bid, name, Barrier("A").name) == ("A", "alpha", "")
        with pytest.raises(AttributeError):
            a.name = "beta"

    def test_screening_result_defaults_to_no_warnings(self):
        row = BarrierScreening(Barrier("A"), TFN(1, 2, 3), 2.0, True)
        result = ScreeningResult([row], 2.0, ThresholdStrategy.mean())
        assert result.warnings == ()
        assert result == ScreeningResult([row], 2.0, ThresholdStrategy.mean(), ())
        with pytest.raises(AttributeError):
            result.threshold = 3.0

    def test_threshold_strategy_validates_every_construction(self):
        fixed = ThresholdStrategy.fixed(5)
        assert repr(fixed) == "ThresholdStrategy(kind='fixed', value=5.0)"
        assert fixed._replace(value=6.0) == ThresholdStrategy.fixed(6)
        assert pickle.loads(pickle.dumps(fixed)) == fixed
        with pytest.raises(ValidationError, match="takes no value"):
            ThresholdStrategy.mean()._replace(value=1.0)
        with pytest.raises(ValidationError, match="finite value"):
            ThresholdStrategy("fixed")

    def test_scale_validates_every_construction(self):
        with pytest.raises(ValidationError, match="contiguous"):
            DELPHI_10._replace(entries={1: TFN(0, 0, 1), 3: TFN(1, 2, 3)})
        with pytest.raises(ValidationError, match="unordered"):
            LinguisticScale("bad", {1: TFN(2, 1, 3)})
        assert pickle.loads(pickle.dumps(DELPHI_10)) == DELPHI_10


class TestPanelRecord:
    """A panel is a named tuple that holds its opinions once, as `rows`."""

    ROWS = {"A": [TFN(1, 2, 3), TFN(3, 2, 4)], "B": [TFN(4, 5, 6), TFN(0, 0, 1)]}

    def test_fields_and_derived_ratings(self):
        grid = {("B", "E2"): TFN(0, 0, 1), ("A", "E1"): TFN(1, 2, 3),
                ("B", "E1"): TFN(4, 5, 6), ("A", "E2"): TFN(2, 3, 4)}
        panel = RatingPanel(["A", "B"], ["E1", "E2"], grid)
        assert isinstance(panel, tuple) and panel._fields == (
            "barriers", "experts", "rows", "mode", "warnings")
        assert panel.rows == {"A": (TFN(1, 2, 3), TFN(2, 3, 4)), "B": (TFN(4, 5, 6), TFN(0, 0, 1))}
        assert list(panel.rows) == panel.barrier_ids == ["A", "B"]
        # barrier then expert order, whatever the order of the input dict
        assert list(panel.ratings) == [("A", "E1"), ("A", "E2"), ("B", "E1"), ("B", "E2")]
        assert panel.ratings == grid

    def test_mutating_the_input_dict_changes_nothing(self):
        grid = {(b, f"E{k + 1}"): t for b, row in self.ROWS.items() for k, t in enumerate(row)}
        panel = RatingPanel(["A", "B"], ["E1", "E2"], grid, ValidationMode.LENIENT)
        before = screen(panel)
        grid[("A", "E1")] = TFN(7, 8, 9)
        grid[("B", "E9")] = TFN(1, 1, 1)
        assert panel.ratings[("A", "E1")] == TFN(1, 2, 3)
        assert ("B", "E9") not in panel.ratings
        assert panel.row("A") == (TFN(1, 2, 3), TFN(3, 2, 4))
        assert screen(panel) == before

    def test_warnings_are_a_tuple(self):
        panel = make_panel(self.ROWS, mode=ValidationMode.LENIENT)
        assert type(panel.warnings) is tuple and len(panel.warnings) == 1
        assert screen(panel).warnings == panel.warnings

    def test_equal_inputs_give_equal_panels(self, study):
        p = study.delphi_panel
        assert RatingPanel(p.barriers, p.experts, p.ratings) == p
        lenient = ValidationMode.LENIENT
        assert make_panel(self.ROWS, mode=lenient) == make_panel(self.ROWS, mode=lenient)
        changed = {**self.ROWS, "B": [TFN(4, 5, 6), TFN(0, 0, 2)]}
        assert make_panel(self.ROWS, mode=lenient) != make_panel(changed, mode=lenient)

    def test_deepcopy_and_pickle_round_trip(self, study):
        assert copy.deepcopy(study) == study
        lenient = make_panel(self.ROWS, mode=ValidationMode.LENIENT)
        for panel in (study.delphi_panel, lenient):
            assert copy.copy(panel) == panel
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(panel, protocol))
                assert type(back) is RatingPanel and back == panel

    def test_replace_does_not_validate(self, study):
        # dropping one expert's column is the same rows less one entry each
        panel = study.delphi_panel
        rest = panel.experts[1:]
        dropped = panel._replace(experts=rest, rows={b: r[1:] for b, r in panel.rows.items()})
        assert dropped == RatingPanel(panel.barriers, rest, {
            (b, e): t for (b, e), t in panel.ratings.items() if e != panel.experts[0]})
        assert panel._replace(rows={}).rows == {}


class TestFromRows:
    """`RatingPanel.from_rows` takes rows laid out as a panel stores them."""

    ROWS = {"A": [TFN(1, 2, 3), TFN(2, 3, 4)], "B": [TFN(4, 5, 6), TFN(0, 0, 1)]}

    def test_equals_the_keyed_maker_and_stores_tuples(self):
        panel = RatingPanel.from_rows(["A", "B"], ["E1", "E2"], self.ROWS, "lenient")
        assert panel == make_panel(self.ROWS, mode=ValidationMode.LENIENT)
        assert all(type(row) is tuple for row in panel.rows.values())

    @pytest.mark.parametrize("rows, message", [
        ({"A": [TFN(1, 2, 3)], "B": [TFN(4, 5, 6), TFN(0, 0, 1)]},
         "barrier A has 1 ratings, not 2"),
        ({"A": ROWS["A"], "B": [*ROWS["B"], TFN(1, 1, 1)]}, "barrier B has 3 ratings, not 2"),
        ({"B": ROWS["B"], "A": ROWS["A"]}, "row 0 is keyed 'B', not barrier 'A'"),
        ({"A": ROWS["A"], "C": ROWS["B"]}, "row 1 is keyed 'C', not barrier 'B'"),
        ({"A": ROWS["A"]}, "rows for 1 barriers given, expected 2"),
        ({**ROWS, "C": ROWS["A"]}, "rows for 3 barriers given, expected 2"),
        ({"A": ROWS["A"], "B": 5}, "the row of barrier B is not a list or tuple: 5"),
        ({"A": ROWS["A"], "B": "xy"}, "the row of barrier B is not a list or tuple: 'xy'"),
    ], ids=["short row", "long row", "out of order", "unknown key", "missing row", "extra row",
            "number row", "text row"])
    def test_wrong_shape_raises(self, rows, message):
        with pytest.raises(ValidationError) as exc:
            RatingPanel.from_rows(["A", "B"], ["E1", "E2"], rows)
        assert str(exc.value) == message

    def test_a_bad_cell_is_named_as_the_keyed_maker_names_it(self):
        rows = {"A": self.ROWS["A"], "B": [TFN(4, 5, 6), TFN(3, 2, 4)]}
        with pytest.raises(ValidationError) as exc:
            RatingPanel.from_rows(["A", "B"], ["E1", "E2"], rows)
        assert str(exc.value) == "rating (B, E2) = (3, 2, 4) is not ordered l <= m <= u"
        panel = RatingPanel.from_rows(["A", "B"], ["E1", "E2"], rows, ValidationMode.LENIENT)
        assert [w.location for w in panel.warnings] == ["(B, E2)"]

    def test_repeated_experts_raise_as_for_the_keyed_maker(self):
        with pytest.raises(ValidationError, match="expert ids must be unique"):
            RatingPanel.from_rows(["A", "B"], ["E1", "E1"], self.ROWS)

    @pytest.mark.parametrize("barriers, experts, rows, message", [
        (["A", "A"], ["E1"], {"A": [TFN(1, 2, 3)]}, "barrier ids must be unique"),
        (["A", "A"], [], {"A": []}, "panel needs at least one expert"),
        (["A"], ["E1", "E1"], {"A": [TFN(1, 2, 3)]}, "expert ids must be unique"),
        ([], ["E1"], {"A": [TFN(1, 2, 3)]}, "panel needs at least one barrier"),
    ], ids=["repeated barrier", "no expert", "repeated expert, short row", "no barrier"])
    def test_ids_are_checked_before_the_rows(self, barriers, experts, rows, message):
        keyed = {(bid, e): t for bid, row in rows.items() for e, t in zip(experts, row)}
        for make in (RatingPanel.from_rows, lambda b, e, _: RatingPanel(b, e, keyed)):
            with pytest.raises(ValidationError) as exc:
                make(barriers, experts, rows)
            assert str(exc.value) == message


class TestAggregateAndScore:
    def test_study_rows(self, study):
        agg = aggregate_panel(study.delphi_panel)
        assert agg["B1"] == pytest.approx(
            (6.0, (7**3 * 8) ** 0.25, 9.0), abs=1e-12
        )
        assert agg["B15"] == pytest.approx(
            (8.0, (10 * 9 * 10 * 10) ** 0.25, 10.0), abs=1e-12
        )

    def test_order_matches_barrier_order(self, study):
        assert list(aggregate_panel(study.delphi_panel)) == study.delphi_panel.barrier_ids

    def test_single_expert_passthrough(self):
        panel = make_panel({"A": [TFN(3, 4, 5)]})
        assert aggregate_panel(panel)["A"] == TFN(3, 4, 5)

    def test_study_scores(self, study):
        scores = score_barriers(aggregate_panel(study.delphi_panel))
        assert scores["B1"] == pytest.approx(7.41, abs=0.01)
        assert scores["B9"] == pytest.approx(9.16, abs=0.01)
        assert scores["B8"] == pytest.approx(3.89, abs=0.01)
        for bid, want in ORACLE_SCORES.items():
            assert scores[bid] == pytest.approx(want, abs=1e-12)

    def test_score_empty_rejected(self):
        with pytest.raises(ValidationError):
            score_barriers({})


class TestThreshold:
    def test_study_mean(self, study):
        scores = score_barriers(aggregate_panel(study.delphi_panel))
        got = compute_threshold(scores)
        assert got == pytest.approx(113.99 / 16, abs=0.01)
        assert got == pytest.approx(ORACLE_THRESHOLD, abs=1e-12)

    def test_mean_of_constants(self):
        assert compute_threshold({"A": 4.2, "B": 4.2, "C": 4.2}) == pytest.approx(4.2)

    def test_fixed(self):
        assert compute_threshold({"A": 1.0}, ThresholdStrategy.fixed(5.0)) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_threshold({})

    def test_parse(self):
        assert ThresholdStrategy.parse("mean") == ThresholdStrategy.mean()
        assert ThresholdStrategy.parse("fixed:5.5") == ThresholdStrategy.fixed(5.5)
        with pytest.raises(ValidationError):
            ThresholdStrategy.parse("median")
        with pytest.raises(ValidationError):
            ThresholdStrategy.parse("fixed:abc")


class TestScreen:
    def test_study_partition(self, study):
        result = screen(study.delphi_panel)
        assert result.selected_ids == [
            "B1", "B2", "B4", "B5", "B9", "B10", "B11", "B13", "B14", "B15", "B16"
        ]
        assert result.rejected_ids == ["B3", "B6", "B7", "B8", "B12"]
        assert len(result.selected_ids) == 11
        assert len(result.rejected_ids) == 5

    def test_single_barrier_boundary_equality(self):
        # with one barrier the mean threshold equals its score, and ties select
        result = screen(make_panel({"A": [TFN(2, 3, 4), TFN(2, 3, 4)]}))
        assert result.selected_ids == ["A"]

    def test_preserves_barrier_order_and_threshold(self, study):
        result = screen(study.delphi_panel)
        assert [r.barrier.id for r in result.rows] == study.delphi_panel.barrier_ids
        assert result.threshold == pytest.approx(ORACLE_THRESHOLD, abs=1e-12)

    def test_expert_permutation_leaves_scores_and_decisions(self, study):
        panel = study.delphi_panel
        rng = np.random.default_rng(37)
        perm = list(rng.permutation(len(panel.experts)))
        shuffled = RatingPanel(panel.barriers, [panel.experts[j] for j in perm], panel.ratings)
        for bid in panel.barrier_ids:
            assert shuffled.row(bid) == tuple(panel.row(bid)[j] for j in perm)
        a, b = screen(panel), screen(shuffled)
        for ra, rb in zip(a.rows, b.rows):
            assert ra.score == rb.score
            assert ra.selected == rb.selected

    def test_barrier_permutation_equivariance(self, study):
        panel = study.delphi_panel
        rng = np.random.default_rng(41)
        perm = list(rng.permutation(len(panel.barriers)))
        barriers = [panel.barriers[i] for i in perm]
        permuted = RatingPanel(barriers, panel.experts, panel.ratings)
        a, b = screen(panel), screen(permuted)
        by_id = {r.barrier.id: r for r in a.rows}
        assert [r.barrier.id for r in b.rows] == [panel.barriers[i].id for i in perm]
        for r in b.rows:
            assert r.score == by_id[r.barrier.id].score
            assert r.selected == by_id[r.barrier.id].selected

    def test_mean_strategy_always_selects_the_top(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n_b, n_e = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            rows = {
                f"B{i}": [
                    DELPHI_10.tfn(int(rng.integers(1, 11)))
                    for _ in range(n_e)
                ]
                for i in range(n_b)
            }
            assert screen(make_panel(rows)).selected_ids

    def test_identical_rating_vectors_select_everything(self):
        vector = [TFN(4, 5, 6), TFN(6, 7, 8), TFN(1, 2, 3)]
        rows = {f"B{i}": list(vector) for i in range(5)}
        result = screen(make_panel(rows))
        scores = {r.barrier.id: r.score for r in result.rows}
        assert len(set(scores.values())) == 1
        assert len(result.selected_ids) == 5

    def test_decisions_depend_only_on_comparison(self):
        # shifting every score by a constant must not change the selected set
        rng = np.random.default_rng(47)
        scores = {f"B{i}": float(rng.uniform(1, 9)) for i in range(8)}
        thr = compute_threshold(scores)
        base = {b for b, s in scores.items() if s >= thr}
        for c in (-2.5, 0.1, 7.0):
            shifted = {b: s + c for b, s in scores.items()}
            thr_c = compute_threshold(shifted)
            assert {b for b, s in shifted.items() if s >= thr_c} == base

    def test_lenient_panel_warnings_flow_into_result(self):
        rows = {"A": [TFN(3, 2, 4)], "B": [TFN(1, 2, 3)]}
        result = screen(make_panel(rows, mode=ValidationMode.LENIENT))
        assert [w.code for w in result.warnings] == ["non_monotone"]

    def test_zero_modal_components_are_legal(self):
        # rating 1 encodes to (0, 0, 1); the modal geomean collapses to zero
        rows = {"A": [DELPHI_10.tfn(1), DELPHI_10.tfn(8)]}
        result = screen(make_panel(rows))
        assert result.rows[0].aggregate.m == 0.0
        assert math.isfinite(result.rows[0].score)
