"""Ranking stage: matrix validation/building, geometric-mean weighting, ranks."""
import gc

import numpy as np
import pytest

from fdahp import (
    Barrier,
    TFN,
    ValidationError,
    ValidationMode,
    build_matrix,
    crisp_weights,
    fuzzy_weights,
    rank,
    row_geometric_means,
    run_fahp,
    tfn_multiply,
    tfn_reciprocal,
)

# Canonical pipeline values for the bundled study, recomputed with a 50-digit
# arithmetic oracle and frozen; printed-table values are asserted at their own
# coarser tolerances.
ORACLE_R = {
    "B1": (0.49112688900098883, 0.5931662425896267, 0.7232031135439337),
    "B2": (0.8619317411204944, 1.0087194459307394, 1.1790245726971815),
    "B3": (0.9322815188485835, 1.1554445985352042, 1.4371110933424442),
    "B4": (0.6278548076909463, 0.7574251374471701, 0.9507486115865674),
    "B5": (1.3594037198978723, 1.6474040004785468, 1.9465928695714787),
    "B6": (0.3752131830930117, 0.48251757369928927, 0.6615693219480402),
    "B7": (1.5008527323720469, 1.8080458266751727, 2.0974350503874093),
    "B8": (0.4793546891996001, 0.5515694003503554, 0.6444916441707499),
    "B9": (1.716099250851826, 2.096447694957639, 2.4443553835547362),
    "B10": (2.3177318070060426, 2.8434230653365518, 3.3826834626304283),
    "B11": (0.3488562673235412, 0.4200093426772958, 0.5226401574939151),
}
ORACLE_TOTAL = (11.010706606404954, 13.36417232867759, 15.989855280926884)
ORACLE_INVERSE = (0.06253965295063214, 0.07482693094686783, 0.09082069259917412)
ORACLE_W1 = (0.030714905192845476, 0.044384809474267053, 0.06568180766193922)
ORACLE_N = {
    "B1": 0.04482323851262081, "B2": 0.07528749157176357, "B3": 0.08764677854310454,
    "B4": 0.058038833405803084, "B5": 0.12260437925700474, "B6": 0.03809685586482968,
    "B7": 0.1336098325570548, "B8": 0.04132178371781378, "B9": 0.15479834686475077,
    "B10": 0.21170693372363444, "B11": 0.03206552598161978,
}
STUDY_ORDER = ["B10", "B9", "B7", "B5", "B3", "B2", "B4", "B1", "B8", "B6", "B11"]

from fdahp.errors import _nogc  # noqa: E402
from helpers import cell, collections_inside, grid_matrix, random_reciprocal_matrix  # noqa: E402


class TestValidate:
    def test_exact_reciprocals_are_clean(self):
        m = build_matrix(
            [("A", "B", TFN(2, 3, 4)), ("B", "A", TFN(0.25, 1 / 3, 0.5))],
            ["A", "B"],
        )
        assert m.warnings == ()

    def test_study_matrix_lenient_warnings(self, study):
        warnings = study.fahp_matrix.warnings
        by_code = {}
        for w in warnings:
            by_code.setdefault(w.code, []).append(w.location)
        assert by_code["non_monotone"] == ["(B8,B4)"]
        assert sorted(by_code["reciprocity_breach"]) == [
            "(B4,B8)/(B8,B4)",
            "(B7,B11)/(B11,B7)",
        ]
        assert len(warnings) == 3

    def test_a_built_matrix_hashes_and_its_warnings_cannot_change(self, study):
        m = study.fahp_matrix
        assert type(m.warnings) is tuple and len(m.warnings) == 3
        assert hash(m) == hash(grid_matrix(m.criteria, m.cells, m.mode))
        with pytest.raises(AttributeError):
            m.warnings.clear()
        assert run_fahp(m).warnings is m.warnings

    def test_study_matrix_strict_raises_on_the_unordered_cell(self, study):
        # cell ordering is checked before reciprocity, so (B8,B4) trips first
        cells = study.fahp_matrix.cells
        with pytest.raises(ValidationError, match=r"\(B8,B4\)"):
            grid_matrix(study.fahp_matrix.criteria, cells, ValidationMode.STRICT)

    def test_reciprocity_tolerance_absorbs_printed_rounding(self):
        # 0.147 vs 1/7 is ~2.9% off and must pass at the 5% tolerance
        m = build_matrix(
            [("A", "B", TFN(6, 7, 8)), ("B", "A", TFN(0.125, 0.147, 0.17))],
            ["A", "B"],
        )
        assert m.warnings == ()

    def test_reciprocity_breach_detected(self):
        with pytest.raises(ValidationError, match="reciprocal"):
            build_matrix(
                [("A", "B", TFN(4, 5, 6)), ("B", "A", TFN(0.25, 0.33, 0.5))],
                ["A", "B"],
            )

    def test_non_unit_diagonal(self):
        with pytest.raises(ValidationError, match=r"\(A,A\)"):
            grid_matrix((Barrier("A"),), ((TFN(2, 2, 2),),), ValidationMode.STRICT)
        lenient = grid_matrix(
            (Barrier("A"),), ((TFN(2, 2, 2),),), ValidationMode.LENIENT
        )
        assert [w.code for w in lenient.warnings] == ["non_unit_diagonal"]

    @pytest.mark.parametrize("mode", list(ValidationMode))
    def test_overflowing_reciprocal_raises_located(self, mode):
        # 1/1e-310 is inf, and a nan ratio would pass any tolerance test
        tiny, unit = TFN(1e-310, 1e-310, 1e-310), TFN(1, 1, 1)
        with pytest.raises(ValidationError) as exc:
            grid_matrix(("A", "B"), ((unit, tiny), (unit, unit)), mode)
        assert str(exc.value) == "(A,B)/(B,A): reciprocal of (1e-310, 1e-310, 1e-310) overflows"

    @pytest.mark.parametrize("bad, message", [
        ((1, 2), "entry (B,A): expected an (l, m, u) triple, got (1, 2)"),
        (5, "entry (B,A): expected an (l, m, u) triple, got 5"),
        ((1, 2, float("inf")), "entry (B,A): TFN component u must be finite, got inf"),
        ((True, 2, 3), "entry (B,A): TFN component l must be a real number, got True"),
    ])
    def test_bad_cell_is_named(self, bad, message):
        unit = (1, 1, 1)
        for mode in ValidationMode:
            with pytest.raises(ValidationError) as exc:
                grid_matrix(("A", "B"), ((unit, unit), (bad, unit)), mode)
            assert str(exc.value) == message
        plain = grid_matrix(("A", "B"), ((unit, (2, 3, 4)), ((0.25, 1 / 3, 0.5), unit)))
        assert all(type(t) is TFN for row in plain.cells for t in row)
        assert plain.cells[0][1] == TFN(2.0, 3.0, 4.0)


class TestBuildMatrix:
    def test_reciprocal_fill(self):
        m = build_matrix([("A", "B", TFN(2, 3, 4))], ["A", "B"])
        assert cell(m, "B", "A") == pytest.approx((0.25, 1 / 3, 0.5))
        assert cell(m, "A", "A") == TFN(1, 1, 1)

    def test_empty_entries_one_criterion(self):
        m = build_matrix([], ["A"])
        assert m.size == 1
        assert m.cells[0][0] == TFN(1, 1, 1)

    def test_duplicate_pair(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_matrix(
                [("A", "B", TFN(1, 2, 3)), ("A", "B", TFN(2, 3, 4))], ["A", "B"]
            )

    def test_unresolved_id(self):
        with pytest.raises(ValidationError, match="'C'"):
            build_matrix([("A", "C", TFN(1, 2, 3))], ["A", "B"])
        # an entry that is not a valid TFN is rejected where it is stored, naming its cell
        with pytest.raises(ValidationError) as exc:
            build_matrix([("A", "B", (1, 2, 10**400))], ["A", "B"])
        assert str(exc.value) == (
            "entry (A,B): TFN component u must be finite, got an integer too large for a float"
        )
        with pytest.raises(ValidationError) as exc:
            build_matrix([("A", "B", ("1", "2", "3"))], ["A", "B"])
        assert str(exc.value) == "entry (A,B): TFN component l must be a real number, got '1'"
        for entry in [(1, 2), 5]:  # the wrong arity, or not iterable at all
            with pytest.raises(ValidationError) as exc:
                build_matrix([("A", "B", entry)], ["A", "B"])
            assert str(exc.value).startswith("entry (A,B): ")
        assert build_matrix([("A", "B", (2, 3, 4))], ["A", "B"]).cells[0][1] == TFN(2, 3, 4)

    def test_repeated_criterion_ids(self):
        for entries in ([("A", "B", TFN(1, 2, 3))], []):
            with pytest.raises(ValidationError) as exc:
                build_matrix(entries, ["A", "B", "A"])
            assert str(exc.value) == "criterion ids must be unique"

    def test_mode_string_is_parsed(self):
        unordered = [("A", "B", TFN(3, 2, 4))], ["A", "B"]
        with pytest.raises(ValidationError) as exc:
            build_matrix(*unordered, "strict")
        assert str(exc.value) == "(A,B): cell (3, 2, 4) is not ordered l <= m <= u"
        m = build_matrix(*unordered, "Lenient")
        assert m == build_matrix(*unordered, ValidationMode.LENIENT)
        assert [w.location for w in m.warnings] == ["(A,B)", "(B,A)"]
        ordered = [("A", "B", TFN(2, 3, 4))], ["A", "B"]
        assert build_matrix(*ordered, "strict").mode is ValidationMode.STRICT
        with pytest.raises(ValidationError) as exc:
            build_matrix(*ordered, "bogus")
        assert str(exc.value) == (
            "unknown validation mode 'bogus'; expected 'strict' or 'lenient'"
        )
        with pytest.raises(ValidationError) as exc:
            build_matrix(*ordered, None)
        assert str(exc.value) == "validation mode must be a string, got None"

    def test_incomplete_after_autofill(self):
        with pytest.raises(ValidationError, match="incomplete"):
            build_matrix([("A", "B", TFN(1, 2, 3))], ["A", "B", "C"])

    @pytest.mark.parametrize("mode", list(ValidationMode))
    @pytest.mark.parametrize(
        "cell, cause",
        [
            (TFN(0, 1, 2), "TFN reciprocal requires strictly positive components, got (0, 1, 2)"),
            (TFN(1e-310, 1, 2), "TFN component u must be finite, got inf"),
        ],
    )
    def test_failed_autofill_names_the_cell(self, cell, cause, mode):
        with pytest.raises(ValidationError) as exc:
            build_matrix([("A", "B", cell)], ["A", "B"], mode)
        assert str(exc.value) == f"auto-fill of (B,A) from (A,B): {cause}"

    def test_explicit_cells_never_overwritten(self):
        m = build_matrix(
            [("A", "B", TFN(6, 7, 8)), ("B", "A", TFN(0.125, 0.147, 0.17))],
            ["A", "B"],
        )
        assert cell(m, "B", "A") == TFN(0.125, 0.147, 0.17)

    @pytest.mark.parametrize("entry, message", [
        (("X", "Y", (1, 2)), "entry row id 'X' is not a known criterion"),
        (("X", "B", TFN(1, 2, 3)), "entry row id 'X' is not a known criterion"),
        (("A", "Y", (1, 2)), "entry col id 'Y' is not a known criterion"),
        (("A", "B", (1, 2)), "entry (A,B): expected an (l, m, u) triple, got (1, 2)"),
        (("A", "B", TFN(1, 2, 3)), "duplicate entry for cell (A,B)"),
        (("A", "B", (1, 2)), "duplicate entry for cell (A,B)"),
    ], ids=["row before col", "unknown row", "unknown col", "bad triple", "duplicate",
            "duplicate before its triple"])
    def test_the_first_failing_check_of_an_entry_is_named(self, entry, message):
        given = [("A", "B", TFN(2, 3, 4))] if message.startswith("duplicate") else []
        for mode in ValidationMode:
            with pytest.raises(ValidationError) as exc:
                build_matrix([*given, entry], ["A", "B"], mode)
            assert str(exc.value) == message
            assert exc.value.__suppress_context__ or exc.value.__context__ is None

    @pytest.mark.parametrize("later", [False, True], ids=["first item", "later item"])
    def test_a_key_error_from_the_entries_propagates_as_it_is(self, later):
        raised = KeyError("A")

        def entries():
            if later:
                yield "A", "B", TFN(2, 3, 4)
            raise raised

        with pytest.raises(KeyError) as exc:
            build_matrix(entries(), ["A", "B"])
        assert exc.value is raised

    def test_a_tfn_subclass_cell_is_stored_as_given(self):
        class Judgment(TFN):
            __slots__ = ()

        given = Judgment(2, 3, 4)
        m = build_matrix([("A", "B", given)], ["A", "B"])
        assert m.cells[0][1] is given
        assert type(m.cells[1][0]) is TFN

    def test_study_rows_survive_the_build(self, study):
        m = study.fahp_matrix
        entries = [
            (rid, cid, cell(m, rid, cid)) for rid in m.ids for cid in m.ids
        ]
        rebuilt = build_matrix(entries, list(m.criteria), ValidationMode.LENIENT)
        assert rebuilt.cells[0] == m.cells[0]
        assert rebuilt.cells == m.cells


class TestRowGeometricMeans:
    def test_study_values(self, study):
        r = row_geometric_means(study.fahp_matrix)
        by_id = dict(zip(study.fahp_matrix.ids, r))
        assert by_id["B1"] == pytest.approx(
            (0.4911, 0.5932, 0.7232), abs=5e-4
        )
        assert by_id["B10"] == pytest.approx(
            (2.3177, 2.8434, 3.3827), abs=5e-4
        )
        for cid, want in ORACLE_R.items():
            assert by_id[cid] == pytest.approx(want, abs=1e-12)

    def test_all_unit_row(self):
        m = build_matrix([("A", "B", TFN(1, 1, 1))], ["A", "B"])
        assert row_geometric_means(m)[0] == TFN(1, 1, 1)

    def test_negative_cell_rejected(self, study):
        m = grid_matrix(
            (Barrier("A"),), ((TFN(-1, 1, 1),),), ValidationMode.LENIENT
        )
        with pytest.raises(ValidationError):
            row_geometric_means(m)


class TestFuzzyWeights:
    def test_study_totals(self, study):
        r = row_geometric_means(study.fahp_matrix)
        w, total, inverse = fuzzy_weights(r)
        assert total == pytest.approx(
            (11.0107, 13.3642, 15.9899), abs=2e-3
        )
        assert inverse == pytest.approx(
            (0.06254, 0.074827, 0.090821), abs=2e-4
        )
        assert total == pytest.approx(ORACLE_TOTAL, abs=1e-12)
        assert inverse == pytest.approx(ORACLE_INVERSE, abs=1e-12)
        assert w[0] == pytest.approx((0.03071, 0.04439, 0.06568), abs=5e-4)
        assert w[0] == pytest.approx(ORACLE_W1, abs=1e-12)

    def test_single_criterion_self_normalizes(self):
        w, total, inverse = fuzzy_weights([TFN(2, 3, 4)])
        assert w[0] == pytest.approx((2 / 4, 1.0, 4 / 2))
        assert total == TFN(2, 3, 4)
        assert inverse == tfn_reciprocal(total)

    def test_zero_total_component_rejected(self):
        with pytest.raises(ValidationError):
            fuzzy_weights([TFN(0, 1, 2)])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            fuzzy_weights([])

    def test_weights_stay_ordered_for_valid_input(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            m = random_reciprocal_matrix(rng, int(rng.integers(2, 8)))
            w, _, _ = fuzzy_weights(row_geometric_means(m))
            assert all(t.is_monotone for t in w)


class TestCrispWeightsAndRank:
    def test_study_normalized_weights(self, study):
        w, _, _ = fuzzy_weights(row_geometric_means(study.fahp_matrix))
        _, n_vals = crisp_weights(w)
        by_id = dict(zip(study.fahp_matrix.ids, n_vals))
        assert by_id["B10"] == pytest.approx(0.21185, abs=2e-3)
        assert by_id["B11"] == pytest.approx(0.03198, abs=2e-3)
        for cid, want in ORACLE_N.items():
            assert by_id[cid] == pytest.approx(want, abs=1e-12)

    def test_single_criterion(self):
        m_vals, n_vals = crisp_weights([TFN(0.5, 1, 2)])
        assert n_vals == [1.0]
        assert m_vals[0] == pytest.approx((0.5 + 1 + 2) / 3)

    def test_zero_sum_rejected(self):
        with pytest.raises(ValidationError):
            crisp_weights([TFN(0, 0, 0)])

    def test_rank_study_order(self, study):
        result = run_fahp(study.fahp_matrix)
        assert result.rank_order == STUDY_ORDER

    def test_rank_tie_breaks_by_index(self):
        assert rank([0.5, 0.5]) == [1, 2]

    def test_rank_descending(self):
        assert rank([0.2, 0.3, 0.5]) == [3, 2, 1]


class TestRunFahp:
    def test_study_end_to_end(self, study):
        result = run_fahp(study.fahp_matrix)
        n_by_id = result.normalized_by_id()
        for cid, want in study.fahp_expected.weights_normalized.items():
            assert n_by_id[cid] == pytest.approx(want, abs=2e-3)
        assert result.rank_order == study.fahp_expected.rank_order
        assert [w.code for w in result.warnings].count("non_monotone") == 1

    def test_one_by_one(self):
        result = run_fahp(build_matrix([], ["A"]))
        assert result.normalized == [1.0]
        assert result.ranks == [1]

    def test_consistent_crisp_matrix_recovers_weights(self):
        true_w = [0.5, 0.3, 0.2]
        ids = ["A", "B", "C"]
        entries = [
            (ids[i], ids[j], TFN(*(true_w[i] / true_w[j],) * 3))
            for i in range(3)
            for j in range(3)
            if i != j
        ]
        result = run_fahp(build_matrix(entries, ids))
        for got, want in zip(result.normalized, true_w):
            assert abs(got - want) / want <= 1e-9

    def test_normalized_sums_to_one_and_ranks_are_a_bijection(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            m = random_reciprocal_matrix(rng, int(rng.integers(2, 10)))
            result = run_fahp(m)
            assert abs(sum(result.normalized) - 1.0) <= 1e-9
            assert sorted(result.ranks) == list(range(1, m.size + 1))
            top = result.normalized.index(max(result.normalized))
            assert result.ranks[top] == 1

    def test_relabeling_equivariance(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            m = random_reciprocal_matrix(rng, n, continuous=True)
            base = run_fahp(m)
            perm = list(rng.permutation(n))
            criteria = tuple(m.criteria[i] for i in perm)
            cells = tuple(tuple(m.cells[i][j] for j in perm) for i in perm)
            permuted = run_fahp(grid_matrix(criteria, cells, m.mode))
            for k, i in enumerate(perm):
                assert permuted.normalized[k] == pytest.approx(
                    base.normalized[i], abs=1e-12
                )
                assert permuted.ranks[k] == base.ranks[i]

    def test_scale_invariance(self):
        rng = np.random.default_rng(67)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            m = random_reciprocal_matrix(rng, n, continuous=True)
            base = run_fahp(m)
            c = float(rng.uniform(0.2, 5.0))
            scaler = TFN(c, c, c)
            cells = tuple(
                tuple(tfn_multiply(t, scaler) for t in row) for row in m.cells
            )
            scaled = run_fahp(grid_matrix(m.criteria, cells, ValidationMode.LENIENT))
            for a, b in zip(scaled.normalized, base.normalized):
                assert a == pytest.approx(b, abs=1e-12)
            assert scaled.ranks == base.ranks
            for a, b in zip(scaled.row_means, base.row_means):
                assert a == pytest.approx(tuple(c * x for x in b), rel=1e-12)

    def test_determinism(self, study):
        a = run_fahp(study.fahp_matrix)
        b = run_fahp(study.fahp_matrix)
        assert a.normalized == b.normalized
        assert a.ranks == b.ranks
        assert a.weights == b.weights


IDS_150 = [f"C{i}" for i in range(150)]
# distinct cells, so auto-fill makes one new mirror TFN per pair
UPPER_150 = [(IDS_150[i], IDS_150[j], TFN(1 + i / 150 + j / 1e4, 2 + i / 150, 3 + j / 150))
             for i in range(150) for j in range(i + 1, 150)]


class TestCollectorPause:

    def test_a_large_upper_triangle_starts_no_collection(self):
        assert gc.isenabled()
        m, passes = collections_inside(build_matrix, UPPER_150, IDS_150)
        assert (m.size, passes) == (150, 0)
        assert gc.isenabled()

    def test_the_callers_state_is_kept_on_return_and_raise(self):
        for enabled in (True, False):
            if not enabled:
                gc.disable()
            try:
                build_matrix(UPPER_150, IDS_150)
                assert gc.isenabled() is enabled
                with pytest.raises(ValidationError, match="duplicate entry"):
                    build_matrix([*UPPER_150, UPPER_150[-1]], IDS_150)
                assert gc.isenabled() is enabled
            finally:
                gc.enable()

    def test_a_nested_call_leaves_the_collector_paused(self):
        # read_matrix calls build_matrix with it paused
        @_nogc
        def reader():
            build_matrix([("A", "B", TFN(1, 2, 3))], ["A", "B"])
            return gc.isenabled()

        assert reader() is False
        assert gc.isenabled()
