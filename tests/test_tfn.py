"""Fuzzy-number arithmetic: worked examples plus randomized invariants.

Derived expected values are computed inline through an independent route
(decimal/fraction arithmetic or direct exponentiation), never through the
functions under test.
"""
import copy
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fdahp import (
    DELPHI_10,
    TFN,
    ValidationError,
    ValidationMode,
    aggregate_min_geo_max,
    centroid_defuzzify,
    geometric_mean,
    tfn_multiply,
    tfn_reciprocal,
)
from fdahp.tfn import _geometric_mean
from helpers import SAATY_9


def test_tfn_rejects_non_finite():
    with pytest.raises(ValidationError):
        TFN(0.0, float("nan"), 1.0)
    with pytest.raises(ValidationError):
        TFN(0.0, 1.0, float("inf"))


@pytest.mark.parametrize(
    "components, message",
    [
        ((True, 1, 2), "component l must be a real number, got True"),
        ((0, "1", 2), "component m must be a real number, got '1'"),
        ((0, 1, float("nan")), "component u must be finite, got nan"),
        ((float("-inf"), 1, 2), "component l must be finite, got -inf"),
        ((1, 2, 10**400), "component u must be finite, got an integer too large for a float"),
    ],
)
def test_tfn_rejects_bad_components(components, message):
    with pytest.raises(ValidationError, match=message):
        TFN(*components)


def test_tfn_is_an_immutable_float_triple():
    t = TFN(1, 2, 3)
    assert [type(x) for x in t] == [float, float, float]
    assert repr(t) == "TriangularFuzzyNumber(l=1.0, m=2.0, u=3.0)"
    assert hash(t) == hash((1.0, 2.0, 3.0))
    assert t == (1.0, 2.0, 3.0)
    with pytest.raises(AttributeError):
        t.l = 5.0
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(t, protocol))
        assert back == t and type(back) is TFN
    assert copy.deepcopy(t) == t and type(copy.deepcopy(t)) is TFN
    with pytest.raises(ValidationError, match="component m must be finite"):
        t._replace(m=float("nan"))


def test_tfn_has_no_tuple_concatenation_or_repetition():
    t = TFN(1, 2, 3)
    for op in (lambda: t + t, lambda: t + (1.0,), lambda: 2 * t, lambda: t * 2):
        with pytest.raises(TypeError):
            op()


def test_validation_mode_parse():
    assert ValidationMode.parse("LENIENT") is ValidationMode.LENIENT
    assert ValidationMode.parse(ValidationMode.STRICT) is ValidationMode.STRICT
    for bad, message in ((5, "must be a string, got 5"), ("loose", "unknown validation mode")):
        with pytest.raises(ValidationError, match=message):
            ValidationMode.parse(bad)


def test_tfn_holds_non_monotone_triples():
    # lenient containers need to carry raw triples like (0.17, 0.2, 0.17)
    t = TFN(0.17, 0.2, 0.17)
    assert not t.is_monotone
    assert t == (0.17, 0.2, 0.17)


class TestMultiply:
    def test_componentwise(self):
        assert tfn_multiply(TFN(1, 2, 3), TFN(2, 3, 4)) == TFN(2, 6, 12)

    def test_identity(self):
        assert tfn_multiply(TFN(0.3, 0.5, 0.9), TFN(1, 1, 1)) == TFN(0.3, 0.5, 0.9)

    def test_high_precision_product(self):
        a = (0.4911269, 0.593166, 0.723203)
        b = (0.0625397, 0.0748270, 0.0908207)
        got = tfn_multiply(TFN(*a), TFN(*b))
        for g, x, y in zip(got, a, b):
            want = float(Decimal(repr(x)) * Decimal(repr(y)))
            assert g == pytest.approx(want, abs=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            tfn_multiply(TFN(-1, 2, 3), TFN(1, 1, 1))


class TestTotalInverse:
    """The ranking stage inverts the row-mean total with tfn_reciprocal."""

    def test_sum_of_study_row_means(self, study):
        total = TFN(*map(math.fsum, zip(*study.fahp_expected.row_geometric_means.values())))
        assert total.l == pytest.approx(11.0107, abs=1e-3)
        assert total.m == pytest.approx(13.3642, abs=1e-3)
        assert total.u == pytest.approx(15.9899, abs=1e-3)

    def test_study_total(self):
        got = tfn_reciprocal(TFN(11.0107, 13.3642, 15.9899))
        assert got.l == pytest.approx(0.06254, abs=2e-4)
        assert got.m == pytest.approx(0.074827, abs=2e-4)
        assert got.u == pytest.approx(0.090821, abs=2e-4)

    def test_unit(self):
        assert tfn_reciprocal(TFN(1, 1, 1)) == TFN(1, 1, 1)

    def test_powers_of_two(self):
        assert tfn_reciprocal(TFN(2, 4, 8)) == TFN(0.125, 0.25, 0.5)


class TestReciprocal:
    def test_unit(self):
        assert tfn_reciprocal(TFN(1, 1, 1)) == TFN(1, 1, 1)

    def test_crisp_nine(self):
        got = tfn_reciprocal(TFN(9, 9, 9))
        assert got.l == got.m == got.u == pytest.approx(1 / 9)

    def test_six_seven_eight(self):
        got = tfn_reciprocal(TFN(6, 7, 8))
        want = (Fraction(1, 8), Fraction(1, 7), Fraction(1, 6))
        for g, w in zip(got, want):
            assert g == pytest.approx(float(w), abs=1e-15)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValidationError):
            tfn_reciprocal(TFN(0, 1, 2))
        with pytest.raises(ValidationError):
            tfn_reciprocal(TFN(-1, 1, 2))

    def test_involution(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            t = TFN(*sorted(rng.uniform(0.01, 50, 3)))
            back = tfn_reciprocal(tfn_reciprocal(t))
            for g, w in zip(back, t):
                assert abs(g - w) / w <= 1e-12


class TestGeometricMean:
    def test_singleton(self):
        assert geometric_mean([3.7]) == 3.7

    def test_four_values(self):
        # (7^3 * 8)^(1/4), computed by direct exponentiation
        assert geometric_mean([7, 7, 7, 8]) == pytest.approx((7**3 * 8) ** 0.25, abs=5e-4)

    def test_sqrt_ninety(self):
        assert geometric_mean([10, 9, 9, 10]) == pytest.approx(math.sqrt(90), abs=5e-4)

    def test_zero_factor_wins(self):
        assert geometric_mean([0, 5, 9]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            geometric_mean([])

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            geometric_mean([2.0, -1.0])

    def test_integer_too_large_for_a_float_rejected(self):
        for vals in ([10**400], [2.0, -(10**400)]):
            with pytest.raises(ValidationError) as exc:
                geometric_mean(vals)
            assert str(exc.value) == (
                "geometric mean requires finite values, got an integer too large for a float"
            )

    def test_accepts_and_rejects_values_as_a_tfn_component_does(self):
        assert geometric_mean([4, 9.0, np.float64(6.0)]) == pytest.approx(6.0, rel=1e-15)
        for bad in ("x", None, "7", b"7", True, 1j, [7.0]):
            with pytest.raises(ValidationError) as exc:
                geometric_mean([2.0, bad])
            assert str(exc.value) == f"geometric mean requires real numbers, got {bad!r}"
            with pytest.raises(ValidationError, match="must be a real number"):
                TFN(bad, 3, 4)

    def test_within_value_range(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            vals = list(rng.uniform(0.001, 100, rng.integers(1, 9)))
            g = geometric_mean(vals)
            assert min(vals) <= g <= max(vals)

    def test_order_independent_bitwise(self):
        rng = np.random.default_rng(17)
        vals = list(rng.uniform(0.1, 10, 7))
        shuffled = list(vals)
        rng.shuffle(shuffled)
        assert geometric_mean(vals) == geometric_mean(shuffled)


def _reference_geometric_mean(values):
    """The kernel that always scans for both clamp bounds: the bitwise reference."""
    vals = tuple(map(float, values))
    if not vals:
        raise ValidationError("geometric mean of an empty sequence")
    lo = min(vals)
    if lo <= 0:
        if lo < 0:
            first = next(v for v in vals if v < 0)
            raise ValidationError(f"geometric mean requires nonnegative values, got {first}")
        return vals[0] if len(vals) == 1 else 0.0
    g = math.exp(math.fsum(map(math.log, vals)) / len(vals))
    return min(max(g, lo), max(vals))


def _outcome(kernel, values):
    """The result's bits (so -0.0 and NaN compare exactly), or the exception raised."""
    try:
        return float.hex(kernel(values))
    except (ValidationError, ValueError, OverflowError) as exc:
        return type(exc), str(exc)


# rows as long as the workloads' (Hypothesis draws at most 12 values): a row of an n = 150
# matrix, fuzzy Saaty components and their 1/x mirrors, and a 400 x 25 panel's 25 modals
_rng = random.Random(24)
_SAATY_ROW = [x if _rng.random() < 0.5 else 1.0 / x
              for x in (float(_rng.choice(SAATY_9[_rng.randint(1, 9)])) for _ in range(150))]
_MODAL_ROW = [float(DELPHI_10.entries[_rng.randint(2, 10)].m) for _ in range(25)]


@st.composite
def _near_equal(draw):
    base = draw(st.floats(min_value=5e-324, max_value=sys.float_info.max))
    steps = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    return [base + k * math.ulp(base) for k in steps]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.one_of(
    st.lists(st.floats(), max_size=6),  # NaN, ±inf, ±0.0, subnormals, negatives
    st.lists(st.floats(min_value=0.0), min_size=1, max_size=6),
    st.lists(st.floats(min_value=0.1, max_value=9.0), min_size=1, max_size=12),
    _near_equal(),
))
@example([0.1, 0.1, 0.1])  # exp/log rounding lands above 0.1: the clamp bites
@example([1.0, 100.0, 1.0])  # the mean is above both ends
@example([100.0, 1.0, 100.0])  # the mean is below both ends
@example([3.7])
@example([-0.0])
@example([2.0, -1.0])
@example([0.0, 5.0])
@example([float("nan"), 1.0])
@example([float("nan"), -1.0])
@example([1.0, float("inf")])
@example([2.0, float("-inf"), float("nan")])  # the first non-finite value is named
@example([sys.float_info.max] * 2)
@example(_SAATY_ROW)
@example(_MODAL_ROW)
def test_geometric_mean_matches_reference_bitwise(values):
    vals = tuple(map(float, values))
    bad = next((v for v in vals if not math.isfinite(v)), None)
    if bad is None:
        assert _outcome(geometric_mean, values) == _outcome(_reference_geometric_mean, values)
    else:  # the public wrapper names the first non-finite value; the kernel keeps its bits
        assert _outcome(_geometric_mean, vals) == _outcome(_reference_geometric_mean, values)
        assert _outcome(geometric_mean, values) == (
            ValidationError, f"geometric mean requires finite values, got {bad}")


class TestAggregate:
    def test_single_opinion(self):
        assert aggregate_min_geo_max([TFN(5, 6, 7)]) == TFN(5, 6, 7)

    def test_panel_row(self):
        got = aggregate_min_geo_max([TFN(6, 7, 8)] * 3 + [TFN(7, 8, 9)])
        assert got.l == 6.0
        assert got.m == pytest.approx((7**3 * 8) ** 0.25, abs=1e-12)
        assert got.u == 9.0

    def test_top_heavy_row(self):
        got = aggregate_min_geo_max(
            [TFN(10, 10, 10), TFN(8, 9, 10), TFN(8, 9, 10), TFN(10, 10, 10)]
        )
        assert got.l == 8.0
        assert got.m == pytest.approx(math.sqrt(90), abs=1e-12)
        assert got.u == 10.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_min_geo_max([])

    def test_permutation_invariant_bitwise(self):
        rng = np.random.default_rng(19)
        ops = [TFN(*sorted(rng.uniform(0, 10, 3))) for _ in range(6)]
        shuffled = list(ops)
        rng.shuffle(shuffled)
        assert aggregate_min_geo_max(ops) == aggregate_min_geo_max(shuffled)

    def test_result_ordered_and_brackets_modal_values(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ops = [TFN(*sorted(rng.uniform(0, 10, 3))) for _ in range(rng.integers(1, 7))]
            agg = aggregate_min_geo_max(ops)
            assert agg.is_monotone
            assert agg.l <= min(o.m for o in ops)
            assert agg.u >= max(o.m for o in ops)


class TestCentroid:
    def test_modal_heavy(self):
        got = centroid_defuzzify(TFN(6, 7.2406, 9))
        assert got == pytest.approx((6 + 7.2406 + 9) / 3, abs=1e-12)
        assert got == pytest.approx(7.41, abs=0.01)

    def test_zero(self):
        assert centroid_defuzzify(TFN(0, 0, 0)) == 0.0

    def test_upper_heavy(self):
        got = centroid_defuzzify(TFN(8, 9.740, 10))
        assert got == pytest.approx((8 + 9.740 + 10) / 3, abs=1e-12)
        assert got == pytest.approx(9.25, abs=0.01)

    def test_within_support(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            t = TFN(*sorted(rng.uniform(-20, 20, 3)))
            assert t.l <= centroid_defuzzify(t) <= t.u


def test_dominating_panel_scores_at_least_as_high():
    rng = np.random.default_rng(31)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        lower = [TFN(*sorted(rng.uniform(0, 10, 3))) for _ in range(k)]
        deltas = [sorted(rng.uniform(0, 3, 3)) for _ in range(k)]
        upper = [
            TFN(t.l + d[0], t.m + d[1], t.u + d[2]) for t, d in zip(lower, deltas)
        ]
        hi = centroid_defuzzify(aggregate_min_geo_max(upper))
        lo = centroid_defuzzify(aggregate_min_geo_max(lower))
        assert hi >= lo - 1e-12
