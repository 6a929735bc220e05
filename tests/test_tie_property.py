"""Exact ties are decided by the documented rules, not by float rounding.

Screening selects a barrier iff its score is at or above the threshold, ties
inclusive; ranking breaks ties by ascending index. Floats can split an exact
tie by an ulp: the mean of equal scores can round above them, and equal row
products can give weights that differ in the last bit.
"""
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import TFN, RatingPanel, build_matrix, run_fahp, screen  # noqa: E402
from fdahp.delphi import DELPHI_10  # noqa: E402

SCALE_RATINGS = st.integers(1, 10).map(DELPHI_10.tfn)
FLOAT_RATINGS = st.lists(st.floats(0, 10), min_size=3, max_size=3).map(sorted).map(
    lambda t: TFN(*t))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.one_of(SCALE_RATINGS, FLOAT_RATINGS), min_size=1, max_size=6),
       st.integers(1, 12))
@example([DELPHI_10.tfn(r) for r in (8, 9, 6, 8)], 5)  # the mean rounds an ulp above
def test_identical_barriers_are_all_selected(opinions, n_barriers):
    ids = [f"B{k}" for k in range(1, n_barriers + 1)]
    experts = [f"E{k}" for k in range(1, len(opinions) + 1)]
    ratings = {(b, e): t for b in ids for e, t in zip(experts, opinions)}
    assert screen(RatingPanel(ids, experts, ratings)).selected_ids == ids


# Saaty values and reciprocals whose float mirrors are exact. Half the matrices use
# only powers of two: their row products are powers of two, so exact ties are common.
EXACT_VALUES = [*range(1, 10), 0.5, 0.25, 0.125]
POWERS_OF_TWO = [1, 2, 4, 8, 0.5, 0.25, 0.125]


@st.composite
def upper_triangles(draw):
    """`(n, {(i, j): value})` over the upper triangle; values are drawn uniformly,
    as hypothesis's own choices would favour 1, which ties only trivially."""
    n = draw(st.integers(2, 7))
    values = draw(st.sampled_from([POWERS_OF_TWO, EXACT_VALUES]))
    rnd = draw(st.randoms(use_true_random=False))
    return n, {(i, j): rnd.choice(values) for i in range(n) for j in range(i + 1, n)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(upper_triangles())
@example((4, {(0, 1): 1, (0, 2): 0.125, (0, 3): 8, (1, 2): 0.5, (1, 3): 1, (2, 3): 0.25}))
def test_criteria_with_equal_row_products_rank_by_index(drawn):
    n, upper = drawn
    ids = [f"C{k}" for k in range(1, n + 1)]
    matrix = build_matrix([(ids[i], ids[j], TFN(v, v, v)) for (i, j), v in upper.items()], ids)
    products = [tuple(math.prod(Fraction(t[k]) for t in row) for k in range(3))
                for row in matrix.cells]
    ranks = run_fahp(matrix).ranks
    for i in range(n):
        for j in range(i + 1, n):
            if products[i] == products[j]:
                assert ranks[i] < ranks[j], (ids[i], ids[j], ranks)
