"""Differential oracle: both stages against `bench/check.py`, the benchmark's
independent NumPy implementation, on random panels and matrices in both modes.

Values agree to 1e-12 relative and warning counts exactly. A 1e-12 tolerance
cannot see bitwise order effects; the permutation tests keep those.
"""
import importlib.util
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")
pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import (  # noqa: E402
    TFN,
    RatingPanel,
    ValidationError,
    ValidationMode,
    build_matrix,
    run_fahp,
    screen,
    tfn_reciprocal,
)
from helpers import SAATY_9  # noqa: E402

_spec = importlib.util.spec_from_file_location(
    "bench_check", Path(__file__).resolve().parent.parent / "bench" / "check.py")
check = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check)

RTOL = 1e-12
DELPHI_10 = [TFN(*t) for t in check.DELPHI_10.values()]


def _close(got, want):
    np.testing.assert_allclose(np.asarray(got, dtype=float), want, rtol=RTOL, atol=0)


def _continuous(low, hi):
    """Ordered cells (l, l*a, l*a*b) with l in [low, hi] and a, b in [1, 1.5]."""
    grow = st.floats(1.0, 1.5)
    return st.tuples(st.floats(low, hi), grow, grow).map(
        lambda t: TFN(t[0], t[0] * t[1], t[0] * t[1] * t[2]))


def _sometimes_unordered(ordered):
    """`ordered` cells, and the same cells with their components permuted."""
    return st.one_of(ordered, ordered.flatmap(st.permutations).map(lambda p: TFN(*p)))


_SAATY = st.sampled_from(list(SAATY_9.values()))
ORDERED_CELLS = st.one_of(_SAATY, _SAATY.map(tfn_reciprocal), _continuous(1 / 9, 9.0))
ANY_CELLS = _sometimes_unordered(ORDERED_CELLS)
# Per-component scale of a given mirror against the exact reciprocal: within
# the 5% tolerance, or on both sides of it.
TIGHT = st.one_of(st.just(1.0), st.floats(0.97, 1.03))
WIDE = st.one_of(st.just(1.0), st.floats(0.9, 1.1), st.floats(0.5, 2.0))
NONPOSITIVE = st.sampled_from([TFN(0.0, 1.0, 2.0), TFN(-1.0, 0.5, 1.0), TFN(0.5, 0.5, 0.0)])


@st.composite
def matrices(draw):
    """(ids, entries): each pair given as upper only, lower only, or both, the
    mirror then a scaled reciprocal or, unless all cells are ordered, a free or
    nonpositive cell; a few given diagonals."""
    n = draw(st.integers(2, 12))
    ordered, tight = draw(st.booleans()), draw(st.booleans())
    cells = ORDERED_CELLS if ordered else ANY_CELLS
    factors = st.tuples(*[TIGHT if tight else WIDE] * 3)
    ids = [f"C{k}" for k in range(n)]
    entries = []
    for i in range(n):
        if draw(st.integers(0, 15)) == 0:
            entries.append((ids[i], ids[i], draw(cells)))
        for j in range(i + 1, n):
            fwd = draw(cells)
            shape = draw(st.sampled_from(["upper", "lower", "both"]))
            if shape == "lower":
                entries.append((ids[j], ids[i], fwd))
                continue
            entries.append((ids[i], ids[j], fwd))
            if shape == "both":
                scaled = factors.map(lambda f, t=fwd: TFN(*(x / y for x, y in zip(f, reversed(t)))))
                back = draw(scaled if ordered else st.one_of(scaled, cells, NONPOSITIVE))
                entries.append((ids[j], ids[i], back))
    return ids, draw(st.permutations(entries))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(matrices())
def test_ranking_matches_reference(drawn):
    ids, entries = drawn
    cells = check._fill(ids, [(r, c, tuple(t)) for r, c, t in entries])
    with np.errstate(all="ignore"):
        ref = check.fahp_reference(cells)
    lenient = build_matrix(entries, ids, ValidationMode.LENIENT)
    assert len(lenient.warnings) == ref["warnings"]
    if ref["warnings"]:
        with pytest.raises(ValidationError):
            build_matrix(entries, ids, ValidationMode.STRICT)
    else:
        assert build_matrix(entries, ids, ValidationMode.STRICT).cells == lenient.cells
    if (cells <= 0).any():
        return  # nonpositive cells are compared on the warning count only
    result = run_fahp(lenient)
    _close(result.row_means, ref["row_means"])
    _close(result.weights, ref["weights"])
    _close(result.normalized, ref["normalized"])


PANEL_CELLS = st.one_of(
    st.sampled_from(DELPHI_10),
    _sometimes_unordered(st.one_of(_continuous(0.0, 10.0), st.sampled_from(DELPHI_10))),
)


@st.composite
def panels(draw):
    """(barrier ids, expert ids, ratings) of a complete panel, some cells unordered."""
    barriers = [f"B{k}" for k in range(draw(st.integers(1, 12)))]
    experts = [f"E{k}" for k in range(draw(st.integers(1, 8)))]
    ratings = {(b, e): draw(PANEL_CELLS) for b in barriers for e in experts}
    return barriers, experts, ratings


@settings(derandomize=True, max_examples=60, deadline=None)
@given(panels())
def test_screening_matches_reference(drawn):
    barriers, experts, ratings = drawn
    arr = np.array([[ratings[(b, e)] for e in experts] for b in barriers], dtype=float)
    with np.errstate(all="ignore"):
        ref = check.delphi_reference(arr)
    unordered = int(((arr[..., 0] > arr[..., 1]) | (arr[..., 1] > arr[..., 2])).sum())
    if unordered:
        with pytest.raises(ValidationError):
            RatingPanel(barriers, experts, ratings, ValidationMode.STRICT)
    panel = RatingPanel(barriers, experts, ratings, ValidationMode.LENIENT)
    result = screen(panel)
    assert len(result.warnings) == unordered
    _close([r.aggregate for r in result.rows], ref["aggregate"])
    _close([r.score for r in result.rows], ref["score"])
    _close(result.threshold, ref["threshold"])
    for r, score, selected in zip(result.rows, ref["score"], ref["selected"]):
        if abs(score - ref["threshold"]) > RTOL * max(1.0, abs(ref["threshold"])):
            assert r.selected == bool(selected), r.barrier.id
