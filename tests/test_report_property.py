"""Property tests: a lenient matrix or panel with extreme components, from
subnormals to the largest float, ends in a report or a `ValidationError`, and no
report in any format holds `inf` or `nan`."""
import re
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import (  # noqa: E402
    TFN,
    RatingPanel,
    Report,
    ThresholdStrategy,
    ValidationError,
    ValidationMode,
    build_matrix,
    run_fahp,
    screen,
)

LENIENT = ValidationMode.LENIENT
NOT_FINITE = re.compile(r"\b(inf|infinity|nan)\b", re.IGNORECASE)

EXTREME = st.one_of(
    st.floats(1e-200, 1e300),
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 1.0, 1e300,
                     sys.float_info.max]),
)
_DRAWN = st.tuples(EXTREME, EXTREME, EXTREME)
TRIPLES = st.one_of(_DRAWN.map(sorted), _DRAWN).map(lambda t: TFN(*t))


def _assert_finite_reports(**results):
    report = Report.build({}, **results)
    for fmt in ("json", "csv", "md"):
        text = report.emit(fmt)
        assert not NOT_FINITE.search(text), (fmt, text)


@st.composite
def matrices(draw):
    """(ids, entries): each pair given as upper only, lower only, or both."""
    n = draw(st.integers(1, 4))
    ids = [f"C{k}" for k in range(n)]
    entries = []
    for i in range(n):
        if draw(st.booleans()):
            entries.append((ids[i], ids[i], draw(TRIPLES)))
        for j in range(i + 1, n):
            shape = draw(st.sampled_from(["upper", "lower", "both"]))
            if shape != "lower":
                entries.append((ids[i], ids[j], draw(TRIPLES)))
            if shape != "upper":
                entries.append((ids[j], ids[i], draw(TRIPLES)))
    return ids, entries


@settings(derandomize=True, max_examples=150, deadline=None)
@given(matrices())
# centroids that sum past the float range
@example((list("ABCD"), [(a, b, TFN(1e-200, 1.0, 5e211)) for a in "ABCD" for b in "ABCD"
                         if a != b]))
# a reciprocity deviation whose percentage overflows
@example((["C0", "C1"], [("C0", "C1", TFN(1e-200, 1e100, sys.float_info.max)),
                         ("C1", "C0", TFN(1e-200, 5.99e307, 5.99e307))]))
def test_rank_reports_are_finite(drawn):
    ids, entries = drawn
    try:
        ranking = run_fahp(build_matrix(entries, ids, LENIENT))
    except ValidationError:
        return
    _assert_finite_reports(ranking=ranking)


@st.composite
def panels(draw):
    """(panel arguments, threshold strategy) for up to 3 barriers x 3 experts."""
    barriers = [f"B{k}" for k in range(draw(st.integers(1, 3)))]
    experts = [f"E{k}" for k in range(draw(st.integers(1, 3)))]
    ratings = {(b, e): draw(TRIPLES) for b in barriers for e in experts}
    strategy = draw(st.one_of(st.just(ThresholdStrategy.mean()),
                              EXTREME.map(ThresholdStrategy.fixed)))
    return (barriers, experts, ratings), strategy


@settings(derandomize=True, max_examples=100, deadline=None)
@given(panels())
def test_screen_reports_are_finite(drawn):
    args, strategy = drawn
    try:
        screening = screen(RatingPanel(*args, LENIENT), strategy)
    except ValidationError:
        return
    _assert_finite_reports(screening=screening)
