"""Lenient mode records order and reciprocity problems and never raises on them.

`RatingPanel` over non-negative cells, and `build_matrix` over non-negative cells
given sparse or dense, raise in lenient mode only where the documentation says
both modes raise: an auto-fill source with a nonpositive component or an
overflowing reciprocal, and a checked pair whose reciprocal overflows. Strict
mode raises at the first problem that lenient mode records. In either mode,
`RatingPanel` over any key order, with or without bad cells and keys, gives
the rows, warnings or error of a check of one cell at a time, and
`RatingPanel.from_rows` over the same grid, given as rows, gives the same
panel or error as `RatingPanel` over the keyed grid."""
import math
import operator
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import (  # noqa: E402
    TFN, RatingPanel, ValidationError, ValidationMode, ValidationWarning, build_matrix)

LENIENT, STRICT = ValidationMode.LENIENT, ValidationMode.STRICT
MAX = sys.float_info.max

# Non-negative components: ordinary values, signed zeros, subnormals whose
# reciprocal overflows (5e-324, 1e-310) or does not (1e-308), and the largest
# float, whose reciprocal is subnormal.
COMPONENTS = st.one_of(
    st.floats(0.1, 9.0),
    st.floats(min_value=0.0, max_value=MAX),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-308, 1.0, MAX]),
)
_DRAWN = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)
CELLS = st.one_of(_DRAWN.map(sorted), _DRAWN).map(lambda t: TFN(*t))  # unsorted: unordered
# Per-component scale of a mirror cell against the exact reciprocal, on and around
# the 5% tolerance; None draws a free cell.
FACTORS = st.one_of(st.none(), st.just(1.0), st.sampled_from([0.95, 1.05]), st.floats(0.9, 1.1))


def _reciprocal_overflows(t):
    return any(1.0 / x == math.inf for x in t)


def _bad_fill_source(t):
    """`tfn_reciprocal` raises on `t`: a nonpositive component, or an infinite 1/x."""
    return min(t) <= 0 or _reciprocal_overflows(t)


@st.composite
def sparse_or_dense(draw):
    """(ids, entries, given) where every off-diagonal pair has at least one given cell."""
    n = draw(st.integers(1, 5))
    ids = [f"C{k}" for k in range(n)]
    given_ = {}
    for i in range(n):
        if draw(st.booleans()):
            given_[i, i] = draw(st.one_of(st.just(TFN(1, 1, 1)), CELLS))
        for j in range(i + 1, n):
            kind = draw(st.sampled_from(["both", "upper", "lower"]))
            fwd = draw(CELLS)
            back = draw(CELLS)
            factors = [draw(FACTORS) for _ in range(3)]
            if min(fwd) > 0 and None not in factors:
                near = [f / x for f, x in zip(factors, reversed(fwd))]
                if all(map(math.isfinite, near)):
                    back = TFN(*near)
            if kind != "lower":
                given_[i, j] = fwd
            if kind != "upper":
                given_[j, i] = back
    entries = draw(st.permutations([(ids[i], ids[j], t) for (i, j), t in given_.items()]))
    return ids, entries, given_


def _expected_raise(n, given_):
    """The documented raise of lenient `build_matrix`, as a predicate on its message,
    or None when it must return."""
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) not in given_ and _bad_fill_source(given_[j, i]):
                return lambda msg: msg.startswith(f"auto-fill of (C{i},C{j}) from (C{j},C{i}): ")
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if (j, i) not in given_:
                continue  # an auto-filled mirror is not checked
            fwd = given_.get((i, j))
            if fwd is None:
                b = given_[j, i]
                fwd = (1.0 / b.u, 1.0 / b.m, 1.0 / b.l)
            if min(fwd) > 0 and min(given_[j, i]) > 0 and _reciprocal_overflows(fwd):
                pairs.append(f"(C{i},C{j})/(C{j},C{i}): reciprocal of ")
    if pairs:  # pairs are checked in this order, so the first one raises
        return lambda msg: msg.startswith(pairs[0]) and msg.endswith(" overflows")
    return None


def _case(cells):
    """A case shaped as `sparse_or_dense` draws it, from {(i, j): (l, m, u)}."""
    ids = [f"C{k}" for k in range(1 + max(max(key) for key in cells))]
    given_ = {key: TFN(*t) for key, t in cells.items()}
    return ids, [(ids[i], ids[j], t) for (i, j), t in given_.items()], given_


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sparse_or_dense())
@example(_case({(0, 1): (3, 2, 4), (1, 0): (9, 9, 9)}))  # unordered, and off-reciprocal
@example(_case({(0, 1): (0, 1, 2)}))  # a nonpositive auto-fill source
@example(_case({(0, 1): (0, 1, 2), (1, 0): (1, 1, 1)}))  # a nonpositive pair is a warning
@example(_case({(0, 1): (5e-324, 1, 2), (1, 0): (1, 1, 1)}))  # 1/5e-324 overflows
@example(_case({(1, 0): (1, 2, MAX)}))  # the filled mirror has 1/MAX, whose 1/x overflows
@example(_case({(0, 0): (2, 1, 3)}))
def test_lenient_build_matrix_raises_only_where_documented(drawn):
    ids, entries, given_ = drawn
    documented = _expected_raise(len(ids), given_)
    got = _outcome(build_matrix, entries, ids, LENIENT)
    if documented is not None:
        assert isinstance(got, str) and documented(got), got
        if got.startswith("auto-fill"):  # auto-fill runs before any check
            assert _outcome(build_matrix, entries, ids, STRICT) == got
        return
    assert not isinstance(got, str), got
    assert {w.code for w in got.warnings} <= {
        "non_monotone", "non_unit_diagonal", "nonpositive_component", "reciprocity_breach"}
    strict = _outcome(build_matrix, entries, ids, STRICT)
    if got.warnings:
        assert strict == f"{got.warnings[0].location}: {got.warnings[0].message}"
    else:
        assert strict == got._replace(mode=STRICT)


class _SubTFN(TFN):
    __slots__ = ()


# A grid of ordered cells, or of cells that may be unordered.
GRIDS = st.sampled_from([_DRAWN.map(sorted).map(lambda t: TFN(*t)), CELLS])
ORDERS = st.sampled_from(["barrier-major", "expert-major", "shuffled"])
DEFECTS = st.sampled_from(["missing", "extra", "non-TFN", "subclass", "negative"])
NEGATIVE = st.tuples(st.floats(-MAX, -5e-324), COMPONENTS, COMPONENTS).map(lambda t: TFN(*t))


@st.composite
def panels(draw, defects=False):
    """(barrier ids, expert ids, ratings) with every cell given, keyed barrier by barrier,
    expert by expert, or in a shuffled order. With `defects`, up to two of: a missing
    cell, a key for an unknown cell, a non-TFN value, a TFN subclass, a negative cell."""
    bids = [f"B{k}" for k in range(draw(st.integers(1, 4)))]
    eids = [f"E{k}" for k in range(draw(st.integers(1, 4)))]
    order, cells = draw(ORDERS), draw(GRIDS)
    keys = [(b, e) for b in bids for e in eids]
    if order == "expert-major":
        keys = [(b, e) for e in eids for b in bids]
    elif order == "shuffled":
        keys = draw(st.permutations(keys))
    items = [[key, draw(cells)] for key in keys]
    for defect in draw(st.lists(DEFECTS, max_size=2)) if defects else ():
        k = draw(st.integers(0, len(items) - 1))
        if defect == "missing" and len(items) > 1:
            del items[k]
        elif defect == "extra":
            b, e = draw(st.sampled_from(bids + ["X"])), draw(st.sampled_from(eids + ["Y"]))
            items.insert(k, [(b, e) if b == "X" or e == "Y" else (b, "Y"), draw(cells)])
        elif defect == "non-TFN":
            items[k][1] = draw(st.sampled_from([tuple(draw(cells)), None, "5", 5]))
        elif defect == "subclass":
            items[k][1] = _SubTFN(*draw(cells))
        elif defect == "negative":
            items[k][1] = draw(NEGATIVE)
    return bids, eids, dict(items)


def _cell_walk(bids, eids, ratings, mode):
    """(rows, warnings) of `RatingPanel`, from its check of one cell at a time, which runs
    for every grid that the bulk check does not pass."""
    rows, warnings = {}, []
    for bid in bids:
        row = []
        for eid in eids:
            cell = ratings.get((bid, eid))
            if not isinstance(cell, TFN):
                if (bid, eid) not in ratings:
                    raise ValidationError(f"panel is missing the rating for ({bid}, {eid})")
                raise ValidationError(f"rating ({bid}, {eid}) = {cell!r} is not a TFN")
            l, m, u = cell
            if not 0 <= l <= m <= u:
                loc, unordered = f"({bid}, {eid})", f"{cell} is not ordered l <= m <= u"
                if not cell.is_nonnegative:
                    raise ValidationError(f"rating {loc} = {cell} has negative components")
                if mode is STRICT:
                    raise ValidationError(f"rating {loc} = {unordered}")
                warnings.append(ValidationWarning("non_monotone", loc, f"rating {unordered}"))
            row.append(cell)
        rows[bid] = tuple(row)
    if len(ratings) != len(bids) * len(eids):
        extra = set(ratings) - {(b, e) for b in bids for e in eids}
        raise ValidationError(f"panel has ratings for unknown cells: {sorted(extra)}")
    return rows, tuple(warnings)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(panels())
@example((["A"], ["E1", "E2"], {("A", "E2"): TFN(3, 2, 4), ("A", "E1"): TFN(-0.0, 0, 0)}))
def test_lenient_panel_never_raises_on_order(drawn):
    bids, eids, ratings = drawn
    panel = RatingPanel(bids, eids, ratings, LENIENT)
    assert panel.rows == {b: tuple(ratings[b, e] for e in eids) for b in bids}
    unordered = [(b, e) for b in bids for e in eids if not ratings[b, e].is_monotone]
    assert [w.location for w in panel.warnings] == [f"({b}, {e})" for b, e in unordered]
    assert {w.code for w in panel.warnings} <= {"non_monotone"}
    strict = _outcome(RatingPanel, bids, eids, ratings, STRICT)
    if unordered:
        b, e = unordered[0]
        assert strict == f"rating ({b}, {e}) = {ratings[b, e]} is not ordered l <= m <= u"
        assert panel.warnings[0].message == f"rating {ratings[b, e]} is not ordered l <= m <= u"
    else:
        assert strict == panel._replace(mode=STRICT)


_ROW = {("A", "E1"): TFN(1, 2, 3), ("A", "E2"): TFN(2, 3, 4)}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(panels(defects=True), st.sampled_from([STRICT, LENIENT]))
@example((["A"], ["E1", "E2"], {**_ROW, ("A", "E2"): (2.0, 3.0, 4.0)}), STRICT)  # not a TFN
@example((["A"], ["E1", "E2"], {**_ROW, ("A", "E2"): None}), STRICT)  # present, but not a TFN
@example((["A"], ["E1", "E2"], {**_ROW, ("A", "E2"): _SubTFN(2, 3, 4)}), STRICT)
@example((["A"], ["E1", "E2"], {("A", "E1"): _ROW["A", "E1"], ("A", "E3"): TFN(2, 3, 4)}), STRICT)
@example((["A", "B"], ["E1", "E2"], {("A", "E1"): TFN(1, 2, 3), ("B", "E1"): TFN(2, 3, 4),
                                     ("A", "E2"): TFN(3, 4, 5), ("B", "E2"): TFN(4, 5, 6)}), STRICT)
# expert-major keys with an unknown one beside a missing cell (so the dict is full size) or a
# None cell: the bad cell is named, not the unknown key
@example((["A", "B"], ["E1", "E2"], {("A", "E1"): TFN(1, 2, 3), ("B", "E1"): TFN(2, 3, 4),
                                     ("A", "E2"): TFN(3, 4, 5), ("B", "Y"): TFN(4, 5, 6)}), STRICT)
@example((["A", "B"], ["E1", "E2"], {("A", "E1"): TFN(1, 2, 3), ("B", "E1"): None,
                                     ("A", "E2"): TFN(3, 4, 5), ("B", "E2"): TFN(4, 5, 6),
                                     ("X", "E2"): TFN(2, 3, 4)}), LENIENT)
def test_panel_matches_the_cell_walk(drawn, mode):
    bids, eids, ratings = drawn
    try:
        want = _cell_walk(bids, eids, ratings, mode)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as got:
            RatingPanel(bids, eids, ratings, mode)
        assert type(got.value) is ValidationError and str(got.value) == str(exc)
        return
    panel = RatingPanel(bids, eids, ratings, mode)
    assert (panel.rows, panel.warnings) == want and panel.mode is mode
    assert all(map(operator.is_, sum(panel.rows.values(), ()), sum(want[0].values(), ())))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(panels(defects=True), st.sampled_from([STRICT, LENIENT]))
@example((["A"], ["E1", "E2"], {**_ROW, ("A", "E2"): None}), STRICT)
@example((["A"], ["E1", "E2"], {**_ROW, ("A", "E2"): _SubTFN(2, 3, 4)}), LENIENT)
@example((["A"], ["E1", "E2"], {**_ROW, ("A", "E2"): TFN(3, 2, 4)}), LENIENT)
def test_from_rows_matches_the_keyed_maker(drawn, mode):
    bids, eids, ratings = drawn
    assume(list(ratings) == [(b, e) for b in bids for e in eids])  # barrier-major draws
    rows = {b: [ratings[b, e] for e in eids] for b in bids}
    got = _outcome(RatingPanel.from_rows, bids, eids, rows, mode)
    want = _outcome(RatingPanel, bids, eids, ratings, mode)
    assert got == want
    if isinstance(want, RatingPanel):
        assert all(map(operator.is_, sum(got.rows.values(), ()), sum(want.rows.values(), ())))
