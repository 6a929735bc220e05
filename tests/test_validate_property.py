"""Property tests: validate_cells over a dense grid and build_matrix over sparse
entries against a plain reference of the documented matrix checks, row means
against `geometric_mean`, and TFN text against `format`."""
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import (  # noqa: E402
    TFN,
    Barrier,
    ValidationError,
    ValidationMode,
    build_matrix,
    geometric_mean,
    row_geometric_means,
    tfn_reciprocal,
)
from fdahp.fahp import validate_cells  # noqa: E402
from helpers import grid_matrix  # noqa: E402

# Components that exercise every branch of validate_cells: ordinary positives,
# signed zeros, negatives, and subnormals whose reciprocal overflows (1e-310)
# or stays finite (1e-308); unsorted draws give non-monotone cells.
COMPONENTS = st.one_of(
    st.floats(0.1, 9.0),
    st.sampled_from([0.0, -0.0, -1.0, -2.5, 5e-324, 1e-310, 1e-308, 1.0]),
)
_DRAWN = st.tuples(COMPONENTS, COMPONENTS, COMPONENTS)
TRIPLES = st.one_of(_DRAWN.map(sorted).map(tuple), _DRAWN)
# Per-component scale of a mirror cell against the exact reciprocal, on and
# around the 5% tolerance.
FACTORS = st.one_of(st.just(1.0), st.sampled_from([0.95, 1.05]), st.floats(0.9, 1.1))


@st.composite
def raw_matrices(draw):
    """Square grids whose mirror cells are exact, perturbed, or free triples."""
    n = draw(st.integers(1, 6))
    cells = [[None] * n for _ in range(n)]
    for i in range(n):
        cells[i][i] = draw(st.one_of(st.just((1.0, 1.0, 1.0)), TRIPLES))
        for j in range(i + 1, n):
            fwd = draw(TRIPLES)
            factors = draw(st.one_of(st.tuples(FACTORS, FACTORS, FACTORS), st.none()))
            recip = None
            if factors and min(fwd) > 0:
                recip = [f / x for f, x in zip(factors, reversed(fwd))]
            if recip is not None and all(map(math.isfinite, recip)):
                back = tuple(recip)
            else:
                back = draw(TRIPLES)
            cells[i][j], cells[j][i] = fwd, back
    return cells


def _fmt(t):
    return "({:g}, {:g}, {:g})".format(*t)


def reference_validation(ids, cells):
    """The documented checks of build_matrix over a filled grid, written out plainly.

    Returns (warnings as (code, location, message), overflow error or None);
    warnings recorded before an overflowing pair precede its error.
    """
    n = len(ids)
    found = []
    for i in range(n):
        for j in range(n):
            l, m, u = cells[i][j]
            if not (l <= m and m <= u):
                found.append(("non_monotone", f"({ids[i]},{ids[j]})",
                              f"cell {_fmt(cells[i][j])} is not ordered l <= m <= u"))
    for i in range(n):
        if tuple(cells[i][i]) != (1.0, 1.0, 1.0):
            found.append(("non_unit_diagonal", f"({ids[i]},{ids[i]})",
                          f"diagonal cell is {_fmt(cells[i][i])}, expected (1, 1, 1)"))
    for i in range(n):
        for j in range(i + 1, n):
            fwd, back = cells[i][j], cells[j][i]
            pair = f"({ids[i]},{ids[j]})/({ids[j]},{ids[i]})"
            if any(x <= 0 for x in (*fwd, *back)):
                found.append(("nonpositive_component", pair,
                              "cells must be strictly positive to check reciprocity"))
                continue
            expected = (1.0 / fwd[2], 1.0 / fwd[1], 1.0 / fwd[0])
            if any(math.isinf(e) for e in expected):
                return found, f"{pair}: reciprocal of {_fmt(fwd)} overflows"
            rel = max(abs(b - e) / e for b, e in zip(back, expected))
            by = f"{rel:.1%}" if math.isfinite(100 * rel) else "over 1e+308%"
            if rel > 0.05:
                found.append(("reciprocity_breach", pair,
                              f"{_fmt(back)} deviates from reciprocal {_fmt(expected)} "
                              f"of {_fmt(fwd)} by {by} (tolerance 5%)"))
    return found, None


@settings(derandomize=True, max_examples=100, deadline=None)
@given(raw_matrices())
def test_validate_cells_matches_reference(raw):
    ids = [f"C{k}" for k in range(len(raw))]
    criteria = tuple(Barrier(i) for i in ids)
    cells = tuple(tuple(TFN(*t) for t in row) for row in raw)
    expected, overflow = reference_validation(ids, cells)
    if overflow is None:
        got = validate_cells(criteria, cells, ValidationMode.LENIENT)
        assert [(w.code, w.location, w.message) for w in got] == expected
    else:
        with pytest.raises(ValidationError) as exc:
            validate_cells(criteria, cells, ValidationMode.LENIENT)
        assert str(exc.value) == overflow
    first = f"{expected[0][1]}: {expected[0][2]}" if expected else overflow
    if first is None:
        assert validate_cells(criteria, cells, ValidationMode.STRICT) == ()
    else:
        with pytest.raises(ValidationError) as exc:
            validate_cells(criteria, cells, ValidationMode.STRICT)
        assert str(exc.value) == first


# Entry components for sparse matrices. Half the drawn matrices also use
# zero, a negative and a subnormal whose reciprocal overflows (1e-310), which
# make auto-fill fail. Both halves draw the largest float, whose reciprocal
# is subnormal and inverts back to inf.
_FILLABLE = st.one_of(st.floats(0.1, 9.0), st.sampled_from([1e-308, 1.0, sys.float_info.max]))
_ANY = st.one_of(_FILLABLE, st.sampled_from([0.0, -1.0, 1e-310]))


def _entry_triples(component, ints):
    floats = st.tuples(component, component, component)
    return st.one_of(
        floats.map(sorted).map(lambda t: TFN(*t)),
        floats.map(lambda t: TFN(*t)),
        st.tuples(ints, ints, ints),
    )


FILLABLE_TRIPLES = _entry_triples(_FILLABLE, st.integers(1, 9))
ANY_TRIPLES = _entry_triples(_ANY, st.integers(-1, 9))
# The fuzzy Saaty 1..9 triples and their reciprocals, as TFNs and as plain
# tuples: equal forward cells, which share one auto-filled mirror, are common.
_SAATY = [(1, 1, 1), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (5, 6, 7), (6, 7, 8),
          (7, 8, 9), (9, 9, 9)]
SAATY_TRIPLES = st.sampled_from(
    [f(t) for t in _SAATY for f in (TFN._make, tuple, tfn_reciprocal)]
)


@st.composite
def sparse_entries(draw):
    """(ids, entries): every pair given as upper only, lower only, or both."""
    n = draw(st.integers(1, 7))
    ids = [f"C{k}" for k in range(n)]
    triples = st.one_of(SAATY_TRIPLES, ANY_TRIPLES if draw(st.booleans()) else FILLABLE_TRIPLES)
    entries = []
    for i in range(n):
        diag = draw(st.one_of(st.none(), st.none(), triples))
        if diag is not None:
            entries.append((ids[i], ids[i], diag))
        for j in range(i + 1, n):
            shape = draw(st.sampled_from(["upper", "lower", "both"]))
            fwd = draw(triples)
            if shape == "lower":
                entries.append((ids[j], ids[i], fwd))
                continue
            entries.append((ids[i], ids[j], fwd))
            if shape == "both":
                factors = draw(st.tuples(FACTORS, FACTORS, FACTORS))
                recip = [f / x for f, x in zip(factors, reversed(fwd))] if min(fwd) > 0 else None
                if recip is not None and all(map(math.isfinite, recip)):
                    back = TFN(*recip)
                else:
                    back = draw(triples)
                entries.append((ids[j], ids[i], back))
    return ids, draw(st.permutations(entries))


def reference_fill(ids, entries):
    """The dense grid, each missing mirror filled by `tfn_reciprocal` of its
    given counterpart; or the auto-fill error text of the first failing cell."""
    n = len(ids)
    index = {cid: k for k, cid in enumerate(ids)}
    given = [[None] * n for _ in range(n)]
    for r, c, t in entries:
        given[index[r]][index[c]] = t
    grid = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            t = given[i][j]
            if i == j and t is None:
                t = (1.0, 1.0, 1.0)
            elif t is None:
                try:
                    t = tfn_reciprocal(given[j][i])
                except ValidationError as exc:
                    return None, f"auto-fill of ({ids[i]},{ids[j]}) from ({ids[j]},{ids[i]}): {exc}"
            grid[i][j] = TFN(*t)
    return tuple(map(tuple, grid)), None


def _outcome(fn, *args):
    """The warnings `fn` returns, or the text of the `ValidationError` it raises."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return str(exc)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sparse_entries())
@example((["A", "B"], [("B", "A", (sys.float_info.max,) * 3)]))
@example((["A", "B"], [("B", "A", TFN(1.0, 2.0, sys.float_info.max))]))
@example((["A", "B"], [("A", "B", TFN(1e-310, 1.0, 2.0))]))
@example((["A", "B", "C"], [("A", "B", TFN(2.0, 3.0, 4.0)), ("A", "C", TFN(2.0, 3.0, 4.0)),
                            ("C", "A", TFN(0.2, 0.3, 0.4)), ("B", "C", (2, 3, 4))]))
# an unordered given cell whose mirror is unordered too; one whose mirror
# (1/7, 1/7, 1) is ordered, as 1/nextafter(7, inf) rounds to 1/7; an unordered diagonal
@example((["A", "B"], [("A", "B", TFN(3.0, 2.0, 4.0))]))
@example((["A", "B"], [("A", "B", TFN(1.0, math.nextafter(7.0, math.inf), 7.0))]))
@example((["A", "B"], [("A", "A", TFN(2.0, 1.0, 3.0)), ("B", "A", TFN(1.0, 2.0, 3.0))]))
# an ordered nonpositive cell: auto-filling its mirror raises, and a given
# mirror that is unordered is still reported
@example((["A", "B"], [("A", "B", TFN(-2.0, -1.0, 3.0))]))
@example((["A", "B"], [("A", "B", TFN(-2.0, -1.0, 3.0)), ("B", "A", TFN(1 / 3, -1.0, -0.5))]))
def test_build_matrix_matches_full_validation(drawn):
    # build_matrix skips the reciprocity test where it filled a lower mirror
    # itself, and the order scan when every given cell is ordered; the
    # verdicts must be those of checking every cell and pair
    ids, entries = drawn
    cells, fill_error = reference_fill(ids, entries)
    found, overflow = (None, None) if fill_error else reference_validation(ids, cells)
    for mode in ValidationMode:
        built = _outcome(build_matrix, entries, ids, mode)
        if fill_error is not None:
            assert built == fill_error
            continue
        expected = overflow
        if mode is ValidationMode.STRICT and found:
            expected = f"{found[0][1]}: {found[0][2]}"
        if expected is not None:
            assert built == expected
            continue
        assert not isinstance(built, str), built
        assert built.cells == cells
        assert all(type(t) is TFN for row in built.cells for t in row)
        assert built.warnings == tuple(found)


# Row-mean cells: positives, signed zeros (a zero factor gives 0.0) and
# negatives (geometric_mean's error); none has a reciprocal that overflows,
# so lenient construction never raises.
_ROW_COMPONENTS = st.one_of(
    st.floats(1e-3, 1e3),
    st.sampled_from([0.0, -0.0, -1.0, 1e-308, 1.0, 9.0, sys.float_info.max]),
)
_ROW_TRIPLES = st.tuples(_ROW_COMPONENTS, _ROW_COMPONENTS, _ROW_COMPONENTS)
LENIENT_GRIDS = st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(_ROW_TRIPLES, min_size=n, max_size=n), min_size=n, max_size=n)
)


def _bits(rows):
    return [[x.hex() for x in row] for row in rows]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(LENIENT_GRIDS)
@example([[(0.1, 0.3, 0.7)]])
@example([[(-0.0, 0.0, 2.0)]])
@example([[(1.0, 1.0, 1.0), (0.0, 2.0, 3.0)], [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0)]])
@example([[(1.0, 1.0, 1.0), (2.0, -1.0, 3.0)], [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0)]])
@example([[(0.3, 0.3, 2.0), (2.0, 0.3, 0.3)], [(0.3, 2.0, 0.3), (0.3, 0.3, 0.3)]])  # one value in many cells
def test_row_geometric_means_match_geometric_mean(grid):
    ids = [f"C{k}" for k in range(len(grid))]
    m = grid_matrix(ids, grid, ValidationMode.LENIENT)
    expected = _outcome(lambda: [[geometric_mean(list(col)) for col in zip(*row)]
                                 for row in m.cells])
    got = _outcome(row_geometric_means, m)
    if isinstance(expected, str):
        assert got == expected
        return
    assert all(type(t) is TFN for t in got)
    assert _bits(got) == _bits(expected)
    for row, means in zip(m.cells, got):
        for col, mean in zip(zip(*row), means):
            if len(col) > 1 and min(col) == 0:
                assert mean.hex() == (0.0).hex()


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, sys.float_info.max,
                     -sys.float_info.max]),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FINITE, _FINITE, _FINITE)
@example(0.0, -0.0, 5e-324)
@example(1e-310, sys.float_info.max, -sys.float_info.max)
def test_tfn_text_is_g_format(l, m, u):
    assert str(TFN(l, m, u)) == f"({l:g}, {m:g}, {u:g})"
