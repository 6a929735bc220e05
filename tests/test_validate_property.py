"""Property test: validate_cells against a plain reference of its documented rules."""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from fdahp import Barrier, TFN, ValidationError, ValidationMode  # noqa: E402
from fdahp.fahp import validate_cells  # noqa: E402

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
    """The documented rules of validate_cells, written out plainly.

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
            if rel > 0.05:
                found.append(("reciprocity_breach", pair,
                              f"{_fmt(back)} deviates from reciprocal {_fmt(expected)} "
                              f"of {_fmt(fwd)} by {rel:.1%} (tolerance 5%)"))
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
        assert validate_cells(criteria, cells, ValidationMode.STRICT) == []
    else:
        with pytest.raises(ValidationError) as exc:
            validate_cells(criteria, cells, ValidationMode.STRICT)
        assert str(exc.value) == first
