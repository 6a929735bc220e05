"""Fuzzy AHP ranking via row geometric means (Buckley's method).

Pipeline: validate the fuzzy pairwise comparison matrix, take the geometric
mean of each row, normalize by the inverted column total, defuzzify, normalize
to unit sum, and rank.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .delphi import Barrier, _as_barriers
from .errors import ValidationError, _located, _nogc
from .tfn import (
    TFN,
    UNIT_TFN,
    TriangularFuzzyNumber,
    ValidationMode,
    ValidationWarning,
    _fsum,
    _geometric_mean,
    centroid_defuzzify,
    tfn_multiply,
    tfn_reciprocal,
)

# Relative per-component tolerance when checking that cell(j,i) mirrors the
# reciprocal of cell(i,j); printed matrices commonly carry ~3% rounding drift.
RECIPROCITY_TOLERANCE = 0.05

# Relative gap below which two normalized weights are tied in `rank`. Float row means
# split exact ties by about an ulp; this is far wider, and far below the printed digits.
RANK_TIE_TOLERANCE = 1e-12


class PairwiseMatrix(NamedTuple):
    """Square grid of fuzzy pairwise comparisons over an ordered criteria list.

    `build_matrix` makes and validates one: strict mode raises on the first
    violation, lenient mode records every violation in `warnings` and keeps
    cells exactly as given.
    """

    criteria: tuple[Barrier, ...]
    cells: tuple[tuple[TriangularFuzzyNumber, ...], ...]
    mode: ValidationMode
    warnings: tuple[ValidationWarning, ...]

    @property
    def size(self) -> int:
        return len(self.criteria)

    @property
    def ids(self) -> list[str]:
        return [c.id for c in self.criteria]


def _as_tfn(where: str, t) -> TriangularFuzzyNumber:
    """`TFN(*t)`; a `t` that cannot be one raises naming `where`."""
    try:
        return _located(where, TFN, *t)
    except TypeError:  # not iterable, or not three items
        raise ValidationError(f"{where}: expected an (l, m, u) triple, got {t!r}") from None


def validate_cells(
    criteria: Sequence[Barrier],
    cells: Sequence[Sequence[TriangularFuzzyNumber]],
    mode: ValidationMode,
) -> tuple[ValidationWarning, ...]:
    """The warnings of `build_matrix` over the n*n entries of `cells`."""
    entries = [(r.id, c.id, t) for r, row in zip(criteria, cells) for c, t in zip(criteria, row)]
    return build_matrix(entries, criteria, mode).warnings


@_nogc
def build_matrix(
    entries: Iterable[tuple[str, str, TriangularFuzzyNumber]],
    criteria: Sequence[Barrier | str],
    mode: ValidationMode = ValidationMode.STRICT,
) -> PairwiseMatrix:
    """Assemble and validate a matrix from sparse (row_id, col_id, tfn) entries, a
    dense grid being its n*n entries; a plain (l, m, u) triple is made a `TFN`, and
    one that cannot be raises naming its cell.

    The diagonal defaults to (1,1,1); a missing mirror cell is auto-filled with the
    reciprocal of its counterpart, and given cells are never overwritten. Then cell
    order, unit diagonal and reciprocity are checked: strict mode raises at the first
    violation, lenient mode records each. A pair with a nonpositive component is
    reported as such; a forward cell whose reciprocal overflows raises in both modes.
    A mode string is parsed.
    """
    mode = ValidationMode.parse(mode)
    crits = _as_barriers(criteria)
    ids = [c.id for c in crits]
    index = {cid: k for k, cid in enumerate(ids)}
    if len(index) != len(ids):
        raise ValidationError("criterion ids must be unique")
    n = len(ids)
    grid: list[list[TriangularFuzzyNumber | None]] = [[None] * n for _ in range(n)]
    # pairs[j] lists each i > j whose lower cell (i,j) is given; every other
    # lower cell is auto-filled as the exact reciprocal, or auto-fill raises
    pairs: list[list[int]] = [[] for _ in range(n)]
    ordered = True  # every given cell is ordered
    for row_id, col_id, t in entries:
        try:  # only the lookups: a KeyError from `entries` itself propagates as it is
            i, j = index[row_id], index[col_id]
        except KeyError:
            side, cid = ("col", col_id) if row_id in index else ("row", row_id)
            raise ValidationError(f"entry {side} id {cid!r} is not a known criterion") from None
        if (row := grid[i])[j] is not None:
            raise ValidationError(f"duplicate entry for cell ({row_id},{col_id})")
        row[j] = t = t if isinstance(t, TFN) else _as_tfn(f"entry ({row_id},{col_id})", t)
        l, m, u = t
        if not l <= m <= u:
            ordered = False
        if i > j:
            pairs[j].append(i)
    if not n:
        raise ValidationError("matrix needs at least one criterion")
    for i in range(n):
        if grid[i][i] is None:
            grid[i][i] = UNIT_TFN
    missing = []
    # equal positive finite floats have equal bits, so equal forward cells share one mirror
    mirrors: dict[TFN, TFN] = {}
    cols = list(zip(*grid)) if any(None in row for row in grid) else ()
    for i, (row, col) in enumerate(zip(grid, cols)):
        if None not in row:
            continue
        for j in range(n):
            if row[j] is not None:
                continue
            if (f := col[j]) is None:
                missing.append(f"({ids[i]},{ids[j]})")
                continue
            if (t := mirrors.get(f)) is None:
                try:
                    t = mirrors[f] = tfn_reciprocal(f)
                except ValidationError as exc:
                    raise ValidationError(
                        f"auto-fill of ({ids[i]},{ids[j]}) from ({ids[j]},{ids[i]}): {exc}"
                    ) from None
            row[j] = t
    if missing:
        raise ValidationError(f"matrix incomplete after auto-fill; missing cells: {missing}")
    cells: tuple = tuple(map(tuple, grid))
    tol = RECIPROCITY_TOLERANCE
    tol_text = format(tol, ".0%")
    warnings: list[ValidationWarning] = []

    def offend(code: str, location: str, message: str) -> None:
        if mode is ValidationMode.STRICT:
            raise ValidationError(f"{location}: {message}")
        warnings.append(ValidationWarning(code, location, message))

    # all cells are ordered if all given are: a default diagonal is ordered, auto-fill
    # raises on a nonpositive cell, and the mirror of an ordered positive cell is
    # ordered, as correctly rounded 1/x is monotone
    if not ordered:
        for i, row in enumerate(cells):
            for j, (l, m, u) in enumerate(row):
                if not l <= m <= u:
                    offend(
                        "non_monotone",
                        f"({ids[i]},{ids[j]})",
                        f"cell {row[j]} is not ordered l <= m <= u",
                    )
    for i in range(n):
        if cells[i][i] != UNIT_TFN:
            offend(
                "non_unit_diagonal",
                f"({ids[i]},{ids[i]})",
                f"diagonal cell is {cells[i][i]}, expected (1, 1, 1)",
            )
    for i, row in enumerate(cells):
        for j in sorted(pairs[i]):
            fl, fm, fu = fwd = row[j]
            bl, bm, bu = cells[j][i]
            if fl <= 0 or fm <= 0 or fu <= 0 or bl <= 0 or bm <= 0 or bu <= 0:
                offend(
                    "nonpositive_component",
                    f"({ids[i]},{ids[j]})/({ids[j]},{ids[i]})",
                    "cells must be strictly positive to check reciprocity",
                )
                continue
            el, em, eu = 1.0 / fu, 1.0 / fm, 1.0 / fl
            rl, rm, ru = abs(bl - el) / el, abs(bm - em) / em, abs(bu - eu) / eu
            if rl <= tol and rm <= tol and ru <= tol:
                continue
            pair = f"({ids[i]},{ids[j]})/({ids[j]},{ids[i]})"
            if math.inf in (el, em, eu):
                # 1/x overflowed: inf/inf is nan, which no tolerance test flags
                raise ValidationError(f"{pair}: reciprocal of {fwd} overflows")
            by = 100 * max(rl, rm, ru)
            offend(
                "reciprocity_breach",
                pair,
                "(%g, %g, %g) deviates from reciprocal (%g, %g, %g) of (%g, %g, %g) "
                "by %s (tolerance %s)"
                % (bl, bm, bu, el, em, eu, fl, fm, fu,
                   "%.1f%%" % by if by < math.inf else "over 1e+308%", tol_text),
            )
    return PairwiseMatrix(crits, cells, mode, tuple(warnings))


def row_geometric_means(m: PairwiseMatrix) -> list[TriangularFuzzyNumber]:
    """Componentwise geometric mean of each row."""
    return [TFN(*map(_geometric_mean, zip(*row))) for row in m.cells]


def fuzzy_weights(
    r: Sequence[TriangularFuzzyNumber],
) -> tuple[list[TriangularFuzzyNumber], TriangularFuzzyNumber, TriangularFuzzyNumber]:
    """Fuzzy relative weights from row geometric means.

    Returns (weights, total, inverse) where total is the componentwise sum of
    r, inverse its reversed reciprocal, and each weight r_i * inverse, i.e.
    lower/total.u, modal/total.m, upper/total.l.
    """
    if not r:
        raise ValidationError("no row geometric means to weight")
    overflow = "weight normalization: the sum of the row geometric means overflows"
    total = TFN(*(_fsum(col, overflow) for col in zip(*r)))
    if min(total) <= 0:
        raise ValidationError(f"weight normalization requires positive totals, got {total}")
    try:  # a subnormal total inverts to inf; a huge weight can overflow too
        inverse = tfn_reciprocal(total)
        weights = [tfn_multiply(t, inverse) for t in r]
    except ValidationError as exc:
        raise ValidationError(f"weight normalization: {exc} (row-mean total {total})") from None
    return weights, total, inverse


def crisp_weights(w: Sequence[TriangularFuzzyNumber]) -> tuple[list[float], list[float]]:
    """Centroid-defuzzified weights M and their unit-sum normalization N."""
    if not w:
        raise ValidationError("no fuzzy weights to defuzzify")
    m_vals = [centroid_defuzzify(t) for t in w]
    s = _fsum(m_vals, "crisp weights: the sum of the centroids overflows")
    if s == 0:
        raise ValidationError("crisp weights sum to zero; cannot normalize")
    return m_vals, [v / s for v in m_vals]


def rank(n_weights: Sequence[float]) -> list[int]:
    """1-based ranks, descending by weight; ties broken by ascending index.

    Walking the weights in descending order, neighbours within RANK_TIE_TOLERANCE
    (relative) of each other form one tied group.
    """
    if not n_weights:
        raise ValidationError("nothing to rank")
    order = sorted(range(len(n_weights)), key=lambda i: (-n_weights[i], i))
    groups = [[order[0]]]
    for prev, i in zip(order, order[1:]):
        if math.isclose(n_weights[prev], n_weights[i], rel_tol=RANK_TIE_TOLERANCE):
            groups[-1].append(i)
        else:
            groups.append([i])
    ranks = [0] * len(n_weights)
    for position, i in enumerate(k for group in groups for k in sorted(group)):
        ranks[i] = position + 1
    return ranks


class RankingResult(NamedTuple):
    """All intermediates of one ranking run, in criteria order."""

    criteria: tuple[Barrier, ...]
    row_means: list[TriangularFuzzyNumber]
    weights: list[TriangularFuzzyNumber]
    total: TriangularFuzzyNumber
    inverse: TriangularFuzzyNumber
    crisp: list[float]
    normalized: list[float]
    ranks: list[int]
    warnings: Sequence[ValidationWarning] = ()

    @property
    def ids(self) -> list[str]:
        return [c.id for c in self.criteria]

    @property
    def rank_order(self) -> list[str]:
        """Criterion ids from rank 1 to rank n."""
        by_rank = sorted(zip(self.ranks, self.ids))
        return [cid for _, cid in by_rank]

    def normalized_by_id(self) -> dict[str, float]:
        return dict(zip(self.ids, self.normalized))


def run_fahp(m: PairwiseMatrix) -> RankingResult:
    """Full ranking pipeline over a validated matrix."""
    r = row_geometric_means(m)
    w, total, inverse = fuzzy_weights(r)
    m_vals, n_vals = crisp_weights(w)
    ranks = rank(n_vals)
    return RankingResult(
        criteria=m.criteria,
        row_means=r,
        weights=w,
        total=total,
        inverse=inverse,
        crisp=m_vals,
        normalized=n_vals,
        ranks=ranks,
        warnings=m.warnings,
    )
