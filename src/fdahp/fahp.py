"""Fuzzy AHP ranking via row geometric means (Buckley's method).

Pipeline: validate the fuzzy pairwise comparison matrix, take the geometric
mean of each row, normalize by the inverted column total, defuzzify, normalize
to unit sum, and rank.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .delphi import Barrier
from .errors import ValidationError
from .tfn import (
    TFN,
    UNIT_TFN,
    TriangularFuzzyNumber,
    ValidationMode,
    ValidationWarning,
    centroid_defuzzify,
    geometric_mean,
    tfn_multiply,
    tfn_reciprocal,
)

# Relative per-component tolerance when checking that cell(j,i) mirrors the
# reciprocal of cell(i,j); printed matrices commonly carry ~3% rounding drift.
RECIPROCITY_TOLERANCE = 0.05


def _as_barriers(criteria: Sequence[Barrier | str]) -> tuple[Barrier, ...]:
    return tuple(c if isinstance(c, Barrier) else Barrier(str(c)) for c in criteria)


class PairwiseMatrix:
    """Square grid of fuzzy pairwise comparisons over an ordered criteria list.

    Construction validates: strict mode raises on the first violation, lenient
    mode records every violation as a warning and keeps cells exactly as given.
    """

    def __init__(
        self,
        criteria: Sequence[Barrier | str],
        cells: Sequence[Sequence[TriangularFuzzyNumber]],
        mode: ValidationMode = ValidationMode.STRICT,
        *, _exact: Sequence[Sequence[int]] = (),
    ) -> None:
        self.criteria = _as_barriers(criteria)
        self.mode = mode
        ids = [c.id for c in self.criteria]
        if not ids:
            raise ValidationError("matrix needs at least one criterion")
        if len(set(ids)) != len(ids):
            raise ValidationError("criterion ids must be unique")
        n = len(ids)
        self.cells = tuple(
            tuple(t if isinstance(t, TriangularFuzzyNumber) else TFN(*t) for t in row)
            for row in cells
        )
        if len(self.cells) != n or any(len(row) != n for row in self.cells):
            raise ValidationError(f"matrix must be {n}x{n} to match its criteria")
        self.warnings = validate_cells(self.criteria, self.cells, mode, _exact=_exact)

    @property
    def size(self) -> int:
        return len(self.criteria)

    @property
    def ids(self) -> list[str]:
        return [c.id for c in self.criteria]


def validate_cells(
    criteria: Sequence[Barrier],
    cells: Sequence[Sequence[TriangularFuzzyNumber]],
    mode: ValidationMode,
    *, _exact: Sequence[Sequence[int]] = (),
) -> list[ValidationWarning]:
    """Check cell ordering, unit diagonal, and reciprocity.

    Stages run in a fixed order; strict mode raises at the first offending
    cell, lenient mode returns one warning per violation. Pairs whose forward
    cell has a nonpositive component cannot be reciprocity-checked and are
    reported as such; a forward cell whose reciprocal overflows raises in
    both modes. A pair i < j whose `_exact[j][i]` is set skips the reciprocity test.
    """
    ids = [c.id for c in criteria]
    n = len(ids)
    tol = RECIPROCITY_TOLERANCE
    warnings: list[ValidationWarning] = []

    def offend(code: str, location: str, message: str) -> None:
        if mode is ValidationMode.STRICT:
            raise ValidationError(f"{location}: {message}")
        warnings.append(ValidationWarning(code, location, message))

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
        js = range(i + 1, n)
        for j in [j for j in js if not _exact[j][i]] if _exact else js:
            fl, fm, fu = fwd = row[j]
            bl, bm, bu = back = cells[j][i]
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
            offend(
                "reciprocity_breach",
                pair,
                f"{back} deviates from reciprocal {TFN(el, em, eu)} of {fwd} "
                f"by {max(rl, rm, ru):.1%} (tolerance {tol:.0%})",
            )
    return warnings


def build_matrix(
    entries: Iterable[tuple[str, str, TriangularFuzzyNumber]],
    criteria: Sequence[Barrier | str],
    mode: ValidationMode = ValidationMode.STRICT,
) -> PairwiseMatrix:
    """Assemble a matrix from sparse (row_id, col_id, tfn) entries.

    The diagonal defaults to (1,1,1); a missing mirror cell is auto-filled
    with the reciprocal of its counterpart. Explicitly supplied cells are
    never overwritten.
    """
    crits = _as_barriers(criteria)
    ids = [c.id for c in crits]
    index = {cid: k for k, cid in enumerate(ids)}
    n = len(ids)
    grid: list[list[TriangularFuzzyNumber | None]] = [[None] * n for _ in range(n)]
    for row_id, col_id, t in entries:
        if row_id not in index:
            raise ValidationError(f"entry row id {row_id!r} is not a known criterion")
        if col_id not in index:
            raise ValidationError(f"entry col id {col_id!r} is not a known criterion")
        i, j = index[row_id], index[col_id]
        if grid[i][j] is not None:
            raise ValidationError(f"duplicate entry for cell ({row_id},{col_id})")
        grid[i][j] = t
    for i in range(n):
        if grid[i][i] is None:
            grid[i][i] = UNIT_TFN
    # exact[i][j] is set where (i,j) is filled as the exact float reciprocal of (j,i)
    exact = [bytearray(n) for _ in range(n)]
    missing = []
    for i, row in enumerate(grid):
        for j in range(n):
            if row[j] is not None:
                continue
            if (f := grid[j][i]) is None:
                missing.append(f"({ids[i]},{ids[j]})")
                continue
            fl, fm, fu = f
            if type(f) is TFN and fl > 0 and fm > 0 and fu > 0 and (
                    1 / fl + 1 / fm + 1 / fu < math.inf):
                row[j] = tuple.__new__(TFN, (1.0 / fu, 1.0 / fm, 1.0 / fl))
                exact[i][j] = 1
                continue
            try:
                row[j] = tfn_reciprocal(f)
            except ValidationError as exc:
                raise ValidationError(
                    f"auto-fill of ({ids[i]},{ids[j]}) from ({ids[j]},{ids[i]}): {exc}"
                ) from None
    if missing:
        raise ValidationError(f"matrix incomplete after auto-fill; missing cells: {missing}")
    return PairwiseMatrix(crits, tuple(map(tuple, grid)), mode, _exact=exact)  # type: ignore


def row_geometric_means(m: PairwiseMatrix) -> list[TriangularFuzzyNumber]:
    """Componentwise geometric mean of each row."""
    return [TFN(*map(geometric_mean, zip(*row))) for row in m.cells]


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
    try:
        total = TFN(*map(math.fsum, zip(*r)))
    except OverflowError:
        raise ValidationError(
            "weight normalization: the sum of the row geometric means overflows"
        ) from None
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
    s = math.fsum(m_vals)
    if s == 0:
        raise ValidationError("crisp weights sum to zero; cannot normalize")
    return m_vals, [v / s for v in m_vals]


def rank(n_weights: Sequence[float]) -> list[int]:
    """1-based ranks, descending by weight; ties broken by ascending index."""
    if not n_weights:
        raise ValidationError("nothing to rank")
    order = sorted(range(len(n_weights)), key=lambda i: (-n_weights[i], i))
    ranks = [0] * len(n_weights)
    for position, i in enumerate(order):
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
        warnings=list(m.warnings),
    )
