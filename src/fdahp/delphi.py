"""Fuzzy Delphi screening of candidate criteria.

Expert ratings (linguistic levels encoded as TFNs) are aggregated per barrier
with the min/geometric-mean/max rule, defuzzified to a crisp significance
score, and screened against a threshold: a barrier survives iff its score is
at or above the threshold.
"""
from __future__ import annotations

import math
from collections import namedtuple
from itertools import chain, product, repeat
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .tfn import (
    TFN,
    TriangularFuzzyNumber,
    ValidationMode,
    ValidationWarning,
    _fsum,
    aggregate_min_geo_max,
    centroid_defuzzify,
)


class Barrier(NamedTuple):
    """A candidate criterion. `id` is the stable key; `name` is display-only."""

    id: str
    name: str = ""


def _as_barriers(items: Sequence[Barrier | str]) -> tuple[Barrier, ...]:
    """Barriers as given, with each bare id string made a `Barrier`."""
    return tuple(b if isinstance(b, Barrier) else Barrier(str(b)) for b in items)


class LinguisticScale(namedtuple("LinguisticScale", "name entries")):
    """Named mapping from integer rating levels to TFNs.

    Ratings must be contiguous from 1, and every TFN must be ordered.
    """

    __slots__ = ()

    def __new__(cls, name: str, entries: Mapping[int, TriangularFuzzyNumber]) -> "LinguisticScale":
        if not entries:
            raise ValidationError(f"scale {name!r} has no entries")
        if sorted(entries) != list(range(1, len(entries) + 1)):
            raise ValidationError(
                f"scale {name!r} ratings must be contiguous from 1, got {sorted(entries)}"
            )
        for rating, t in entries.items():
            if not t.is_monotone:
                raise ValidationError(f"scale {name!r} rating {rating} has unordered TFN {t}")
        return tuple.__new__(cls, (name, dict(entries)))

    @classmethod
    def _make(cls, iterable) -> "LinguisticScale":
        return cls(*iterable)  # so that _replace validates too

    def tfn(self, rating: int) -> TriangularFuzzyNumber:
        try:
            return self.entries[rating]
        except KeyError:
            raise ValidationError(
                f"rating {rating!r} is not on scale {self.name!r} (valid: 1..{len(self.entries)})"
            ) from None


# Ten-level significance scale: Very low (1) = (0,0,1) up to Extreme (10) = (10,10,10).
DELPHI_10 = LinguisticScale(
    "delphi-10",
    {
        1: TFN(0, 0, 1),
        2: TFN(1, 2, 3),
        3: TFN(2, 3, 4),
        4: TFN(3, 4, 5),
        5: TFN(4, 5, 6),
        6: TFN(5, 6, 7),
        7: TFN(6, 7, 8),
        8: TFN(7, 8, 9),
        9: TFN(8, 9, 10),
        10: TFN(10, 10, 10),
    },
)

SCALES: dict[str, LinguisticScale] = {DELPHI_10.name: DELPHI_10}
_MISSING = object()  # the keyed maker's cell for a (barrier, expert) key its ratings lack


def get_scale(name: str) -> LinguisticScale:
    try:
        return SCALES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, e.g. a JSON list
        raise ValidationError(
            f"unknown linguistic scale {name!r} (available: {sorted(SCALES)})"
        ) from None


class RatingPanel(namedtuple("RatingPanel", "barriers experts rows mode warnings")):
    """Complete barriers x experts grid of TFN opinions; `rows` maps each barrier id,
    in barrier order, to its opinions in expert order.

    Construction validates: missing cells, duplicate ids and negative components always
    raise; unordered cells raise in strict mode and are warnings in lenient mode. A mode
    string is parsed. Ratings in any key order are validated in bulk, and cell by cell
    only when the bulk check fails. `from_rows` builds a panel from rows laid out as
    `rows` is. `_replace` validates nothing."""

    __slots__ = ()

    def __new__(
        cls,
        barriers: Sequence[Barrier | str],
        experts: Sequence[str],
        ratings: Mapping[tuple[str, str], TriangularFuzzyNumber],
        mode: ValidationMode = ValidationMode.STRICT,
    ) -> "RatingPanel":
        barriers, experts, ids, mode = cls._head(barriers, experts, mode)
        cells = tuple(map(ratings.get, product(ids, experts), repeat(_MISSING)))
        n = len(experts)
        rows = {bid: cells[k * n:k * n + n] for k, bid in enumerate(ids)}
        panel = cls._checked(barriers, experts, ids, rows, cells, mode)
        # every expected cell is present, so any other key makes the dict larger
        if len(ratings) != len(cells):
            extra = set(ratings).difference(product(ids, experts))
            raise ValidationError(f"panel has ratings for unknown cells: {sorted(extra)}")
        return panel

    @staticmethod
    def _head(barriers, experts, mode) -> tuple:
        """(barriers, experts, barrier ids, mode), normalised and parsed; both makers raise
        here on no barrier, no expert or a repeated id."""
        mode = ValidationMode.parse(mode)
        barriers, experts = _as_barriers(barriers), tuple(str(e) for e in experts)
        if not barriers:
            raise ValidationError("panel needs at least one barrier")
        if not experts:
            raise ValidationError("panel needs at least one expert")
        ids = [b.id for b in barriers]
        if len(set(ids)) != len(ids):
            raise ValidationError("barrier ids must be unique")
        if len(set(experts)) != len(experts):
            raise ValidationError("expert ids must be unique")
        return barriers, experts, ids, mode

    @classmethod
    def _checked(cls, barriers, experts, ids, rows, cells, mode) -> "RatingPanel":
        """The panel of `rows`, whose cells in barrier then expert order are `cells`. Every
        cell exactly a TFN (so it hashes and unpacks as a tuple) with each distinct cell
        ordered and nonnegative passes in bulk; any other grid is walked cell by cell, and
        the first bad cell raises, `_MISSING` as a missing rating."""
        warnings = []
        if not ({*map(type, cells)} == {TFN} and all(0 <= l <= m <= u for l, m, u in {*cells})):
            for (bid, eid), cell in zip(product(ids, experts), cells):
                if not isinstance(cell, TriangularFuzzyNumber):
                    if cell is _MISSING:
                        raise ValidationError(f"panel is missing the rating for ({bid}, {eid})")
                    raise ValidationError(f"rating ({bid}, {eid}) = {cell!r} is not a TFN")
                l, m, u = cell
                if not 0 <= l <= m <= u:  # a nonnegative cell that fails this is unordered
                    loc, unordered = f"({bid}, {eid})", f"{cell} is not ordered l <= m <= u"
                    if not cell.is_nonnegative:
                        raise ValidationError(f"rating {loc} = {cell} has negative components")
                    if mode is ValidationMode.STRICT:
                        raise ValidationError(f"rating {loc} = {unordered}")
                    warnings.append(ValidationWarning("non_monotone", loc, f"rating {unordered}"))
        return tuple.__new__(cls, (barriers, experts, rows, mode, tuple(warnings)))

    @classmethod
    def from_rows(cls, barriers: Sequence[Barrier | str], experts: Sequence[str],
                  rows: Mapping[str, Sequence[TriangularFuzzyNumber]],
                  mode: ValidationMode = ValidationMode.STRICT) -> "RatingPanel":
        """The panel of `rows`: each barrier id, in barrier order, to a list or tuple of its
        opinions in expert order, stored as a tuple. Other keys or a row of another length
        raise; cells are checked as the keyed maker checks them, with its errors and warnings."""
        barriers, experts, ids, mode = cls._head(barriers, experts, mode)  # before any row
        if len(rows) != len(barriers):
            raise ValidationError(f"rows for {len(rows)} barriers given, expected {len(barriers)}")
        for k, (b, (bid, row)) in enumerate(zip(barriers, rows.items())):
            if bid != b.id:
                raise ValidationError(f"row {k} is keyed {bid!r}, not barrier {b.id!r}")
            if not isinstance(row, (list, tuple)):
                raise ValidationError(f"the row of barrier {bid} is not a list or tuple: {row!r}")
            if len(row) != len(experts):
                raise ValidationError(f"barrier {bid} has {len(row)} ratings, not {len(experts)}")
        rows = {bid: tuple(row) for bid, row in rows.items()}
        cells = [*chain.from_iterable(rows.values())]
        return cls._checked(barriers, experts, ids, rows, cells, mode)

    def __getnewargs__(self):  # copy and pickle rebuild through __new__
        return self.barriers, self.experts, self.ratings, self.mode

    @property
    def ratings(self) -> dict[tuple[str, str], TriangularFuzzyNumber]:
        """Each opinion keyed by (barrier id, expert id), in barrier then expert order."""
        return {(bid, e): t for bid, row in self.rows.items() for e, t in zip(self.experts, row)}

    @property
    def barrier_ids(self) -> list[str]:
        return list(self.rows)

    def row(self, barrier_id: str) -> tuple[TriangularFuzzyNumber, ...]:
        """All opinions for one barrier, in expert order."""
        return self.rows[barrier_id]


class ThresholdStrategy(namedtuple("ThresholdStrategy", "kind value")):
    """Either the mean of all scores, or a fixed cut value."""

    __slots__ = ()

    def __new__(cls, kind: str, value: float | None = None) -> "ThresholdStrategy":
        if kind not in ("mean", "fixed"):
            raise ValidationError(f"unknown threshold strategy {kind!r}")
        if kind == "fixed":
            if value is None or not math.isfinite(value):
                raise ValidationError("fixed threshold needs a finite value")
        elif value is not None:
            raise ValidationError("mean threshold takes no value")
        return tuple.__new__(cls, (kind, value))

    @classmethod
    def _make(cls, iterable) -> "ThresholdStrategy":
        return cls(*iterable)  # so that _replace validates too

    @classmethod
    def mean(cls) -> "ThresholdStrategy":
        return cls("mean")

    @classmethod
    def fixed(cls, value: float) -> "ThresholdStrategy":
        return cls("fixed", float(value))

    @classmethod
    def parse(cls, text: str) -> "ThresholdStrategy":
        """Accepts 'mean' or 'fixed:<value>'."""
        if not isinstance(text, str):
            raise ValidationError(f"threshold strategy must be a string, got {text!r}")
        if text == "mean":
            return cls.mean()
        if text.startswith("fixed:"):
            try:
                return cls.fixed(float(text.split(":", 1)[1]))
            except ValueError:
                raise ValidationError(f"bad fixed threshold in {text!r}") from None
        raise ValidationError(f"unknown threshold strategy {text!r}; use 'mean' or 'fixed:<value>'")

    def __str__(self) -> str:
        return self.kind if self.kind == "mean" else f"fixed:{self.value:g}"


class BarrierScreening(NamedTuple):
    """Per-barrier screening outcome."""

    barrier: Barrier
    aggregate: TriangularFuzzyNumber
    score: float
    selected: bool


class ScreeningResult(NamedTuple):
    """Full screening outcome, in the panel's barrier order."""

    rows: list[BarrierScreening]
    threshold: float
    strategy: ThresholdStrategy
    warnings: Sequence[ValidationWarning] = ()

    @property
    def selected_ids(self) -> list[str]:
        return [r.barrier.id for r in self.rows if r.selected]

    @property
    def rejected_ids(self) -> list[str]:
        return [r.barrier.id for r in self.rows if not r.selected]

    @property
    def selected_barriers(self) -> list[Barrier]:
        return [r.barrier for r in self.rows if r.selected]


def aggregate_panel(panel: RatingPanel) -> dict[str, TriangularFuzzyNumber]:
    """Min/geomean/max aggregate per barrier, keyed by id in barrier order."""
    return {bid: aggregate_min_geo_max(row) for bid, row in panel.rows.items()}


def score_barriers(aggregates: Mapping[str, TriangularFuzzyNumber]) -> dict[str, float]:
    """Centroid-defuzzify each aggregate into a crisp significance score."""
    if not aggregates:
        raise ValidationError("no aggregates to score")
    scores = {bid: centroid_defuzzify(t) for bid, t in aggregates.items()}
    for bid, t in aggregates.items():
        if not math.isfinite(scores[bid]):  # finite components can still sum past the float range
            raise ValidationError(f"score of barrier {bid}: centroid of {t} overflows")
    return scores


def compute_threshold(
    scores: Mapping[str, float],
    strategy: ThresholdStrategy = ThresholdStrategy.mean(),
) -> float:
    """Selection threshold: mean of the scores, or the fixed value."""
    if not scores:
        raise ValidationError("cannot compute a threshold from empty scores")
    if strategy.kind == "fixed":
        return float(strategy.value)  # type: ignore[arg-type]
    return _fsum(scores.values(), "mean threshold: the sum of the scores overflows") / len(scores)


# Under the mean strategy, a score within this many ulps of the float threshold is decided
# against the exact mean: the sum and the division by the count are each correctly rounded,
# so the float mean may sit an ulp or two off the exact one, on either side of a tied score.
MEAN_TIE_ULPS = 4


def screen(
    panel: RatingPanel,
    strategy: ThresholdStrategy = ThresholdStrategy.mean(),
) -> ScreeningResult:
    """Run the full screening pipeline: aggregate, defuzzify, threshold, decide.

    A barrier is selected iff its score is >= the threshold (ties inclusive). Under
    the mean strategy, a score within a few ulps of the rounded mean is compared with
    the exact mean of the scores instead, so equal scores are all selected.
    """
    aggregates = aggregate_panel(panel)
    scores = score_barriers(aggregates)
    threshold = compute_threshold(scores, strategy)
    selected = {bid: s >= threshold for bid, s in scores.items()}
    if strategy.kind == "mean":
        band = MEAN_TIE_ULPS * math.ulp(threshold)
        if near := [bid for bid, s in scores.items() if abs(s - threshold) <= band]:
            from fractions import Fraction  # only on this path: it is slow to import

            total = sum(map(Fraction, scores.values()))
            for bid in near:
                selected[bid] = Fraction(scores[bid]) * len(scores) >= total
    rows = [
        BarrierScreening(b, aggregates[b.id], scores[b.id], selected[b.id])
        for b in panel.barriers
    ]
    return ScreeningResult(rows, threshold, strategy, panel.warnings)
