"""Fuzzy Delphi screening of candidate criteria.

Expert ratings (linguistic levels encoded as TFNs) are aggregated per barrier
with the min/geometric-mean/max rule, defuzzified to a crisp significance
score, and screened against a threshold: a barrier survives iff its score is
at or above the threshold.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError
from .tfn import (
    TFN,
    TriangularFuzzyNumber,
    ValidationMode,
    ValidationWarning,
    aggregate_min_geo_max,
    centroid_defuzzify,
)


class Barrier(NamedTuple):
    """A candidate criterion. `id` is the stable key; `name` is display-only."""

    id: str
    name: str = ""
    description: str | None = None

    @property
    def label(self) -> str:
        return self.name or self.id


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


def get_scale(name: str) -> LinguisticScale:
    try:
        return SCALES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name, e.g. a JSON list
        raise ValidationError(
            f"unknown linguistic scale {name!r} (available: {sorted(SCALES)})"
        ) from None


class RatingPanel:
    """Complete barriers x experts grid of TFN opinions.

    Validation runs at construction: structural problems (missing cells,
    duplicate ids, negative components) always raise; unordered cells raise in
    strict mode and are recorded as warnings in lenient mode.
    """

    def __init__(
        self,
        barriers: Sequence[Barrier | str],
        experts: Sequence[str],
        ratings: dict[tuple[str, str], TriangularFuzzyNumber],
        mode: ValidationMode = ValidationMode.STRICT,
    ) -> None:
        self.barriers = tuple(b if isinstance(b, Barrier) else Barrier(str(b)) for b in barriers)
        self.experts = tuple(str(e) for e in experts)
        self.ratings = ratings
        self.mode = mode
        self.warnings: list[ValidationWarning] = []
        if not self.barriers:
            raise ValidationError("panel needs at least one barrier")
        if not self.experts:
            raise ValidationError("panel needs at least one expert")
        ids = [b.id for b in self.barriers]
        if len(set(ids)) != len(ids):
            raise ValidationError("barrier ids must be unique")
        if len(set(self.experts)) != len(self.experts):
            raise ValidationError("expert ids must be unique")
        experts = self.experts
        for bid in ids:
            for eid in experts:
                cell = ratings.get((bid, eid))
                if not isinstance(cell, TriangularFuzzyNumber):
                    if cell is None:
                        raise ValidationError(f"panel is missing the rating for ({bid}, {eid})")
                    raise ValidationError(f"rating ({bid}, {eid}) = {cell!r} is not a TFN")
                l, m, u = cell
                if not 0 <= l <= m <= u:
                    self._check_cell(bid, eid, cell)
        # every expected cell is present, so any other key makes the dict larger
        if len(ratings) != len(ids) * len(experts):
            extra = set(ratings) - {(b, e) for b in ids for e in experts}
            raise ValidationError(f"panel has ratings for unknown cells: {sorted(extra)}")

    def _check_cell(self, bid: str, eid: str, cell: TriangularFuzzyNumber) -> None:
        if not cell.is_nonnegative:
            raise ValidationError(f"rating ({bid}, {eid}) = {cell} has negative components")
        if not cell.is_monotone:
            loc = f"({bid}, {eid})"
            if self.mode is ValidationMode.STRICT:
                raise ValidationError(f"rating {loc} = {cell} is not ordered l <= m <= u")
            self.warnings.append(
                ValidationWarning("non_monotone", loc, f"rating {cell} is not ordered l <= m <= u")
            )

    @property
    def barrier_ids(self) -> list[str]:
        return [b.id for b in self.barriers]

    def row(self, barrier_id: str) -> tuple[TriangularFuzzyNumber, ...]:
        """All opinions for one barrier, in expert order."""
        return tuple(self.ratings[(barrier_id, eid)] for eid in self.experts)

    @classmethod
    def from_rows(
        cls,
        barriers: Sequence[Barrier | str],
        experts: Sequence[str],
        rows: Mapping[str, Sequence[TriangularFuzzyNumber]],
        mode: ValidationMode = ValidationMode.STRICT,
    ) -> "RatingPanel":
        """Build from one opinion sequence per barrier id, in expert order."""
        bs = tuple(b if isinstance(b, Barrier) else Barrier(str(b)) for b in barriers)
        unknown = set(rows) - {b.id for b in bs}
        if unknown:
            raise ValidationError(f"rows given for unknown barriers: {sorted(unknown)}")
        grid: dict[tuple[str, str], TriangularFuzzyNumber] = {}
        for b in bs:
            opinions = rows.get(b.id)
            if opinions is None or len(opinions) != len(experts):
                raise ValidationError(
                    f"row for {b.id!r} must supply exactly {len(experts)} opinions"
                )
            for eid, t in zip(experts, opinions):
                grid[(b.id, str(eid))] = t
        return cls(bs, tuple(str(e) for e in experts), grid, mode)


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
    return {bid: aggregate_min_geo_max(panel.row(bid)) for bid in panel.barrier_ids}


def score_barriers(aggregates: Mapping[str, TriangularFuzzyNumber]) -> dict[str, float]:
    """Centroid-defuzzify each aggregate into a crisp significance score."""
    if not aggregates:
        raise ValidationError("no aggregates to score")
    return {bid: centroid_defuzzify(t) for bid, t in aggregates.items()}


def compute_threshold(
    scores: Mapping[str, float],
    strategy: ThresholdStrategy = ThresholdStrategy.mean(),
) -> float:
    """Selection threshold: mean of the scores, or the fixed value."""
    if not scores:
        raise ValidationError("cannot compute a threshold from empty scores")
    if strategy.kind == "fixed":
        return float(strategy.value)  # type: ignore[arg-type]
    return math.fsum(scores.values()) / len(scores)


def screen(
    panel: RatingPanel,
    strategy: ThresholdStrategy = ThresholdStrategy.mean(),
) -> ScreeningResult:
    """Run the full screening pipeline: aggregate, defuzzify, threshold, decide.

    A barrier is selected iff its score is >= the threshold (ties inclusive).
    """
    aggregates = aggregate_panel(panel)
    scores = score_barriers(aggregates)
    threshold = compute_threshold(scores, strategy)
    rows = [
        BarrierScreening(b, aggregates[b.id], scores[b.id], scores[b.id] >= threshold)
        for b in panel.barriers
    ]
    return ScreeningResult(rows, threshold, strategy, list(panel.warnings))
