"""Triangular fuzzy numbers: representation, arithmetic, aggregation, defuzzification.

A triangular fuzzy number (TFN) is an ordered triple (l, m, u) whose membership
function rises linearly from l to the modal value m and falls linearly to u.
Every fuzzy quantity in the Delphi and AHP pipelines is carried as a TFN.
"""
from __future__ import annotations

import math
from collections import namedtuple
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import ValidationError


class ValidationMode(Enum):
    """How containers treat malformed cells: fail fast, or record and continue."""

    STRICT = "strict"
    LENIENT = "lenient"

    @classmethod
    def parse(cls, text: str) -> "ValidationMode":
        if not isinstance(text, str):
            raise ValidationError(f"validation mode must be a string, got {text!r}")
        try:
            return cls(text.lower())
        except ValueError:
            raise ValidationError(
                f"unknown validation mode {text!r}; expected 'strict' or 'lenient'"
            ) from None


class ValidationWarning(NamedTuple):
    """A single recorded violation from lenient-mode validation."""

    code: str
    location: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.location}: {self.message}"


def _component(name: str, v: object) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ValidationError(f"TFN component {name} must be a real number, got {v!r}")
    try:
        v = float(v)
    except OverflowError:
        raise ValidationError(
            f"TFN component {name} must be finite, got an integer too large for a float"
        ) from None
    if not math.isfinite(v):
        raise ValidationError(f"TFN component {name} must be finite, got {v!r}")
    return v


class TriangularFuzzyNumber(namedtuple("TriangularFuzzyNumber", "l m u")):
    """Immutable float triple (l, m, u). All components must be finite.

    A tuple subclass: it unpacks, indexes, hashes and compares like the plain
    tuple of its floats, so hot loops read components with `l, m, u = t`.
    Ints are coerced to float; bools, other types and non-finite values raise.

    Monotonicity (l <= m <= u) is a contextual requirement: containers enforce
    it per their validation mode, so a lenient container can hold a raw
    non-monotone triple exactly as supplied.
    """

    __slots__ = ()

    def __new__(cls, l: float, m: float, u: float) -> "TriangularFuzzyNumber":
        # a float sum is finite only if every term is; else check one by one
        if not (type(l) is type(m) is type(u) is float and math.isfinite(l + m + u)):
            l, m, u = map(_component, "lmu", (l, m, u))
        return tuple.__new__(cls, (l, m, u))

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> "TriangularFuzzyNumber":
        # namedtuple's _make and _replace would otherwise skip validation
        return cls(*iterable)

    def __add__(self, other: object) -> "TriangularFuzzyNumber":
        return NotImplemented  # tuple + and * would concatenate or repeat components

    __mul__ = __rmul__ = __add__

    @property
    def is_monotone(self) -> bool:
        return self.l <= self.m <= self.u

    @property
    def is_nonnegative(self) -> bool:
        return self.l >= 0 and self.m >= 0 and self.u >= 0

    def __str__(self) -> str:
        return f"({self.l:g}, {self.m:g}, {self.u:g})"


TFN = TriangularFuzzyNumber

UNIT_TFN = TFN(1.0, 1.0, 1.0)


def tfn_multiply(a: TFN, b: TFN) -> TFN:
    """Componentwise product (the standard TFN approximation).

    Only monotone-safe for nonnegative operands, so negatives are rejected.
    """
    if not (a.is_nonnegative and b.is_nonnegative):
        raise ValidationError(f"TFN product requires nonnegative components: {a} * {b}")
    return TFN(a.l * b.l, a.m * b.m, a.u * b.u)


def tfn_reciprocal(t: TFN) -> TFN:
    """Reciprocal (1/u, 1/m, 1/l); order reversed so the result stays a valid TFN."""
    l, m, u = t
    if l <= 0 or m <= 0 or u <= 0:
        raise ValidationError(f"TFN reciprocal requires strictly positive components, got {t}")
    return TFN(1.0 / u, 1.0 / m, 1.0 / l)


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of nonnegative reals, zero if any factor is zero.

    Computed through the mean of logarithms; math.fsum makes the result
    independent of input order bit-for-bit. The result is clamped to
    [min(values), max(values)] to absorb exp/log rounding at the boundary.
    """
    vals = list(map(float, values))
    if not vals:
        raise ValidationError("geometric mean of an empty sequence")
    lo, hi = min(vals), max(vals)
    if lo < 0:
        first = next(v for v in vals if v < 0)
        raise ValidationError(f"geometric mean requires nonnegative values, got {first}")
    if len(vals) == 1:
        return vals[0]
    if lo == 0.0:
        return 0.0
    g = math.exp(math.fsum(map(math.log, vals)) / len(vals))
    return min(max(g, lo), hi)


def aggregate_min_geo_max(opinions: Iterable[TFN]) -> TFN:
    """Aggregate a panel of opinions: (min of l, geometric mean of m, max of u)."""
    ops = list(opinions)
    if not ops:
        raise ValidationError("cannot aggregate an empty panel")
    ls, ms, us = zip(*ops)
    return TFN(min(ls), geometric_mean(ms), max(us))


def centroid_defuzzify(t: TFN) -> float:
    """Center-of-gravity defuzzification: (l + m + u) / 3."""
    l, m, u = t
    return (l + m + u) / 3.0
