"""Samples, order-statistic conventions, and regions on the real line.

A confidence region here is a finite union of disjoint intervals.  Regions
built from order statistics use half-open pieces ``[lo, hi)``; the classical
interval procedures produce a single closed interval ``[lo, hi]``.  Both kinds
carry a ``closed_hi`` marker per interval so membership is unambiguous.

Order-statistic indexing is 1-based with two sentinel conventions:
``order_stat(0) == -inf`` and ``order_stat(n + 1) == +inf``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

__all__ = [
    "SortedSample",
    "make_sample",
    "midpoint",
    "Interval",
    "Region",
    "region_from_gamma0",
    "json_float",
]


def midpoint(a, b):
    """The midpoint of two floats, or elementwise of two arrays, never overflowing.

    It is 0.5 * (a + b) wherever that is finite.  Where a + b overflows, both
    halves are exact and 0.5 * a + 0.5 * b rounds once.  Two floats stay plain
    float arithmetic, and neither path warns on the overflow.
    """
    if isinstance(a, np.ndarray):
        with np.errstate(over="ignore"):
            mid = 0.5 * (a + b)
        over = np.isinf(mid)
        return np.where(over, 0.5 * a + 0.5 * b, mid) if over.any() else mid
    mid = 0.5 * (a + b)
    return mid if math.isfinite(mid) else 0.5 * a + 0.5 * b


@dataclass(frozen=True)
class SortedSample:
    """An observed sample, stored in ascending order.

    ``array`` holds the same values as a read-only float64 array for numpy
    work; it is built from ``values`` when not given.
    """

    values: tuple[float, ...]
    array: np.ndarray | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.array is None:
            arr = np.array(self.values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, "array", arr)

    def __reduce__(self):
        # Rebuilt from the values, so a copy's array is read-only too.
        return SortedSample, (self.values,)

    @property
    def n(self) -> int:
        return len(self.values)

    def order_stat(self, k: int) -> float:
        """k-th order statistic, 1-based; k=0 yields -inf, k=n+1 yields +inf."""
        if k == 0:
            return -math.inf
        if k == self.n + 1:
            return math.inf
        if not 1 <= k <= self.n:
            raise ValueError(f"order statistic index must be in 0..{self.n + 1}, got {k}")
        return self.values[k - 1]

    @property
    def median(self) -> float:
        mid = self.n // 2
        if self.n % 2:
            return self.values[mid]
        return midpoint(self.values[mid - 1], self.values[mid])


def make_sample(data: Iterable[float]) -> SortedSample:
    """Validate and sort raw observations into a SortedSample.

    Rejects empty input and non-finite values.  Ties are allowed; procedures
    that cannot tolerate them raise their own errors.
    """
    arr = np.asarray(list(data), dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("data must be a non-empty one-dimensional collection")
    if not np.all(np.isfinite(arr)):
        raise ValueError("data must be finite")
    arr = np.sort(arr)
    arr.flags.writeable = False
    return SortedSample(tuple(arr.tolist()), arr)


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float
    closed_hi: bool = False

    def contains(self, point: float) -> bool:
        if self.closed_hi:
            return self.lo <= point <= self.hi
        return self.lo <= point < self.hi

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def token(self) -> str:
        """``[lo:hi)`` or ``[lo:hi]``; the colon keeps the token one CSV field."""
        close = "]" if self.closed_hi else ")"
        return f"[{float(self.lo)!r}:{float(self.hi)!r}{close}"


def json_float(x: float) -> float | str:
    """``x`` itself when finite, else the token "inf" or "-inf": JSON has no infinity."""
    return x if math.isfinite(x) else repr(float(x))


@dataclass(frozen=True)
class Region:
    """A disjoint, ascending union of intervals (possibly empty).

    Construction normalizes nothing; use the factory helpers which guarantee
    the invariants (every interval nonempty, strictly separated, ascending).
    """

    intervals: tuple[Interval, ...] = ()

    @property
    def content(self) -> float:
        """Total Lebesgue measure; +inf if any piece is unbounded."""
        return sum((iv.length for iv in self.intervals), start=0.0)

    def contains(self, point: float) -> bool:
        return any(iv.contains(point) for iv in self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def shifted(self, c: float) -> "Region":
        return Region(tuple(Interval(iv.lo + c, iv.hi + c, iv.closed_hi)
                            for iv in self.intervals))

    def to_strings(self) -> list[str]:
        """Interval tokens, one per piece; finite endpoints are written with repr."""
        return [iv.token() for iv in self.intervals]

    def to_jsonable(self) -> list[dict]:
        return [{"lo": json_float(iv.lo), "hi": json_float(iv.hi), "closed_hi": iv.closed_hi}
                for iv in self.intervals]


def region_from_gamma0(sample: SortedSample, k_set: Iterable[int]) -> Region:
    """Region whose membership indicator is {count of x_i <= point} in k_set.

    Each admitted count k contributes the spacing [x_(k), x_(k+1)); runs of
    consecutive counts merge into one interval.  k = 0 opens the region at
    -inf and k = n closes it at +inf.  With tied observations, zero-width
    pieces vanish and abutting pieces merge, so the invariants still hold.
    """
    n = sample.n
    ks = sorted({int(k) for k in k_set})
    if ks and (ks[0] < 0 or ks[-1] > n):
        raise ValueError(f"k_set must be within 0..{n}, got {ks}")
    # x[k] is the k-th order statistic with both sentinels, as order_stat(k).
    x = (-math.inf, *sample.values, math.inf)
    intervals: list[Interval] = []
    last = len(ks) - 1
    start = 0
    for i, k in enumerate(ks):
        if i < last and ks[i + 1] == k + 1:
            continue
        lo, hi = x[ks[start]], x[k + 1]
        start = i + 1
        if lo < hi:
            if intervals and intervals[-1].hi == lo:
                intervals[-1] = Interval(intervals[-1].lo, hi)
            else:
                intervals.append(Interval(lo, hi))
    return Region(tuple(intervals))
