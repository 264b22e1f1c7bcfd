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
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SortedSample",
    "make_sample",
    "Interval",
    "Region",
    "region_from_gamma0",
    "region_from_strings",
]


@dataclass(frozen=True)
class SortedSample:
    """An observed sample stored in ascending order."""

    values: tuple[float, ...]

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
        return 0.5 * (self.values[mid - 1] + self.values[mid])

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


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
    return SortedSample(tuple(np.sort(arr).tolist()))


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
        return f"[{_fmt_endpoint(self.lo)}:{_fmt_endpoint(self.hi)}{close}"


def _fmt_endpoint(x: float) -> str:
    if x == -math.inf:
        return "-inf"
    if x == math.inf:
        return "inf"
    return repr(float(x))


def _parse_endpoint(tok: str) -> float:
    if tok == "-inf":
        return -math.inf
    if tok == "inf":
        return math.inf
    return float(tok)


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
        """Serialize to interval tokens; round-trips bit-exactly."""
        return [iv.token() for iv in self.intervals]

    def to_jsonable(self) -> list[dict]:
        out = []
        for iv in self.intervals:
            lo = iv.lo if math.isfinite(iv.lo) else _fmt_endpoint(iv.lo)
            hi = iv.hi if math.isfinite(iv.hi) else _fmt_endpoint(iv.hi)
            out.append({"lo": lo, "hi": hi, "closed_hi": iv.closed_hi})
        return out


def region_from_strings(tokens: Sequence[str]) -> Region:
    """Parse the output of Region.to_strings back into a Region."""
    ivs = []
    for tok in tokens:
        tok = tok.strip()
        if not (tok.startswith("[") and tok[-1] in ")]"):
            raise ValueError(f"malformed interval token {tok!r}")
        closed = tok[-1] == "]"
        lo_s, hi_s = tok[1:-1].split(":")
        ivs.append(Interval(_parse_endpoint(lo_s), _parse_endpoint(hi_s), closed))
    return Region(tuple(ivs))


def region_from_gamma0(sample: SortedSample, k_set: Iterable[int]) -> Region:
    """Region whose membership indicator is {count of x_i <= point} in k_set.

    Each admitted count k contributes the spacing [x_(k), x_(k+1)); runs of
    consecutive counts merge into one interval.  k = 0 opens the region at
    -inf and k = n closes it at +inf.  With tied observations, zero-width
    pieces vanish and abutting pieces merge, so the invariants still hold.
    """
    n = sample.n
    ks = sorted(set(int(k) for k in k_set))
    if ks and (ks[0] < 0 or ks[-1] > n):
        raise ValueError(f"k_set must be within 0..{n}, got {ks}")
    intervals: list[Interval] = []
    i = 0
    while i < len(ks):
        j = i
        while j + 1 < len(ks) and ks[j + 1] == ks[j] + 1:
            j += 1
        lo = sample.order_stat(ks[i])
        hi = sample.order_stat(ks[j] + 1)
        if lo < hi:
            if intervals and intervals[-1].hi == lo:
                intervals[-1] = Interval(intervals[-1].lo, hi)
            else:
                intervals.append(Interval(lo, hi))
        i = j + 1
    return Region(tuple(intervals))
