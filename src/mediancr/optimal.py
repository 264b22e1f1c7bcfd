"""Minimum-expected-content randomized regions for the median.

Given a spacing profile l(0..n), the best level 1 - alpha region that is
equivariant under location shifts and monotone transforms admits a knapsack
description: rank the counts k by the ratio r(k) = b(k; n, 1/2) / l(k), admit
whole equal-ratio groups while the admitted binomial mass stays within
1 - alpha, and randomize over the first group that would overshoot.  The
randomization weight gamma is chosen so the coverage identity

    P{B in included} + gamma * P{B in tie_set} = 1 - alpha

holds exactly.  Binomial masses are dyadic rationals and the accounting is
done in exact arithmetic, so the identity survives to within one float
rounding.

Four selection builders feed it: two fixed profiles (uniform shape and
exponential shape) and two adaptive ones that estimate the profile from the
observed sample.  ``assemble_region`` realizes a selection for one uniform
draw u; ``methods.METHODS`` pairs each builder with it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain

import numpy as np

from .distributions import binom_counts
from .errors import InfeasibleLevelError, UnsupportedSizeError
from .regions import Region, SortedSample, region_from_gamma0
from .spacings import (
    RATIO_TIE_RTOL,
    LkProfile,
    lk_edf,
    lk_exponential,
    lk_mom,
    lk_uniform,
)

__all__ = [
    "Gamma0Selection",
    "select_gamma0",
    "assemble_region",
    "conservative_region",
    "symmetric_selection",
    "exponential_selection",
    "adaptive_mom_selection",
    "adaptive_edf_selection",
]


@dataclass(frozen=True)
class Gamma0Selection:
    """Result of the ratio-greedy selection at level 1 - alpha.

    ``included`` holds the counts admitted with probability one, ``tie_set``
    the equal-ratio group admitted with probability ``gamma`` (empty when the
    admitted mass alone hits 1 - alpha exactly).  ``c`` is the ratio threshold:
    counts with r(k) > c are in, counts with r(k) == c are the tie group.
    ``p_included`` and ``p_tie`` are the exact group masses as floats.
    """

    n: int
    alpha: float
    included: frozenset[int]
    tie_set: frozenset[int]
    c: float
    gamma: float
    p_included: float
    p_tie: float


def _ratio_groups(profile: LkProfile) -> tuple[list[float], list[int], list[int]]:
    """Equal-ratio groups with positive ratio, ordered by decreasing ratio.

    Returns (ratios, ks, ends): ``ks`` lists the counts group after group,
    group g is ks[ends[g - 1]:ends[g]] (from 0 for g = 0) and ratios[g] is
    its ratio.
    """
    if profile.is_exact:
        by_val: dict[int, list[int]] = {}
        for k, rv in enumerate(profile.exact_ratio):
            if rv > 0:
                by_val.setdefault(rv, []).append(k)
        groups = [ks for _, ks in sorted(by_val.items(), key=lambda t: -t[0])]
        return ([float(profile.ratio[ks[0]]) for ks in groups],
                list(chain.from_iterable(groups)), list(accumulate(map(len, groups))))
    ratio = np.array(profile.ratio)
    # Decreasing ratio, ties by count; the zero (and nan) ratios sort last.
    order = np.argsort(-ratio, kind="stable")[:np.count_nonzero(ratio > 0.0)]
    desc = ratio[order]
    ks, rs = order.tolist(), desc.tolist()
    # Sorted, so head - r >= 0 below; every ratio is finite when the first is.
    if not rs or (math.isfinite(rs[0]) and not (
            desc[:-1] - desc[1:] <= RATIO_TIE_RTOL * desc[:-1]).any()):
        # Each ratio is outside the tolerance of the one before it, so the
        # loop below would start a new group at every count.
        return rs, ks, list(range(1, len(ks) + 1))
    ratios: list[float] = []
    ends: list[int] = []
    for i, r in enumerate(rs):
        if ratios:
            head = ratios[-1]
            same = (math.isinf(head) and math.isinf(r)) or (
                math.isfinite(head) and abs(head - r) <= RATIO_TIE_RTOL * head
            )
            if same:
                ends[-1] = i + 1
                continue
        ratios.append(r)
        ends.append(i + 1)
    return ratios, ks, ends


@lru_cache(maxsize=None)
def _target(n: int, alpha: float) -> tuple[Fraction, int]:
    """The exact coverage target (1 - alpha) * 2**n and its floor."""
    target = (1 - Fraction(alpha)) * (1 << n)
    return target, math.floor(target)


def select_gamma0(profile: LkProfile, alpha: float) -> Gamma0Selection:
    """Choose the admitted counts and randomization weight at level 1 - alpha.

    Parameters
    ----------
    profile : LkProfile
        Spacing profile; counts with infinite spacing (ratio 0) are never
        admitted.
    alpha : float
        Miscoverage level in (0, 1).

    Raises
    ------
    InfeasibleLevelError
        If even admitting every positive-ratio count leaves coverage short of
        1 - alpha.  The error carries the maximum attainable level.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    n = profile.n
    # Masses are integer counts over 2**n, so the accounting below is exact.
    counts = binom_counts(n)
    scale = 1 << n
    target, floor_target = _target(n, alpha)
    ratios, ks, ends = _ratio_groups(profile)
    running = list(accumulate(map(counts.__getitem__, ks)))
    # Masses are positive, so the running mass rises and the admitted groups are
    # those that end where it is still <= target; it is an integer, so exactly
    # where it is <= floor(target).
    admitted = bisect_right(ends, bisect_right(running, floor_target))
    start = ends[admitted - 1] if admitted else 0
    included = ks[:start]
    cum = running[start - 1] if start else 0
    if admitted < len(ends):
        tie_ratio, tie_ks = ratios[admitted], ks[start:ends[admitted]]
    else:
        tie_ratio, tie_ks = 0.0, []

    if not tie_ks and cum < target:
        raise InfeasibleLevelError(
            requested=1.0 - alpha,
            attainable=cum / scale,
            detail="every count with a finite spacing is already admitted",
        )

    remainder = target - cum
    if remainder == 0:
        # Natural confidence coefficient: the admitted mass alone is exact.
        return Gamma0Selection(
            n=n, alpha=alpha,
            included=frozenset(included), tie_set=frozenset(),
            c=tie_ratio, gamma=0.0,
            p_included=cum / scale, p_tie=0.0,
        )
    tie_mass = running[ends[admitted] - 1] - cum
    gamma = float(remainder / tie_mass)
    return Gamma0Selection(
        n=n, alpha=alpha,
        included=frozenset(included), tie_set=frozenset(tie_ks),
        c=tie_ratio, gamma=gamma,
        p_included=cum / scale, p_tie=tie_mass / scale,
    )


def assemble_region(sample: SortedSample, selection: Gamma0Selection, u: float) -> Region:
    """Realize the randomized region for one uniform draw u.

    The tie group enters exactly when u <= gamma, so over repeated draws the
    coverage identity is met with equality.
    """
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"u must be in [0, 1], got {u}")
    if sample.n != selection.n:
        raise ValueError(f"selection was built for n = {selection.n}, sample has n = {sample.n}")
    ks = selection.included | (selection.tie_set if u <= selection.gamma else frozenset())
    return region_from_gamma0(sample, ks)


def conservative_region(sample: SortedSample, selection: Gamma0Selection) -> Region:
    """Non-randomized envelope: always admit the tie group (the region at u = 0)."""
    return assemble_region(sample, selection, 0.0)


@lru_cache(maxsize=None)
def _uniform_selection(n: int, alpha: float) -> Gamma0Selection:
    return select_gamma0(lk_uniform(n), alpha)


@lru_cache(maxsize=None)
def _exponential_selection(n: int, alpha: float) -> Gamma0Selection:
    return select_gamma0(lk_exponential(n), alpha)


def symmetric_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the uniform-shape profile; it depends on (n, alpha) alone.

    Ratios follow the binomial coefficients, so counts enter symmetrically
    from the center outward and the realized region is one interval between
    mirrored order statistics.  Every ratio is positive: any level is feasible.
    """
    return _uniform_selection(sample.n, alpha)


def exponential_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the exponential-shape profile; it depends on (n, alpha) alone."""
    return _exponential_selection(sample.n, alpha)


def adaptive_mom_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the observed-spacings profile.  Requires n >= 3.

    Boundary counts carry ratio 0, so the attainable level is capped at
    P{1 <= B <= n - 1} = 1 - 2^(1-n); levels beyond that raise
    InfeasibleLevelError.  Tied observations leave a zero spacing, which the
    profile refuses (DegenerateDataError).
    """
    if sample.n < 3:
        raise ValueError(f"need n >= 3, got {sample.n}")
    return select_gamma0(lk_mom(sample), alpha)


def adaptive_edf_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the empirical-CDF plug-in profile.  Requires n >= 3.

    Boundary counts may be admitted, so the realized region can be unbounded.
    A spacing estimate that is not finite raises UnsupportedSizeError.
    """
    if sample.n < 3:
        raise ValueError(f"need n >= 3, got {sample.n}")
    profile = lk_edf(sample)
    if not all(map(math.isfinite, profile.l)):
        raise UnsupportedSizeError("spacing estimate not finite: data spread outside the float range")
    return select_gamma0(profile, alpha)
