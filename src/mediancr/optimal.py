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

Four selection builders feed it: the two closed forms of
``spacings.FIXED_PROFILES``, cached per (n, alpha), and two adaptive ones
that estimate the profile from the observed sample.  ``assemble_region``
realizes a selection for one uniform draw u; ``methods.METHODS`` pairs each
builder with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .distributions import binom_counts
from .errors import InfeasibleLevelError, UnsupportedSizeError
from .regions import Region, SortedSample, region_from_gamma0
from .spacings import FIXED_PROFILES, RATIO_TIE_RTOL, LkProfile, lk_edf, lk_mom

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


def _ratio_groups(profile: LkProfile) -> Iterator[tuple[float, list[int]]]:
    """Equal-ratio groups with positive ratio, as (ratio, counts), each yielded once complete.

    Counts come in decreasing ratio, ties by count.  A closed-form profile
    groups equal exact ratios; a float profile starts a new group unless the
    count's ratio is within RATIO_TIE_RTOL of the group's first ratio or both
    are infinite.  A group's ratio is the float ratio of its first count.
    """
    exact = profile.is_exact
    key = profile.exact_ratio if exact else profile.ratio
    group: tuple[float, list[int]] | None = None
    positive = (k for k in range(profile.n + 1) if key[k] > 0)
    # A stable sort, reversed, keeps equal keys in increasing count order.
    for k in sorted(positive, key=key.__getitem__, reverse=True):
        # Sorted, so head - key[k] >= 0.
        if group and (key[k] == head or (
                not exact and math.isfinite(head) and head - key[k] <= RATIO_TIE_RTOL * head)):
            group[1].append(k)
        else:
            if group:
                yield group
            head = key[k]
            group = (profile.ratio[k], [k])
    if group:
        yield group


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
    included, cum = [], 0
    tie_ratio, tie_ks = 0.0, []
    for ratio, ks in _ratio_groups(profile):
        mass = sum(map(counts.__getitem__, ks))
        # cum + mass is an integer, so it exceeds target exactly when it
        # exceeds floor(target).
        if cum + mass > floor_target:
            # At a natural confidence coefficient the admitted mass alone is
            # exact and the tie set stays empty.
            tie_ratio, tie_ks = ratio, (ks if cum < target else [])
            break
        included += ks
        cum += mass
    if not tie_ks and cum < target:
        raise InfeasibleLevelError(
            requested=1.0 - alpha,
            attainable=cum / scale,
            detail="every count with a finite spacing is already admitted",
        )
    tie_mass = sum(map(counts.__getitem__, tie_ks))
    return Gamma0Selection(
        n=n, alpha=alpha,
        included=frozenset(included), tie_set=frozenset(tie_ks),
        c=tie_ratio, gamma=float((target - cum) / tie_mass) if tie_ks else 0.0,
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
def _fixed_selection(name: str, n: int, alpha: float) -> Gamma0Selection:
    """The selection under the closed-form profile ``FIXED_PROFILES[name]``."""
    return select_gamma0(FIXED_PROFILES[name](n), alpha)


def symmetric_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the uniform-shape profile; it depends on (n, alpha) alone.

    Ratios follow the binomial coefficients, so counts enter symmetrically
    from the center outward and the realized region is one interval between
    mirrored order statistics.  Every ratio is positive: any level is feasible.
    """
    return _fixed_selection("uniform", sample.n, alpha)


def exponential_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the exponential-shape profile; it depends on (n, alpha) alone."""
    return _fixed_selection("exponential", sample.n, alpha)


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
