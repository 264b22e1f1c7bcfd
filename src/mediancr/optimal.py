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

Four region procedures build on the selection: two fixed profiles (uniform
shape and exponential shape) and two adaptive ones that estimate the profile
from the observed sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .distributions import binom_counts
from .errors import InfeasibleLevelError
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
    "cr_symmetric_focused",
    "cr_exponential_focused",
    "cr_adaptive_mom",
    "cr_adaptive_edf",
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


def _ratio_groups(profile: LkProfile) -> list[tuple[float, list[int]]]:
    """Equal-ratio groups with positive ratio, ordered by decreasing ratio."""
    if profile.is_exact:
        by_val: dict[int, list[int]] = {}
        for k, rv in enumerate(profile.exact_ratio):
            if rv > 0:
                by_val.setdefault(rv, []).append(k)
        return [(float(profile.ratio[ks[0]]), ks)
                for rv, ks in sorted(by_val.items(), key=lambda t: -t[0])]
    order = sorted((k for k in range(profile.n + 1) if profile.ratio[k] > 0.0),
                   key=lambda k: (-profile.ratio[k], k))
    groups: list[tuple[float, list[int]]] = []
    for k in order:
        r = profile.ratio[k]
        if groups:
            head = groups[-1][0]
            same = (math.isinf(head) and math.isinf(r)) or (
                math.isfinite(head) and abs(head - r) <= RATIO_TIE_RTOL * head
            )
            if same:
                groups[-1][1].append(k)
                continue
        groups.append((r, [k]))
    return groups


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
    target = (1 - Fraction(alpha)) * scale
    groups = _ratio_groups(profile)

    included: list[int] = []
    cum = 0
    tie_ratio = 0.0
    tie_ks: list[int] = []
    for ratio, ks in groups:
        mass = sum(counts[k] for k in ks)
        if cum + mass <= target:
            included.extend(ks)
            cum += mass
        else:
            tie_ratio, tie_ks = ratio, ks
            break

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
    tie_mass = sum(counts[k] for k in tie_ks)
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
        raise ValueError(
            f"selection was built for n = {selection.n}, sample has n = {sample.n}"
        )
    ks = selection.included | (selection.tie_set if u <= selection.gamma else frozenset())
    return region_from_gamma0(sample, ks)


def conservative_region(sample: SortedSample, selection: Gamma0Selection) -> Region:
    """Non-randomized envelope: always admit the tie group."""
    if sample.n != selection.n:
        raise ValueError(
            f"selection was built for n = {selection.n}, sample has n = {sample.n}"
        )
    return region_from_gamma0(sample, selection.included | selection.tie_set)


@lru_cache(maxsize=None)
def _uniform_selection(n: int, alpha: float) -> Gamma0Selection:
    return select_gamma0(lk_uniform(n), alpha)


@lru_cache(maxsize=None)
def _exponential_selection(n: int, alpha: float) -> Gamma0Selection:
    return select_gamma0(lk_exponential(n), alpha)


def symmetric_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the uniform-shape profile; it depends on (n, alpha) alone."""
    return _uniform_selection(sample.n, alpha)


def exponential_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the exponential-shape profile; it depends on (n, alpha) alone."""
    return _exponential_selection(sample.n, alpha)


def adaptive_mom_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the observed-spacings profile.  Requires n >= 3."""
    if sample.n < 3:
        raise ValueError(f"need n >= 3, got {sample.n}")
    return select_gamma0(lk_mom(sample), alpha)


def adaptive_edf_selection(sample: SortedSample, alpha: float) -> Gamma0Selection:
    """Selection under the empirical-CDF plug-in profile.  Requires n >= 3."""
    if sample.n < 3:
        raise ValueError(f"need n >= 3, got {sample.n}")
    return select_gamma0(lk_edf(sample), alpha)


def cr_symmetric_focused(sample: SortedSample, alpha: float, u: float) -> Region:
    """Randomized region tuned to flat spacing profiles (uniform shape).

    The selection depends only on (n, alpha): ratios follow the binomial
    coefficients, so counts enter symmetrically from the center outward and
    the realized region is one interval between mirrored order statistics.
    """
    return assemble_region(sample, symmetric_selection(sample, alpha), u)


def cr_exponential_focused(sample: SortedSample, alpha: float, u: float) -> Region:
    """Randomized region tuned to exponential-shape spacing profiles."""
    return assemble_region(sample, exponential_selection(sample, alpha), u)


def cr_adaptive_mom(sample: SortedSample, alpha: float, u: float) -> Region:
    """Adaptive randomized region using observed spacings as the profile.

    Boundary counts carry ratio 0, so the attainable level is capped at
    P{1 <= B <= n - 1} = 1 - 2^(1-n); levels beyond that raise
    InfeasibleLevelError.  Requires n >= 3 and untied observations.
    """
    return assemble_region(sample, adaptive_mom_selection(sample, alpha), u)


def cr_adaptive_edf(sample: SortedSample, alpha: float, u: float) -> Region:
    """Adaptive randomized region using the empirical-CDF plug-in profile.

    All estimated spacings are finite, so boundary counts may be admitted and
    the realized region can be unbounded.  Requires n >= 3.
    """
    return assemble_region(sample, adaptive_edf_selection(sample, alpha), u)
