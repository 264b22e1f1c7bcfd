"""Classical confidence procedures for the median.

Nine standard competitors: the t interval (a mean procedure, included as the
conventional default), the Wilcoxon signed-rank interval on Walsh averages,
the exact sign (order-statistic) region, the asymptotic median interval with
a kernel density estimate at the median, and five bootstrap intervals (basic,
bootstrap-SE with a t quantile, percentile, bias-corrected as BCa with a = 0,
and BCa, whose acceleration a is a closed form in the spacings at the median).

Interval procedures return a single closed interval; the order-statistic
constructions return half-open regions so they compose with the count-based
membership rule.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import (
    RngStream,
    _signed_rank_cdf_count,
    norm_cdf,
    norm_quantile,
    signed_rank_null_cdf,
    t_quantile,
)
from .errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from .optimal import conservative_region, symmetric_selection
from .regions import Interval, Region, SortedSample, midpoint

__all__ = [
    "ClampedProbabilityWarning",
    "cr_t",
    "cr_wilcoxon",
    "cr_sign",
    "kde_at_median",
    "cr_asymp_median",
    "BootstrapDistribution",
    "bootstrap_medians",
    "jackknife_acceleration",
    "cr_bootstrap",
]

BOOTSTRAP_VARIANTS = ("basic", "se", "percentile", "bc", "bca")


class ClampedProbabilityWarning(UserWarning):
    """A bootstrap tail probability was clamped away from 0 or 1."""


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


def _upper_p(alpha: float) -> float:
    """1 - alpha/2, whose normal or t quantile is finite: alpha <= 2^-53 rounds it to 1."""
    p = 1.0 - alpha / 2.0
    if p == 1.0:
        raise InfeasibleLevelError(requested=1.0 - alpha, attainable=1.0 - 2.0 ** -53,
                                   detail="alpha must exceed 2^-53, or 1 - alpha/2 rounds to 1")
    return p


def _closed(lo: float, hi: float) -> Region:
    """[lo, hi]; an infinite or nan endpoint is an overflowed estimate."""
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise UnsupportedSizeError(f"interval [{lo!r}, {hi!r}]: "
                                   "the data's spread is outside the float range")
    return Region((Interval(float(lo), float(hi), closed_hi=True),))


def cr_t(sample: SortedSample, alpha: float) -> Region:
    """Mean +- t quantile times the standard error, as a closed interval.

    Zero sample variance collapses the interval to the single point at the
    common value.  Requires n >= 2.
    """
    _check_alpha(alpha)
    n = sample.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(np.mean(sample.array))
    sd = sample.sd
    if sd == 0.0:
        return _closed(mean, mean)
    half = t_quantile(_upper_p(alpha), n - 1) * sd / math.sqrt(n)
    return _closed(mean - half, mean + half)


@lru_cache(maxsize=None)
def _lower_cutoff(n: int, alpha: float) -> int:
    """Largest w in 0..top = n(n+1)/2 with P{W+ <= w} <= alpha/2 exactly, or -1.

    The null law is symmetric, so 1 - CDF(w) = CDF(top - 1 - w) exactly and the
    upper cutoff is top - 1 - k1.  Searched once per (n, alpha) by bisection on
    the correctly rounded CDF.  Rounding is monotone, so a float above or below
    alpha/2 is decided; only a float equal to alpha/2 (a natural level) is
    decided by the exact count.
    """
    half, exact_half = alpha / 2.0, Fraction(alpha) / 2

    def above(w: int) -> bool:
        cdf = signed_rank_null_cdf(w, n)
        return cdf > half or (cdf == half
                              and Fraction(_signed_rank_cdf_count(n, w), 1 << n) > exact_half)

    return bisect.bisect_left(range(n * (n + 1) // 2 + 1), True, key=above) - 1


@lru_cache(maxsize=None)
def _triu_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n)``, read-only so that every caller can share it."""
    i, j = np.triu_indices(n)
    i.flags.writeable = False
    j.flags.writeable = False
    return i, j


def cr_wilcoxon(sample: SortedSample, alpha: float) -> Region:
    """Signed-rank region: a half-open window of ordered Walsh averages.

    With N = n(n+1)/2 Walsh averages W_(1) <= ... <= W_(N) and the exact null
    CDF of the signed-rank statistic, the region is [W_(k1+1), W_(N-k1)) where
    k1 is the largest w with CDF(w) <= alpha/2; a window of zero width is
    empty.  Levels beyond 1 - 2^(1-n) are infeasible.
    """
    _check_alpha(alpha)
    n = sample.n
    if n < 1:
        raise ValueError("need at least one observation")
    if 0.5 ** n > alpha / 2.0:
        raise InfeasibleLevelError(
            requested=1.0 - alpha,
            attainable=1.0 - 2.0 ** (1 - n),
            detail="signed-rank window undefined at this level",
        )
    top = n * (n + 1) // 2
    # CDF(0) = 2^-n <= alpha/2 here, so k1 >= 0 and k2 < top: both ends are Walsh averages.
    k1 = _lower_cutoff(n, alpha)
    k2 = top - 1 - k1
    # Halving first cannot overflow, and gives the same floats as (x_i + x_j) / 2
    # for all data but subnormals.
    half = sample.array * 0.5
    i, j = _triu_pair(n)
    walsh = half[i] + half[j]
    # Only the two window ends are needed, not the whole sorted Walsh sample.
    walsh = np.partition(walsh, (k1, k2))
    lo = float(walsh[k1])
    hi = float(walsh[k2])
    return Region((Interval(lo, hi),)) if lo < hi else Region()


def cr_sign(sample: SortedSample, alpha: float) -> Region:
    """Exact count-based region between mirrored order statistics.

    The non-randomized envelope of method 10: [x_(k1+1), x_(n-k1)) with k1
    the largest count with P{B <= k1} <= alpha/2, compared in exact integers
    (k1 = -1 when none, giving the whole line).  Never infeasible.
    """
    return conservative_region(sample, symmetric_selection(sample, alpha))


def _quartile(sample: SortedSample, q: float) -> float:
    """``np.percentile(sample, 100 * q)`` for q in {0.25, 0.75}, read off the sorted values.

    The same float operations as numpy's default linear method: the virtual
    index (n - 1) * q is exact, and its ``_lerp`` takes whichever of its two
    interpolation formulas is exact at the nearer end.
    """
    v = (sample.n - 1) * q
    lo = math.floor(v)
    t = v - lo
    a, b = sample.values[lo], sample.values[lo + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def kde_at_median(sample: SortedSample) -> float:
    """Gaussian kernel density estimate evaluated at the sample median.

    Bandwidth h = 0.9 * min(sd, IQR / 1.34) * n^(-1/5).  A zero bandwidth
    (no spread on the chosen scale) is degenerate; an estimate that is not
    positive and finite means the spread is outside the float range.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    iqr = _quartile(sample, 0.75) - _quartile(sample, 0.25)
    h = 0.9 * min(sample.sd, iqr / 1.34) * n ** (-0.2)
    if h <= 0.0:
        raise DegenerateDataError("zero bandwidth: sample has no usable spread")
    # Past the float range z or f_hat is inf or nan, which the check below refuses.
    with np.errstate(over="ignore", invalid="ignore"):
        z = (sample.median - sample.array) / h
        f_hat = float(np.mean(np.exp(-0.5 * z * z)) / (h * math.sqrt(2.0 * math.pi)))
    if not 0.0 < f_hat < math.inf:
        raise UnsupportedSizeError(f"density estimate {f_hat!r} (bandwidth {h!r}): "
                                   "the data's spread is outside the float range")
    return f_hat


def cr_asymp_median(sample: SortedSample, alpha: float) -> Region:
    """Large-sample interval: median +- z / (2 sqrt(n) f_hat(median))."""
    _check_alpha(alpha)
    f_hat = kde_at_median(sample)
    half = norm_quantile(_upper_p(alpha)) / (2.0 * math.sqrt(sample.n) * f_hat)
    m = sample.median
    return _closed(m - half, m + half)


@dataclass(frozen=True)
class BootstrapDistribution:
    """Sorted bootstrap medians plus the observed sample median.

    ``medians`` is a SortedSample: its ``values`` tuple, read-only ``array``
    and cached ``sd`` serve the quantiles, the CDF and method 6's standard
    error.
    """

    medians: SortedSample
    observed_median: float

    @property
    def breps(self) -> int:
        return self.medians.n

    def quantile(self, p: float) -> float:
        """Ceiling-index empirical quantile: the ceil(p * B)-th order statistic."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {p}")
        idx = max(math.ceil(p * self.breps), 1)
        return self.medians.values[idx - 1]

    def cdf_at(self, x: float) -> float:
        """Fraction of bootstrap medians at or below x."""
        return bisect.bisect_right(self.medians.values, x) / self.breps


def bootstrap_medians(sample: SortedSample, breps: int, rng: RngStream) -> BootstrapDistribution:
    """Medians of ``breps`` with-replacement resamples, deterministic in rng.

    The resample indices are ``rng.generator().integers(0, n, size=(breps, n),
    dtype=np.int32)``: each is floor(w * n / 2**32) of an accepted 32-bit word
    w (``RngStream.bounded_words``).  That map is nondecreasing in w, so
    sorting a row of words sorts its indices; the values are ascending, so a
    resample's median sits at the middle column(s) of its sorted row, and only
    those words are mapped.  No resampled values are gathered.
    """
    if breps < 1:
        raise ValueError(f"breps must be >= 1, got {breps}")
    n = sample.n
    arr = sample.array
    words = rng.bounded_words(n, breps * n).reshape(breps, n)
    words.sort(axis=1)
    mid = n // 2

    def column(j: int) -> np.ndarray:
        return arr[(words[:, j].astype(np.uint64) * n) >> 32]

    # Summed from +0.0 as np.median does: -0.0 data give 0.0, an underflowed mean -0.0.
    med = 0.0 + column(mid) if n % 2 else midpoint(0.0 + column(mid - 1), column(mid))
    med = np.sort(med)
    med.flags.writeable = False
    return BootstrapDistribution(SortedSample(tuple(med.tolist()), med), sample.median)


def jackknife_acceleration(sample: SortedSample) -> float:
    """Acceleration constant sum(d^3) / (6 * (sum(d^2))^(3/2)) from leave-one-out medians.

    d_i are the deviations of the leave-one-out medians from their mean.  At
    even n those medians are two values, m times each, so a = 0.  At odd
    n = 2m + 1 they are three values, m, 1 and m times, and with l and u the
    spacings just below and just above the median, scaled by max(l, u),

        a = (u - l) (m (l^2 + 4lu + u^2) + l^2 + lu + u^2)
            / (6 sqrt(m n) (m (l + u)^2 + l^2 + u^2)^(3/2)),

    with |a| <= 1 / (6 sqrt(m n (m + 1))), reached where l or u is 0.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n % 2 == 0:
        return 0.0
    x = sample.values
    m = n // 2
    lo, up = x[m] - x[m - 1], x[m + 1] - x[m]
    if math.isinf(lo) or math.isinf(up):
        # Halving first keeps them finite; it is not the first try, being inexact on subnormals.
        lo, up = 0.5 * x[m] - 0.5 * x[m - 1], 0.5 * x[m + 1] - 0.5 * x[m]
    g = max(lo, up)
    if g == 0.0:
        return 0.0
    lo, up = lo / g, up / g
    num = (up - lo) * (m * (lo * lo + 4.0 * lo * up + up * up) + lo * lo + lo * up + up * up)
    return num / (6.0 * math.sqrt(m * n) * (m * (lo + up) ** 2 + lo * lo + up * up) ** 1.5)


def _clamped_p0(boot: BootstrapDistribution) -> float:
    p0 = boot.cdf_at(boot.observed_median)
    lo = 1.0 / (2.0 * boot.breps)
    hi = 1.0 - lo
    if p0 < lo or p0 > hi:
        warnings.warn(
            "bootstrap tail probability clamped; bias correction is saturated",
            ClampedProbabilityWarning,
            stacklevel=3,
        )
        return min(max(p0, lo), hi)
    return p0


def _reflect(m: float, q: float) -> float:
    """2m - q, finite wherever the result itself is in the float range.

    Where 2.0 * m - q is not finite, 2.0 * (m - 0.5 * q) is the float the
    same formula gives in an unbounded exponent range (halving and doubling
    are exact), so only a result beyond the float range stays infinite.
    """
    r = 2.0 * m - q
    return r if math.isfinite(r) else 2.0 * (m - 0.5 * q)


def cr_bootstrap(
    sample: SortedSample,
    alpha: float,
    boot: BootstrapDistribution,
    variant: str,
) -> Region:
    """One of the five bootstrap intervals, as a closed interval.

    Parameters
    ----------
    sample : SortedSample
        The observed data (used by the BCa jackknife).
    alpha : float
        Miscoverage level.
    boot : BootstrapDistribution
        Precomputed bootstrap medians; share one across variants to compare
        them on identical resamples.
    variant : str
        One of "basic", "se", "percentile", "bc", "bca".
    """
    _check_alpha(alpha)
    if variant not in BOOTSTRAP_VARIANTS:
        raise ValueError(f"variant must be one of {BOOTSTRAP_VARIANTS}, got {variant!r}")
    m = boot.observed_median
    if variant == "basic":
        return _closed(_reflect(m, boot.quantile(1.0 - alpha / 2.0)),
                       _reflect(m, boot.quantile(alpha / 2.0)))
    if variant == "se":
        if sample.n < 2:
            raise ValueError(f"need n >= 2, got {sample.n}")
        if boot.breps < 2:
            raise UnsupportedSizeError(f"the bootstrap standard error needs breps >= 2, "
                                       f"got {boot.breps}")
        se = boot.medians.sd
        if se == 0.0:
            return _closed(m, m)
        half = t_quantile(_upper_p(alpha), sample.n - 1) * se
        return _closed(m - half, m + half)
    if variant == "percentile":
        return _closed(boot.quantile(alpha / 2.0), boot.quantile(1.0 - alpha / 2.0))

    z_hi = norm_quantile(_upper_p(alpha))
    z_lo = norm_quantile(alpha / 2.0)
    z0 = norm_quantile(_clamped_p0(boot))
    # BC is BCa with a = 0.  |a| <= 0.0681, |z| <= 8.3 and |z0| < 6.2 for breps < 1e9,
    # so 1 - a (z0 + z) > 0 and p_lo, p_hi are never nan.
    a = jackknife_acceleration(sample) if variant == "bca" else 0.0
    p_lo = float(norm_cdf(z0 + (z0 + z_lo) / (1.0 - a * (z0 + z_lo))))
    p_hi = float(norm_cdf(z0 + (z0 + z_hi) / (1.0 - a * (z0 + z_hi))))
    return _closed(boot.quantile(p_lo), boot.quantile(p_hi))
