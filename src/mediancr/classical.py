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

The t, signed-rank, asymptotic and bootstrap intervals are computed by
batch forms (``*_rows``) over samples held as the rows of a ``SampleRows``
(the signed-rank window over its matrix ``x``): each row's ends, which for a
closed interval are not finite or not ordered where it is refused, and for
the signed-rank window are not ordered where it is empty.  The scalar form
is its batch form on one row, plus the refusals as errors.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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


@dataclass(frozen=True)
class SampleRows:
    """Equal-size samples as the rows of ``x``, with their sorted bootstrap ``medians``
    (row i from ``samples[i]``) and each sample's ``median``."""

    samples: tuple[SortedSample, ...]
    medians: np.ndarray | None = None

    @cached_property
    def x(self) -> np.ndarray:
        return np.stack([s.array for s in self.samples])

    @cached_property
    def median(self) -> np.ndarray:
        return np.array([s.median for s in self.samples])


def _closed(ends: tuple[np.ndarray, np.ndarray]) -> Region:
    """[lo, hi] from a batch form's ends on one row; a nan or infinite end is an overflow."""
    lo, hi = float(ends[0][0]), float(ends[1][0])
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        raise UnsupportedSizeError(f"interval [{lo!r}, {hi!r}]: "
                                   "the data's spread is outside the float range")
    return Region((Interval(lo, hi, closed_hi=True),))


def cr_t(sample: SortedSample, alpha: float) -> Region:
    """Mean +- t quantile times the standard error, as a closed interval.

    Zero sample variance collapses the interval to the single point at the
    common value, at any level.  Requires n >= 2.
    """
    _check_alpha(alpha)
    if sample.n < 2:
        raise ValueError(f"need n >= 2, got {sample.n}")
    return _closed(cr_t_rows(SampleRows((sample,)), alpha))


def cr_t_rows(rows: SampleRows, alpha: float) -> tuple[np.ndarray, ...]:
    """``cr_t`` on every row: its ends as two arrays."""
    x = rows.x
    n = x.shape[1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(x, axis=1)
        sd = np.std(x, axis=1, ddof=1)
        tq = t_quantile(_upper_p(alpha), n - 1) if sd.any() else 0.0
        half = tq * sd / math.sqrt(n)
        # A zero sd is the point interval at the mean, -0.0 included.
        return mean - half, np.where(sd == 0.0, mean, mean + half)


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
    if sample.n < 1:
        raise ValueError("need at least one observation")
    lo, hi = (float(end[0]) for end in cr_wilcoxon_rows(sample.array[None, :], alpha))
    return Region((Interval(lo, hi),)) if lo < hi else Region()


# Walsh averages held at once by cr_wilcoxon_rows, 256 KB: a block of 64 rows
# is 0.6 MB at n = 50 and 10 MB at n = 200.
_WALSH_CHUNK = 1 << 15


def cr_wilcoxon_rows(x: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """``cr_wilcoxon`` on every row of the sorted samples ``x``: the window ends
    W_(k1+1) and W_(N-k1), empty where lo >= hi."""
    n = x.shape[1]
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
    i, j = _triu_pair(n)
    lo, hi = np.empty(len(x)), np.empty(len(x))
    step = max(1, _WALSH_CHUNK // top)
    for r in range(0, len(x), step):
        # Halving first cannot overflow, and gives the same floats as (x_i + x_j) / 2
        # for all data but subnormals.
        half = x[r:r + step] * 0.5
        # np.take along an axis gathers up to twice as fast as half[:, i].
        walsh = np.take(half, i, axis=1)
        walsh += np.take(half, j, axis=1)
        # Only the two window ends are needed, not the whole sorted Walsh sample.
        walsh.partition((k1, k2), axis=1)
        lo[r:r + step], hi[r:r + step] = walsh[:, k1], walsh[:, k2]
    return lo, hi


def cr_sign(sample: SortedSample, alpha: float) -> Region:
    """Exact count-based region between mirrored order statistics.

    The non-randomized envelope of method 10: [x_(k1+1), x_(n-k1)) with k1
    the largest count with P{B <= k1} <= alpha/2, compared in exact integers
    (k1 = -1 when none, giving the whole line).  Never infeasible.
    """
    return conservative_region(sample, symmetric_selection(sample, alpha))


def _quartile(values, q: float):
    """``np.percentile(values, 100 * q)`` for q in {0.25, 0.75}, read off the sorted values.

    The same float operations as numpy's default linear method: the virtual
    index (n - 1) * q is exact, and its ``_lerp`` takes whichever of its two
    interpolation formulas is exact at the nearer end.  Given the transpose
    of a matrix of sorted rows, it gives each row's quartile.
    """
    v = (len(values) - 1) * q
    lo = math.floor(v)
    t = v - lo
    a, b = values[lo], values[lo + 1]
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def _kde_rows(rows: SampleRows) -> tuple[np.ndarray, np.ndarray]:
    """Each row's bandwidth h and its Gaussian kernel density estimate at its median."""
    x, m = rows.x, rows.median
    n = x.shape[1]
    # Past the float range z or the estimate is inf or nan, which the callers refuse.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        scale = (_quartile(x.T, 0.75) - _quartile(x.T, 0.25)) / 1.34
        sd = np.std(x, axis=1, ddof=1)
        # min(sd, scale) as Python takes it: sd unless scale is smaller.
        h = 0.9 * np.where(scale < sd, scale, sd) * n ** (-0.2)
        z = (m[:, None] - x) / h[:, None]
        return h, np.mean(np.exp(-0.5 * z * z), axis=1) / (h * math.sqrt(2.0 * math.pi))


def kde_at_median(sample: SortedSample) -> float:
    """Gaussian kernel density estimate evaluated at the sample median.

    Bandwidth h = 0.9 * min(sd, IQR / 1.34) * n^(-1/5).  A zero bandwidth
    (no spread on the chosen scale) is degenerate; an estimate that is not
    positive and finite means the spread is outside the float range.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    h, f_hat = (float(v[0]) for v in _kde_rows(SampleRows((sample,))))
    if h <= 0.0:
        raise DegenerateDataError("zero bandwidth: sample has no usable spread")
    if not 0.0 < f_hat < math.inf:
        raise UnsupportedSizeError(f"density estimate {f_hat!r} (bandwidth {h!r}): "
                                   "the data's spread is outside the float range")
    return f_hat


def cr_asymp_median(sample: SortedSample, alpha: float) -> Region:
    """Large-sample interval: median +- z / (2 sqrt(n) f_hat(median))."""
    _check_alpha(alpha)
    kde_at_median(sample)  # its refusals, with their own errors, come before the level's
    return _closed(cr_asymp_median_rows(SampleRows((sample,)), alpha))


def cr_asymp_median_rows(rows: SampleRows, alpha: float) -> tuple[np.ndarray, ...]:
    """``cr_asymp_median`` on every row: its ends, nan where ``kde_at_median`` refuses."""
    h, f_hat = _kde_rows(rows)
    zq = norm_quantile(_upper_p(alpha))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        half = zq / (2.0 * math.sqrt(rows.x.shape[1]) * f_hat)
        half[~((h > 0.0) & (0.0 < f_hat) & (f_hat < math.inf))] = math.nan
        # An end beyond the float range is inf, which the callers refuse.
        return rows.median - half, rows.median + half


def bootstrap_medians(sample: SortedSample, breps: int, rng: RngStream) -> np.ndarray:
    """The sorted, read-only float64 medians of ``breps`` with-replacement resamples.

    Row 0 of ``bootstrap_median_rows``, deterministic in rng.  The resample
    indices are ``rng.generator().integers(0, n, size=(breps, n), dtype=np.int32)``:
    each is floor(w * n / 2**32) of an accepted 32-bit word w
    (``RngStream.bounded_words``).  That map is nondecreasing in w, so
    sorting a row of words sorts its indices; the values are ascending, so a
    resample's median sits at the middle column(s) of its sorted row, and only
    those words are mapped.  No resampled values are gathered.
    """
    if breps < 1:
        raise ValueError(f"breps must be >= 1, got {breps}")
    return bootstrap_median_rows((sample,), breps, (rng,))[0]


def bootstrap_median_rows(samples, breps: int, rngs) -> np.ndarray:
    """Row i: the sorted medians of ``bootstrap_medians(samples[i], breps, rngs[i])``.

    The rows are resampled one at a time, so one resample matrix is alive at once.
    """
    out = np.empty((len(samples), breps))
    for row, s, rng in zip(out, samples, rngs):
        row[:] = _resampled_medians(s, breps, rng)
    out.sort(axis=1)
    out.flags.writeable = False
    return out


def _resampled_medians(sample: SortedSample, breps: int, rng: RngStream) -> np.ndarray:
    """The medians of ``bootstrap_medians``, unsorted, in the order of their resamples."""
    n = sample.n
    arr = sample.array
    words = rng.bounded_words(n, breps * n).reshape(breps, n)
    words.sort(axis=1)
    mid = n // 2

    def column(j: int) -> np.ndarray:
        return arr[(words[:, j].astype(np.uint64) * n) >> 32]

    # Summed from +0.0 as np.median does: -0.0 data give 0.0, an underflowed mean -0.0.
    return 0.0 + column(mid) if n % 2 else midpoint(0.0 + column(mid - 1), column(mid))


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


def _ceil_index(p, breps: int):
    """0-based index of the ceil(p * breps)-th order statistic (at least the first); p may be an array."""
    return np.maximum(np.ceil(np.multiply(p, breps)), 1).astype(np.intp) - 1


def _reflect(m: np.ndarray, q: np.ndarray) -> np.ndarray:
    """2m - q by rows, finite wherever the result itself is in the float range.

    Where 2.0 * m - q is not finite, 2.0 * (m - 0.5 * q) is the float the
    same formula gives in an unbounded exponent range (halving and doubling
    are exact), so only a result beyond the float range stays infinite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r = 2.0 * m - q
        return np.where(np.isfinite(r), r, 2.0 * (m - 0.5 * q))


def cr_bootstrap(
    sample: SortedSample,
    alpha: float,
    boot: np.ndarray,
    variant: str,
) -> Region:
    """One of the five bootstrap intervals, as a closed interval.

    Parameters
    ----------
    sample : SortedSample
        The observed data: its median, and the BCa jackknife.
    alpha : float
        Miscoverage level.
    boot : np.ndarray
        The sorted bootstrap medians of ``sample`` (``bootstrap_medians``),
        one-dimensional and not empty; share one across variants to compare
        them on identical resamples.
    variant : str
        One of "basic", "se", "percentile", "bc", "bca".
    """
    _check_alpha(alpha)
    if variant not in BOOTSTRAP_VARIANTS:
        raise ValueError(f"variant must be one of {BOOTSTRAP_VARIANTS}, got {variant!r}")
    if variant == "se" and sample.n < 2:
        raise ValueError(f"need n >= 2, got {sample.n}")
    boot = np.asarray(boot, dtype=float)
    if boot.ndim != 1 or boot.size == 0:
        raise ValueError(f"boot must be a non-empty one-dimensional array of medians, "
                         f"got shape {boot.shape}")
    return _closed(cr_bootstrap_rows(SampleRows((sample,), boot[None, :]), alpha, variant))


def cr_bootstrap_rows(rows: SampleRows, alpha: float, variant: str) -> tuple[np.ndarray, ...]:
    """``cr_bootstrap`` on every row, from its sorted ``rows.medians`` and its ``rows.median``."""
    medians, m = rows.medians, rows.median
    breps = medians.shape[1]

    def quantile(p):  # the ceil(p * breps)-th median, for one p or one p per row
        return medians[np.arange(len(medians)), _ceil_index(p, breps)]

    if variant == "basic":
        return _reflect(m, quantile(1.0 - alpha / 2.0)), _reflect(m, quantile(alpha / 2.0))
    if variant == "se":
        if breps < 2:
            raise UnsupportedSizeError(f"the bootstrap standard error needs breps >= 2, "
                                       f"got {breps}")
        with np.errstate(over="ignore", invalid="ignore"):
            se = np.std(medians, axis=1, ddof=1)
            tq = t_quantile(_upper_p(alpha), rows.samples[0].n - 1) if se.any() else 0.0
            half = tq * se
            # A zero se is the point interval at the median, -0.0 included.
            return m - half, np.where(se == 0.0, m, m + half)
    if variant == "percentile":
        return quantile(alpha / 2.0), quantile(1.0 - alpha / 2.0)

    z_hi = norm_quantile(_upper_p(alpha))
    z_lo = norm_quantile(alpha / 2.0)
    # The share of medians at or below the observed one, clamped away from 0 and 1.
    p0 = (medians <= m[:, None]).sum(axis=1) / breps
    lo = 1.0 / (2.0 * breps)
    clamped = np.minimum(np.maximum(p0, lo), 1.0 - lo)
    if (clamped != p0).any():
        warnings.warn("bootstrap tail probability clamped; bias correction is saturated",
                      ClampedProbabilityWarning, stacklevel=3)
    z0 = np.array([norm_quantile(p) for p in clamped.tolist()])
    # BC is BCa with a = 0.  |a| <= 0.0681, |z| <= 8.3 and |z0| < 6.2 for breps < 1e9,
    # so 1 - a (z0 + z) > 0 and p_lo, p_hi are never nan.
    a = np.array([jackknife_acceleration(s) for s in rows.samples]) if variant == "bca" else 0.0
    p_lo = norm_cdf(z0 + (z0 + z_lo) / (1.0 - a * (z0 + z_lo)))
    p_hi = norm_cdf(z0 + (z0 + z_hi) / (1.0 - a * (z0 + z_hi)))
    return quantile(p_lo), quantile(p_hi)
