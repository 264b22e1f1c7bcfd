"""Expected order-statistic spacing profiles.

For a sample of size n from a continuous F, write l(k) for the expected gap
E[X_(k+1)] - E[X_(k)], k = 0..n, with the conventions X_(0) = inf of the
support and X_(n+1) = sup of the support.  Equivalently

    l(k) = C(n, k) * integral of F(x)^k (1 - F(x))^(n-k) dx.

A profile is built from these gaps alone and derives from them the selection
ratios r(k) = b(k; n, 1/2) / l(k) that drive the randomized region
constructions.  Two closed forms matter;
``FIXED_PROFILES`` maps each name to its builder.  A scale change multiplies
every l(k) by one constant and changes no selection, so both are at unit scale:

* uniform(-1, 1): l(k) = 2 / (n + 1) for every k, so r(k) is proportional
  to C(n, k);
* exponential(1): l(k) = 1 / (n - k) for k < n and l(n) = +inf, so r(k) is
  proportional to C(n - 1, k) with r(n) = 0.

Profiles from closed forms carry an exact integer representation of the ratio
ordering so tie groups are detected without floating-point comparisons.  Data
-driven and numeric profiles are floating point; their tie grouping uses a
relative tolerance of 1e-9.  A numeric profile decides which spacings are
infinite exactly, from the support and the tail index of F, and integrates
only the finite ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .distributions import DistributionSpec, binom_counts
from .errors import DegenerateDataError
from .regions import SortedSample

__all__ = [
    "RATIO_TIE_RTOL",
    "LkProfile",
    "FIXED_PROFILES",
    "lk_uniform",
    "lk_exponential",
    "lk_mom",
    "lk_edf",
    "lk_numeric",
    "lk_numeric_profile",
]

RATIO_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class LkProfile:
    """Spacing profile for a given sample size.

    Attributes
    ----------
    n : int
        Sample size.
    l : tuple of float
        Expected spacings l(0..n); entries may be +inf.
    exact_ratio : tuple of int or None
        Keyword-only.  When the profile comes from a closed form, integers
        proportional to the ratios (common positive scale), enabling exact
        tie grouping.
    ratio : tuple of float
        Derived from ``l``: the selection ratios r(k) = binom_pmf(k, n) / l(k),
        0.0 where l(k) is infinite and inf where it is 0.
    """

    n: int
    l: tuple[float, ...]
    exact_ratio: tuple[int, ...] | None = field(default=None, kw_only=True)
    ratio: tuple[float, ...] = field(init=False)

    @property
    def is_exact(self) -> bool:
        return self.exact_ratio is not None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"profile needs n >= 1, got {self.n}")
        if len(self.l) != self.n + 1:
            raise ValueError("spacings must have n + 1 entries")
        if self.exact_ratio is not None and len(self.exact_ratio) != self.n + 1:
            raise ValueError("exact_ratio must have n + 1 entries")
        l = np.asarray(self.l, dtype=float)
        if (l < 0.0).any():
            raise ValueError("spacings must be nonnegative")
        object.__setattr__(self, "ratio", tuple(_ratio(self.n, l).tolist()))


def _ratio(n: int, l: np.ndarray) -> np.ndarray:
    """r(k) = binom_pmf(k, n) / l(k) along the last axis of the spacings ``l``.

    C(n, k) * 2**-n is exact (2**-1000 is a normal float).  As Python's float
    division does, pmf / inf gives 0.0 and pmf / 0.0 gives inf, and neither
    that nor an overflow warns.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return _float_counts(n) * 0.5 ** n / l


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _float_counts(n: int) -> np.ndarray:
    # float(C) is the conversion Python's int * float makes.
    return _read_only(np.array([float(c) for c in binom_counts(n)]))


def lk_uniform(n: int) -> LkProfile:
    """Profile of the uniform distribution on [-1, 1].

    All n + 1 spacings equal 2 / (n + 1); the ratio ordering is that of the
    binomial coefficients C(n, k).
    """
    counts = binom_counts(n)  # checks 1 <= n <= MAX_BINOM_N before anything of size n is built
    l = (2.0 / (n + 1),) * (n + 1)
    return LkProfile(n, l, exact_ratio=counts)


def lk_exponential(n: int) -> LkProfile:
    """Profile of the exponential distribution with rate 1.

    l(k) = 1 / (n - k) for k < n; the top spacing is infinite because the
    support is unbounded above.  Ratios are proportional to C(n - 1, k) with
    r(n) = 0.
    """
    binom_counts(n)  # checks 1 <= n <= MAX_BINOM_N before anything of size n is built
    l = tuple(1.0 / (n - k) for k in range(n)) + (math.inf,)
    exact = binom_counts(n - 1) + (0,) if n > 1 else (1, 0)
    return LkProfile(n, l, exact_ratio=exact)


FIXED_PROFILES = {"uniform": lk_uniform, "exponential": lk_exponential}


def lk_mom(sample: SortedSample) -> LkProfile:
    """Method-of-moments profile: each interior spacing estimates itself.

    l_hat(k) = x_(k+1) - x_(k) for k = 1..n-1; the boundary entries are +inf
    (ratio 0), so the boundary counts can never be selected.  Tied interior
    observations give a zero spacing, which this estimator cannot use.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    gaps = []
    for k in range(1, n):
        gap = sample.values[k] - sample.values[k - 1]
        if gap == 0.0:
            raise DegenerateDataError(
                "tied observations give a zero spacing; jitter the data first"
            )
        gaps.append(gap)
    l = (math.inf,) + tuple(gaps) + (math.inf,)
    return LkProfile(n, l)


def lk_mom_ratio_rows(x: np.ndarray) -> np.ndarray:
    """The ``ratio`` of ``lk_mom`` for each row of the sorted samples ``x``.

    A zero spacing, which ``lk_mom`` refuses, gives the ratio inf here; a
    spacing that overflows is inf, as in ``lk_mom``, and its ratio 0.
    """
    l = np.full((len(x), x.shape[1] + 1), math.inf)
    with np.errstate(over="ignore"):
        np.subtract(x[:, 1:], x[:, :-1], out=l[:, 1:-1])
    return _ratio(x.shape[1], l)


# Rows per block of lk_edf and of its weight table's build: a full
# (n - 1) x (n + 1) temporary would be another 8 MB at n = 1000.
_EDF_BLOCK = 64


def lk_edf(sample: SortedSample) -> LkProfile:
    """Plug-in profile: the spacing integral evaluated at the empirical CDF.

    l_hat(k) = C(n, k) * sum_{i=2}^{n} (1 - (i-1)/n)^(n-k) ((i-1)/n)^k
               * (x_(i) - x_(i-1)).

    Entries are finite (the empirical CDF has bounded support), so boundary
    counts may enter a selection, unless the data's spread overflows a gap
    or a sum (inf, or nan).  Ties only shrink the affected terms; no error is
    raised.  Beyond the binomial tables (n > 1000) it raises UnsupportedSizeError.

    Every l_hat(k) adds the same products in the same order as the formula
    read left to right, so each entry is the float the scalar sum gives.  The
    sum runs over blocks of at most 64 gaps: each block's weight rows times
    their gaps go below the running sum in one buffer, and a reduction over
    axis 0 adds the rows in order.
    """
    n = sample.n
    if n < 2:
        raise ValueError(f"need at least 2 observations, got {n}")
    counts = _float_counts(n)
    w = _edf_weights(n)
    acc = np.zeros(n + 1)
    buf = np.empty((min(n - 1, _EDF_BLOCK) + 1, n + 1))
    # The formula is Python float arithmetic: a gap, a sum or C(n, k) * sum
    # overflows to inf, and a zero weight times an infinite gap gives nan,
    # without a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        gaps = np.diff(sample.array)
        for i0 in range(0, n - 1, _EDF_BLOCK):
            i1 = min(i0 + _EDF_BLOCK, n - 1)
            rows = buf[:i1 - i0 + 1]
            rows[0] = acc
            np.multiply(w[i0:i1], gaps[i0:i1, None], out=rows[1:])
            np.add.reduce(rows, axis=0, out=acc)
        l = counts * acc
    return LkProfile(n, tuple(l.tolist()))


# Each table is (n - 1) x (n + 1) doubles, 8 MB at n = 1000, so only the
# sizes of a typical study grid are kept.
@lru_cache(maxsize=16)
def _edf_weights(n: int) -> np.ndarray:
    """Read-only weights of lk_edf: row i - 2 holds (1 - p)^(n-k) p^k, p = (i-1)/n.

    np.float_power's float64 loop calls the C library's pow, as Python's **
    does; np.power may use a SIMD pow that differs in the last bit.  p and
    1 - p are correctly rounded like their scalar forms and the two powers
    are multiplied as IEEE doubles, so each weight is the float the scalar
    formula gives.  The table is filled a block of rows at a time, so the
    build holds one block of scratch beside it, not a second table.
    """
    p = (np.arange(1, n) / n)[:, None]
    k = np.arange(n + 1, dtype=float)
    w = np.empty((n - 1, n + 1))
    for i0 in range(0, n - 1, _EDF_BLOCK):
        rows, q = w[i0:i0 + _EDF_BLOCK], p[i0:i0 + _EDF_BLOCK]
        np.float_power(1.0 - q, k[::-1], out=rows)
        rows *= np.float_power(q, k)
    return _read_only(w)


# -- numeric profile ---------------------------------------------------------


def lk_numeric(dist: DistributionSpec, n: int, k: int) -> float:
    """Expected spacing l(k) under ``dist`` by adaptive quadrature.

    The integral is computed in probability space,

        l(k) = C(n, k) * integral_0^1 u^k (1 - u)^(n-k) / f(Q(u)) du,

    with Q the quantile function of ``dist``.  Before any quadrature, l(k) is
    +inf exactly when an unbounded support end has too heavy a tail: with
    F ~ |x|^-nu there (nu = ``dist.tail_index``), the x-space integrand
    F^k (1 - F)^(n-k) is integrable below iff k > 1/nu, above iff n - k > 1/nu.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    lo, hi = dist.support
    inv_nu = 1 / dist.tail_index  # compared with k, not multiplied: 0 * inf is nan
    if (lo == -math.inf and k <= inv_nu) or (hi == math.inf and n - k <= inv_nu):
        return math.inf

    def g(u: float) -> float:
        q = dist.quantile(u)
        den = dist.pdf(q)
        if den <= 0.0:
            return math.inf
        return u ** k * (1.0 - u) ** (n - k) / den

    # Imported here, its only use, so importing the package does not load it.
    from scipy import integrate

    val, _ = integrate.quad(g, 0.0, 1.0, epsabs=1e-13, epsrel=1e-10, limit=500)
    return math.comb(n, k) * val


def lk_numeric_profile(dist: DistributionSpec, n: int) -> LkProfile:
    """Full numeric profile for ``dist`` at sample size n."""
    l = tuple(lk_numeric(dist, n, k) for k in range(n + 1))
    return LkProfile(n, l)
