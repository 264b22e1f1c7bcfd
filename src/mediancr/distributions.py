"""Probability primitives used throughout the package.

This module collects the distribution-side machinery:

* the exact Binomial(n, 1/2) pmf/cdf/quantile (dyadic rationals, no rounding
  in the arithmetic, only in the final float conversion),
* normal and Student-t quantiles,
* the exact null distribution of the Wilcoxon signed-rank statistic,
* the error-distribution specifications used by the simulation study, with
  inverse-transform samplers, and
* keyed reproducible random streams.

Sampling is inverse-transform throughout so that a stream of uniforms maps to
one variate per uniform (two for the normal mixture: one component coin plus
one normal draw).  That keeps every sampler stable under a fixed stream key.
"""

from __future__ import annotations

import bisect
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np
from scipy import optimize as _optimize
from scipy import special as _special

from .errors import UnsupportedSizeError

__all__ = [
    "MAX_BINOM_N",
    "MAX_SIGNED_RANK_N",
    "binom_pmf",
    "binom_cdf",
    "binom_quantile",
    "binom_pmf_fraction",
    "binom_counts",
    "norm_cdf",
    "norm_quantile",
    "t_quantile",
    "signed_rank_null_cdf",
    "DistributionSpec",
    "normal",
    "cauchy",
    "uniform",
    "logistic",
    "gamma",
    "weibull",
    "exponential",
    "normal_mixture",
    "study_distributions",
    "sample",
    "RngStream",
]

MAX_BINOM_N = 1000
MAX_SIGNED_RANK_N = 200

# Smallest uniform fed to a quantile function, several of which blow up at 0.
# Generator.random() yields multiples of 2**-53 in [0, 1), so only u == 0.0
# needs the guard; the upper side is already bounded away from 1.
_U_FLOOR = 2.0 ** -53


# ---------------------------------------------------------------------------
# Binomial(n, 1/2)
# ---------------------------------------------------------------------------


def _check_binom_n(n: int) -> int:
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be in 1..{MAX_BINOM_N}, got {n}")
    if n > MAX_BINOM_N:
        raise UnsupportedSizeError(f"binomial tables supported for n in 1..{MAX_BINOM_N}, got {n}")
    return int(n)


def _check_binom_k(k: int, n: int) -> int:
    n = _check_binom_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
    return n


@lru_cache(maxsize=None)
def _binom_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # C(n, k) and its prefix sums: the pmf and the CDF of Binomial(n, 1/2),
    # each scaled by 2**n, so every mass and comparison is an exact integer.
    counts = tuple(math.comb(n, k) for k in range(n + 1))
    return counts, tuple(accumulate(counts))


def binom_counts(n: int) -> tuple[int, ...]:
    """C(n, k) for k = 0..n: the Binomial(n, 1/2) pmf scaled by 2**n."""
    return _binom_tables(_check_binom_n(n))[0]


def binom_pmf_fraction(k: int, n: int) -> Fraction:
    """Exact P{B = k} for B ~ Binomial(n, 1/2), as a Fraction."""
    n = _check_binom_k(k, n)
    return Fraction(_binom_tables(n)[0][k], 1 << n)


def binom_pmf(k: int, n: int) -> float:
    """P{B = k} for B ~ Binomial(n, 1/2).

    The value is the correctly rounded float of the exact dyadic rational
    C(n, k) / 2**n.
    """
    n = _check_binom_k(k, n)
    # int / int is correctly rounded, so this is float(Fraction(C(n, k), 2**n)).
    return _binom_tables(n)[0][k] / (1 << n)


def binom_cdf(k: int, n: int) -> float:
    """P{B <= k} for B ~ Binomial(n, 1/2), exact up to the final rounding."""
    n = _check_binom_k(k, n)
    return _binom_tables(n)[1][k] / (1 << n)


def binom_quantile(p: float, n: int) -> int:
    """Smallest k with P{B <= k} >= p, for B ~ Binomial(n, 1/2).

    Comparisons are exact: p is taken at its binary-float value and compared
    against dyadic rationals.  ``binom_quantile(0.0, n) == 0`` and
    ``binom_quantile(1.0, n) == n``.
    """
    n = _check_binom_n(n)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    return bisect.bisect_left(_binom_tables(n)[1], Fraction(p) * (1 << n))


# ---------------------------------------------------------------------------
# Normal and Student-t quantiles
# ---------------------------------------------------------------------------


def norm_cdf(x):
    """Standard normal CDF (vectorized)."""
    return _special.ndtr(x)


def norm_quantile(p: float) -> float:
    """Standard normal quantile.

    Parameters
    ----------
    p : float
        Probability, strictly inside (0, 1).

    Returns
    -------
    float
        z with Phi(z) = p, accurate to well below 1e-9.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    return float(_special.ndtri(p))


def t_quantile(p: float, df: int) -> float:
    """Student-t quantile with ``df`` degrees of freedom, p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    return float(_special.stdtrit(df, p))


# ---------------------------------------------------------------------------
# Wilcoxon signed-rank null distribution
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _signed_rank_prefix(n: int) -> tuple[int, ...]:
    # 2**n * P{W+ <= w} for w = 0..top//2 (the law is symmetric, so half suffices):
    # prefix sums of the coefficients of prod_j (1 + x**j), built in one int with a
    # byte-aligned field per coefficient.  Counts are below 2**n, so fields never carry.
    width, fields = n // 8 + 1, n * (n + 1) // 4 + 1
    mask = (1 << (8 * width * fields)) - 1
    poly = 1
    for j in range(1, n + 1):
        poly = (poly + (poly << (8 * width * j))) & mask
    raw = poly.to_bytes(width * fields, "little")
    return tuple(accumulate(int.from_bytes(raw[i:i + width], "little")
                            for i in range(0, len(raw), width)))


def signed_rank_null_cdf(w: int, n: int) -> float:
    """P{W+ <= w} under the symmetric null, W+ the signed-rank statistic.

    The value is the correctly rounded float of the exact dyadic rational
    (number of sign patterns with W+ <= w) / 2**n.  Supported for n up to
    200; beyond that raises UnsupportedSizeError.
    """
    if not 1 <= n <= MAX_SIGNED_RANK_N:
        raise UnsupportedSizeError(
            f"signed-rank null distribution supported for n in 1..{MAX_SIGNED_RANK_N}, got {n}"
        )
    top = n * (n + 1) // 2
    if not 0 <= w <= top:
        raise ValueError(f"w must be in 0..{top}, got {w}")
    prefix = _signed_rank_prefix(n)
    if w < len(prefix):
        return prefix[w] / (1 << n)
    # Symmetry W+ ~ top - W+ gives P{W+ <= w} = 1 - P{W+ <= top - 1 - w}.
    return ((1 << n) - (prefix[top - 1 - w] if w < top else 0)) / (1 << n)


# ---------------------------------------------------------------------------
# Error distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionSpec:
    """A fully parameterized error distribution.

    ``family`` is one of ``normal``, ``cauchy``, ``uniform``, ``logistic``,
    ``gamma``, ``weibull``, ``exponential``, ``normal_mixture``; ``params``
    holds the family's parameters in a fixed documented order (see the
    constructor functions).  Instances are immutable and hashable, so they
    can key caches and cross process boundaries.
    """

    family: str
    params: tuple[float, ...]

    @property
    def label(self) -> str:
        """Compact identifier, comma-free so it can sit in a CSV field."""
        inner = ";".join(f"{p:g}" for p in self.params)
        return f"{self.family}({inner})"

    # -- distribution functions -------------------------------------------

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        f, p = self.family, self.params
        if f == "normal":
            mu, sigma = p
            out = _special.ndtr((x - mu) / sigma)
        elif f == "cauchy":
            x0, scale = p
            out = 0.5 + np.arctan((x - x0) / scale) / np.pi
        elif f == "uniform":
            a, b = p
            out = np.clip((x - a) / (b - a), 0.0, 1.0)
        elif f == "logistic":
            mu, s = p
            out = _special.expit((x - mu) / s)
        elif f == "gamma":
            shape, rate = p
            out = _special.gammainc(shape, rate * np.maximum(x, 0.0))
        elif f == "weibull":
            shape, scale = p
            out = np.where(x > 0.0, -np.expm1(-((np.maximum(x, 0.0) / scale) ** shape)), 0.0)
        elif f == "exponential":
            (rate,) = p
            out = np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0)
        elif f == "normal_mixture":
            w1, m1, s1, m2, s2 = p
            out = w1 * _special.ndtr((x - m1) / s1) + (1.0 - w1) * _special.ndtr((x - m2) / s2)
        else:  # pragma: no cover - constructors prevent this
            raise ValueError(f"unknown family {f!r}")
        return out if out.ndim else float(out)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        f, p = self.family, self.params
        if f == "normal":
            mu, sigma = p
            z = (x - mu) / sigma
            out = np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
        elif f == "cauchy":
            x0, scale = p
            z = (x - x0) / scale
            out = 1.0 / (np.pi * scale * (1.0 + z * z))
        elif f == "uniform":
            a, b = p
            out = np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0)
        elif f == "logistic":
            mu, s = p
            q = _special.expit((x - mu) / s)
            out = q * (1.0 - q) / s
        elif f == "gamma":
            shape, rate = p
            with np.errstate(divide="ignore", invalid="ignore"):
                lx = np.log(np.maximum(x, 0.0))
                out = np.where(
                    x > 0.0,
                    np.exp(shape * math.log(rate) + (shape - 1.0) * lx - rate * x
                           - math.lgamma(shape)),
                    0.0,
                )
        elif f == "weibull":
            shape, scale = p
            with np.errstate(divide="ignore", invalid="ignore"):
                z = np.maximum(x, 0.0) / scale
                out = np.where(
                    x > 0.0,
                    (shape / scale) * z ** (shape - 1.0) * np.exp(-(z ** shape)),
                    0.0,
                )
        elif f == "exponential":
            (rate,) = p
            out = np.where(x > 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0)
        elif f == "normal_mixture":
            w1, m1, s1, m2, s2 = p
            z1 = (x - m1) / s1
            z2 = (x - m2) / s2
            c = 1.0 / math.sqrt(2.0 * math.pi)
            out = w1 * c / s1 * np.exp(-0.5 * z1 * z1) + (1.0 - w1) * c / s2 * np.exp(-0.5 * z2 * z2)
        else:  # pragma: no cover
            raise ValueError(f"unknown family {f!r}")
        return out if out.ndim else float(out)

    def quantile(self, p):
        """Inverse CDF; accepts scalars or arrays with entries in (0, 1)."""
        arr = np.asarray(p, dtype=float)
        f, prm = self.family, self.params
        if f == "normal":
            mu, sigma = prm
            out = mu + sigma * _special.ndtri(arr)
        elif f == "cauchy":
            x0, scale = prm
            out = x0 + scale * np.tan(np.pi * (arr - 0.5))
        elif f == "uniform":
            a, b = prm
            out = a + (b - a) * arr
        elif f == "logistic":
            mu, s = prm
            out = mu + s * (np.log(arr) - np.log1p(-arr))
        elif f == "gamma":
            shape, rate = prm
            out = _special.gammaincinv(shape, arr) / rate
        elif f == "weibull":
            shape, scale = prm
            out = scale * (-np.log1p(-arr)) ** (1.0 / shape)
        elif f == "exponential":
            (rate,) = prm
            out = -np.log1p(-arr) / rate
        elif f == "normal_mixture":
            out = np.vectorize(self._mixture_quantile_scalar, otypes=[float])(arr)
        else:  # pragma: no cover
            raise ValueError(f"unknown family {f!r}")
        return out if np.ndim(out) else float(out)

    def _mixture_quantile_scalar(self, p: float) -> float:
        w1, m1, s1, m2, s2 = self.params
        lo = min(m1 + s1 * _special.ndtri(p), m2 + s2 * _special.ndtri(p))
        hi = max(m1 + s1 * _special.ndtri(p), m2 + s2 * _special.ndtri(p))
        # The component quantiles bracket the mixture quantile.
        if lo == hi:
            return lo
        return float(_optimize.brentq(lambda x: self.cdf(x) - p, lo, hi,
                                      xtol=1e-13, rtol=8.9e-16, maxiter=200))

    def true_median(self) -> float:
        """Median, exact where a closed form exists, else root-found to ~1e-15."""
        f, p = self.family, self.params
        if f == "normal":
            return p[0]
        if f == "cauchy":
            return p[0]
        if f == "uniform":
            return 0.5 * (p[0] + p[1])
        if f == "logistic":
            return p[0]
        if f == "gamma":
            shape, rate = p
            return float(_special.gammaincinv(shape, 0.5)) / rate
        if f == "weibull":
            shape, scale = p
            return scale * math.log(2.0) ** (1.0 / shape)
        if f == "exponential":
            return math.log(2.0) / p[0]
        if f == "normal_mixture":
            return self._mixture_quantile_scalar(0.5)
        raise ValueError(f"unknown family {f!r}")  # pragma: no cover

    @property
    def support(self) -> tuple[float, float]:
        f, p = self.family, self.params
        if f == "uniform":
            return (p[0], p[1])
        if f in ("gamma", "weibull", "exponential"):
            return (0.0, math.inf)
        return (-math.inf, math.inf)


def normal(mean: float = 0.0, sd: float = 1.0) -> DistributionSpec:
    """Normal(mean, sd); ``sd`` is the standard deviation."""
    if sd <= 0.0:
        raise ValueError(f"sd must be positive, got {sd}")
    return DistributionSpec("normal", (float(mean), float(sd)))


def cauchy(location: float = 0.0, scale: float = 1.0) -> DistributionSpec:
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    return DistributionSpec("cauchy", (float(location), float(scale)))


def uniform(low: float = -1.0, high: float = 1.0) -> DistributionSpec:
    if not low < high:
        raise ValueError(f"need low < high, got ({low}, {high})")
    return DistributionSpec("uniform", (float(low), float(high)))


def logistic(location: float = 0.0, scale: float = 1.0) -> DistributionSpec:
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    return DistributionSpec("logistic", (float(location), float(scale)))


def gamma(shape: float, rate: float = 1.0) -> DistributionSpec:
    """Gamma with shape-rate parameterization (mean = shape / rate)."""
    if shape <= 0.0 or rate <= 0.0:
        raise ValueError(f"shape and rate must be positive, got ({shape}, {rate})")
    return DistributionSpec("gamma", (float(shape), float(rate)))


def weibull(shape: float, scale: float = 1.0) -> DistributionSpec:
    if shape <= 0.0 or scale <= 0.0:
        raise ValueError(f"shape and scale must be positive, got ({shape}, {scale})")
    return DistributionSpec("weibull", (float(shape), float(scale)))


def exponential(rate: float = 1.0) -> DistributionSpec:
    if rate <= 0.0:
        raise ValueError(f"rate must be positive, got {rate}")
    return DistributionSpec("exponential", (float(rate),))


def normal_mixture(weight1: float, mean1: float, sd1: float,
                   mean2: float, sd2: float) -> DistributionSpec:
    """Two-component normal mixture; ``weight1`` is the first component's weight."""
    if not 0.0 < weight1 < 1.0:
        raise ValueError(f"weight1 must be in (0, 1), got {weight1}")
    if sd1 <= 0.0 or sd2 <= 0.0:
        raise ValueError(f"component sds must be positive, got ({sd1}, {sd2})")
    return DistributionSpec(
        "normal_mixture",
        (float(weight1), float(mean1), float(sd1), float(mean2), float(sd2)),
    )


def study_distributions() -> dict[str, DistributionSpec]:
    """The seven-distribution benchmark set keyed by short CLI name."""
    return {
        "normal": normal(0.0, 1.0),
        "cauchy": cauchy(0.0, 1.0),
        "uniform": uniform(-1.0, 1.0),
        "logistic": logistic(0.0, 1.0),
        "gamma": gamma(2.0, 1.0),
        "weibull": weibull(0.5, 1.0),
        "mixture": normal_mixture(0.6, -5.0, 3.0, 5.0, 2.0),
    }


# ---------------------------------------------------------------------------
# Keyed random streams and sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_key).

    The value is a recipe, not a live generator: ``generator()`` always
    returns a generator positioned at the start of the same sequence.  Two
    different consumers must therefore use child streams with distinct keys
    (``child("data")``, ``child("boot")``, ...) rather than share one value.
    Key components may be ints or strings; both hash deterministically across
    platforms and processes.
    """

    master_seed: int
    stream_key: tuple = ()

    def child(self, *parts) -> "RngStream":
        return RngStream(self.master_seed, self.stream_key + tuple(parts))

    def generator(self) -> np.random.Generator:
        h = hashlib.sha256()
        h.update(f"i:{self.master_seed}".encode())
        for part in self.stream_key:
            if isinstance(part, (int, np.integer)):
                h.update(f"\x1fi:{int(part)}".encode())
            elif isinstance(part, str):
                h.update(b"\x1fs:" + part.encode())
            else:
                raise ValueError(f"stream key parts must be int or str, got {part!r}")
        key = np.frombuffer(h.digest()[:16], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        """One uniform draw from the head of the stream."""
        return float(self.generator().random())


def sample(dist: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID variates from ``dist`` via inverse transforms.

    Deterministic in (dist, n, rng): the same arguments always yield the same
    array.  Each variate is ``dist.quantile`` of one uniform, except the normal
    mixture, which consumes exactly two (component coin, then normal draw).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng.generator()
    if dist.family == "normal_mixture":
        w1, m1, s1, m2, s2 = dist.params
        u = gen.random(2 * n)
        z = _special.ndtri(np.maximum(u[1::2], _U_FLOOR))
        return np.where(u[0::2] < w1, m1 + s1 * z, m2 + s2 * z)
    return dist.quantile(np.maximum(gen.random(n), _U_FLOOR))
