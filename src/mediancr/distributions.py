"""Probability primitives used throughout the package.

This module collects the distribution-side machinery:

* the exact Binomial(n, 1/2) counts, pmf and cdf (dyadic rationals, no
  rounding in the arithmetic, only in the final float conversion),
* normal and Student-t quantiles,
* the exact null distribution of the Wilcoxon signed-rank statistic,
* the error-distribution specifications used by the simulation study, one
  table entry per family (cdf, pdf, quantile, support, tail index), with
  inverse-transform samplers, and
* keyed reproducible random streams.

Sampling is inverse-transform throughout so that a stream of uniforms maps to
one variate per uniform (two for the normal mixture: one component coin plus
one normal draw).  That keeps every sampler stable under a fixed stream key.
"""

from __future__ import annotations

import hashlib
import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy import special as _special

from .errors import UnsupportedSizeError
from .regions import midpoint

__all__ = [
    "MAX_BINOM_N",
    "MAX_SIGNED_RANK_N",
    "binom_cdf",
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
def _binom_row(n: int) -> tuple[int, ...]:
    # C(n, k): the pmf of Binomial(n, 1/2) scaled by 2**n, so every mass and
    # comparison is an exact integer.  The exact recurrence
    # C(n, k + 1) = C(n, k) (n - k) / (k + 1): one small multiply and divide
    # per entry, far cheaper than a math.comb call each.
    counts = [1]
    for k in range(n):
        counts.append(counts[k] * (n - k) // (k + 1))
    return tuple(counts)


def binom_counts(n: int) -> tuple[int, ...]:
    """C(n, k) for k = 0..n: the Binomial(n, 1/2) pmf scaled by 2**n."""
    return _binom_row(_check_binom_n(n))


def binom_pmf_fraction(k: int, n: int) -> Fraction:
    """Exact P{B = k} for B ~ Binomial(n, 1/2), as a Fraction."""
    n = _check_binom_k(k, n)
    return Fraction(_binom_row(n)[k], 1 << n)


def binom_cdf(k: int, n: int) -> float:
    """P{B <= k} for B ~ Binomial(n, 1/2), exact up to the final rounding."""
    n = _check_binom_k(k, n)
    return sum(_binom_row(n)[:k + 1]) / (1 << n)


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


# Signed-rank counts are base-2**48 limbs in uint64: a polynomial step at most doubles a
# limb, so 14 steps from normalized limbs stay below 2**62.
_LIMB_BITS = 48
_LIMB_MASK = (1 << _LIMB_BITS) - 1
_STEPS_PER_CARRY = 14


def _carry(c: np.ndarray) -> None:
    """Normalize limbs in place: every limb but the top one ends below 2**48."""
    for i in range(len(c) - 1):
        c[i + 1] += c[i] >> _LIMB_BITS
        c[i] &= _LIMB_MASK


@lru_cache(maxsize=None)
def _signed_rank_prefix(n: int) -> np.ndarray:
    """2**n * P{W+ <= w} for w = 0..top//2, as base-2**48 limbs: a read-only
    (limbs, top//2 + 1) uint64 array, limb i of entry w in row i.

    The law is symmetric, so the lower half suffices.  The counts are the
    coefficients of prod_{j=1}^{n} (1 + x**j), multiplied in one factor at a
    time; each is below 2**n, so ceil(n / 48) limbs hold it.  A factor adds a
    shifted copy to the live limbs and fields only, and carries run every 14
    factors.  With every limb below 2**48, the prefix sum over at most 2**16
    fields stays below 2**64, so the table is exact for n(n+1)/4 + 1 <= 2**16,
    that is n <= 511 (MAX_SIGNED_RANK_N is 200).
    """
    fields = n * (n + 1) // 4 + 1
    limbs = -(-n // _LIMB_BITS)
    c = np.zeros((limbs, fields), dtype=np.uint64)
    c[0, 0] = 1
    for j in range(1, n + 1):
        # Before this factor every coefficient is below 2**(j-1).
        live = max(1, -(-(j - 1) // _LIMB_BITS))
        hi = min(j * (j + 1) // 2, fields - 1)
        if j <= hi:
            c[:live, j:hi + 1] += c[:live, :hi + 1 - j]
        if j % _STEPS_PER_CARRY == 0:
            _carry(c)
    _carry(c)
    np.cumsum(c, axis=1, out=c)
    _carry(c)
    c.flags.writeable = False
    return c


def _signed_rank_count(prefix: np.ndarray, w: int) -> int:
    """Entry w of the limb table as one Python int."""
    value = 0
    for limb in prefix[::-1, w].tolist():
        value = (value << _LIMB_BITS) | limb
    return value


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
    if w < prefix.shape[1]:
        return _signed_rank_count(prefix, w) / (1 << n)
    # Symmetry W+ ~ top - W+ gives P{W+ <= w} = 1 - P{W+ <= top - 1 - w}.
    return ((1 << n) - (_signed_rank_count(prefix, top - 1 - w) if w < top else 0)) / (1 << n)


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------


def _brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int) -> float:
    """Root of f in [a, b] by Brent's method, bit-identical to scipy.optimize.brentq.

    A transcription of scipy's ``Zeros/brentq.c`` (BSD licensed): the same
    float operations in the same order, so the same iterates and the same
    root, without putting scipy.optimize on the import path of every process
    for this one call.  Raises ValueError when f(a) and f(b) have the same
    sign and RuntimeError when maxiter iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # The tolerance is 2 * delta.
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# Error distributions
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """One error-distribution family: cdf, pdf and quantile take (x, *params)."""

    cdf: Callable
    pdf: Callable
    quantile: Callable
    support: Callable = lambda *params: (-math.inf, math.inf)  # (*params) -> (lower, upper)
    # nu with F ~ |x|**-nu in each unbounded tail; inf for tails lighter than every power.
    tail_index: float = math.inf
    # (gen, n, *params), for a family whose variates are not one quantile per uniform.
    draw: Callable | None = None
    # (*params) -> the median, where quantile(0.5) does not round it correctly.
    median: Callable | None = None


def _normal_pdf(x, mu, sigma):
    z = (x - mu) / sigma
    return np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def _cauchy_pdf(x, x0, scale):
    z = (x - x0) / scale
    return 1.0 / (np.pi * scale * (1.0 + z * z))


def _logistic_pdf(x, mu, s):
    q = _special.expit((x - mu) / s)
    return q * (1.0 - q) / s


def _gamma_pdf(x, shape, rate):
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = np.log(np.maximum(x, 0.0))
        return np.where(
            x > 0.0,
            np.exp(shape * math.log(rate) + (shape - 1.0) * lx - rate * x
                   - math.lgamma(shape)),
            0.0,
        )


def _weibull_pdf(x, shape, scale):
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.maximum(x, 0.0) / scale
        return np.where(
            x > 0.0,
            (shape / scale) * z ** (shape - 1.0) * np.exp(-(z ** shape)),
            0.0,
        )


def _mixture_cdf(x, w1, m1, s1, m2, s2):
    return w1 * _special.ndtr((x - m1) / s1) + (1.0 - w1) * _special.ndtr((x - m2) / s2)


def _mixture_pdf(x, w1, m1, s1, m2, s2):
    z1 = (x - m1) / s1
    z2 = (x - m2) / s2
    c = 1.0 / math.sqrt(2.0 * math.pi)
    return w1 * c / s1 * np.exp(-0.5 * z1 * z1) + (1.0 - w1) * c / s2 * np.exp(-0.5 * z2 * z2)


def _mixture_quantile_scalar(p: float, *params) -> float:
    w1, m1, s1, m2, s2 = params
    lo = min(m1 + s1 * _special.ndtri(p), m2 + s2 * _special.ndtri(p))
    hi = max(m1 + s1 * _special.ndtri(p), m2 + s2 * _special.ndtri(p))
    # The component quantiles bracket the mixture quantile.
    if lo == hi:
        return lo
    return _brentq(lambda x: _mixture_cdf(x, *params) - p, lo, hi,
                   xtol=1e-13, rtol=8.9e-16, maxiter=200)


def _mixture_draw(gen: np.random.Generator, n: int, w1, m1, s1, m2, s2) -> np.ndarray:
    # Two uniforms per variate: the component coin, then the normal draw.
    u = gen.random(2 * n)
    z = _special.ndtri(np.maximum(u[1::2], _U_FLOOR))
    return np.where(u[0::2] < w1, m1 + s1 * z, m2 + s2 * z)


_FAMILIES: dict[str, _Family] = {
    "normal": _Family(
        cdf=lambda x, mu, sigma: _special.ndtr((x - mu) / sigma),
        pdf=_normal_pdf,
        quantile=lambda u, mu, sigma: mu + sigma * _special.ndtri(u),
    ),
    "cauchy": _Family(
        cdf=lambda x, x0, scale: 0.5 + np.arctan((x - x0) / scale) / np.pi,
        pdf=_cauchy_pdf,
        quantile=lambda u, x0, scale: x0 + scale * np.tan(np.pi * (u - 0.5)),
        tail_index=1.0,
    ),
    "uniform": _Family(
        cdf=lambda x, a, b: np.clip((x - a) / (b - a), 0.0, 1.0),
        pdf=lambda x, a, b: np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0),
        quantile=lambda u, a, b: a + (b - a) * u,
        support=lambda a, b: (a, b),
        median=midpoint,
    ),
    "logistic": _Family(
        cdf=lambda x, mu, s: _special.expit((x - mu) / s),
        pdf=_logistic_pdf,
        quantile=lambda u, mu, s: mu + s * (np.log(u) - np.log1p(-u)),
    ),
    "gamma": _Family(
        cdf=lambda x, shape, rate: _special.gammainc(shape, rate * np.maximum(x, 0.0)),
        pdf=_gamma_pdf,
        quantile=lambda u, shape, rate: _special.gammaincinv(shape, u) / rate,
        support=lambda *p: (0.0, math.inf),
    ),
    "weibull": _Family(
        cdf=lambda x, shape, scale: np.where(
            x > 0.0, -np.expm1(-((np.maximum(x, 0.0) / scale) ** shape)), 0.0),
        pdf=_weibull_pdf,
        quantile=lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape),
        support=lambda *p: (0.0, math.inf),
    ),
    "exponential": _Family(
        cdf=lambda x, rate: np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0),
        pdf=lambda x, rate: np.where(x > 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0),
        quantile=lambda u, rate: -np.log1p(-u) / rate,
        support=lambda *p: (0.0, math.inf),
    ),
    "normal_mixture": _Family(
        cdf=_mixture_cdf,
        pdf=_mixture_pdf,
        quantile=lambda u, *p: np.vectorize(
            lambda q: _mixture_quantile_scalar(q, *p), otypes=[float])(u),
        draw=_mixture_draw,
    ),
}


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

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")

    @property
    def label(self) -> str:
        """Compact identifier, comma-free so it can sit in a CSV field."""
        inner = ";".join(f"{p:g}" for p in self.params)
        return f"{self.family}({inner})"

    def _call(self, fn, x):
        out = fn(np.asarray(x, dtype=float), *self.params)
        return out if np.ndim(out) else float(out)

    def cdf(self, x):
        """CDF; accepts scalars or arrays."""
        return self._call(_FAMILIES[self.family].cdf, x)

    def pdf(self, x):
        """Density; accepts scalars or arrays."""
        return self._call(_FAMILIES[self.family].pdf, x)

    def quantile(self, p):
        """Inverse CDF; accepts scalars or arrays with entries in (0, 1)."""
        return self._call(_FAMILIES[self.family].quantile, p)

    def true_median(self) -> float:
        """The median: the family's own formula where it has one, else quantile(1/2)."""
        median = _FAMILIES[self.family].median
        return median(*self.params) if median is not None else self.quantile(0.5)

    @property
    def support(self) -> tuple[float, float]:
        return _FAMILIES[self.family].support(*self.params)

    @property
    def tail_index(self) -> float:
        """nu with F ~ |x|**-nu in each unbounded tail; inf when the tails are lighter."""
        return _FAMILIES[self.family].tail_index


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


# One Philox per thread for the library's own draws.  Each draw re-keys it to
# the start of its stream, which costs a tenth of constructing a generator and
# gives the same variates; only the thread's current stream is ever live.
_SHARED = threading.local()
_PHILOX_ZERO = np.zeros(4, dtype=np.uint64)


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_key).

    The value is a recipe, not a live generator: ``generator()`` always
    returns a new, independent generator positioned at the start of the same
    sequence.  Two different consumers must therefore use child streams with
    distinct keys (``child("data")``, ``child("boot")``, ...) rather than share
    one value.  Key components may be ints or strings; both hash
    deterministically across platforms and processes.

    The library's internal draws (``uniform``, ``sample`` and the bootstrap
    resamples) do not construct a generator: they re-key one per-thread Philox
    to the start of the stream, draw everything they need, and return.  The
    variates are those ``generator()`` would give.
    """

    master_seed: int
    stream_key: tuple = ()

    def child(self, *parts) -> "RngStream":
        return RngStream(self.master_seed, self.stream_key + tuple(parts))

    def _key(self) -> np.ndarray:
        h = hashlib.sha256()
        h.update(f"i:{self.master_seed}".encode())
        for part in self.stream_key:
            if isinstance(part, (int, np.integer)):
                h.update(f"\x1fi:{int(part)}".encode())
            elif isinstance(part, str):
                h.update(b"\x1fs:" + part.encode())
            else:
                raise ValueError(f"stream key parts must be int or str, got {part!r}")
        return np.frombuffer(h.digest()[:16], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self._key()))

    def _rekeyed(self) -> np.random.Generator:
        """This thread's shared generator, set to the start of this stream.

        It stays at that position only until the next ``_rekeyed`` call in the
        thread, so the caller must finish its draws before calling anything
        else that draws.
        """
        gen = getattr(_SHARED, "gen", None)
        if gen is None:
            gen = _SHARED.gen = np.random.Generator(np.random.Philox(0))
        # What Philox(key=...) starts from: counter 0, no buffered output.
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _PHILOX_ZERO, "key": self._key()},
            "buffer": _PHILOX_ZERO,
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return gen

    def uniform(self) -> float:
        """One uniform draw from the head of the stream."""
        return float(self._rekeyed().random())


def sample(dist: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID variates from ``dist`` via inverse transforms.

    Deterministic in (dist, n, rng): the same arguments always yield the same
    array.  Each variate is ``dist.quantile`` of one uniform, except the normal
    mixture, which consumes exactly two (component coin, then normal draw).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    gen = rng._rekeyed()
    draw = _FAMILIES[dist.family].draw
    if draw is not None:
        return draw(gen, n, *dist.params)
    return dist.quantile(np.maximum(gen.random(n), _U_FLOOR))
