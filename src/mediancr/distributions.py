"""Probability primitives used throughout the package.

This module collects the distribution-side machinery:

* the exact Binomial(n, 1/2) counts and cdf (dyadic rationals, no rounding
  in the arithmetic, only in the final float conversion),
* normal and Student-t quantiles,
* the exact null distribution of the Wilcoxon signed-rank statistic,
* the error-distribution specifications used by the simulation study, one
  table entry per family (cdf, pdf, quantile, support, tail index), with
  inverse-transform samplers, and
* keyed reproducible random streams.

Sampling is inverse-transform throughout so that a stream of uniforms maps to
one variate per uniform (two for the normal mixture: one component coin plus
one normal draw).  That keeps every sampler stable under a fixed stream key.
``sample_block`` draws many streams' samples as the rows of one matrix, and
``sample`` is its one-row case.
"""

from __future__ import annotations

import hashlib
import math
import struct
import threading
from dataclasses import dataclass
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
    "sample_block",
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


def binom_cdf(k: int, n: int) -> float:
    """P{B <= k} for B ~ Binomial(n, 1/2), exact up to the final rounding."""
    n = _check_binom_n(n)
    if not 0 <= k <= n:
        raise ValueError(f"k must be in 0..{n}, got {k}")
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


def _signed_rank_cdf_count(n: int, w: int) -> int:
    """2**n * P{W+ <= w} for w in 0..n(n+1)/2, as one Python int.

    The lower half is read from the limb table; by the symmetry W+ ~ top - W+,
    the upper half is 2**n - 2**n * P{W+ <= top - 1 - w}.
    """
    prefix = _signed_rank_prefix(n)
    top = n * (n + 1) // 2
    if w >= prefix.shape[1]:
        return (1 << n) - (_signed_rank_cdf_count(n, top - 1 - w) if w < top else 0)
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
    return _signed_rank_cdf_count(n, w) / (1 << n)


# ---------------------------------------------------------------------------
# Error distributions
# ---------------------------------------------------------------------------


class _Family(NamedTuple):
    """One error-distribution family: cdf, pdf and quantile take (x, *params)."""

    cdf: Callable
    pdf: Callable
    quantile: Callable
    # (*params) -> bool, the parameter rule.  Its positional argument count is the
    # family's arity, so write it with one named argument per param: no defaults, no *args.
    valid: Callable
    support: Callable = lambda *params: (-math.inf, math.inf)  # (*params) -> (lower, upper)
    # nu with F ~ |x|**-nu in each unbounded tail; inf for tails lighter than every power.
    tail_index: float = math.inf
    # Uniforms per variate, and (u, *params) -> the variates of a (..., uniforms * n) array of
    # them, for a family whose variates are not one quantile per uniform.
    uniforms: int = 1
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
    """The p-quantile by bisection between the component quantiles, which bracket it.

    With F the computed cdf, returns a midpoint where F = p, else the upper of two
    adjacent floats with F(lower) < p < F(upper).  That takes at most log2(hi - lo) + 1075
    halvings: about 60, but 1,073 on a unit-wide bracket whose crossing is subnormal.
    """
    w1, m1, s1, m2, s2 = params
    z = _special.ndtri(p)
    lo, hi = sorted((float(m1 + s1 * z), float(m2 + s2 * z)))
    while (mid := midpoint(lo, hi)) != lo and mid != hi:
        f = _mixture_cdf(mid, *params)
        if f == p:
            return mid
        if f < p:
            lo = mid
        else:
            hi = mid
    return hi


def _mixture_draw(u: np.ndarray, w1, m1, s1, m2, s2) -> np.ndarray:
    # Two uniforms per variate: the component coin, then the normal draw.
    z = _special.ndtri(np.maximum(u[..., 1::2], _U_FLOOR))
    return np.where(u[..., 0::2] < w1, m1 + s1 * z, m2 + s2 * z)


_FAMILIES: dict[str, _Family] = {
    "normal": _Family(
        cdf=lambda x, mu, sigma: _special.ndtr((x - mu) / sigma),
        pdf=_normal_pdf,
        quantile=lambda u, mu, sigma: mu + sigma * _special.ndtri(u),
        valid=lambda mu, sigma: sigma > 0.0,
    ),
    "cauchy": _Family(
        cdf=lambda x, x0, scale: 0.5 + np.arctan((x - x0) / scale) / np.pi,
        pdf=_cauchy_pdf,
        quantile=lambda u, x0, scale: x0 + scale * np.tan(np.pi * (u - 0.5)),
        valid=lambda x0, scale: scale > 0.0,
        tail_index=1.0,
    ),
    "uniform": _Family(
        cdf=lambda x, a, b: np.clip((x - a) / (b - a), 0.0, 1.0),
        pdf=lambda x, a, b: np.where((x >= a) & (x <= b), 1.0 / (b - a), 0.0),
        quantile=lambda u, a, b: a + (b - a) * u,
        valid=lambda a, b: a < b,
        support=lambda a, b: (a, b),
        median=midpoint,
    ),
    "logistic": _Family(
        cdf=lambda x, mu, s: _special.expit((x - mu) / s),
        pdf=_logistic_pdf,
        quantile=lambda u, mu, s: mu + s * (np.log(u) - np.log1p(-u)),
        valid=lambda mu, s: s > 0.0,
    ),
    "gamma": _Family(
        cdf=lambda x, shape, rate: _special.gammainc(shape, rate * np.maximum(x, 0.0)),
        pdf=_gamma_pdf,
        quantile=lambda u, shape, rate: _special.gammaincinv(shape, u) / rate,
        valid=lambda shape, rate: shape > 0.0 and rate > 0.0,
        support=lambda *p: (0.0, math.inf),
    ),
    "weibull": _Family(
        cdf=lambda x, shape, scale: np.where(
            x > 0.0, -np.expm1(-((np.maximum(x, 0.0) / scale) ** shape)), 0.0),
        pdf=_weibull_pdf,
        quantile=lambda u, shape, scale: scale * (-np.log1p(-u)) ** (1.0 / shape),
        valid=lambda shape, scale: shape > 0.0 and scale > 0.0,
        support=lambda *p: (0.0, math.inf),
    ),
    "exponential": _Family(
        cdf=lambda x, rate: np.where(x > 0.0, -np.expm1(-rate * np.maximum(x, 0.0)), 0.0),
        pdf=lambda x, rate: np.where(x > 0.0, rate * np.exp(-rate * np.maximum(x, 0.0)), 0.0),
        quantile=lambda u, rate: -np.log1p(-u) / rate,
        valid=lambda rate: rate > 0.0,
        support=lambda *p: (0.0, math.inf),
    ),
    "normal_mixture": _Family(
        cdf=_mixture_cdf,
        pdf=_mixture_pdf,
        quantile=lambda u, *p: np.vectorize(
            lambda q: _mixture_quantile_scalar(q, *p), otypes=[float])(u),
        valid=lambda w1, m1, s1, m2, s2: 0.0 < w1 < 1.0 and s1 > 0.0 and s2 > 0.0,
        uniforms=2,
        draw=_mixture_draw,
    ),
}


@dataclass(frozen=True)
class DistributionSpec:
    """A fully parameterized error distribution.

    ``family`` names a ``_FAMILIES`` entry; ``params`` holds its parameters in
    the order of the constructor functions.  Every spec is validated, however
    it is built: params become floats and must fit the family's rule (count,
    finiteness, range), else ValueError.  Instances are immutable and
    hashable, so they can key caches and cross process boundaries.
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        family = _FAMILIES.get(self.family)
        if family is None:
            raise ValueError(f"unknown family {self.family!r} with params {self.params!r}")
        # + 0.0 turns -0.0 into 0.0, so specs that compare equal get one label.
        params = tuple(float(p) + 0.0 for p in self.params)
        arity = family.valid.__code__.co_argcount
        if not (len(params) == arity and all(map(math.isfinite, params)) and family.valid(*params)):
            raise ValueError(f"family {self.family!r} needs {arity} finite params in its range, "
                             f"got {self.params!r}")
        object.__setattr__(self, "params", params)

    @property
    def label(self) -> str:
        """Compact identifier, distinct per spec and comma-free so it can sit in a CSV field.

        A parameter prints as ``{:g}`` where that text parses back to it, else as its ``repr``.
        """
        inner = ";".join(g if float(g := f"{p:g}") == p else repr(p) for p in self.params)
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
        """Inverse CDF; accepts scalars or arrays with entries in (0, 1).

        A quantile beyond the float range is its IEEE value (inf), without a warning.
        """
        with np.errstate(over="ignore", invalid="ignore"):
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
    return DistributionSpec("normal", (mean, sd))


def cauchy(location: float = 0.0, scale: float = 1.0) -> DistributionSpec:
    return DistributionSpec("cauchy", (location, scale))


def uniform(low: float = -1.0, high: float = 1.0) -> DistributionSpec:
    return DistributionSpec("uniform", (low, high))


def logistic(location: float = 0.0, scale: float = 1.0) -> DistributionSpec:
    return DistributionSpec("logistic", (location, scale))


def gamma(shape: float, rate: float = 1.0) -> DistributionSpec:
    """Gamma with shape-rate parameterization (mean = shape / rate)."""
    return DistributionSpec("gamma", (shape, rate))


def weibull(shape: float, scale: float = 1.0) -> DistributionSpec:
    return DistributionSpec("weibull", (shape, scale))


def exponential(rate: float = 1.0) -> DistributionSpec:
    return DistributionSpec("exponential", (rate,))


def normal_mixture(weight1: float, mean1: float, sd1: float,
                   mean2: float, sd2: float) -> DistributionSpec:
    """Two-component normal mixture; ``weight1`` is the first component's weight."""
    return DistributionSpec("normal_mixture", (weight1, mean1, sd1, mean2, sd2))


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


# One Philox per thread for the library's own draws, with the state dict that
# re-keys it.  Each draw swaps its stream's key into the dict and sets it, which
# costs a tenth of constructing a generator and gives the same variates; only
# the thread's current stream is ever live.
_SHARED = threading.local()
# The Philox key: the first 16 bytes of a stream's sha256 digest, as two
# native-order words (what np.frombuffer(digest[:16], np.uint64) reads).
_KEY_WORDS = struct.Struct("=2Q").unpack_from
# Words per block of ``RngStream.bounded_words``'s rejection pass.  The
# allocator serves its 64 KiB temporaries from pages it already holds; with
# 256 KiB blocks, one simulate run of 280 bootstrap draws (n = 20 and 50,
# breps 2000) took about 22,000 minor page faults instead of 200.
_WORD_BLOCK = 1 << 14


def _extended(sha, parts: tuple):
    """``sha`` after hashing each stream key part, tagged by its type."""
    for part in parts:
        if isinstance(part, (int, np.integer)):
            sha.update(f"\x1fi:{int(part)}".encode())
        elif isinstance(part, str):
            sha.update(b"\x1fs:" + part.encode())
        else:
            raise ValueError(f"stream key parts must be int or str, got {part!r}")
    return sha


@dataclass(frozen=True)
class RngStream:
    """A reproducible random stream identified by (master_seed, stream_key).

    The value is a recipe, not a live generator: ``generator()`` always
    returns a new, independent generator positioned at the start of the same
    sequence.  Two different consumers must therefore use child streams with
    distinct keys (``child("data")``, ``child("boot")``, ...) rather than share
    one value.  Key components may be ints or strings; both hash
    deterministically across platforms and processes.

    The Philox key is the sha256 of the seed and the key parts, hashed
    incrementally: a stream keeps its hash state once computed, and
    ``child(*parts)`` extends a copy of it, so a cell's (seed, label, n)
    prefix is hashed once, not once per draw.  A part that is neither int nor
    str raises ValueError where it is hashed: at ``child``, or at the first
    draw of a stream built with it.  The hash state is a cache: a stream
    pickles, copies, compares and hashes by (master_seed, stream_key) alone.

    The library's internal draws (``uniform``, ``sample`` and
    ``bounded_words``, which the bootstrap resamples use) do not construct a
    generator: they re-key one per-thread Philox to the start of the stream,
    draw everything they need, and return.  The variates are those
    ``generator()`` would give.
    """

    master_seed: int
    stream_key: tuple = ()

    def __reduce__(self):
        # The cached hash state does not pickle; it is rebuilt on first use.
        return RngStream, (self.master_seed, self.stream_key)

    def child(self, *parts) -> "RngStream":
        out = RngStream(self.master_seed, self.stream_key + parts)
        object.__setattr__(out, "_sha", _extended(self._sha256().copy(), parts))
        return out

    def _sha256(self):
        """The sha256 state after the seed and every key part; never updated once cached."""
        sha = self.__dict__.get("_sha")
        if sha is None:
            sha = _extended(hashlib.sha256(f"i:{self.master_seed}".encode()), self.stream_key)
            object.__setattr__(self, "_sha", sha)
        return sha

    def _key(self) -> tuple[int, int]:
        return _KEY_WORDS(self._sha256().digest())

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=np.array(self._key(), dtype=np.uint64)))

    def _rekeyed(self) -> np.random.Generator:
        """This thread's shared generator, set to the start of this stream.

        It stays at that position only until the next ``_rekeyed`` call in the
        thread, so the caller must finish its draws before calling anything
        else that draws.
        """
        shared = getattr(_SHARED, "philox", None)
        if shared is None:
            # What Philox(key=...) starts from: counter 0, no buffered output.
            inner = {"counter": (0, 0, 0, 0), "key": (0, 0)}
            state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
                     "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            shared = _SHARED.philox = (np.random.Generator(np.random.Philox(0)), state, inner)
        gen, state, inner = shared
        inner["key"] = self._key()
        gen.bit_generator.state = state
        return gen

    def uniform(self) -> float:
        """One uniform draw from the head of the stream."""
        return float(self._rekeyed().random())

    def bounded_words(self, n: int, count: int) -> np.ndarray:
        """The 32-bit words behind ``generator().integers(0, n, size=count, dtype=np.int32)``.

        That draw (numpy's Lemire method) takes the stream's 32-bit words in
        order, low half of each 64-bit output first, rejects a word w when
        w * n mod 2**32 < 2**32 mod n, and returns floor(w * n / 2**32).  This
        returns the ``count`` accepted words as a uint32 array, so
        ``(words.astype(np.uint64) * n) >> 32`` are those integers.  At n = 1
        numpy draws nothing and every integer is 0, which the map gives too.
        """
        if not 1 <= n <= 2 ** 31:
            raise ValueError(f"n must be in 1..2**31, got {n}")
        bitgen = self._rekeyed().bit_generator
        factor = np.uint32(n)
        threshold = (1 << 32) % n

        def accepted(k: int) -> tuple[np.ndarray, int]:
            # At least k fresh words with the accepted ones moved to the front,
            # and how many there are.  Every word drawn is filtered, the spare
            # high half of the last output too, before the caller cuts to
            # ``count``: a rejected word lets the next one in, as in numpy.
            words = _split_words(bitgen.random_raw(-(-k // 2)))
            # Compacted in place a block at a time, so the scratch stays small.
            end = 0
            for start in range(0, len(words), _WORD_BLOCK):
                block = words[start:start + _WORD_BLOCK]
                low = block * factor  # w * n mod 2**32
                if low.min() < threshold or end < start:
                    block = block[low >= threshold]
                    words[end:end + len(block)] = block
                end += len(block)
            return words, end

        # The first draw has room for ``count`` words, so each top-up's
        # accepted words go into its free tail rather than a second buffer.
        words, end = accepted(count)
        while end < count:
            more, got = accepted(count - end)
            got = min(got, count - end)
            words[end:end + got] = more[:got]
            end += got
        return words[:count]


def _split_words(raw: np.ndarray) -> np.ndarray:
    """The 32-bit halves of 64-bit outputs, low half first, whatever the byte order."""
    return raw.astype("<u8", copy=False).view("<u4")


def sample_block(dist: DistributionSpec, n: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    """``n`` variates of ``dist`` per stream as the rows of one matrix, and which rows are finite.

    Row i comes from the head of ``rngs[i]``.  The rows' uniforms fill one
    matrix, n per row (2n for the normal mixture: a component coin, then a
    normal draw, per variate), and one elementwise transform maps all of it,
    so a row does not depend on the others.  Returns the (rows, n) variates
    and one boolean per row, False where a variate is beyond the float range:
    that row holds the transform's IEEE values, and numpy does not warn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    family = _FAMILIES[dist.family]
    u = np.empty((len(rngs), family.uniforms * n))
    for row, rng in zip(u, rngs):
        rng._rekeyed().random(out=row)
    if family.draw is None:
        x = dist.quantile(np.maximum(u, _U_FLOOR, out=u))
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            x = family.draw(u, *dist.params)
    return x, np.isfinite(x).all(axis=1)


def sample(dist: DistributionSpec, n: int, rng: RngStream) -> np.ndarray:
    """Draw ``n`` IID variates from ``dist`` via inverse transforms: ``sample_block``'s one row.

    Deterministic in (dist, n, rng): the same arguments always yield the same
    array.  Each variate is ``dist.quantile`` of one uniform, except the normal
    mixture, which consumes exactly two (component coin, then normal draw).  A
    variate beyond the float range raises UnsupportedSizeError, without a
    numpy warning.
    """
    x, finite = sample_block(dist, n, (rng,))
    if not finite[0]:
        raise UnsupportedSizeError(f"a draw from {dist.label} is outside the float range")
    return x[0]
