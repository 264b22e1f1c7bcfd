"""Distribution primitives: exact binomial, quantiles, signed-rank null, samplers."""

import copy
import hashlib
import itertools
import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate, optimize, special

from mediancr.classical import bootstrap_medians
from mediancr import distributions
from mediancr.distributions import (
    _FAMILIES,
    DistributionSpec,
    RngStream,
    _binom_row,
    _signed_rank_prefix,
    _split_words,
    binom_cdf,
    binom_counts,
    cauchy,
    exponential,
    gamma,
    logistic,
    norm_quantile,
    normal,
    normal_mixture,
    study_distributions,
    sample,
    sample_block,
    signed_rank_null_cdf,
    t_quantile,
    uniform,
    weibull,
)
from mediancr.errors import UnsupportedSizeError
from mediancr.regions import make_sample

ALL_SPECS = list(study_distributions().values()) + [exponential(1.0)]


# ---------------------------------------------------------------------------
# Binomial(n, 1/2)
# ---------------------------------------------------------------------------


def pascal_pmf(n):
    """Oracle: pmf via Pascal's triangle, no factorials."""
    row = [Fraction(1)]
    for _ in range(n):
        row = [Fraction(0)] + row
        row = [row[i] + (row[i + 1] if i + 1 < len(row) else 0) for i in range(len(row))]
    return [r / Fraction(2) ** n for r in row]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 25, 64, 65, 200])
def test_binom_pmf_matches_pascal_oracle(n):
    oracle = pascal_pmf(n)
    for k in range(n + 1):
        assert Fraction(binom_counts(n)[k], 2 ** n) == oracle[k]


def test_binom_pmf_known_values():
    assert binom_counts(10)[5] == 252
    assert binom_counts(10)[0] == 1
    assert binom_counts(1) == (1, 1)
    assert binom_cdf(5, 10) - binom_cdf(4, 10) == 252 / 1024
    assert binom_cdf(0, 1) == 0.5


def test_binom_pmf_symmetry_and_mass():
    for n in (1, 5, 12, 31, 100):
        row = binom_counts(n)
        assert sum(row) == 2 ** n
        assert row == row[::-1]


def test_binom_cdf_known_values():
    assert binom_cdf(7, 10) == 968 / 1024
    assert binom_cdf(10, 10) == 1.0
    assert binom_cdf(0, 10) == 1 / 1024


@pytest.mark.parametrize("n", [1, 17, 53, 54, 200, 1000])
def test_binom_cdf_equals_rounded_exact_prefix_sum(n):
    # Oracle: the exact prefix sum of C(n, j) over 2**n, rounded once.
    acc = 0
    for k in range(n + 1):
        acc += math.comb(n, k)
        assert binom_cdf(k, n) == float(Fraction(acc, 2 ** n))


def test_binom_cdf_monotone():
    vals = [binom_cdf(k, 17) for k in range(18)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_binom_large_n_no_overflow():
    # Oracle: mpmath binomial(1000, 500) / 2**1000 = 0.0252250181783608019...
    assert binom_counts(1000)[500] / 2 ** 1000 == pytest.approx(0.025225018178, rel=1e-9)
    assert binom_cdf(499, 1000) < 0.5 <= binom_cdf(500, 1000)


def test_binom_counts_equal_math_comb_for_every_n():
    # The uncached builder, so the test does not keep every table alive.
    for n in range(1, 1001):
        assert _binom_row.__wrapped__(n) == tuple(math.comb(n, k) for k in range(n + 1)), n
    assert binom_counts(57) == tuple(math.comb(57, k) for k in range(58))


def test_binom_domain_errors():
    with pytest.raises(ValueError, match="k must be in 0..10, got 11"):
        binom_cdf(11, 10)
    with pytest.raises(ValueError, match="k must be in 0..10, got -1"):
        binom_cdf(-1, 10)
    for call in (lambda: binom_cdf(0, 0), lambda: binom_counts(0), lambda: binom_counts(-3)):
        with pytest.raises(ValueError, match="n must be in 1..1000"):
            call()


def test_binom_size_cap_is_unsupported_size():
    # Above MAX_BINOM_N the tables are a size limit, not bad input.
    with pytest.raises(UnsupportedSizeError):
        binom_cdf(0, 1001)
    with pytest.raises(UnsupportedSizeError):
        binom_counts(1001)
    # Below 1 and non-integers stay plain ValueErrors.
    for call in (lambda: binom_cdf(0, 0), lambda: binom_cdf(0, 2.5), lambda: binom_counts(2.5)):
        with pytest.raises(ValueError) as info:
            call()
        assert not isinstance(info.value, UnsupportedSizeError)


# ---------------------------------------------------------------------------
# Normal / Student-t quantiles
# ---------------------------------------------------------------------------


def erf_norm_quantile(p):
    """Oracle: invert the erf-based normal CDF by bisection (stdlib erf)."""
    return optimize.brentq(
        lambda x: 0.5 * (1.0 + math.erf(x / math.sqrt(2.0))) - p, -10, 10,
        xtol=1e-13,
    )


def test_norm_quantile_against_erf_oracle():
    for p in (0.001, 0.025, 0.1, 0.5, 0.9, 0.975, 0.999):
        assert norm_quantile(p) == pytest.approx(erf_norm_quantile(p), abs=1e-9)


def test_norm_quantile_known_value():
    assert norm_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_norm_quantile_antisymmetry():
    for p in (0.01, 0.3, 0.45, 0.975):
        q = norm_quantile(p)
        assert abs(q + norm_quantile(1.0 - p)) <= 1e-9 * max(1.0, abs(q))


def test_norm_quantile_domain():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            norm_quantile(p)


def t_density(x, df):
    logc = math.lgamma((df + 1) / 2) - math.lgamma(df / 2) - 0.5 * math.log(df * math.pi)
    return math.exp(logc - 0.5 * (df + 1) * math.log1p(x * x / df))


def quad_t_quantile(p, df):
    """Oracle: integrate the density from 0, then solve for the quantile."""

    def cdf(x):
        val, _ = integrate.quad(t_density, 0.0, x, args=(df,))
        return 0.5 + val

    return optimize.brentq(lambda x: cdf(x) - p, 0.0, 50.0, xtol=1e-10)


def test_t_quantile_against_integration_oracle():
    for p, df in ((0.975, 9), (0.9, 3), (0.99, 24), (0.6, 1)):
        assert t_quantile(p, df) == pytest.approx(quad_t_quantile(p, df), abs=1e-5)


def test_t_quantile_known_value():
    assert t_quantile(0.975, 9) == pytest.approx(2.262157, abs=1e-5)
    # Closed forms: df = 1 is the Cauchy quantile, df = 2 is algebraic.
    for p in (0.1, 0.3, 0.6, 0.9, 0.975, 0.995):
        cauchy = math.tan(math.pi * (p - 0.5))
        assert t_quantile(p, 1) == pytest.approx(cauchy, rel=1e-13)
        df2 = (2 * p - 1) / math.sqrt(2 * p * (1 - p))
        assert t_quantile(p, 2) == pytest.approx(df2, rel=1e-13)


def test_t_quantile_antisymmetry_and_median():
    assert t_quantile(0.5, 7) == pytest.approx(0.0, abs=1e-12)
    assert t_quantile(0.975, 5) == pytest.approx(-t_quantile(0.025, 5), rel=1e-12)


def test_t_quantile_domain():
    with pytest.raises(ValueError):
        t_quantile(0.0, 5)
    with pytest.raises(ValueError):
        t_quantile(0.5, 0)


# ---------------------------------------------------------------------------
# Signed-rank null distribution
# ---------------------------------------------------------------------------


def brute_signed_rank_counts(n):
    """Oracle: #{sign patterns with W+ = w}, enumerating all 2^n patterns."""
    top = n * (n + 1) // 2
    counts = [0] * (top + 1)
    for mask in range(1 << n):
        w = sum(j for j in range(1, n + 1) if mask & (1 << (j - 1)))
        counts[w] += 1
    return counts


def dp_signed_rank_counts(n):
    """Oracle: the coefficients of prod_j (1 + x^j), one Python int per degree."""
    counts = [1]
    for j in range(1, n + 1):
        nxt = counts + [0] * j
        for w, c in enumerate(counts):
            nxt[w + j] += c
        counts = nxt
    return counts


def assert_cdf_is_rounded_prefix(counts, n):
    # Every prefix, the upper half included, against the exact rational
    # rounded once; the last prefix is the total mass 2^n.
    assert sum(counts) == 2 ** n
    acc = 0
    for w, c in enumerate(counts):
        acc += c
        assert signed_rank_null_cdf(w, n) == float(Fraction(acc, 2 ** n)), (n, w)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 12])
def test_signed_rank_cdf_matches_enumeration(n):
    assert_cdf_is_rounded_prefix(brute_signed_rank_counts(n), n)


def test_signed_rank_cdf_examples():
    assert signed_rank_null_cdf(0, 2) == pytest.approx(0.25, abs=1e-12)
    assert signed_rank_null_cdf(3, 2) == pytest.approx(1.0, abs=1e-12)
    assert signed_rank_null_cdf(0, 1) == pytest.approx(0.5, abs=1e-12)


def test_signed_rank_large_n_mass_and_symmetry():
    # The oracle builds every coefficient, so the mirrored upper half of the
    # CDF is checked against counts that do not assume symmetry.  The sizes
    # include the carry schedule's (14, 28) and the limb count's (48, 49, 97,
    # 145, 193) edges.
    for n in (14, 28, 48, 49, 56, 97, 100, 145, 193, 200):
        assert_cdf_is_rounded_prefix(dp_signed_rank_counts(n), n)
        table = _signed_rank_prefix(n)
        assert int(table.max()) < 2 ** 48 and not table.flags.writeable


def test_signed_rank_cdf_is_one_at_top():
    assert all(signed_rank_null_cdf(n * (n + 1) // 2, n) == 1.0 for n in range(1, 201))


def test_signed_rank_capability_bound():
    with pytest.raises(UnsupportedSizeError):
        signed_rank_null_cdf(0, 201)
    with pytest.raises(ValueError):
        signed_rank_null_cdf(-1, 10)
    with pytest.raises(ValueError):
        signed_rank_null_cdf(56, 10)


# ---------------------------------------------------------------------------
# Distribution specs
# ---------------------------------------------------------------------------


def test_uniform_median_is_the_correctly_rounded_midpoint():
    # Oracle: the exact midpoint of the two floats, rounded once by Fraction.
    rng = np.random.default_rng(11)
    pairs = [(-1.0, 1.0), (0.1, 0.7), (1e308, 1.7e308), (-1.7e308, -1e308), (5e-324, 1e-323)]
    for _ in range(5000):
        a, b = np.sort(rng.standard_normal(2) * 10.0 ** rng.integers(-300, 300, 2))
        if a < b:
            pairs.append((float(a), float(b)))
    for a, b in pairs:
        assert uniform(a, b).true_median() == float((Fraction(a) + Fraction(b)) / 2), (a, b)
    # The sampler keeps its quantile a + (b - a) * u, which at 1/2 is one ulp off here.
    assert uniform(0.1, 0.7).quantile(0.5) == 0.1 + (0.7 - 0.1) * 0.5
    assert uniform(0.1, 0.7).quantile(0.5) != uniform(0.1, 0.7).true_median()


def test_study_law_medians_keep_their_repr():
    assert [repr(d.true_median()) for d in ALL_SPECS] == [
        "0.0", "0.0", "0.0", "0.0", "1.6783469900166612", "0.4804530139182014",
        "-2.099278874542355", "0.6931471805599453",
    ]


def test_true_median_closed_forms():
    assert weibull(0.5, 1.0).true_median() == pytest.approx(math.log(2.0) ** 2, rel=1e-12)
    assert weibull(0.5, 1.0).true_median() == pytest.approx(0.480453, abs=1e-6)
    assert gamma(2.0, 1.0).true_median() == pytest.approx(1.67835, abs=1e-5)
    assert exponential(2.0).true_median() == pytest.approx(math.log(2.0) / 2.0, rel=1e-14)
    assert normal(3.0, 2.0).true_median() == 3.0
    assert cauchy(-1.0, 5.0).true_median() == -1.0
    assert uniform(-1.0, 3.0).true_median() == 1.0
    assert logistic(0.5, 2.0).true_median() == 0.5


def bisection_median(dist):
    return optimize.brentq(lambda x: dist.cdf(x) - 0.5, -100.0, 100.0, xtol=1e-13)


def _seeded_mixtures(count):
    rng = np.random.default_rng(20181)
    return [normal_mixture(rng.uniform(0.05, 0.95), rng.normal(0.0, 10.0), rng.uniform(0.1, 5.0),
                           rng.normal(0.0, 10.0), rng.uniform(0.1, 5.0))
            for _ in range(count)]


MIXTURE_PS = [1e-10, 1.0 - 1e-10] + list(np.linspace(0.0, 1.0, 300)[1:-1])


MIXTURES = [study_distributions()["mixture"]] + _seeded_mixtures(30)


# Ids in the short {:g} form: a seeded mixture's label spells out every digit.
@pytest.mark.parametrize("dist", MIXTURES,
                         ids=lambda d: f"{d.family}({';'.join(f'{p:g}' for p in d.params)})")
def test_mixture_quantile_is_where_the_cdf_crosses_p(dist):
    # With F the library's own cdf: F(q) = p, or F(q) > p > F(the float below q).
    for p in MIXTURE_PS:
        q = dist.quantile(p)
        f = dist.cdf(q)
        assert f == p or f > p > dist.cdf(math.nextafter(q, -math.inf)), p


def test_mixture_quantile_against_mpmath():
    # Oracle: the root of the mixture cdf at 30 digits.  The error allowed is an
    # ulp of the root plus what 4 * 2**-53 of cdf error moves the root by.
    for dist in MIXTURES + [normal_mixture(0.5, -5.0, 3.0, 5.0, 3.0)]:
        w1, m1, s1, m2, s2 = (mpmath.mpf(v) for v in dist.params)
        for p in (1e-10, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.999, 1.0 - 1e-10):
            q = dist.quantile(p)
            with mpmath.workdps(30):
                root = mpmath.findroot(
                    lambda x: w1 * mpmath.ncdf(x, m1, s1) + (1 - w1) * mpmath.ncdf(x, m2, s2) - p,
                    q)
                density = w1 * mpmath.npdf(root, m1, s1) + (1 - w1) * mpmath.npdf(root, m2, s2)
                error = float(abs(q - root))
            assert error <= math.ulp(float(root)) + 4.0 * 2.0 ** -53 / float(density), (dist.label, p)


def test_mixture_median_values():
    # Each is an exact hit of the computed cdf; the first is the correctly
    # rounded root, -2.0992788745423550748...
    assert repr(study_distributions()["mixture"].true_median()) == "-2.099278874542355"
    assert normal_mixture(0.5, -5.0, 3.0, 5.0, 3.0).quantile(0.5) == 0.0


def test_gamma_median_against_bisection_oracle():
    assert gamma(2.0, 1.0).true_median() == pytest.approx(bisection_median(gamma(2.0, 1.0)), abs=1e-9)


@pytest.mark.parametrize("dist", ALL_SPECS, ids=lambda d: d.label)
def test_true_median_halves_the_distribution(dist):
    assert abs(dist.cdf(dist.true_median()) - 0.5) <= 1e-12


@pytest.mark.parametrize("dist", ALL_SPECS, ids=lambda d: d.label)
def test_quantile_cdf_roundtrip(dist):
    for p in (0.05, 0.25, 0.5, 0.8, 0.99):
        assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-9)


@pytest.mark.parametrize("dist", ALL_SPECS, ids=lambda d: d.label)
def test_pdf_is_cdf_derivative(dist):
    for p in (0.2, 0.5, 0.85):
        x = dist.quantile(p)
        h = 1e-6 * max(1.0, abs(x))
        numeric = (dist.cdf(x + h) - dist.cdf(x - h)) / (2.0 * h)
        assert dist.pdf(x) == pytest.approx(numeric, rel=5e-5)


def test_constructor_validation():
    with pytest.raises(ValueError):
        normal(0.0, 0.0)
    with pytest.raises(ValueError):
        uniform(2.0, 2.0)
    with pytest.raises(ValueError):
        gamma(-1.0)
    with pytest.raises(ValueError):
        weibull(0.5, -1.0)
    with pytest.raises(ValueError):
        normal_mixture(1.0, 0.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="unknown family 'bogus'"):
        DistributionSpec("bogus", ())


# One valid parameter tuple per family, and a tuple that breaks each rule.
VALID_PARAMS = {
    "normal": (0.0, 1.0), "cauchy": (0.0, 1.0), "uniform": (-1.0, 1.0),
    "logistic": (0.0, 1.0), "gamma": (2.0, 1.0), "weibull": (0.5, 1.0),
    "exponential": (1.0,), "normal_mixture": (0.6, -5.0, 3.0, 5.0, 2.0),
}
RULE_BREAKERS = {
    "normal": [(0.0, 0.0), (0.0, -1.0)],
    "cauchy": [(0.0, 0.0), (0.0, -1.0)],
    "uniform": [(1.0, 1.0), (1.0, -1.0)],
    "logistic": [(0.0, 0.0), (0.0, -1.0)],
    "gamma": [(0.0, 1.0), (2.0, -1.0)],
    "weibull": [(-0.5, 1.0), (0.5, 0.0)],
    "exponential": [(0.0,), (-1.0,)],
    "normal_mixture": [(0.0, -5.0, 3.0, 5.0, 2.0), (1.0, -5.0, 3.0, 5.0, 2.0),
                       (0.6, -5.0, 0.0, 5.0, 2.0), (0.6, -5.0, 3.0, 5.0, -2.0)],
}


def test_every_family_has_a_valid_and_a_rule_breaking_case():
    assert set(VALID_PARAMS) == set(RULE_BREAKERS) == set(_FAMILIES)


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_spec_built_directly_is_validated(family):
    good = VALID_PARAMS[family]
    bad = [good[:-1], good + (1.0,), *RULE_BREAKERS[family]]
    for i in range(len(good)):
        bad += [good[:i] + (v,) + good[i + 1:] for v in (math.nan, math.inf, -math.inf)]
    for params in bad:
        with pytest.raises(ValueError, match=f"family '{family}'") as info:
            DistributionSpec(family, params)
        assert repr(params) in str(info.value)
    DistributionSpec(family, good)


def test_list_params_give_the_constructors_hashable_spec():
    for built, params in [(normal(), [0, 1]), (uniform(-1.0, 1.0), [-1, 1.0]),
                          (exponential(), [1]), (normal_mixture(0.6, -5.0, 3.0, 5.0, 2.0),
                                                 [0.6, -5, 3, 5, 2])]:
        spec = DistributionSpec(built.family, params)
        assert spec == built and hash(spec) == hash(built)
        assert spec.params == built.params and all(type(p) is float for p in spec.params)
        assert {spec: 1}[built] == 1


def test_study_labels_are_unchanged():
    assert [d.label for d in ALL_SPECS] == [
        "normal(0;1)", "cauchy(0;1)", "uniform(-1;1)", "logistic(0;1)", "gamma(2;1)",
        "weibull(0.5;1)", "normal_mixture(0.6;-5;3;5;2)", "exponential(1)",
    ]


def test_distinct_specs_get_distinct_labels_and_streams():
    a, b = normal(0.0, 1.0), normal(0.0, 1.0000001)
    assert (a.label, b.label) == ("normal(0;1)", "normal(0;1.0000001)")
    # The label keys a simulation's streams, so the two specs must draw
    # different standardized samples, not one sample at two scales.
    xa, xb = (sample(d, 20, RngStream(5, (d.label, 20, 0)).child("data")) for d in (a, b))
    assert not np.allclose(xa, xb / 1.0000001)


@pytest.mark.parametrize("make, args", [(normal, (0.0, 1.0)), (uniform, (-1.0, 0.0)),
                                        (normal_mixture, (0.5, 0.0, 1.0, 3.0, 2.0))])
def test_equal_specs_get_equal_labels(make, args):
    # -0.0 == 0.0, so a signed zero must not give one spec two labels, hence two streams.
    signed = tuple(-p if p == 0.0 else p for p in args)
    a, b = make(*args), make(*signed)
    assert a == b and hash(a) == hash(b)
    assert a.label == b.label and "-0" not in b.label
    assert all(math.copysign(1.0, p) == 1.0 for p in b.params if p == 0.0)


def test_labels_are_csv_safe():
    for dist in ALL_SPECS:
        assert "," not in dist.label


# ---------------------------------------------------------------------------
# Sampling and streams
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist", ALL_SPECS, ids=lambda d: d.label)
def test_sampler_ks_distance(dist):
    # 1e5 samples: the 1% KS bound sits far above the ~0.0043 critical value.
    x = np.sort(sample(dist, 100_000, RngStream(2024, ("ks", dist.label))))
    grid = dist.cdf(x)
    i = np.arange(1, x.size + 1)
    ks = max(np.max(i / x.size - grid), np.max(grid - (i - 1) / x.size))
    assert ks <= 0.01


def test_sampler_median_sanity():
    x = sample(weibull(0.5, 1.0), 200_000, RngStream(5, ("med",)))
    assert np.median(x) == pytest.approx(math.log(2.0) ** 2, abs=0.01)


def test_mixture_consumes_two_uniforms_per_variate():
    # Drawing n mixture variates, one sample or a block's rows, takes the
    # component coin and then the normal draw from 2n uniforms per row, and
    # leaves the shared generator exactly 2n draws into the last row's stream.
    dist = normal_mixture(0.6, -5.0, 3.0, 5.0, 2.0)
    for n in (1, 3, 10):
        rngs = [RngStream(99, ("pair", i)) for i in range(4)]
        for block, draw in [(rngs[-1:], lambda: [sample(dist, n, rngs[-1])]),
                            (rngs, lambda: sample_block(dist, n, rngs)[0])]:
            x = draw()
            fresh = block[-1].generator()
            fresh.random(2 * n)
            assert distributions._SHARED.philox[0].random() == fresh.random()
            for row, rng in zip(x, block):
                u = rng.generator().random(2 * n)
                z = special.ndtri(np.maximum(u[1::2], 2.0 ** -53))
                manual = np.where(u[0::2] < 0.6, -5.0 + 3.0 * z, 5.0 + 2.0 * z)
                assert row.tobytes() == manual.tobytes()


def test_sample_determinism_and_stream_separation():
    rng = RngStream(123, ("cell", 4))
    a = sample(normal(), 50, rng)
    b = sample(normal(), 50, rng)
    np.testing.assert_array_equal(a, b)
    c = sample(normal(), 50, rng.child("other"))
    assert not np.array_equal(a, c)
    d = sample(normal(), 50, RngStream(124, ("cell", 4)))
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("dist", [normal(0.0, 1e308), normal_mixture(0.5, 0.0, 1e308, 0.0, 1.0),
                                  uniform(-1.7e308, 1.7e308), cauchy(0.0, 1e308)])
def test_a_draw_beyond_the_float_range_is_refused_without_a_warning(dist):
    # Runs under the suite's error::RuntimeWarning filter, so a numpy overflow
    # warning that escapes fails here.  Seed 7 overflows on every law above.
    rng = RngStream(7, ("over",))
    with pytest.raises(UnsupportedSizeError, match="outside the float range"):
        sample(dist, 40, rng)
    # The variates sample refuses are the quantiles' IEEE values, inf included.
    with np.errstate(over="ignore"):
        x = fresh_sample(dist, 40, rng)
    assert np.isinf(x).any() and not np.isnan(x).any()
    assert dist.quantile(1 - 2.0 ** -53) == math.inf
    assert np.isinf(dist.quantile(np.array([2.0 ** -53, 0.5, 1 - 2.0 ** -53]))).any()


def test_sample_bytes_of_ordinary_laws_are_the_draw_of_their_quantiles():
    # sample refuses only what overflows: on an ordinary law it returns the
    # quantiles of the stream's uniforms, byte for byte.
    for dist in study_distributions().values():
        rng = RngStream(3, ("ordinary", dist.label))
        assert sample(dist, 25, rng).tobytes() == fresh_sample(dist, 25, rng).tobytes()


def fresh_sample(dist, n, rng):
    """Oracle: ``sample`` on a generator of its own, built by ``generator()``."""
    family = _FAMILIES[dist.family]
    u = rng.generator().random(family.uniforms * n)
    if family.draw is not None:
        return family.draw(u, *dist.params)
    return dist.quantile(np.maximum(u, 2.0 ** -53))


BLOCK_STREAMS = [RngStream(17, ("block", i)) for i in range(7)]


@pytest.mark.parametrize("dist", ALL_SPECS, ids=lambda d: d.family)
@pytest.mark.parametrize("n", [1, 3, 10, 25])
def test_sample_block_rows_are_fresh_samples(dist, n):
    # Interleaved rows re-key the shared generator row by row; each row must be
    # what a fresh generator on its stream gives, and sample is the one-row block.
    x, finite = sample_block(dist, n, BLOCK_STREAMS)
    assert x.shape == (len(BLOCK_STREAMS), n) and finite.tolist() == [True] * len(BLOCK_STREAMS)
    for row, rng in zip(x, BLOCK_STREAMS):
        assert row.tobytes() == fresh_sample(dist, n, rng).tobytes()
        assert row.tobytes() == sample(dist, n, rng).tobytes()


@pytest.mark.parametrize("dist, n", [(normal(0.0, 1e308), 1), (cauchy(0.0, 1e308), 2),
                                     (normal_mixture(0.5, 0.0, 1e308, 0.0, 1.0), 3)])
def test_sample_block_marks_exactly_the_rows_that_overflow(dist, n):
    # Runs under the suite's error::RuntimeWarning filter: an overflow warns nowhere.
    rngs = [RngStream(23, ("over", i)) for i in range(40)]
    x, finite = sample_block(dist, n, rngs)
    with np.errstate(over="ignore"):
        fresh = [fresh_sample(dist, n, rng) for rng in rngs]
    assert finite.tolist() == [bool(np.isfinite(f).all()) for f in fresh]
    assert 0 < finite.sum() < len(rngs)
    for row, f in zip(x, fresh):
        assert row.tobytes() == f.tobytes()


def test_shared_generator_draws_what_fresh_generators_draw():
    # Interleaved internal draws re-key one shared generator; each must match
    # a fresh generator for its own stream, whatever the previous draw left in
    # the counter, the 64-bit buffer or the spare 32-bit half.
    base = RngStream(31, ("interleave",))
    data = make_sample(np.linspace(-2.0, 3.0, 7))
    for i, dist in enumerate(ALL_SPECS * 2):
        for n in (1, 3, 10):
            rng = base.child(dist.label, n, i)
            got = sample(dist, n, rng)
            assert got.tobytes() == fresh_sample(dist, n, rng).tobytes(), (dist.label, n)
            u = rng.child("rand").uniform()
            assert repr(u) == repr(float(rng.child("rand").generator().random()))
            # An odd breps * n leaves half of a 64-bit draw over, which the
            # next stream must not see.
            boot_rng = rng.child("boot")
            boot = bootstrap_medians(data, n, boot_rng)
            idx = boot_rng.generator().integers(0, data.n, size=(n, data.n), dtype=np.int32)
            expected = np.sort(np.median(data.array[np.sort(idx, axis=1)], axis=1))
            assert boot.medians.array.tobytes() == expected.tobytes()


BOUNDS = [1, 2, 3, 7, 64, 1000, 100_003, 2**31 - 1, 1431655766, 2**30 + 1]


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("count", [1, 2, 999, 1000, 200_001])
def test_bounded_words_map_to_numpys_int32_draw(n, count):
    # Odd counts leave the high half of the last 64-bit output spare.  At the
    # last two bounds a third and a quarter of the words are rejected; at
    # 100_003 about one in 10**5, so of the blocks that 200_001 words span
    # some reject a word and later ones do not.
    for seed in range(6):
        rng = RngStream(seed, ("words", n, count))
        words = rng.bounded_words(n, count)
        assert words.dtype == np.uint32 and len(words) == count
        expected = rng.generator().integers(0, n, size=count, dtype=np.int32)
        assert np.array_equal((words.astype(np.uint64) * n) >> 32, expected), seed


def test_bounded_words_top_up_from_the_same_stream():
    n, count = 1431655766, 1001
    rng = RngStream(3, ("top-up",))
    # The first ceil(count / 2) outputs hold too few accepted words, so the
    # draw must take more from the stream.
    first = _split_words(rng.generator().bit_generator.random_raw(-(-count // 2)))
    assert np.count_nonzero(first * np.uint32(n) >= 2**32 % n) < count
    expected = rng.generator().integers(0, n, size=count, dtype=np.int32)
    assert np.array_equal((rng.bounded_words(n, count).astype(np.uint64) * n) >> 32, expected)


def test_split_words_is_low_half_first_on_either_byte_order():
    raw = RngStream(8, ("split",)).generator().bit_generator.random_raw(5)
    halves = [h for x in raw.tolist() for h in (x & 0xFFFFFFFF, x >> 32)]
    for copy in (raw, raw.astype(">u8"), raw.astype("<u8")):
        assert _split_words(copy).tolist() == halves


@pytest.mark.parametrize("n", [0, -1, 2**31 + 1])
def test_bounded_words_rejects_bad_bounds(n):
    with pytest.raises(ValueError, match="n must be in"):
        RngStream(1).bounded_words(n, 4)


def test_generator_is_fresh_and_independent():
    rng = RngStream(5, ("own",))
    gen = rng.generator()
    head = gen.random(3)
    sample(normal(), 4, RngStream(6))  # re-keys the shared generator, not gen
    np.testing.assert_array_equal(rng.generator().random(6)[3:], gen.random(3))
    assert rng.generator() is not rng.generator()
    assert head[0] == rng.uniform()


def test_stream_key_types_distinguished():
    assert RngStream(0, (1,)).uniform() != RngStream(0, ("1",)).uniform()
    # A float part raises where it is hashed: at the first draw of a stream
    # built with it, and at child() when a child adds it.
    floated = RngStream(0, (1.5,))
    with pytest.raises(ValueError, match="int or str"):
        floated.generator()
    with pytest.raises(ValueError, match="int or str"):
        floated.uniform()
    with pytest.raises(ValueError, match="int or str"):
        RngStream(0, ("a",)).child(2, 1.5)


def hashed_key(seed, key):
    """Oracle: the Philox key words of the sha256 of the whole key, hashed from scratch."""
    text = f"i:{seed}" + "".join(
        f"\x1fs:{p}" if isinstance(p, str) else f"\x1fi:{int(p)}" for p in key)
    return tuple(np.frombuffer(hashlib.sha256(text.encode()).digest()[:16], dtype=np.uint64).tolist())


KEY_PARTS = [7, np.int64(-7), np.uint8(200), "data", "\u00fc", 2 ** 70]


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("seed, key", [(0, ()), (2026, ("normal(0;1)", 10)), (-3, (np.int32(5),))])
def test_child_extends_a_copy_of_its_parents_hash(seed, key, depth):
    parent = RngStream(seed, key)
    for parts in itertools.product(KEY_PARTS, repeat=depth):
        whole = RngStream(seed, key + parts)
        # One child call, and one part at a time from a parent whose hash is cached.
        stepwise = parent
        for part in parts:
            stepwise = stepwise.child(part)
        for got in (parent.child(*parts), stepwise):
            assert got == whole and hash(got) == hash(whole)
            assert got._key() == whole._key() == hashed_key(seed, key + parts)
            assert repr(got.uniform()) == repr(whole.uniform())
            assert got.generator().random(5).tobytes() == whole.generator().random(5).tobytes()


def test_a_stream_that_has_drawn_pickles_and_copies_by_its_key():
    rng = RngStream(9, ("p", 1)).child("data")
    head = rng.uniform()
    child_head = rng.child("rand", 3).uniform()
    for clone in (pickle.loads(pickle.dumps(rng)), copy.copy(rng), copy.deepcopy(rng)):
        assert clone == rng == RngStream(9, ("p", 1, "data"))
        assert hash(clone) == hash(rng) and repr(clone) == repr(rng)
        assert repr(clone.uniform()) == repr(head)
        assert repr(clone.child("rand", 3).uniform()) == repr(child_head)


def test_sample_rejects_bad_n():
    with pytest.raises(ValueError):
        sample(normal(), 0, RngStream(1))
