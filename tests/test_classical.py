"""Classical intervals: t, signed rank, sign counts, asymptotic, bootstrap."""

import itertools
import math
import pickle
import random
import statistics
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mediancr.classical import (
    BOOTSTRAP_VARIANTS,
    BootstrapDistribution,
    ClampedProbabilityWarning,
    _quartile,
    _triu_pair,
    bootstrap_medians,
    cr_asymp_median,
    cr_bootstrap,
    cr_sign,
    cr_t,
    cr_wilcoxon,
    jackknife_acceleration,
    kde_at_median,
)
from mediancr.distributions import (
    RngStream,
    binom_counts,
    norm_quantile,
    normal,
    sample,
    signed_rank_null_cdf,
    t_quantile,
)
from mediancr.errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from mediancr.regions import Interval, Region, SortedSample, make_sample

# ---------------------------------------------------------------------------
# t interval
# ---------------------------------------------------------------------------


def test_t_interval_frozen_example():
    # Oracle: mean 2, sd 1, n = 3, and the closed-form Student-t quantile
    # for df = 2, t = (2p-1)/sqrt(2p(1-p)) at p = 0.975.  mpmath at 40
    # digits gives lo = -0.4841377117503310710393912326008425077365.
    p = 0.975
    half = (2 * p - 1) / math.sqrt(2 * p * (1 - p)) / math.sqrt(3)
    r = cr_t(make_sample([1.0, 2.0, 3.0]), 0.05)
    [iv] = r.intervals
    assert iv.closed_hi
    assert iv.lo == pytest.approx(2.0 - half, abs=1e-12)
    assert iv.hi == pytest.approx(2.0 + half, abs=1e-12)


def test_t_interval_hand_arithmetic():
    data = [2.0, 4.0, 4.0, 6.0, 9.0]
    arr = np.array(data)
    half = t_quantile(0.975, 4) * arr.std(ddof=1) / math.sqrt(5)
    r = cr_t(make_sample(data), 0.05)
    [iv] = r.intervals
    assert iv.lo == pytest.approx(arr.mean() - half, rel=1e-14)
    assert iv.hi == pytest.approx(arr.mean() + half, rel=1e-14)


def test_t_interval_constant_data_collapses():
    r = cr_t(make_sample([5.0, 5.0, 5.0]), 0.05)
    assert r.intervals == (Interval(5.0, 5.0, closed_hi=True),)
    assert r.contains(5.0)
    assert r.content == 0.0


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30))
@example(values=[0.0] * 12 + [-9.9792015476736e291, 1.7976931348623157e308,
                             1.7976931348623157e308, -1.7976931348623157e308])  # the mean is nan
@example(values=[-1e-300, 1e300])  # the sd is inf
@example(values=[-1e160 * i for i in range(-5, 6)])  # the variance overflows, the sd would not
def test_t_and_bootstrap_se_take_numpys_sd_silently_past_the_float_range(values):
    # Oracle: numpy's mean and ddof=1 std of the sorted values, and of the
    # bootstrap medians for method 6, overflow allowed.  Each interval is the
    # center -+ t * spread, or the point at the center where the sd is 0;
    # where an end is not finite and ordered it is refused, never with a
    # numpy warning.
    s = make_sample(values)
    n = s.n
    boot = bootstrap_medians(s, 20, RngStream(1, ("boot",)))
    tq = t_quantile(0.975, n - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.sort(np.array(values))
        sd = float(np.std(x, ddof=1))
        se = float(np.std(boot.medians.array, ddof=1))
        cases = [(lambda: cr_t(s, 0.05), float(np.mean(x)), sd, tq * sd / math.sqrt(n)),
                 (lambda: cr_bootstrap(s, 0.05, boot, "se"), s.median, se, tq * se)]
    for region, center, spread, half in cases:
        lo, hi = (center, center) if spread == 0.0 else (center - half, center + half)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
                assert repr(region()) == repr(Region((Interval(lo, hi, closed_hi=True),)))
            else:
                with pytest.raises(UnsupportedSizeError, match="outside the float range"):
                    region()


def test_sample_and_bootstrap_medians_are_read_only_through_pickling():
    s = make_sample([0.3, -1.2, 4.5, 2.2, 2.2, 0.0])
    assert not s.array.flags.writeable
    assert s == SortedSample(s.values) and hash(s) == hash(SortedSample(s.values))
    copied = pickle.loads(pickle.dumps(s))
    assert copied == s and not copied.array.flags.writeable
    # A bootstrap distribution holds its medians as a SortedSample, guarded the same way.
    boot = bootstrap_medians(s, 50, RngStream(1, ("boot",)))
    copied = pickle.loads(pickle.dumps(boot))
    assert copied == boot and not copied.medians.array.flags.writeable
    assert copied.medians.array.tobytes() == boot.medians.array.tobytes()


def test_t_interval_domain():
    with pytest.raises(ValueError):
        cr_t(make_sample([1.0]), 0.05)
    with pytest.raises(ValueError):
        cr_t(make_sample([1.0, 2.0]), 1.0)


# ---------------------------------------------------------------------------
# Signed-rank region
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 10, 31, 200])
def test_triu_pair_is_numpy_triu_indices_and_read_only(n):
    i, j = _triu_pair(n)
    ei, ej = np.triu_indices(n)
    np.testing.assert_array_equal(i, ei)
    np.testing.assert_array_equal(j, ej)
    assert i.dtype == ei.dtype and j.dtype == ej.dtype
    assert not i.flags.writeable and not j.flags.writeable
    assert _triu_pair(n)[0] is i


def test_wilcoxon_smallest_feasible_case():
    # n = 2, alpha = 0.5: 2^-2 = 0.25 <= 0.25 so the window exists; Walsh
    # averages of {0, 2} are 0, 1, 2.
    r = cr_wilcoxon(make_sample([0.0, 2.0]), 0.5)
    assert r.intervals == (Interval(0.0, 2.0),)


def test_wilcoxon_infeasible_level():
    with pytest.raises(InfeasibleLevelError) as ei:
        cr_wilcoxon(make_sample([1.0, 2.0, 3.0, 4.0]), 0.05)
    assert ei.value.attainable == pytest.approx(1.0 - 2.0 ** -3)


def test_wilcoxon_window_near_float_max():
    # x_i + x_j overflows near the top of the float range, but every Walsh
    # average is finite: the window ends are the exact Walsh order statistics,
    # each rounded once.
    data = [1.7e308 * (1 - i / 100) for i in range(10)]
    walsh = sorted((Fraction(a) + Fraction(b)) / 2 for i, a in enumerate(data) for b in data[i:])
    k1, k2 = signed_rank_scan_window(signed_rank_cdf_table(10), 0.05)
    expected = window([float(w) for w in walsh], k1, k2)
    assert expected and all(math.isfinite(v) for iv in expected for v in (iv.lo, iv.hi))
    assert cr_wilcoxon(make_sample(data), 0.05).intervals == expected


def test_wilcoxon_region_is_within_walsh_range_and_covers_median():
    data = sample(normal(), 12, RngStream(21, ("wx",)))
    s = make_sample(data)
    r = cr_wilcoxon(s, 0.05)
    [iv] = r.intervals
    assert s.values[0] <= iv.lo < iv.hi <= s.values[-1] + 1e-12
    assert r.contains(s.median)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_wilcoxon_exact_null_coverage(alpha):
    # Under a symmetric error law, P{region covers the median} equals the
    # null mass of the window, which must reach 1 - alpha.
    for n in range(5, 31):
        if 0.5 ** n > alpha / 2.0:
            continue
        top = n * (n + 1) // 2
        k1 = max(w for w in range(top + 1) if signed_rank_null_cdf(w, n) <= alpha / 2.0)
        k2 = min(w for w in range(top + 1) if signed_rank_null_cdf(w, n) >= 1.0 - alpha / 2.0)
        cover = signed_rank_null_cdf(k2, n) - signed_rank_null_cdf(k1, n)
        assert cover >= 1.0 - alpha - 1e-12


# ---------------------------------------------------------------------------
# Sign (count) region
# ---------------------------------------------------------------------------


def test_sign_region_n5_median_level():
    r = cr_sign(make_sample([3.0, 1.0, 4.0, 1.5, 5.0]), 0.5)
    assert r.intervals == (Interval(1.5, 4.0),)


def test_sign_region_n10():
    data = [float(v) for v in range(1, 11)]
    r = cr_sign(make_sample(data), 0.05)
    assert r.intervals == (Interval(2.0, 9.0),)


def test_sign_region_tiny_n_unbounded_never_infeasible():
    r = cr_sign(make_sample([7.0]), 0.05)
    assert r.intervals == (Interval(-math.inf, math.inf),)
    r3 = cr_sign(make_sample([1.0, 2.0, 3.0]), 0.05)
    assert r3.intervals == (Interval(-math.inf, math.inf),)


@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1])
def test_sign_region_exact_coverage_at_least_nominal(alpha):
    # Coverage equals the binomial mass of the admitted counts k1 < B <= k2,
    # summed exactly from math.comb.
    for n in range(1, 61):
        k1, k2 = sign_scan_window(exact_binom_cdf(n), alpha)
        cover = sum(Fraction(math.comb(n, k), 2 ** n) for k in range(k1 + 1, k2 + 1))
        assert cover >= 1 - Fraction(alpha), n


# ---------------------------------------------------------------------------
# Cutoff search against the linear scans of the coverage tests
# ---------------------------------------------------------------------------

CUTOFF_ALPHAS = (0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 2.0 ** -10)


def exact_binom_cdf(n):
    """Oracle: P{B <= k}, k = 0..n, as exact prefix sums of C(n, j) rounded once."""
    out, acc = [], 0
    for j in range(n + 1):
        acc += math.comb(n, j)
        out.append(float(Fraction(acc, 2 ** n)))
    return out


def sign_scan_window(cdf, alpha):
    """(k1, k2) by the scan of test_sign_region_exact_coverage_at_least_nominal."""
    k1 = -1
    for w, c in enumerate(cdf):
        if c <= alpha / 2.0:
            k1 = w
        else:
            break
    k2 = len(cdf) - 1
    for w, c in enumerate(cdf):
        if c >= 1.0 - alpha / 2.0:
            k2 = w
            break
    return k1, k2


def window(ordered, k1, k2):
    """Intervals of [ordered[k1], ordered[k2]), 0-based.

    Index -1 reads as -inf and index len(ordered) as +inf; a window of zero
    width is empty.
    """
    lo = ordered[k1] if k1 >= 0 else -math.inf
    hi = ordered[k2] if k2 < len(ordered) else math.inf
    return (Interval(lo, hi),) if lo < hi else ()


def walsh_sorted(values):
    """Oracle: every (x_i + x_j) / 2, i <= j, sorted in plain Python."""
    return sorted((a + b) / 2.0 for i, a in enumerate(values) for b in values[i:])


def signed_rank_cdf_table(n):
    return [signed_rank_null_cdf(w, n) for w in range(n * (n + 1) // 2 + 1)]


def signed_rank_scan_window(cdf, alpha):
    """(k1, k2) by the scans of test_wilcoxon_exact_null_coverage."""
    k1 = max(w for w, c in enumerate(cdf) if c <= alpha / 2.0)
    k2 = min(w for w, c in enumerate(cdf) if c >= 1.0 - alpha / 2.0)
    return k1, k2


def test_sign_region_equals_linear_scan_window():
    # On the sample 1..n the order statistics are x_(k) = k.
    for n in list(range(1, 301)) + [1000]:
        values = [float(v) for v in range(1, n + 1)]
        s = make_sample(values)
        cdf = exact_binom_cdf(n)
        for alpha in CUTOFF_ALPHAS:
            expected = window(values, *sign_scan_window(cdf, alpha))
            assert cr_sign(s, alpha).intervals == expected, (n, alpha)


def natural_sign_levels():
    """(n, alpha) with alpha = 2 float(P{B <= k}) for k < n/2; 100 such k at n = 1000."""
    cases = []
    for n in (10, 30, 57, 100, 200, 1000):
        ks = range((n + 1) // 2)
        if n == 1000:
            ks = sorted(random.Random(57).sample(ks, 100))
        prefix = [0]
        for c in binom_counts(n):
            prefix.append(prefix[-1] + c)
        cases += [(n, 2 * float(Fraction(prefix[k + 1], 2 ** n))) for k in ks]
    return [(n, alpha) for n, alpha in cases if alpha < 1.0]


def test_sign_region_exact_at_natural_levels():
    # alpha/2 sits within one rounding of a binomial CDF value, so only an
    # exact comparison picks the narrowest symmetric window with mass at
    # least 1 - alpha.  On the sample 1..n, [x_(lo), x_(hi)) admits the
    # counts lo..hi - 1.
    cases = natural_sign_levels()
    assert (57, 0.2892437471090205) in cases
    for n, alpha in cases:
        counts = binom_counts(n)
        target = (1 - Fraction(alpha)) * 2 ** n
        [iv] = cr_sign(make_sample(range(1, n + 1)), alpha).intervals
        lo = 0 if iv.lo == -math.inf else int(iv.lo)
        hi = n + 1 if iv.hi == math.inf else int(iv.hi)
        assert lo + hi - 1 == n, (n, alpha)
        mass = sum(counts[lo:hi])
        assert mass >= target, (n, alpha)
        assert mass - counts[lo] - counts[hi - 1] < target, (n, alpha)
    r = cr_sign(make_sample(range(1, 58)), 0.2892437471090205)
    assert r.intervals == (Interval(24.0, 34.0),)


def signed_rank_counts_by_n(sizes):
    """Oracle: {n: number of subsets of 1..n with each sum w}, by the subset-sum DP."""
    counts, out = [1], {}
    for j in range(1, max(sizes) + 1):
        counts = counts + [0] * j
        for w in range(len(counts) - 1, j - 1, -1):
            counts[w] += counts[w - j]
        if j in sizes:
            out[j] = counts
    return out


def sidon_sample(n):
    """n <= 211 integers whose pairwise sums a + b, a <= b, all differ (Erdos-Turan, p = 211)."""
    return [float(2 * 211 * k + k * k % 211) for k in range(n)]


def natural_signed_rank_levels(counts_by_n):
    """(n, alpha) with alpha = 2 float(P{W+ <= w}) for up to 40 random w per n."""
    rng = random.Random(2)
    cases = [(57, 0.12782812452221481)]
    for n, counts in counts_by_n.items():
        cum = list(itertools.accumulate(counts))
        ws = range(len(counts) // 2 + 1)
        for w in sorted(rng.sample(ws, min(40, len(ws)))):
            cases.append((n, 2 * float(Fraction(cum[w], 2 ** n))))
    return [(n, alpha) for n, alpha in cases if alpha < 1.0]


def test_signed_rank_region_exact_at_natural_levels():
    # alpha/2 sits within one rounding of a signed-rank CDF value, so only an
    # exact comparison picks the narrowest symmetric window with null mass at
    # least 1 - alpha.  On a Sidon sample every Walsh average is distinct, and
    # the window [W_(k1+1), W_(top-k1)) admits W+ in k1 + 1..top - k1 - 1.
    counts_by_n = signed_rank_counts_by_n({10, 30, 57, 100, 200})
    for n, alpha in natural_signed_rank_levels(counts_by_n):
        counts, top = counts_by_n[n], n * (n + 1) // 2
        values = sidon_sample(n)
        rank = {v: k for k, v in enumerate(walsh_sorted(values))}
        target = (1 - Fraction(alpha)) * 2 ** n
        [iv] = cr_wilcoxon(make_sample(values), alpha).intervals
        k1, k2 = rank[iv.lo], rank[iv.hi]
        assert k1 + k2 == top - 1, (n, alpha)
        mass = sum(counts[k1 + 1:k2 + 1])
        assert mass >= target, (n, alpha)
        assert mass - counts[k1 + 1] - counts[k2] < target, (n, alpha)
    # The rounded CDF at w = 634 equals alpha/2 here while the exact one exceeds it.
    walsh = walsh_sorted(sidon_sample(57))
    [iv] = cr_wilcoxon(make_sample(sidon_sample(57)), 0.12782812452221481).intervals
    assert (iv.lo, iv.hi) == (walsh[633], walsh[1019])


def test_wilcoxon_region_equals_linear_scan_window():
    # On the sample 1..n the Walsh averages are (i + j) / 2, 1 <= i <= j <= n.
    for n in range(1, 201):
        feasible = [a for a in CUTOFF_ALPHAS if 0.5 ** n <= a / 2.0]
        if not feasible:
            continue
        values = [float(v) for v in range(1, n + 1)]
        s = make_sample(values)
        walsh = walsh_sorted(values)
        cdf = signed_rank_cdf_table(n)
        for alpha in feasible:
            expected = window(walsh, *signed_rank_scan_window(cdf, alpha))
            assert cr_wilcoxon(s, alpha).intervals == expected, (n, alpha)


def test_cutoff_windows_on_tied_sample():
    # Nine tied zeros and a one: the sign window at alpha = 0.05 has zero
    # width (x_(2) = x_(9) = 0) and is empty; at alpha = 0.01 it is [0, 1).
    values = [0.0] * 9 + [1.0]
    s = make_sample(values)
    walsh = walsh_sorted(values)
    cdf = exact_binom_cdf(10)
    wx_cdf = signed_rank_cdf_table(10)
    seen = []
    for alpha in CUTOFF_ALPHAS:
        sign = window(values, *sign_scan_window(cdf, alpha))
        assert cr_sign(s, alpha).intervals == sign
        seen.append(sign)
        if 0.5 ** 10 <= alpha / 2.0:
            wx = window(walsh, *signed_rank_scan_window(wx_cdf, alpha))
            assert cr_wilcoxon(s, alpha).intervals == wx
            seen.append(wx)
    assert () in seen
    assert (Interval(0.0, 1.0),) in seen
    # All observations tied: every window has zero width.
    flat = make_sample([2.5] * 12)
    assert cr_sign(flat, 0.05).is_empty
    assert cr_wilcoxon(flat, 0.05).is_empty


# ---------------------------------------------------------------------------
# Asymptotic interval with kernel density estimate
# ---------------------------------------------------------------------------


def test_kde_matches_hand_computation():
    data = [0.0, 1.0, 2.0, 3.0, 10.0]
    s = make_sample(data)
    arr = np.array(data)
    sd = arr.std(ddof=1)
    q75, q25 = np.percentile(arr, [75, 25])
    h = 0.9 * min(sd, (q75 - q25) / 1.34) * 5 ** (-0.2)
    expect = sum(
        math.exp(-0.5 * ((2.0 - x) / h) ** 2) for x in data
    ) / (5 * h * math.sqrt(2 * math.pi))
    assert kde_at_median(s) == pytest.approx(expect, rel=1e-12)


TIED_VALUES = (-3.0, -0.0, 0.0, 1.0, 2.5)


def percentile_kde(s):
    """Oracle: the KDE at the median with the IQR from np.percentile."""
    arr = s.array
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    with np.errstate(over="ignore"):  # np.std squares past the float range on [-1e-300, 1e300]
        h = 0.9 * min(float(np.std(arr, ddof=1)), (q75 - q25) / 1.34) * s.n ** (-0.2)
    if h <= 0.0:
        return "degenerate"
    with np.errstate(over="ignore"):
        z = (s.median - arr) / h
        f = float(np.mean(np.exp(-0.5 * z * z)) / (h * math.sqrt(2.0 * math.pi)))
    return f if 0.0 < f < math.inf else "outside float range"


@settings(max_examples=300, deadline=None)
@given(values=st.lists(
    st.one_of(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from(TIED_VALUES)),
    min_size=2, max_size=60,
))
@example(values=[-1e-300, 1e300])
@example(values=[0.0, 0.0, -0.0, -1.0, 1.0, -0.0])
@example(values=[0.0, 0.0, 0.0, -1.0, -2.225073858507e-311])  # subnormal h: the estimate is inf
def test_quartiles_equal_numpy_percentile(values):
    # Oracle: numpy's default (linear) percentile of the sorted sample, to the
    # last bit.  np.percentile partitions, which may bring either of two tied
    # zeros to an index, so the sign of a zero quartile is normalized; the KDE
    # reads only the difference q75 - q25, and a zero difference is degenerate
    # whatever its sign, as the KDE check shows.
    s = make_sample(values)
    q75, q25 = np.percentile(s.array, [75.0, 25.0])
    assert repr(_quartile(s.values, 0.75) + 0.0) == repr(float(q75) + 0.0)
    assert repr(_quartile(s.values, 0.25) + 0.0) == repr(float(q25) + 0.0)
    try:
        got = kde_at_median(s)
    except DegenerateDataError:
        got = "degenerate"
    except UnsupportedSizeError:
        got = "outside float range"
    assert repr(got) == repr(percentile_kde(s))


@pytest.mark.parametrize("values", [
    [0.0, 0.0, 0.0, -1.0, -2.225073858507e-311],  # subnormal bandwidth: z and f_hat overflow
    [-1.7e308, -1.7e308, -1.7e308, 1.7e308, 1.7e308],  # infinite bandwidth: z is inf / inf
    [-1.7e308, -1e308, 0.0, 1e308, 1.7e308, 1.5e308, -1.2e308],  # infinite bandwidth: the estimate is 0
])
def test_kde_outside_the_float_range_raises_without_a_numpy_warning(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedSizeError, match="outside the float range"):
            kde_at_median(make_sample(values))


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1.7976931348623157e308, -1.7976931348623157e308, 5e-324, 0.0]),
), min_size=2, max_size=30))
@example(values=[0.0] * 12 + [-9.9792015476736e291, 1.7976931348623157e308,
                             1.7976931348623157e308, -1.7976931348623157e308])  # sd is nan
def test_kde_is_silent_on_any_finite_data(values):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            f = kde_at_median(make_sample(values))
        except (DegenerateDataError, UnsupportedSizeError):
            return
    assert 0.0 < f < math.inf


def test_kde_scale_law():
    base = kde_at_median(make_sample([1.0, 2.0, 4.0, 8.0, 9.0]))
    doubled = kde_at_median(make_sample([2.0, 4.0, 8.0, 16.0, 18.0]))
    assert doubled == pytest.approx(base / 2.0, rel=1e-12)


def test_kde_degenerate_spread():
    # IQR zero while sd positive: bandwidth collapses.
    with pytest.raises(DegenerateDataError):
        kde_at_median(make_sample([1.0, 1.0, 1.0, 1.0, 9.0]))


def test_asymp_median_arithmetic():
    data = [0.5, 1.0, 1.5, 2.5, 4.0]
    s = make_sample(data)
    half = norm_quantile(0.975) / (2.0 * math.sqrt(5) * kde_at_median(s))
    r = cr_asymp_median(s, 0.05)
    [iv] = r.intervals
    assert iv.lo == pytest.approx(1.5 - half, rel=1e-14)
    assert iv.hi == pytest.approx(1.5 + half, rel=1e-14)
    assert iv.closed_hi


def test_asymp_median_refuses_an_end_past_the_float_range_without_a_warning():
    # The density estimate is positive and finite, the lower end median - half
    # overflows; the suite turns a numpy RuntimeWarning into an error.
    s = make_sample([-1e308, -0.0, -1.5e308])
    assert 0.0 < kde_at_median(s) < math.inf
    with pytest.raises(UnsupportedSizeError, match="outside the float range"):
        cr_asymp_median(s, 0.05)


# ---------------------------------------------------------------------------
# Bootstrap machinery
# ---------------------------------------------------------------------------


def test_bootstrap_medians_deterministic_and_sorted():
    s = make_sample(sample(normal(), 15, RngStream(3, ("bm",))))
    b1 = bootstrap_medians(s, 200, RngStream(3, ("boot",)))
    b2 = bootstrap_medians(s, 200, RngStream(3, ("boot",)))
    assert b1 == b2
    assert b1.breps == 200
    assert list(b1.medians.values) == sorted(b1.medians.values)
    assert b1.observed_median == s.median
    b3 = bootstrap_medians(s, 200, RngStream(3, ("boot2",)))
    assert b3 != b1


@st.composite
def samples(draw):
    """Samples of n = 2..120, continuous or drawn from five values (ties, -0.0)."""
    n = draw(st.integers(2, 120))
    if draw(st.booleans()):
        values = st.floats(-1e6, 1e6, allow_nan=False)
    else:
        values = st.sampled_from(TIED_VALUES)
    return make_sample(draw(st.lists(values, min_size=n, max_size=n)))


@settings(max_examples=200, deadline=None)
@given(s=samples(), breps=st.integers(1, 40), seed=st.integers(0, 2**32))
# An even-n mean that underflows to -0.0, which np.median keeps.
@example(s=make_sample([-1.0] * 53 + [-5e-324] + [0.0] * 60), breps=2, seed=0)
def test_bootstrap_medians_equal_numpy_median(s, breps, seed):
    # Oracle: np.median of the gathered resamples on the same default (int64) draw.
    rng = RngStream(seed, ("boot",))
    idx = rng.generator().integers(0, s.n, size=(breps, s.n))
    expected = np.sort(np.median(s.array[idx], axis=1)).tolist()
    boot = bootstrap_medians(s, breps, rng)
    assert [repr(v) for v in boot.medians.values] == [repr(v) for v in expected]
    assert [repr(v) for v in boot.medians.array.tolist()] == [repr(v) for v in expected]
    assert boot.medians.array.dtype == np.float64 and not boot.medians.array.flags.writeable


def test_bootstrap_medians_near_the_float_limit_are_finite_and_silent():
    # Every middle pair of these values sums beyond the largest float.
    s = make_sample([1.7e308 - i * 1e305 for i in range(10)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boot = bootstrap_medians(s, 500, RngStream(4, ("boot",)))
    assert s.values[0] <= min(boot.medians.values) and max(boot.medians.values) <= s.values[-1]
    assert math.isfinite(boot.observed_median)


@pytest.mark.parametrize(
    "n, breps", [(2, 500), (3, 500), (20, 200), (50, 200), (1000, 20), (100_000, 2)]
)
def test_int32_resample_indices_equal_int64(n, breps):
    # The word draw behind bootstrap_medians, numpy's int32 draw and its
    # default int64 draw give the same integers.
    for seed in range(20):
        rng = RngStream(seed, ("boot",))
        wide = rng.generator().integers(0, n, size=(breps, n))
        narrow = rng.generator().integers(0, n, size=(breps, n), dtype=np.int32)
        words = rng.bounded_words(n, breps * n).reshape(breps, n)
        assert np.array_equal(wide, narrow), seed
        assert np.array_equal((words.astype(np.uint64) * n) >> 32, narrow), seed


def median_oracle(s: SortedSample, breps: int, rng: RngStream) -> np.ndarray:
    # np.median of the gathered resamples on numpy's own int32 draw.
    idx = rng.generator().integers(0, s.n, size=(breps, s.n), dtype=np.int32)
    return np.sort(np.median(s.array[idx], axis=1))


@pytest.mark.parametrize("n, breps", [(10, 500), (20, 2000), (50, 2000), (1000, 2000)])
def test_bootstrap_medians_equal_numpy_median_at_benchmark_sizes(n, breps):
    for seed in range(3):
        s = make_sample(sample(normal(), n, RngStream(seed, ("bench", n))))
        rng = RngStream(seed, ("boot",))
        boot = bootstrap_medians(s, breps, rng)
        assert boot.medians.array.tobytes() == median_oracle(s, breps, rng).tobytes(), seed


def rejects_a_word(rng: RngStream, n: int, count: int) -> bool:
    # Whether numpy's int32 draw rejects any of the first ``count`` words:
    # w * n mod 2**32 below 2**32 mod n.
    raw = rng.generator().bit_generator.random_raw(-(-count // 2))
    words = raw.astype("<u8").view("<u4").astype(np.uint64)
    return bool(np.any((words * n) % 2**32 < 2**32 % n))


@pytest.mark.parametrize("seed", [0, 7])
def test_bootstrap_medians_peak_memory_is_one_resample_matrix(seed):
    # Seed 7 rejects a word, so the compaction pass and a top-up run as well;
    # the top-up's words go into the first buffer's tail, not a second matrix.
    n, breps = 1000, 2000
    s = make_sample(sample(normal(), n, RngStream(seed, ("mem",))))
    rng = RngStream(seed, ("boot",))
    assert rejects_a_word(rng, n, breps * n) == (seed == 7)
    bootstrap_medians(s, 1, rng)  # the shared generator and lazy imports are set up
    tracemalloc.start()
    try:
        boot = bootstrap_medians(s, breps, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= breps * n * 4 + 2**20
    assert boot.medians.array.tobytes() == median_oracle(s, breps, rng).tobytes()


def mpmath_acceleration(values) -> mpmath.mpf:
    # Oracle: delete each point, take the exact median of the rest, and form
    # the moments at 50 digits.
    with mpmath.workdps(50):
        x = sorted(mpmath.mpf(v) for v in values)
        loo = [statistics.median(x[:i] + x[i + 1:]) for i in range(len(x))]
        mean = sum(loo) / len(loo)
        d = [mean - v for v in loo]
        s2 = sum(t * t for t in d)
        return sum(t ** 3 for t in d) / (6 * s2 ** mpmath.mpf(1.5)) if s2 else mpmath.mpf(0)


MAX = 1.7976931348623157e308
ODD_ADVERSARIAL = [
    [5e-324, 1e-323, 3e-323, 1e-320, 2.2e-308],
    [-5e-324, 0.0, 5e-324, 1.5e-323, 1e-310, 1e-300, 1.0],
    [-MAX, -MAX, 0.0, MAX, MAX],
    [-MAX, -1e308, 1e308, MAX, MAX],
    [-MAX, -1.6e308, 1.6e308, 1.7e308, MAX],
    [-MAX, 5e-324, 1e300, 1.7e308, MAX, MAX, MAX],
    [1.0, 2.0, 2.0, 2.0, 7.0],
    [0.0, 0.0, 0.0, 5e-324, 1.0, 1.0, 1.0],
    [-3.0, -0.0, 0.0, 0.0, 1.0, 2.5, 2.5, 2.5, 2.5],
    [math.ldexp(1.0, e) for e in (-1074, -600, -3, 0, 5, 400, 1023)],
    [math.ldexp(1.0 + i / 7, 97 * i - 500) * (-1) ** i for i in range(11)],
]


@settings(max_examples=200, deadline=None)
@given(s=samples())
def test_jackknife_acceleration_against_mpmath(s):
    assert abs(jackknife_acceleration(s) - mpmath_acceleration(s.values)) <= 1e-16


@pytest.mark.parametrize("data", ODD_ADVERSARIAL)
def test_jackknife_acceleration_against_mpmath_on_extreme_floats(data):
    # Subnormals, the largest float (its spacings overflow) and ties.
    assert abs(jackknife_acceleration(make_sample(data)) - mpmath_acceleration(data)) <= 1e-16


@settings(max_examples=200, deadline=None)
@given(s=samples(), breps=st.integers(2, 60), seed=st.integers(0, 2**32),
       alpha=st.sampled_from([0.01, 0.05, 0.2, 0.5]))
def test_bca_is_bc_at_even_n(s, breps, seed, alpha):
    # The leave-one-out medians are two values, n/2 times each: a = 0 exactly,
    # so BCa is BC on a shared bootstrap.
    t = make_sample(s.values[:s.n - s.n % 2])
    assert jackknife_acceleration(t) == 0.0
    boot = bootstrap_medians(t, breps, RngStream(seed, ("boot",)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampedProbabilityWarning)
        assert cr_bootstrap(t, alpha, boot, "bca") == cr_bootstrap(t, alpha, boot, "bc")


@settings(max_examples=200, deadline=None)
@given(s=samples(), spacing=st.sampled_from([None, "lo", "up"]))
def test_jackknife_acceleration_odd_n_bound(s, spacing):
    # |a| <= 1 / (6 sqrt(m n (m + 1))), reached (up to rounding) where one
    # spacing at the median is 0 and the other is not.
    x = list(s.values[:s.n - 1 + s.n % 2])
    n, m = len(x), len(x) // 2
    assume(n >= 3)
    if spacing == "lo":
        x[m - 1] = x[m]
    elif spacing == "up":
        x[m + 1] = x[m]
    a = jackknife_acceleration(make_sample(x))
    bound = 1.0 / (6.0 * math.sqrt(m * n * (m + 1)))
    assert abs(a) <= bound * (1 + 1e-15)
    lo, up = x[m] - x[m - 1], x[m + 1] - x[m]
    if (lo == 0.0) != (up == 0.0):
        assert a == pytest.approx(math.copysign(bound, up - lo), rel=1e-15)


def normal_or_zero(v: float) -> bool:
    return v == 0.0 or 2.0 ** -1022 <= abs(v) <= MAX


@settings(max_examples=300, deadline=None)
@given(s=samples(), k=st.integers(-1100, 1100))
def test_jackknife_acceleration_is_power_of_two_scale_free(s, k):
    # Scaling by 2^k is exact on the data and on both spacings while they stay
    # normal, so the closed form sees the same ratios: the same bits.
    x = s.values[:s.n - 1 + s.n % 2]
    m = len(x) // 2
    assume(len(x) >= 3 and max(math.frexp(v)[1] for v in x) + k <= 1024)
    y = [math.ldexp(v, k) for v in x]
    assume(all(math.ldexp(w, -k) == v for v, w in zip(x, y)))
    assume(all(normal_or_zero(v) for v in (y[m] - y[m - 1], y[m + 1] - y[m])))
    assert jackknife_acceleration(make_sample(y)) == jackknife_acceleration(make_sample(x))


def test_bootstrap_quantile_ceiling_convention():
    boot = BootstrapDistribution(SortedSample((10.0, 20.0, 30.0, 40.0)), 25.0)
    assert boot.quantile(0.0) == 10.0
    assert boot.quantile(0.25) == 10.0
    assert boot.quantile(0.26) == 20.0
    assert boot.quantile(0.5) == 20.0
    assert boot.quantile(1.0) == 40.0
    with pytest.raises(ValueError):
        boot.quantile(1.0001)


def test_bootstrap_cdf_at_counts_ties():
    boot = BootstrapDistribution(SortedSample((1.0, 2.0, 2.0, 3.0)), 2.0)
    assert boot.cdf_at(2.0) == 0.75
    assert boot.cdf_at(0.5) == 0.0
    assert boot.cdf_at(3.0) == 1.0


SYN = BootstrapDistribution(SortedSample(tuple(float(v) for v in range(1, 101))), 50.5)


def test_basic_interval_reflects_percentile():
    r = cr_bootstrap(make_sample([1.0, 2.0, 3.0]), 0.10, SYN, "basic")
    [iv] = r.intervals
    # quantile(.95) = 95, quantile(.05) = 5; reflected about 2 * 50.5.
    assert iv.lo == 2 * 50.5 - 95.0
    assert iv.hi == 2 * 50.5 - 5.0


def test_percentile_interval_reads_quantiles():
    r = cr_bootstrap(make_sample([1.0, 2.0, 3.0]), 0.10, SYN, "percentile")
    [iv] = r.intervals
    assert iv.lo == 5.0
    assert iv.hi == 95.0


def test_se_interval_uses_t_scale():
    s = make_sample([1.0, 2.0, 3.0, 4.0, 5.0])
    r = cr_bootstrap(s, 0.05, SYN, "se")
    [iv] = r.intervals
    se = np.std(np.array(SYN.medians.values), ddof=1)
    half = t_quantile(0.975, 4) * se
    assert iv.lo == pytest.approx(50.5 - half, rel=1e-14)
    assert iv.hi == pytest.approx(50.5 + half, rel=1e-14)


def test_se_interval_needs_two_resamples():
    # One bootstrap median has no standard error; refused before numpy divides by zero.
    s = make_sample([1.0, 2.0, 3.0, 4.0, 5.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boot = bootstrap_medians(s, 1, RngStream(2, ("boot",)))
        with pytest.raises(UnsupportedSizeError, match="breps >= 2, got 1"):
            cr_bootstrap(s, 0.05, boot, "se")


def test_se_interval_constant_medians_collapses():
    boot = BootstrapDistribution(SortedSample((2.0,) * 50), 2.0)
    r = cr_bootstrap(make_sample([1.0, 2.0, 3.0]), 0.05, boot, "se")
    assert r.intervals == (Interval(2.0, 2.0, closed_hi=True),)


def test_bc_reduces_to_percentile_when_unbiased():
    # Exactly half the bootstrap medians sit at or below the observed value,
    # so the bias correction is zero.
    assert SYN.cdf_at(50.5) == 0.5
    s = make_sample([1.0, 2.0, 3.0, 4.0])
    pct = cr_bootstrap(s, 0.10, SYN, "percentile")
    bc = cr_bootstrap(s, 0.10, SYN, "bc")
    assert bc == pct


def test_bca_reduces_to_percentile_when_symmetric():
    # Data {1,2,3,4}: leave-one-out medians are (3,3,2,2), so the cubed
    # deviations cancel and the acceleration vanishes.
    s = make_sample([1.0, 2.0, 3.0, 4.0])
    assert jackknife_acceleration(s) == 0.0
    pct = cr_bootstrap(s, 0.10, SYN, "percentile")
    bca = cr_bootstrap(s, 0.10, SYN, "bca")
    assert bca == pct


def test_jackknife_acceleration_variants():
    # Data {1,2,3,40,41}: leave-one-out medians (21.5, 21.5, 21, 2.5, 2.5),
    # mean 13.8, deviations d = (-7.7, -7.7, -7.2, 11.3, 11.3), so
    # sum d^3 = 1599.48 and sum d^2 = 425.8.
    d = [Fraction(v) for v in ("-7.7", "-7.7", "-7.2", "11.3", "11.3")]
    assert sum(x ** 3 for x in d) == Fraction("1599.48")
    assert sum(x ** 2 for x in d) == Fraction("425.8")
    skew = make_sample([1.0, 2.0, 3.0, 40.0, 41.0])
    assert jackknife_acceleration(skew) == pytest.approx(1599.48 / (6.0 * 425.8 ** 1.5), rel=1e-13)
    # Even n: the leave-one-out medians split m / m over two values, so a = 0.
    assert jackknife_acceleration(make_sample([1.0, 2.0, 3.0, 10.0, 20.0, 30.0])) == 0.0


def test_jackknife_acceleration_is_scale_free_past_the_float_range():
    # The spacings at the median are 0 and the scale, so a is the bound
    # 1 / (6 sqrt(5 * 11 * 6)), correctly rounded (mpmath), at every scale:
    # also where the moment sums of the leave-one-out medians overflow (1e103,
    # or only the factor 6 at 6e102) or underflow (1e-108 and below).
    skew = [-5.0, -4.0, -3.0, -2.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    a = jackknife_acceleration(make_sample(skew))
    assert a == 0.009174698042719672
    for scale in (1e100, 6e102, 1e103, 1e-105, 1e-108, 1e-110, 1e-150, 1e-300):
        assert jackknife_acceleration(make_sample(skew[:6] + [scale * v for v in skew[6:]])) == a


def test_jackknife_acceleration_flat_medians():
    # Leave-one-out medians all equal: acceleration defined as 0.
    assert jackknife_acceleration(make_sample([5.0, 5.0, 5.0, 5.0])) == 0.0


def test_bc_clamps_saturated_bias_with_warning():
    boot = BootstrapDistribution(SortedSample(tuple(float(v) for v in range(1, 51))), 99.0)
    s = make_sample([1.0, 2.0, 3.0])
    with pytest.warns(ClampedProbabilityWarning):
        r = cr_bootstrap(s, 0.05, boot, "bc")
    [iv] = r.intervals
    assert 1.0 <= iv.lo <= iv.hi <= 50.0


def test_bootstrap_variant_validation():
    with pytest.raises(ValueError):
        cr_bootstrap(make_sample([1.0, 2.0]), 0.05, SYN, "jack")


def test_all_variants_cover_true_median_on_real_data():
    s = make_sample(sample(normal(), 25, RngStream(11, ("cover",))))
    boot = bootstrap_medians(s, 500, RngStream(11, ("cover", "boot")))
    for variant in BOOTSTRAP_VARIANTS:
        r = cr_bootstrap(s, 0.05, boot, variant)
        [iv] = r.intervals
        assert iv.lo <= iv.hi
        assert r.contains(s.median) or variant == "basic"


@pytest.mark.parametrize("alpha", [0.05, 1e-17])
def test_zero_spread_is_the_point_interval_at_any_level(alpha):
    # The t quantile is read only where a row has spread, and the point keeps
    # the sign of a -0.0 median (bootstrap medians of -0.0 data are +0.0).
    assert cr_t(make_sample([3.0] * 5), alpha).to_strings() == ["[3.0:3.0]"]
    s = make_sample([-0.0] * 5)
    boot = bootstrap_medians(s, 20, RngStream(1, ("boot",)))
    assert cr_bootstrap(s, alpha, boot, "se").to_strings() == ["[-0.0:-0.0]"]
