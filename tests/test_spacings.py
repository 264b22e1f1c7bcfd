"""Expected-spacing profiles: closed forms, data estimates, quadrature."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mediancr
from mediancr.distributions import (
    RngStream,
    cauchy,
    exponential,
    logistic,
    normal,
    normal_mixture,
    sample,
    study_distributions,
    uniform,
)
from mediancr.errors import DegenerateDataError, UnsupportedSizeError
from mediancr.regions import make_sample
from mediancr.spacings import (
    LkProfile,
    _edf_weights,
    lk_edf,
    lk_exponential,
    lk_mom,
    lk_numeric,
    lk_numeric_profile,
    lk_uniform,
)

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def test_uniform_profile_values():
    p = lk_uniform(4)
    assert p.n == 4
    assert p.l == (0.4, 0.4, 0.4, 0.4, 0.4)
    assert p.exact_ratio == (1, 4, 6, 4, 1)
    assert p.is_exact


def test_exponential_profile_values():
    p = lk_exponential(3)
    assert p.l == (1.0 / 3.0, 0.5, 1.0, math.inf)
    assert p.exact_ratio == (1, 2, 1, 0)


def test_exponential_profile_n10_ratios():
    # C(9, k) for k = 0..9, then 0 for the infinite top spacing.
    assert lk_exponential(10).exact_ratio == (1, 9, 36, 84, 126, 126, 84, 36, 9, 1, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 200, 999, 1000])
def test_exact_ratios_are_binomial_coefficients(n):
    assert lk_uniform(n).exact_ratio == tuple(math.comb(n, k) for k in range(n + 1))
    assert lk_exponential(n).exact_ratio == tuple(math.comb(n - 1, k) for k in range(n)) + (0,)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 57, 200, 999, 1000])
def test_binomial_pmf_table_equals_binom_pmf(n):
    # Oracle: C(n, k) / 2**n from math.comb, rounded once by Fraction; unit
    # spacings make each ratio the pmf itself.
    ratio = LkProfile(n, (1.0,) * (n + 1)).ratio
    assert ratio == tuple(float(Fraction(math.comb(n, k), 2 ** n)) for k in range(n + 1))


def ratio_oracle(n, l):
    """r(k) = C(n, k) / 2**n / l(k), the pmf rounded once by Fraction."""
    out = []
    for k, v in enumerate(l):
        pmf = float(Fraction(math.comb(n, k), 2 ** n))
        out.append(0.0 if v == math.inf else math.inf if v == 0.0 else pmf / v)
    return tuple(out)


SPACING_VALUES = st.one_of(
    st.sampled_from([0.0, math.inf, 5e-324, 1e-310, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=0.0, allow_nan=False, allow_subnormal=True),
)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 1000), values=st.lists(SPACING_VALUES, min_size=1, max_size=20),
       rnd=st.randoms(use_true_random=False))
def test_profile_ratio_is_pmf_over_spacing(n, values, rnd):
    # Zero, infinite, subnormal, huge and ordinary spacings, mixed.
    l = [rnd.choice(values) for _ in range(n + 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ratio = LkProfile(n, tuple(l)).ratio
    assert repr(ratio) == repr(ratio_oracle(n, l))


@pytest.mark.parametrize("profile", [lk_uniform, lk_exponential])
def test_closed_form_profile_checks_size_before_allocating(profile):
    n = 2_000_000
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedSizeError, match=f"got {n}$"):
            profile(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_profile_ratio_floats_follow_exact():
    p = lk_exponential(10)
    expected = np.array([1, 9, 36, 84, 126, 126, 84, 36, 9, 1, 0], dtype=float)
    top = p.ratio[0]
    np.testing.assert_allclose(np.array(p.ratio) / top, expected, rtol=1e-12)


def test_profile_validation():
    with pytest.raises(ValueError, match="n \\+ 1 entries"):
        LkProfile(n=2, l=(1.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        LkProfile(n=2, l=(1.0, -1.0, 1.0))
    with pytest.raises(ValueError, match="nonnegative"):
        LkProfile(n=2, l=(1.0, 1.0, -math.inf))
    with pytest.raises(ValueError, match="exact_ratio"):
        LkProfile(n=2, l=(1.0, 1.0, 1.0), exact_ratio=(1, 2))


def test_profile_ratio_is_derived_not_passed():
    # A third positional argument would once have been read as the ratios.
    with pytest.raises(TypeError):
        LkProfile(2, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(TypeError):
        LkProfile(n=2, l=(1.0, 1.0, 1.0), ratio=(1.0, 1.0, 1.0))
    assert LkProfile(2, (1.0, 1.0, 1.0), exact_ratio=(1, 2, 1)).is_exact


# ---------------------------------------------------------------------------
# Data-driven estimates
# ---------------------------------------------------------------------------


def test_mom_profile_is_spacings_with_infinite_ends():
    s = make_sample([1.0, 3.0, 4.0])
    p = lk_mom(s)
    assert p.l == (math.inf, 2.0, 1.0, math.inf)
    assert p.ratio[0] == 0.0 and p.ratio[3] == 0.0
    # r(k) = P{B = k} / l(k) with B ~ Binomial(3, 1/2).
    assert p.ratio[1] == pytest.approx(0.375 / 2.0)
    assert p.ratio[2] == pytest.approx(0.375 / 1.0)


def test_mom_rejects_tied_interior():
    with pytest.raises(DegenerateDataError):
        lk_mom(make_sample([1.0, 1.0, 2.0]))


def test_mom_n2_has_no_interior_constraint():
    # With n = 2 every spacing estimate is infinite except the middle one.
    p = lk_mom(make_sample([0.0, 1.0]))
    assert p.l == (math.inf, 1.0, math.inf)


def test_edf_profile_n2_example():
    # Single spacing d = x_(2) - x_(1) = 1: l(k) = C(2,k) (1/2)^(2-k+k) d ... in
    # closed form the weights reduce to (1/4, 1/2, 1/4).
    p = lk_edf(make_sample([0.0, 1.0]))
    assert p.l == (0.25, 0.5, 0.25)


def test_edf_profile_all_finite_and_scale_equivariant():
    s = make_sample([0.0, 0.5, 1.25, 3.0, 7.0])
    p = lk_edf(s)
    assert all(math.isfinite(v) and v > 0 for v in p.l)
    doubled = lk_edf(make_sample([0.0, 1.0, 2.5, 6.0, 14.0]))
    np.testing.assert_allclose(doubled.l, 2.0 * np.array(p.l), rtol=1e-12)


def test_edf_profile_shift_invariant():
    a = lk_edf(make_sample([1.0, 2.0, 4.0, 8.0]))
    b = lk_edf(make_sample([101.0, 102.0, 104.0, 108.0]))
    np.testing.assert_allclose(a.l, b.l, rtol=1e-12)


def test_edf_handles_all_tied_sample():
    # All mass at one point: every estimated spacing is zero.
    p = lk_edf(make_sample([2.0, 2.0, 2.0]))
    assert p.l == (0.0, 0.0, 0.0, 0.0)


def test_profiles_do_not_warn_on_extreme_data():
    # Python's float arithmetic, which the formulas follow, overflows to inf
    # and divides by zero spacing without a warning, so neither may numpy.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        subnormal = make_sample([0.0, 5e-324, 1.0, 2.0, 3.0, 4.0])
        assert lk_mom(subnormal).ratio[1] == math.inf
        assert all(v > 0 for v in lk_edf(subnormal).ratio)
        tied = make_sample([2.0] * 5)
        assert lk_edf(tied).ratio == (math.inf,) * 6
        with pytest.raises(DegenerateDataError):
            lk_mom(tied)
        # The first gap exceeds the largest float.
        assert lk_edf(make_sample([-1e308, 1e308, 1.5e308])).ratio == (0.0,) * 4
        # So does the first of 199 gaps, and zero weights meet it as well.
        wide = lk_edf(make_sample([-1.7e308] + [1e308 + i * 1e292 for i in range(199)]))
        assert wide.l[0] == math.inf


def edf_reference(values):
    """l_hat(k) and r(k) of the lk_edf docstring, summed term by term over i."""
    n = len(values)
    l = []
    for k in range(n + 1):
        acc = 0.0
        for i in range(2, n + 1):
            p = (i - 1) / n
            acc += (1.0 - p) ** (n - k) * p ** k * (values[i - 1] - values[i - 2])
        l.append(math.comb(n, k) * acc)
    # C(n, k) / 2**n is int / int, so correctly rounded like the pmf table.
    ratio = [math.inf if v == 0.0 else math.comb(n, k) / 2 ** n / v for k, v in enumerate(l)]
    return tuple(l), tuple(ratio)


def edf_oracle_samples(n, name, variants):
    x = sample(study_distributions()[name], n, RngStream(8, ("edf-oracle", name)))
    for scale, rounded in variants:
        y = x * scale
        yield make_sample(np.round(y, 1) if rounded else y)


EDF_VARIANTS = [(scale, rounded) for scale in (1e-5, 1.0, 1e4) for rounded in (False, True)]


@pytest.mark.parametrize("n", list(range(2, 41)) + [50, 65, 66, 100, 129, 130, 200])
def test_edf_profile_equals_reference_bit_for_bit(n):
    for name in study_distributions():
        for s in edf_oracle_samples(n, name, EDF_VARIANTS):
            p = lk_edf(s)
            assert repr((p.l, p.ratio)) == repr(edf_reference(s.values)), (name, s.values[:3])


@pytest.mark.parametrize("index, name", list(enumerate(sorted(study_distributions()))))
def test_edf_profile_equals_reference_at_n1000(index, name):
    # The reference takes about half a second here, so each distribution gets
    # one scale and data kind, cycling through those that are not all zero
    # (rounding at scale 1e-5).  A weight table from np.power instead of
    # np.float_power fails here wherever np.power dispatches to a SIMD pow.
    variants = [v for v in EDF_VARIANTS if v != (1e-5, True)]
    [s] = edf_oracle_samples(1000, name, [variants[index % len(variants)]])
    p = lk_edf(s)
    assert repr((p.l, p.ratio)) == repr(edf_reference(s.values))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(-1e3, 1e3), st.integers(-3, 3).map(float)), min_size=2, max_size=30))
def test_edf_profile_equals_reference_on_arbitrary_data(data):
    s = make_sample(data)
    p = lk_edf(s)
    assert repr((p.l, p.ratio)) == repr(edf_reference(s.values))


def test_edf_weights_built_once_per_n():
    _edf_weights.cache_clear()
    for misses, n in enumerate((7, 12), start=1):
        for seed in range(3):
            lk_edf(make_sample(sample(normal(), n, RngStream(seed, ("edf-cache", n)))))
        assert _edf_weights.cache_info().misses == misses
    assert _edf_weights.cache_info().hits == 4


@pytest.mark.parametrize("n", [2, 3, 64, 65, 200, 511, 1000])
def test_edf_weights_equal_scalar_pow_table(n):
    # Row i - 2 of the docstring formula with Python's **, p = (i - 1) / n.
    expected = np.array([
        [(1 - p) ** (n - k) * p ** k for k in range(n + 1)]
        for p in ((i - 1) / n for i in range(2, n + 1))
    ])
    assert _edf_weights(n).tobytes() == expected.tobytes()


def test_edf_weights_build_peak_memory():
    # The build may hold one block of rows beside the result, not a second table.
    table = 999 * 1001 * 8
    _edf_weights.cache_clear()
    tracemalloc.start()
    try:
        _edf_weights(1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table + (1 << 20)


def test_edf_weights_are_read_only():
    w = _edf_weights(6)
    assert w.shape == (5, 7) and w.dtype == np.float64
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0


def test_edf_beyond_binomial_tables_builds_no_weights():
    before = _edf_weights.cache_info().currsize
    with pytest.raises(UnsupportedSizeError):
        lk_edf(make_sample(np.arange(1100.0)))
    assert _edf_weights.cache_info().currsize == before


def test_estimates_require_n_at_least_two():
    with pytest.raises(ValueError):
        lk_mom(make_sample([1.0]))
    with pytest.raises(ValueError):
        lk_edf(make_sample([1.0]))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_numeric_matches_uniform_closed_form():
    for n in (2, 5, 9):
        dist = uniform(-1.0, 1.0)
        for k in range(n + 1):
            assert lk_numeric(dist, n, k) == pytest.approx(2.0 / (n + 1), abs=1e-9)


def test_numeric_matches_exponential_closed_form():
    dist = exponential(1.0)
    for n in (3, 6, 10):
        for k in range(n):
            assert lk_numeric(dist, n, k) == pytest.approx(1.0 / (n - k), abs=1e-9)
        assert lk_numeric(dist, n, n) == math.inf


def fresh_process_lines(code):
    """Output lines of ``code`` run by a new interpreter that imports this mediancr."""
    src = str(Path(mediancr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True).stdout.splitlines()


def test_import_loads_no_optimize_or_integrate():
    # Only lk_numeric needs scipy.integrate, which imports scipy.optimize itself;
    # nothing else needs scipy.optimize, not even the normal mixture's quantile.
    out = fresh_process_lines(
        "import sys, mediancr, mediancr.cli\n"
        "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))\n"
        "from mediancr.distributions import exponential, study_distributions\n"
        "mixture = study_distributions()['mixture']\n"
        "print(repr(mixture.true_median()), 'scipy.optimize' in sys.modules)\n"
        "from mediancr.spacings import lk_numeric\n"
        "print(repr(lk_numeric(exponential(1.0), 10, 3)), repr(lk_numeric(mixture, 6, 3)),\n"
        "      'scipy.integrate' in sys.modules)\n"
    )
    mixture = study_distributions()["mixture"]
    assert out[0] == "[]"
    assert out[1] == f"{mixture.true_median()!r} False"
    assert out[2] == f"{lk_numeric(exponential(1.0), 10, 3)!r} {lk_numeric(mixture, 6, 3)!r} True"


def test_import_loads_no_process_pool():
    # Only run_simulation with workers > 1 needs the process pool.
    out = fresh_process_lines(
        "import sys, mediancr, mediancr.cli\n"
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
        " if m in sys.modules))\n"
    )
    assert out == ["[]"]


def test_numeric_exponential_frozen_value():
    assert lk_numeric(exponential(1.0), 10, 3) == pytest.approx(1.0 / 7.0, abs=1e-12)


def test_numeric_divergence_flags():
    # Heavy Cauchy tails push the two extreme spacings on each side to +inf;
    # lighter tails diverge only at the outermost spacing.
    c = cauchy()
    assert lk_numeric(c, 8, 0) == math.inf
    assert lk_numeric(c, 8, 1) == math.inf
    assert lk_numeric(c, 8, 7) == math.inf
    assert lk_numeric(c, 8, 8) == math.inf
    assert lk_numeric(c, 8, 2) == pytest.approx(1.4274, abs=2e-4)
    nrm = normal()
    assert lk_numeric(nrm, 8, 0) == math.inf
    assert lk_numeric(nrm, 8, 8) == math.inf
    assert math.isfinite(lk_numeric(nrm, 8, 1))
    lgt = logistic()
    assert lk_numeric(lgt, 6, 0) == math.inf
    assert math.isfinite(lk_numeric(lgt, 6, 1))


# The hand-written sets of k with l(k) = +inf: Cauchy tails (F ~ 1/|x|) need
# k >= 2 and n - k >= 2; the other unbounded tails fail only at the outermost
# spacing; bounded ends never diverge.
INFINITE_SPACINGS = {
    "cauchy": lambda n: {k for k in range(n + 1) if not 2 <= k <= n - 2},
    "normal": lambda n: {0, n},
    "logistic": lambda n: {0, n},
    "mixture": lambda n: {0, n},
    "gamma": lambda n: {n},
    "weibull": lambda n: {n},
    "exponential": lambda n: {n},
    "uniform": lambda n: set(),
}


@pytest.mark.parametrize("name", sorted(INFINITE_SPACINGS))
def test_numeric_infinite_spacings_match_tail_sets(name, monkeypatch):
    from scipy import integrate

    # Only which spacings are infinite is under test, so the quadrature of the
    # finite ones is replaced by a constant.
    monkeypatch.setattr(integrate, "quad", lambda *args, **kwargs: (1.0, 0.0))
    dist = {**study_distributions(), "exponential": exponential(1.0)}[name]
    for n in range(1, 41):
        got = {k for k in range(n + 1) if lk_numeric(dist, n, k) == math.inf}
        assert got == INFINITE_SPACINGS[name](n), (name, n)


def test_numeric_profile_shape():
    p = lk_numeric_profile(normal(), 5)
    assert p.n == 5
    assert p.l[0] == math.inf and p.l[5] == math.inf
    assert all(math.isfinite(v) for v in p.l[1:5])
    # Symmetric distribution: interior spacings mirror.
    assert p.l[1] == pytest.approx(p.l[4], rel=1e-8)
    assert p.l[2] == pytest.approx(p.l[3], rel=1e-8)


def test_numeric_against_monte_carlo_spacings():
    # 200k samples of sorted normal data, n = 5: the mean interior spacings
    # must straddle the quadrature values within 4 standard errors.
    n, reps = 5, 200_000
    rng = RngStream(77, ("mc-spacing",))
    x = np.sort(
        sample(normal(), n * reps, rng).reshape(reps, n), axis=1
    )
    gaps = np.diff(x, axis=1)
    for k in range(1, n):
        est = gaps[:, k - 1].mean()
        se = gaps[:, k - 1].std(ddof=1) / math.sqrt(reps)
        assert abs(lk_numeric(normal(), n, k) - est) <= 4.0 * se


def test_numeric_domain():
    with pytest.raises(ValueError):
        lk_numeric(normal(), 0, 0)
    with pytest.raises(ValueError):
        lk_numeric(normal(), 5, 6)
    with pytest.raises(ValueError):
        lk_numeric(normal(), 5, -1)


def test_study_mixture_profile_is_asymmetric():
    # The unequal-variance two-component mixture used in the simulation study
    # is not symmetric about its median, and its spacing profile shows it:
    # ratios do not mirror. Guard against "optimizing" this into symmetry.
    mix = normal_mixture(0.6, -5.0, 3.0, 5.0, 2.0)
    p = lk_numeric_profile(mix, 8)
    vals = np.array([v for v in p.ratio if math.isfinite(v)])
    top = vals.max()
    asym = max(
        abs(p.ratio[k] - p.ratio[8 - k]) / top
        for k in range(1, 8)
        if math.isfinite(p.ratio[k]) and math.isfinite(p.ratio[8 - k])
    )
    assert asym > 1e-3


def test_symmetric_mixture_profile_mirrors():
    mix = normal_mixture(0.5, -5.0, 3.0, 5.0, 3.0)
    p = lk_numeric_profile(mix, 8)
    for k in range(9):
        lo, hi = p.l[k], p.l[8 - k]
        if math.isinf(lo) or math.isinf(hi):
            assert lo == hi
        else:
            assert lo == pytest.approx(hi, rel=1e-7)
