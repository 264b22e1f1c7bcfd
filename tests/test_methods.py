"""Method table and compute_region."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mediancr import methods
from mediancr.classical import (
    bootstrap_medians,
    cr_asymp_median,
    cr_bootstrap,
    cr_sign,
    cr_t,
    cr_wilcoxon,
    jackknife_acceleration,
)
from mediancr.cli import _explain_randomized
from mediancr.distributions import RngStream, normal, sample, study_distributions
from mediancr.errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from mediancr.methods import (
    ALL_METHOD_IDS,
    METHODS,
    compute_region,
    method_info,
    parse_method_ids,
)
from mediancr.optimal import (
    adaptive_edf_selection,
    adaptive_mom_selection,
    assemble_region,
    conservative_region,
    exponential_selection,
    symmetric_selection,
)
from mediancr.regions import Interval, Region, make_sample
from mediancr.simulate import SimConfig, draw, replicate

ALPHA = 0.05

# The per-method API each id must reproduce, as (sample, alpha, u, boot).
DIRECT = {
    1: lambda s, a, u, b: cr_t(s, a),
    2: lambda s, a, u, b: cr_wilcoxon(s, a),
    3: lambda s, a, u, b: cr_sign(s, a),
    4: lambda s, a, u, b: cr_asymp_median(s, a),
    5: lambda s, a, u, b: cr_bootstrap(s, a, b, "basic"),
    6: lambda s, a, u, b: cr_bootstrap(s, a, b, "se"),
    7: lambda s, a, u, b: cr_bootstrap(s, a, b, "percentile"),
    8: lambda s, a, u, b: cr_bootstrap(s, a, b, "bc"),
    9: lambda s, a, u, b: cr_bootstrap(s, a, b, "bca"),
    10: lambda s, a, u, b: assemble_region(s, symmetric_selection(s, a), u),
    11: lambda s, a, u, b: assemble_region(s, exponential_selection(s, a), u),
    12: lambda s, a, u, b: assemble_region(s, adaptive_mom_selection(s, a), u),
    13: lambda s, a, u, b: assemble_region(s, adaptive_edf_selection(s, a), u),
}

# The module-global name through which the table reaches each method.
PROCEDURE = {
    1: "cr_t", 2: "cr_wilcoxon", 3: "cr_sign", 4: "cr_asymp_median",
    5: "cr_bootstrap", 6: "cr_bootstrap", 7: "cr_bootstrap", 8: "cr_bootstrap", 9: "cr_bootstrap",
    10: "symmetric_selection", 11: "exponential_selection",
    12: "adaptive_mom_selection", 13: "adaptive_edf_selection",
}


def test_registry_shape():
    assert ALL_METHOD_IDS == tuple(range(1, 14))
    names = [info.name for info in METHODS.values()]
    assert len(set(names)) == 13
    assert all(METHODS[m].randomized for m in (10, 11, 12, 13))
    assert all(not METHODS[m].randomized for m in range(1, 10))
    assert all(METHODS[m].needs_bootstrap for m in (5, 6, 7, 8, 9))
    assert all(not METHODS[m].needs_bootstrap for m in (1, 2, 3, 4, 10, 11, 12, 13))


def fixture_sample():
    return make_sample(sample(normal(), 12, RngStream(6, ("disp",))))


def test_dispatch_matches_direct_calls():
    s = fixture_sample()
    boot = bootstrap_medians(s, 300, RngStream(6, ("disp", "boot")))
    for m in ALL_METHOD_IDS:
        for u in (0.05, 0.95):
            assert compute_region(m, s, ALPHA, u=u, boot=boot) == DIRECT[m](s, ALPHA, u, boot), (m, u)


def test_explain_branches_are_the_two_realized_regions():
    s = fixture_sample()
    for m in (10, 11, 12, 13):
        ex = _explain_randomized(METHODS[m].selection(s, ALPHA), s)
        gamma = ex["gamma"]
        assert ex["if_u_le_gamma"] == DIRECT[m](s, ALPHA, gamma, None), m
        assert ex["if_u_gt_gamma"] == DIRECT[m](s, ALPHA, math.nextafter(gamma, 1.0), None), m
        assert ex["if_u_le_gamma"] != ex["if_u_gt_gamma"], m


@pytest.mark.parametrize("method_id", ALL_METHOD_IDS)
def test_table_looks_procedures_up_at_call_time(method_id, monkeypatch):
    # Tracing rebinds module attributes, so the table must not hold on to
    # the function objects it was built with.
    name = PROCEDURE[method_id]
    original = getattr(methods, name)
    calls = []

    def patched(*args):
        calls.append(name)
        return original(*args)

    monkeypatch.setattr(methods, name, patched)
    s = fixture_sample()
    boot = bootstrap_medians(s, 50, RngStream(6, ("disp", "late")))
    assert compute_region(method_id, s, ALPHA, u=0.5, boot=boot) == DIRECT[method_id](s, ALPHA, 0.5, boot)
    assert calls == [name]
    if METHODS[method_id].randomized:
        METHODS[method_id].selection(s, ALPHA)
        assert calls == [name, name]


def mapped(region, g):
    """``region`` with every finite endpoint sent through g; -inf and +inf stay put."""
    f = lambda v: v if math.isinf(v) else float(g(v))
    return Region(tuple(Interval(f(iv.lo), f(iv.hi), iv.closed_hi) for iv in region.intervals))


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(st.integers(-1000, 1000), min_size=8, max_size=60),
    k=st.integers(-4, 4),
    c=st.integers(-1000, 1000),
    alpha=st.floats(0.01, 0.99),
)
def test_rank_methods_equivariant_under_dyadic_affine_maps(data, k, c, alpha):
    # Integer data, a power-of-two scale and an integer shift keep every
    # order statistic and Walsh average exact, so the map commutes with the
    # region exactly.
    scale = 2.0 ** k
    s = make_sample([float(v) for v in data])
    t = make_sample([scale * v + c for v in data])
    for m in (2, 3):
        expected = mapped(compute_region(m, s, alpha), lambda v: scale * v + c)
        assert compute_region(m, t, alpha) == expected, m


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(st.floats(-30.0, 30.0), min_size=8, max_size=60, unique=True),
    g=st.sampled_from([np.exp, np.sinh, np.cbrt]),
    alpha=st.floats(0.01, 0.99),
    u=st.floats(0.0, 1.0),
)
def test_count_methods_equivariant_under_increasing_maps(data, g, alpha, u):
    # The sign region and the (n, alpha)-only randomized regions are unions of
    # order-statistic spacings, so a strictly increasing map that keeps the
    # values distinct carries each region onto the region of the mapped data.
    # From n = 8 on every alpha >= 0.01 is attainable by methods 10 and 11.
    gx = [float(g(v)) for v in data]
    assume(len(set(gx)) == len(gx))
    s, t = make_sample(data), make_sample(gx)
    for m in (3, 10, 11):
        assert compute_region(m, t, alpha, u=u) == mapped(compute_region(m, s, alpha, u=u), g), m


# Ten values near the float limit, whose sum overflows.
NEAR_FLOAT_LIMIT = [1.7e308 - i * 1e305 for i in range(10)]

# Data whose spread lies outside the float range: method 4's bandwidth
# overflows, and the largest gap of method 13's sample exceeds the largest
# float.  Near the float limit the t interval's mean overflows.
SPREAD_BEYOND_FLOATS = [
    (4, [-1.7e308, -1e308, 0.0, 1e308, 1.7e308, 1.5e308, -1.2e308], 0.05),
    (13, [-1e308, 1e308, 1.5e308, 1.6e308, 1.7e308], 0.3),
    (1, NEAR_FLOAT_LIMIT, 0.05),
]


@pytest.mark.parametrize("method_id, data, alpha", SPREAD_BEYOND_FLOATS)
def test_spread_beyond_float_range_is_an_unsupported_size(method_id, data, alpha):
    # A library error, so simulate counts a failure and cr exits 3; neither a
    # ZeroDivisionError, a misreported level nor a nan endpoint.
    s = make_sample(data)
    boot = bootstrap_medians(s, 200, RngStream(5, ("boot",)))
    with pytest.raises(UnsupportedSizeError, match="float range"):
        compute_region(method_id, s, alpha, u=0.5, boot=boot)


@pytest.mark.parametrize("method_id", ALL_METHOD_IDS)
def test_no_region_has_a_nan_endpoint_near_the_float_limit(method_id):
    # Each method either gives a region whose endpoints are numbers or raises
    # the library's size error; methods 2-5 and 7-13 give regions.
    s = make_sample(NEAR_FLOAT_LIMIT)
    boot = bootstrap_medians(s, 200, RngStream(5, ("boot",)))
    try:
        region = compute_region(method_id, s, ALPHA, u=0.5, boot=boot)
    except UnsupportedSizeError:
        assert method_id in (1, 6)
        return
    assert method_id not in (1, 6)
    assert region.intervals
    for iv in region.intervals:
        assert iv.lo <= iv.hi and not math.isnan(iv.hi - iv.lo)


def test_basic_bootstrap_near_the_float_limit_is_the_scaled_interval():
    # 2 * median overflows on these data, but the reflected interval lies in
    # the float range.  Scaling by 2**-8 is exact, so the scaled data's
    # interval, scaled back, is the one an unbounded exponent range gives;
    # endpoints this large are equal only when their bits are.
    scale = 2.0 ** 8
    s = make_sample(NEAR_FLOAT_LIMIT)
    t = make_sample([v / scale for v in NEAR_FLOAT_LIMIT])
    rng = RngStream(5, ("boot",))
    region = compute_region(5, s, ALPHA, boot=bootstrap_medians(s, 200, rng))
    expected = mapped(compute_region(5, t, ALPHA, boot=bootstrap_medians(t, 200, rng)),
                      lambda v: scale * v)
    assert region == expected and region.intervals[0].hi < math.inf


def test_dispatch_bootstrap_variants_share_resamples():
    s = fixture_sample()
    boot = bootstrap_medians(s, 300, RngStream(6, ("disp", "boot")))
    regions = {m: compute_region(m, s, 0.05, boot=boot) for m in (5, 6, 7, 8, 9)}
    assert len({r.intervals for r in regions.values()}) >= 2
    for r in regions.values():
        [iv] = r.intervals
        assert iv.closed_hi


def test_dispatch_requires_u_and_boot():
    s = fixture_sample()
    with pytest.raises(ValueError, match="needs u"):
        compute_region(10, s, 0.05)
    with pytest.raises(ValueError, match="bootstrap"):
        compute_region(5, s, 0.05)
    with pytest.raises(ValueError, match="unknown method"):
        compute_region(14, s, 0.05, u=0.5)


def test_unknown_method_id_message_reads_the_table():
    valid = f"valid ids are {ALL_METHOD_IDS[0]}..{ALL_METHOD_IDS[-1]}"
    s = fixture_sample()
    calls = [
        (0, lambda: compute_region(0, s, 0.05, u=0.5)),
        (14, lambda: parse_method_ids("3,14")),
        (14, lambda: SimConfig(distributions=(normal(),), sample_sizes=(10,), alpha=0.05,
                               reps=1, breps=1, methods=(3, 14), master_seed=0)),
    ]
    for bad, call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"unknown method id {bad}; {valid}"
    assert all(method_info(m) is METHODS[m] for m in ALL_METHOD_IDS)


# Data whose leave-one-out medians spread about 1e150, so the 3/2 power of
# their sum of squared deviations exceeds the largest float.
WIDE_SPREAD = [1e150 * i * (-1) ** i for i in range(1, 12)]
# Data whose variance overflows while the values do not: the t interval's sd
# and the bootstrap standard error are inf.
WIDER_SPREAD = [1e160 * i * (-1) ** i for i in range(1, 12)]
# Scaled by 1e103 in its upper half, the moment form's denominator overflows
# while its sum of cubes stays finite; at 6e102 only its factor 6 does.
SKEWED = [-5.0, -4.0, -3.0, -2.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


@pytest.mark.parametrize("method_id, data", [
    (1, NEAR_FLOAT_LIMIT),
    (1, [-1.7e308, -1e308, 0.0, 1e308, 1.7e308, 1.5e308, -1.2e308]),
    (1, WIDER_SPREAD),
    (6, NEAR_FLOAT_LIMIT),
    (6, WIDER_SPREAD),
])
def test_overflowing_estimates_end_in_a_size_error_without_warnings(method_id, data):
    # The t interval's mean or sd and the bootstrap standard error overflow
    # here; numpy's RuntimeWarning stays inside the library and the region is
    # refused.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = make_sample(data)
        boot = bootstrap_medians(s, 200, RngStream(5, ("boot",)))
        with pytest.raises(UnsupportedSizeError, match="float range"):
            compute_region(method_id, s, ALPHA, boot=boot)


@pytest.mark.parametrize("data", [
    NEAR_FLOAT_LIMIT,
    [-1.7e308, -1e308, 0.0, 1e308, 1.7e308, 1.5e308, -1.2e308],
    WIDE_SPREAD,
    SKEWED[:6] + [1e103 * v for v in SKEWED[6:]],
    SKEWED[:6] + [6e102 * v for v in SKEWED[6:]],
    [-1.7976931348623157e308, -1.6e308, 1.6e308, 1.7e308, 1.75e308],
])
def test_bca_past_the_float_range_is_the_scaled_interval(data):
    # Near the float limit the acceleration is the same bits as on the data
    # scaled by a power of two into [-1, 1], also where a spacing at the
    # median overflows (the last data); the interval, scaled back, is the
    # same region.
    e = math.frexp(max(map(abs, data)))[1]
    s = make_sample(data)
    t = make_sample([math.ldexp(v, -e) for v in data])
    assert jackknife_acceleration(s) == jackknife_acceleration(t)
    rng = RngStream(5, ("boot",))
    region = compute_region(9, s, ALPHA, boot=bootstrap_medians(s, 200, rng))
    expected = mapped(compute_region(9, t, ALPHA, boot=bootstrap_medians(t, 200, rng)),
                      lambda v: math.ldexp(v, e))
    [iv] = region.intervals
    assert region == expected and math.isfinite(iv.lo) and math.isfinite(iv.hi)


def test_bca_is_bc_at_even_n_on_a_grid_replication():
    # Mixture n = 50, replication 1108 of the grid at seed 2026: the moment
    # form's float residue in a, which is 0 at even n, once moved method 9's
    # upper end to 1.959697160724324.
    dist = study_distributions()["mixture"]
    rng = RngStream(2026, (dist.label, 50, 1108))
    regions = replicate(draw(dist, 50, rng), ALPHA, (8, 9), 2000, rng)
    assert regions[8] == regions[9] == Region((Interval(-4.665835574545429, 1.9265057807104018,
                                                        closed_hi=True),))


@pytest.mark.parametrize("method_id", [1, 4, 6, 8, 9])
def test_level_whose_upper_quantile_rounds_to_one_is_infeasible(method_id):
    # 1 - alpha/2 rounds to 1 at alpha <= 2^-53: no finite normal or t quantile.
    s = fixture_sample()
    boot = bootstrap_medians(s, 200, RngStream(6, ("disp", "boot")))
    for alpha in (2.0 ** -53, 1e-17, 5e-324):
        with pytest.raises(InfeasibleLevelError, match="rounds to 1"):
            compute_region(method_id, s, alpha, boot=boot)
    [iv] = compute_region(method_id, s, math.nextafter(2.0 ** -53, 1.0), boot=boot).intervals
    assert math.isfinite(iv.lo) and math.isfinite(iv.hi)


def test_dispatch_ignores_unneeded_extras():
    s = fixture_sample()
    boot = bootstrap_medians(s, 100, RngStream(6, ("disp", "b2")))
    assert compute_region(1, s, 0.05, u=0.5, boot=boot) == cr_t(s, 0.05)


def test_parse_method_ids():
    assert parse_method_ids("all") == ALL_METHOD_IDS
    assert parse_method_ids("All") == ALL_METHOD_IDS
    assert parse_method_ids("3,1,3") == (1, 3)
    assert parse_method_ids(" 7 , 10 ") == (7, 10)
    with pytest.raises(ValueError):
        parse_method_ids("0")
    with pytest.raises(ValueError):
        parse_method_ids("1,twelve")
    with pytest.raises(ValueError):
        parse_method_ids(",")


# Values that stay normal floats, gaps included, after scaling by 2**k, |k| <= 30.
NORMAL_RANGE = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(NORMAL_RANGE, min_size=8, max_size=60, unique=True),
    k=st.integers(-30, 30),
    alpha=st.floats(0.01, 0.99),
    u=st.floats(0.0, 1.0),
)
def test_adaptive_methods_equivariant_under_powers_of_two(data, k, alpha, u):
    # x -> 2**k x scales every gap, weighted gap sum and spacing estimate
    # exactly and every ratio by 2**-k, so the ratio order and the relative
    # tie test are unchanged and the selection is the same.  From n = 8 on
    # every alpha <= 0.99 is attainable by methods 12 and 13.
    scale = 2.0 ** k
    s = make_sample(data)
    t = make_sample([scale * v for v in data])
    for m in (12, 13):
        a, b = METHODS[m].selection(s, alpha), METHODS[m].selection(t, alpha)
        assert (b.included, b.tie_set, b.gamma) == (a.included, a.tie_set, a.gamma), m
        expected = mapped(compute_region(m, s, alpha, u=u), lambda v: scale * v)
        assert compute_region(m, t, alpha, u=u) == expected, m


def within(inner, outer):
    """Whether every interval of ``inner`` lies inside one interval of ``outer``."""
    def inside(a, b):
        top_ok = a.hi < b.hi or (a.hi == b.hi and (b.closed_hi or not a.closed_hi))
        return b.lo <= a.lo and top_ok
    return all(any(inside(a, b) for b in outer.intervals) for a in inner.intervals)


CONTINUOUS = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40, unique=True)
TIED = st.lists(st.integers(-3, 3).map(float), min_size=3, max_size=40)


@settings(max_examples=100, deadline=None)
@given(
    data=st.one_of(CONTINUOUS, TIED),
    alpha=st.floats(0.01, 0.99),
    u=st.floats(0.0, 1.0),
    seed=st.integers(0, 2 ** 32),
)
def test_region_invariants(data, alpha, u, seed):
    s = make_sample(data)
    boot = bootstrap_medians(s, 40, RngStream(seed, ("invariants",)))
    regions = {}
    for m in ALL_METHOD_IDS:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                regions[m] = compute_region(m, s, alpha, u=u, boot=boot)
        except (InfeasibleLevelError, DegenerateDataError):
            continue
        ivs = regions[m].intervals
        for iv in ivs:
            assert iv.lo < iv.hi or (iv.closed_hi and iv.lo == iv.hi), (m, iv)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi < b.lo, (m, a, b)
        assert regions[m].content == pytest.approx(math.fsum(iv.hi - iv.lo for iv in ivs), rel=1e-12), m
        if METHODS[m].randomized:
            assert within(regions[m], conservative_region(s, METHODS[m].selection(s, alpha))), m
    # Method 3 is the envelope of method 10, and its u = 0 realization.
    assert within(regions[10], regions[3])
    assert compute_region(10, s, alpha, u=0.0) == regions[3]
