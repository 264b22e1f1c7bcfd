"""Method table and compute_region."""

import math

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
)
from mediancr.cli import _explain_randomized
from mediancr.distributions import RngStream, normal, sample
from mediancr.methods import (
    ALL_METHOD_IDS,
    METHODS,
    compute_region,
    parse_method_ids,
)
from mediancr.optimal import (
    cr_adaptive_edf,
    cr_adaptive_mom,
    cr_exponential_focused,
    cr_symmetric_focused,
)
from mediancr.regions import Interval, Region, make_sample

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
    10: lambda s, a, u, b: cr_symmetric_focused(s, a, u),
    11: lambda s, a, u, b: cr_exponential_focused(s, a, u),
    12: lambda s, a, u, b: cr_adaptive_mom(s, a, u),
    13: lambda s, a, u, b: cr_adaptive_edf(s, a, u),
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
