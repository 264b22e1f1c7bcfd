"""Region representation: order statistics, intervals, count-set construction."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancr.regions import (
    Interval,
    Region,
    SortedSample,
    json_float,
    make_sample,
    midpoint,
    region_from_gamma0,
)


def test_make_sample_sorts_and_validates():
    s = make_sample([3.0, 1.0, 4.0, 1.5, 5.0])
    assert s.values == (1.0, 1.5, 3.0, 4.0, 5.0)
    assert s.n == 5
    with pytest.raises(ValueError):
        make_sample([])
    with pytest.raises(ValueError):
        make_sample([1.0, math.nan])
    with pytest.raises(ValueError):
        make_sample([1.0, math.inf])
    with pytest.raises(ValueError):
        make_sample([[1.0, 2.0], [3.0, 4.0]])


def test_order_stat_conventions():
    s = make_sample([2.0, 1.0, 3.0])
    assert s.order_stat(0) == -math.inf
    assert s.order_stat(1) == 1.0
    assert s.order_stat(3) == 3.0
    assert s.order_stat(4) == math.inf
    with pytest.raises(ValueError):
        s.order_stat(5)
    with pytest.raises(ValueError):
        s.order_stat(-1)


def test_sample_median():
    assert make_sample([5.0, 1.0, 3.0]).median == 3.0
    assert make_sample([1.0, 2.0, 3.0, 10.0]).median == 2.5


# Data near the float limit, whose middle pair sums beyond the largest float.
NEAR_FLOAT_LIMIT = [1.7e308 - i * 1e305 for i in range(10)]


def test_median_near_the_float_limit_is_the_exact_midpoint_rounded():
    s = make_sample(NEAR_FLOAT_LIMIT)
    assert s.median == float((Fraction(s.values[4]) + Fraction(s.values[5])) / 2)


# Ordinary, subnormal and signed-zero floats, and the largest magnitudes.
MIDPOINT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7e308]),
)


@settings(max_examples=300, deadline=None)
@given(pairs=st.lists(st.tuples(MIDPOINT_FLOATS, MIDPOINT_FLOATS), min_size=1, max_size=8))
def test_midpoint_is_the_old_formula_wherever_that_is_finite(pairs):
    a = np.array([p[0] for p in pairs])
    b = np.array([p[1] for p in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mids = midpoint(a, b)
        for (x, y), mid in zip(pairs, mids.tolist()):
            assert repr(midpoint(x, y)) == repr(mid)
            old = 0.5 * (x + y)
            if math.isfinite(old):
                assert repr(mid) == repr(old)
            else:
                # Oracle: the exact midpoint, rounded once.
                assert mid == float((Fraction(x) + Fraction(y)) / 2)


def test_interval_membership_half_open_vs_closed():
    half = Interval(1.0, 2.0)
    assert half.contains(1.0)
    assert not half.contains(2.0)
    closed = Interval(1.0, 2.0, closed_hi=True)
    assert closed.contains(2.0)
    assert half.length == 1.0


def test_region_content_and_membership():
    r = Region((Interval(0.0, 1.0), Interval(2.0, 4.0)))
    assert r.content == 3.0
    assert r.contains(0.5)
    assert not r.contains(1.5)
    assert not r.contains(4.0)
    assert not r.is_empty
    assert Region().is_empty
    assert Region().content == 0.0


def test_region_content_infinite():
    assert Region((Interval(-math.inf, 0.0),)).content == math.inf
    assert Region((Interval(0.0, math.inf),)).content == math.inf


def test_region_shift():
    r = Region((Interval(0.0, 1.0), Interval(2.0, math.inf)))
    sh = r.shifted(-2.0)
    assert sh.intervals == (Interval(-2.0, -1.0), Interval(0.0, math.inf))


def test_serialization_round_trip():
    r = Region((Interval(-math.inf, -1.5), Interval(0.1, 2.0, closed_hi=True)))
    toks = r.to_strings()
    assert toks == ["[-inf:-1.5)", "[0.1:2.0]"]


def test_to_jsonable_uses_inf_tokens():
    r = Region((Interval(-math.inf, 2.0),))
    [d] = r.to_jsonable()
    assert d == {"lo": "-inf", "hi": 2.0, "closed_hi": False}


def test_json_float_spells_infinities():
    assert json_float(math.inf) == "inf"
    assert json_float(-math.inf) == "-inf"
    assert json_float(-0.0) == 0.0 and math.copysign(1.0, json_float(-0.0)) == -1.0
    assert json_float(5e-324) == 5e-324


# ---------------------------------------------------------------------------
# region_from_gamma0
# ---------------------------------------------------------------------------


def test_gamma0_consecutive_counts_merge():
    s = make_sample([1.0, 2.0, 3.0, 4.0, 5.0])
    r = region_from_gamma0(s, {2, 3})
    assert r.intervals == (Interval(2.0, 4.0),)


def test_gamma0_gap_makes_two_intervals():
    s = make_sample([1.0, 2.0, 3.0, 4.0, 5.0])
    r = region_from_gamma0(s, {1, 3})
    assert r.intervals == (Interval(1.0, 2.0), Interval(3.0, 4.0))


def test_gamma0_boundary_counts_unbounded():
    s = make_sample([1.0, 2.0, 3.0])
    assert region_from_gamma0(s, {0}).intervals == (Interval(-math.inf, 1.0),)
    assert region_from_gamma0(s, {3}).intervals == (Interval(3.0, math.inf),)
    assert region_from_gamma0(s, range(4)).intervals == (
        Interval(-math.inf, math.inf),
    )


def test_gamma0_empty_set():
    assert region_from_gamma0(make_sample([1.0, 2.0]), set()).is_empty


def test_gamma0_rejects_out_of_range():
    s = make_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        region_from_gamma0(s, {3})
    with pytest.raises(ValueError):
        region_from_gamma0(s, {-1})


def test_gamma0_ties_collapse_zero_width_and_merge_abutting():
    # x = (1, 1, 2): count k=1 spans [x_(1), x_(2)) which is empty, and
    # {1, 2} must yield the single piece [1, 2) rather than an empty shard
    # plus [1, 2).
    s = make_sample([1.0, 1.0, 2.0])
    assert region_from_gamma0(s, {1}).is_empty
    assert region_from_gamma0(s, {1, 2}).intervals == (Interval(1.0, 2.0),)
    # Non-consecutive counts whose pieces abut through a tie also merge.
    s2 = make_sample([1.0, 2.0, 2.0, 3.0])
    assert region_from_gamma0(s2, {1, 3}).intervals == (Interval(1.0, 3.0),)


def count_at_most(values, point):
    return int(sum(1 for v in values if v <= point))


@pytest.mark.parametrize("k_set", [set(), {0}, {2}, {5}, {0, 1}, {1, 2, 3}, {0, 2, 4}, {1, 4, 5}, set(range(6))])
def test_membership_duality_exhaustive(k_set):
    # Point in region iff the count of observations <= point lies in k_set,
    # probed at every order statistic, every midpoint, and both tails.
    values = [-3.0, -1.0, 0.5, 2.0, 7.0]
    s = make_sample(values)
    r = region_from_gamma0(s, k_set)
    probes = list(values)
    probes += [(a + b) / 2 for a, b in zip(values, values[1:])]
    probes += [values[0] - 1.0, values[-1] + 1.0]
    for p in probes:
        assert r.contains(p) == (count_at_most(values, p) in k_set), (p, k_set)


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(st.integers(-50, 50), min_size=1, max_size=8),
    ks=st.sets(st.integers(0, 8)),
    shift=st.integers(-100, 100),
)
def test_gamma0_shift_equivariance(data, ks, shift):
    # Integer-valued floats keep the arithmetic exact, so equality is exact.
    ks = {k for k in ks if k <= len(data)}
    base = region_from_gamma0(make_sample([float(v) for v in data]), ks)
    moved = region_from_gamma0(make_sample([float(v + shift) for v in data]), ks)
    assert moved == base.shifted(float(shift))


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(st.integers(-50, 50), min_size=1, max_size=7, unique=True),
    ks=st.sets(st.integers(0, 7)),
    point=st.integers(-60, 60),
)
def test_membership_duality_property(data, ks, point):
    ks = {k for k in ks if k <= len(data)}
    values = [float(v) for v in data]
    r = region_from_gamma0(make_sample(values), ks)
    assert r.contains(float(point)) == (count_at_most(values, float(point)) in ks)


def test_region_array_view():
    s = make_sample([2.0, 1.0])
    arr = s.array
    assert isinstance(arr, np.ndarray)
    np.testing.assert_array_equal(arr, [1.0, 2.0])
