"""Randomized minimum-content selection: greedy knapsack, regions, optimality."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancr.classical import cr_sign
from mediancr.distributions import (
    RngStream,
    binom_cdf,
    binom_pmf,
    binom_pmf_fraction,
    binom_quantile,
    sample,
    normal,
)
from mediancr.errors import InfeasibleLevelError
from mediancr.optimal import (
    Gamma0Selection,
    _ratio_groups,
    assemble_region,
    conservative_region,
    cr_adaptive_edf,
    cr_adaptive_mom,
    cr_exponential_focused,
    cr_symmetric_focused,
    select_gamma0,
)
from mediancr.regions import Interval, Region, make_sample
from mediancr.spacings import lk_edf, lk_exponential, lk_mom, lk_uniform

# ---------------------------------------------------------------------------
# Selection: frozen worked examples
# ---------------------------------------------------------------------------


def test_selection_exponential_n10():
    s = select_gamma0(lk_exponential(10), 0.05)
    assert sorted(s.included) == [2, 3, 4, 5, 6, 7]
    assert sorted(s.tie_set) == [1, 8]
    assert s.p_included == 0.9345703125
    assert s.p_tie == 55 / 1024
    assert s.gamma == pytest.approx(15.8 / 55, abs=1e-12)
    assert s.gamma == pytest.approx(0.2867, abs=1e-3)


def test_selection_exponential_n11():
    s = select_gamma0(lk_exponential(11), 0.05)
    assert sorted(s.included) == [3, 4, 5, 6, 7]
    assert sorted(s.tie_set) == [2, 8]
    assert s.p_included == 1749 / 2048
    assert s.p_tie == 220 / 2048
    assert s.gamma == pytest.approx(196.6 / 220, abs=1e-12)


def test_selection_uniform_n10():
    s = select_gamma0(lk_uniform(10), 0.05)
    assert sorted(s.included) == [3, 4, 5, 6, 7]
    assert sorted(s.tie_set) == [2, 8]
    assert s.p_included == 912 / 1024
    assert s.gamma == pytest.approx(60.8 / 90, abs=1e-12)


def test_selection_low_level_randomizes_single_group():
    # 1 - alpha = 0.2 is below even the central group's mass, so nothing is
    # deterministic and the center enters with probability gamma.
    s = select_gamma0(lk_uniform(10), 0.80)
    assert s.included == frozenset()
    assert sorted(s.tie_set) == [5]
    assert s.gamma == pytest.approx(204.8 / 252, abs=1e-12)


def test_selection_natural_confidence_coefficient():
    # 1 - alpha equal to P{B = 5} exactly: no randomization needed.
    s = select_gamma0(lk_uniform(10), 1.0 - 252 / 1024)
    assert sorted(s.included) == [5]
    assert s.tie_set == frozenset()
    assert s.gamma == 0.0
    assert s.p_included == 252 / 1024


@pytest.mark.parametrize("n", [3, 5, 10, 11, 17, 20, 24])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2, 0.5])
def test_selection_coverage_identity(n, alpha):
    for prof in (lk_uniform(n), lk_exponential(n)):
        try:
            s = select_gamma0(prof, alpha)
        except InfeasibleLevelError:
            # Small n cannot reach high levels on the exponential profile;
            # that behavior has its own test.
            assert 1.0 - alpha > 1.0 - 2.0 ** -n
            continue
        assert abs(s.p_included + s.gamma * s.p_tie - (1.0 - alpha)) <= 1e-12


def test_selection_is_threshold_rule():
    # Everything strictly above c is in, everything at c is the tie group,
    # everything below is out.
    prof = lk_exponential(12)
    s = select_gamma0(prof, 0.1)
    for k in range(13):
        r = prof.ratio[k]
        if r > s.c * (1 + 1e-12):
            assert k in s.included
        elif k in s.tie_set:
            assert r == pytest.approx(s.c, rel=1e-12)
        else:
            assert k not in s.included


def test_selection_infeasible_levels():
    # Exponential profile: the top spacing is infinite, capping coverage at
    # 1 - 2^-n.
    with pytest.raises(InfeasibleLevelError) as ei:
        select_gamma0(lk_exponential(3), 0.05)
    assert ei.value.attainable == 0.875
    assert "0.875" in str(ei.value)
    # Observed-spacing profile: both boundary spacings infinite, cap
    # 1 - 2^(1-n).
    with pytest.raises(InfeasibleLevelError) as ei:
        cr_adaptive_mom(make_sample([1.0, 2.0, 3.0]), 0.05, 0.5)
    assert ei.value.attainable == 0.75
    # The uniform profile has every ratio positive, so any level is feasible.
    sel = select_gamma0(lk_uniform(3), 0.0001)
    assert sorted(sel.included | sel.tie_set) == [0, 1, 2, 3]


def test_selection_alpha_domain():
    with pytest.raises(ValueError):
        select_gamma0(lk_uniform(5), 0.0)
    with pytest.raises(ValueError):
        select_gamma0(lk_uniform(5), 1.0)


# ---------------------------------------------------------------------------
# Selection: Fraction-sum reference
# ---------------------------------------------------------------------------


def reference_selection(profile, alpha):
    """Oracle: the greedy accounting in Fraction sums of C(n, k) / 2**n.

    Returns (included, tie_set, c, gamma, p_included, p_tie), or
    ("infeasible", attainable).  The equal-ratio grouping is taken from the
    library; only the mass accounting is re-derived here.
    """
    n = profile.n

    def mass(ks):
        return sum((Fraction(math.comb(n, k), 2 ** n) for k in ks), start=Fraction(0))

    target = 1 - Fraction(alpha)
    included, cum = [], Fraction(0)
    tie_ratio, tie_ks = 0.0, []
    for ratio, ks in _ratio_groups(profile):
        if cum + mass(ks) <= target:
            included += ks
            cum += mass(ks)
        else:
            tie_ratio, tie_ks = ratio, ks
            break
    if not tie_ks and cum < target:
        return ("infeasible", float(cum))
    if cum == target:
        return (frozenset(included), frozenset(), tie_ratio, 0.0, float(cum), 0.0)
    return (frozenset(included), frozenset(tie_ks), tie_ratio,
            float((target - cum) / mass(tie_ks)), float(cum), float(mass(tie_ks)))


def selection_fields(profile, alpha):
    try:
        s = select_gamma0(profile, alpha)
    except InfeasibleLevelError as exc:
        return ("infeasible", exc.attainable)
    return (s.included, s.tie_set, s.c, s.gamma, s.p_included, s.p_tie)


def test_selection_matches_fraction_reference_on_closed_form_profiles():
    rng = random.Random(20260)
    branches = {"infeasible": 0, "natural": 0, "randomized": 0}
    for n in range(1, 81):
        for prof in (lk_uniform(n), lk_exponential(n)):
            # Uniform alphas, tiny ones (infeasible for the exponential
            # profile), and 1 - P{B = n//2} (a natural coefficient while
            # that mass is a float).
            alphas = [rng.random() for _ in range(3)]
            alphas += [2.0 ** -rng.uniform(n - 2, n + 4),
                       float(1 - Fraction(math.comb(n, n // 2), 2 ** n))]
            for alpha in alphas:
                if not 0.0 < alpha < 1.0:
                    continue
                got = selection_fields(prof, alpha)
                assert got == reference_selection(prof, alpha), (n, alpha)
                if got[0] == "infeasible":
                    branches["infeasible"] += 1
                else:
                    branches["natural" if got[3] == 0.0 else "randomized"] += 1
    assert all(branches.values()), branches


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=40, unique=True),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_selection_matches_fraction_reference_on_mom_profiles(values, alpha):
    prof = lk_mom(make_sample(values))
    assert selection_fields(prof, alpha) == reference_selection(prof, alpha)


# ---------------------------------------------------------------------------
# Region assembly
# ---------------------------------------------------------------------------

DATA10 = [1.42, -0.37, 0.08, 2.96, -1.15, 0.63, 1.88, -0.52, 0.29, 1.07]


def test_assemble_region_uses_tie_iff_u_below_gamma():
    s = make_sample(DATA10)
    sel = select_gamma0(lk_uniform(10), 0.05)
    wide = assemble_region(s, sel, sel.gamma)
    narrow = assemble_region(s, sel, math.nextafter(sel.gamma, 1.0))
    assert wide.intervals == (Interval(s.order_stat(2), s.order_stat(9)),)
    assert narrow.intervals == (Interval(s.order_stat(3), s.order_stat(8)),)
    assert wide.content > narrow.content


def test_assemble_region_validates_inputs():
    s = make_sample(DATA10)
    sel = select_gamma0(lk_uniform(10), 0.05)
    with pytest.raises(ValueError):
        assemble_region(s, sel, -0.1)
    with pytest.raises(ValueError):
        assemble_region(s, sel, 1.5)
    with pytest.raises(ValueError):
        assemble_region(make_sample([1.0, 2.0]), sel, 0.5)


def test_conservative_region_is_envelope():
    s = make_sample(DATA10)
    sel = select_gamma0(lk_exponential(10), 0.05)
    env = conservative_region(s, sel)
    for u in (0.0, 0.3, 0.9):
        r = assemble_region(s, sel, u)
        for iv in r.intervals:
            assert env.contains(iv.lo)
            mid = 0.5 * (iv.lo + min(iv.hi, iv.lo + 1.0))
            assert env.contains(mid)
    assert env.content >= assemble_region(s, sel, 1.0).content


# ---------------------------------------------------------------------------
# Cross-checks against the two-sided order-statistic construction
# ---------------------------------------------------------------------------


def two_sided_randomized(sample, alpha, u):
    """Direct construction: central binomial interval, randomize the widening.

    k2 is the 1 - alpha/2 binomial quantile, k1 = n - k2; the region widens
    from (x_(k1+1), x_(k2)) to (x_(k1), x_(k2+1)) with probability gamma.
    """
    n = sample.n
    k2 = binom_quantile(1.0 - alpha / 2.0, n)
    k1 = n - k2
    assert k1 < k2
    p_open = binom_cdf(k2 - 1, n) - binom_cdf(k1, n)
    gamma = ((1.0 - alpha) - p_open) / (2.0 * binom_pmf(k2, n))
    if u <= gamma:
        iv = Interval(sample.order_stat(k1), sample.order_stat(k2 + 1))
    else:
        iv = Interval(sample.order_stat(k1 + 1), sample.order_stat(k2))
    return Region((iv,)), gamma


@pytest.mark.parametrize("n", [5, 6, 10, 11, 20, 25])
@pytest.mark.parametrize("alpha", [0.01, 0.05, 0.1, 0.2])
def test_symmetric_region_matches_two_sided_construction(n, alpha):
    data = sample(normal(), n, RngStream(31, ("dual", n)))
    s = make_sample(data)
    sel = select_gamma0(lk_uniform(n), alpha)
    _, gamma = two_sided_randomized(s, alpha, 0.5)
    assert sel.gamma == pytest.approx(gamma, abs=1e-12)
    for u in (0.0, max(gamma - 1e-9, 0.0), min(gamma + 1e-9, 1.0), 0.999):
        expect, _ = two_sided_randomized(s, alpha, u)
        assert cr_symmetric_focused(s, alpha, u) == expect


@pytest.mark.parametrize("n", [4, 5, 10, 15])
@pytest.mark.parametrize("alpha", [0.02, 0.05, 0.1])
def test_sign_region_equals_wide_branch(n, alpha):
    # The non-randomized count-based region always equals the wide branch of
    # the randomized symmetric one.
    data = sample(normal(), n, RngStream(32, ("sign", n)))
    s = make_sample(data)
    wide, _ = two_sided_randomized(s, alpha, 0.0)
    assert cr_sign(s, alpha) == wide


def test_adaptive_mom_matches_symmetric_on_equally_spaced_data():
    # Equally spaced observations make every interior spacing equal, so the
    # observed-spacing ratios order the interior counts exactly like the
    # binomial coefficients do.
    s = make_sample(np.linspace(0.0, 9.0, 10))
    for u in (0.0, 0.4, 0.68, 0.9):
        assert cr_adaptive_mom(s, 0.05, u) == cr_symmetric_focused(s, 0.05, u)


def test_selection_equals_mom_selection_on_equal_spacings():
    s = make_sample(np.linspace(0.0, 9.0, 10))
    a = select_gamma0(lk_mom(s), 0.05)
    b = select_gamma0(lk_uniform(10), 0.05)
    assert a.included == b.included
    assert a.tie_set == b.tie_set
    assert a.gamma == pytest.approx(b.gamma, abs=1e-12)


# ---------------------------------------------------------------------------
# Optimality: no feasible deterministic count set beats the randomized rule
# ---------------------------------------------------------------------------


def random_feasible_count_set(n, alpha, gen):
    ks = set(int(k) for k in np.flatnonzero(gen.random(n + 1) < 0.4))
    mass = sum(binom_pmf_fraction(k, n) for k in ks)
    target = Fraction(1) - Fraction(alpha)
    remaining = sorted(set(range(n + 1)) - ks, key=lambda k: -binom_pmf(k, n))
    while mass < target and remaining:
        k = remaining.pop(0)
        ks.add(k)
        mass += binom_pmf_fraction(k, n)
    return ks


@pytest.mark.parametrize("profile_name", ["uniform", "exponential", "edf"])
def test_randomized_rule_beats_random_deterministic_sets(profile_name):
    n, alpha = 10, 0.05
    if profile_name == "uniform":
        prof = lk_uniform(n)
    elif profile_name == "exponential":
        prof = lk_exponential(n)
    else:
        prof = lk_edf(make_sample(sample(normal(), n, RngStream(8, ("edf-opt",)))))
    sel = select_gamma0(prof, alpha)
    opt = sum(prof.l[k] for k in sel.included) + sel.gamma * sum(
        prof.l[k] for k in sel.tie_set
    )
    gen = RngStream(9, ("lp", profile_name)).generator()
    checked = 0
    for _ in range(300):
        ks = random_feasible_count_set(n, alpha, gen)
        cost = sum(prof.l[k] for k in ks)
        if math.isinf(cost):
            continue
        checked += 1
        assert cost >= opt - 1e-9
    assert checked >= 150


# ---------------------------------------------------------------------------
# Equivariance of the four region procedures
# ---------------------------------------------------------------------------

PROCS = [
    cr_symmetric_focused,
    cr_exponential_focused,
    cr_adaptive_mom,
    cr_adaptive_edf,
]


@pytest.mark.parametrize("proc", PROCS, ids=lambda f: f.__name__)
def test_shift_equivariance(proc):
    data = [-2.0, -1.0, 0.5, 1.25, 2.0, 3.5, 6.0, 7.0, 9.0, 12.0]
    shift = 128.0  # power of two keeps float addition exact on these values
    for u in (0.1, 0.68, 0.95):
        base = proc(make_sample(data), 0.05, u)
        moved = proc(make_sample([v + shift for v in data]), 0.05, u)
        assert moved == base.shifted(shift)


@pytest.mark.parametrize("proc", PROCS, ids=lambda f: f.__name__)
def test_scale_equivariance(proc):
    data = [-2.0, -1.0, 0.5, 1.25, 2.0, 3.5, 6.0, 7.0, 9.0, 12.0]
    scale = 4.0
    for u in (0.1, 0.68, 0.95):
        base = proc(make_sample(data), 0.05, u)
        scaled = proc(make_sample([v * scale for v in data]), 0.05, u)
        expect = tuple(
            Interval(iv.lo * scale, iv.hi * scale, iv.closed_hi)
            for iv in base.intervals
        )
        assert scaled.intervals == expect


def test_adaptive_procs_require_n3():
    s = make_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        cr_adaptive_mom(s, 0.5, 0.5)
    with pytest.raises(ValueError):
        cr_adaptive_edf(s, 0.5, 0.5)


def test_adaptive_edf_runs_and_is_deterministic():
    s = make_sample(sample(normal(), 12, RngStream(4, ("edf-run",))))
    r1 = cr_adaptive_edf(s, 0.05, 0.3)
    r2 = cr_adaptive_edf(s, 0.05, 0.3)
    assert r1 == r2
    assert not r1.is_empty
    assert r1.contains(s.median)


def test_exponential_focused_region_is_skewed_left():
    # The exponential-shape profile spends width where spacings are short,
    # which sits below the center: with alpha = .05, n = 10 the admitted
    # counts are {2..7} versus the symmetric {3..7}(+tie).
    s = make_sample(DATA10)
    r = cr_exponential_focused(s, 0.05, 1.0)
    assert r.intervals == (Interval(s.order_stat(2), s.order_stat(8)),)
