"""Randomized minimum-content selection: greedy knapsack, regions, optimality."""

import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancr import optimal
from mediancr.classical import cr_sign
from mediancr.distributions import (
    RngStream,
    binom_counts,
    sample,
    normal,
)
from mediancr.errors import InfeasibleLevelError
from mediancr.methods import METHODS, compute_region
from mediancr.optimal import (
    Gamma0Selection,
    _ratio_groups,
    adaptive_edf_selection,
    adaptive_mom_selection,
    assemble_region,
    conservative_region,
    exponential_selection,
    select_gamma0,
    symmetric_selection,
)
from mediancr.regions import Interval, Region, make_sample
from mediancr.spacings import (
    FIXED_PROFILES,
    RATIO_TIE_RTOL,
    LkProfile,
    lk_edf,
    lk_exponential,
    lk_mom,
    lk_uniform,
)

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


@settings(max_examples=400, deadline=None)
@given(n=st.integers(3, 200), alpha=st.floats(0.001, 0.999), seed=st.integers(0, 2 ** 32))
def test_selection_coverage_identity_at_random_alpha(n, alpha, seed):
    # The exact coverage cum + gamma * tie_mass (over 2**n) misses 1 - alpha
    # only by the rounding of gamma to a float.
    s = make_sample(sample(normal(), n, RngStream(seed, ("identity",))))
    counts = binom_counts(n)
    builders = (symmetric_selection, exponential_selection,
                adaptive_mom_selection, adaptive_edf_selection)
    for build in builders:
        try:
            sel = build(s, alpha)
        except InfeasibleLevelError:
            continue
        cum = sum(counts[k] for k in sel.included)
        tie_mass = sum(counts[k] for k in sel.tie_set)
        err = abs((cum + Fraction(sel.gamma) * tie_mass) / 2 ** n - (1 - Fraction(alpha)))
        assert err <= Fraction(math.ulp(sel.gamma)) * tie_mass / 2 ** n, build.__name__


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
        adaptive_mom_selection(make_sample([1.0, 2.0, 3.0]), 0.05)
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


def reference_groups(profile):
    """Oracle: the equal-ratio groups, as [(ratio, counts)], one count at a time.

    Positive-ratio counts in decreasing ratio, ties by count.  A closed-form
    profile groups equal exact ratios; a float profile starts a new group unless
    the count's ratio is within RATIO_TIE_RTOL of the group's first ratio or
    both are infinite.
    """
    n, r = profile.n, profile.ratio
    key = profile.exact_ratio if profile.is_exact else r
    order = sorted((k for k in range(n + 1) if key[k] > 0), key=lambda k: (-key[k], k))
    groups = []
    for k in order:
        if groups:
            first = groups[-1][1][0]
            if profile.is_exact:
                same = key[first] == key[k]
            else:
                head = r[first]
                same = (math.isinf(head) and math.isinf(r[k])) or (
                    math.isfinite(head) and abs(head - r[k]) <= RATIO_TIE_RTOL * head)
            if same:
                groups[-1][1].append(k)
                continue
        groups.append((r[k], [k]))
    return groups


def reference_selection(profile, alpha):
    """Oracle: the greedy accounting in Fraction sums of C(n, k) / 2**n.

    Returns (included, tie_set, c, gamma, p_included, p_tie), or
    ("infeasible", attainable).  The groups come from reference_groups.
    """
    n = profile.n

    def mass(ks):
        return sum((Fraction(math.comb(n, k), 2 ** n) for k in ks), start=Fraction(0))

    target = 1 - Fraction(alpha)
    included, cum = [], Fraction(0)
    tie_ratio, tie_ks = 0.0, []
    for ratio, ks in reference_groups(profile):
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
            if n <= 50:
                # (1 - alpha) * 2**n exactly at an admitted prefix mass (the
                # remainder-zero branch), half a count below it (the group
                # must become the tie group), and at a random integer.
                cum = list(accumulate(sum(math.comb(n, k) for k in ks)
                                      for _, ks in reference_groups(prof)))
                for c in rng.sample(cum, min(3, len(cum))):
                    alphas += [1 - c / 2 ** n, 1 - (c - 0.5) / 2 ** n]
                alphas.append(rng.randrange(1, 2 ** n) / 2 ** n)
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


def test_selection_matches_fraction_reference_at_the_largest_size():
    n = 1000
    edf = lk_edf(make_sample(sample(normal(), n, RngStream(11, ("largest",)))))
    natural = float(1 - Fraction(math.comb(n, n // 2), 2 ** n))
    for prof in (lk_uniform(n), lk_exponential(n), edf):
        for alpha in (0.05, natural):
            assert selection_fields(prof, alpha) == reference_selection(prof, alpha), alpha


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=40, unique=True),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_selection_matches_fraction_reference_on_mom_profiles(values, alpha):
    prof = lk_mom(make_sample(values))
    assert selection_fields(prof, alpha) == reference_selection(prof, alpha)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=40, unique=True),
    data=st.data(),
)
def test_selection_matches_fraction_reference_at_natural_levels(values, data):
    # alpha = m / 2**n makes the target (1 - alpha) * 2**n an integer.
    n = len(values)
    alpha = data.draw(st.integers(1, 2 ** n - 1)) / 2 ** n
    for prof in (lk_mom(make_sample(values)), lk_edf(make_sample(values))):
        assert selection_fields(prof, alpha) == reference_selection(prof, alpha)


def test_ratio_groups_match_reference_on_closed_form_profiles():
    for n in [*range(1, 81), 200, 511, 1000]:
        for prof in (lk_uniform(n), lk_exponential(n)):
            assert list(_ratio_groups(prof)) == reference_groups(prof), n


def mirrored(half, center, nudge, rel):
    """Data symmetric about 0, then value ``nudge`` of the positive half moved
    by ``rel`` times its gap below.  Mirrored counts have equal lk_mom ratios
    and lk_edf ratios a few ulps apart; the move pulls one pair apart by about
    ``rel`` relative, inside or outside RATIO_TIE_RTOL."""
    pos = sorted(half)
    j = nudge % len(pos)
    below = pos[j - 1] if j else (0.0 if center else -pos[0])
    pos[j] += rel * (pos[j] - below)
    return sorted([-v for v in half] + pos + ([0.0] if center else []))


@settings(max_examples=300, deadline=None)
@given(
    half=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20, unique=True),
    center=st.booleans(),
    nudge=st.integers(0, 19),
    rel=st.sampled_from([0.0, 1e-13, 3e-10, 9e-10, 1.1e-9, 3e-9, 1e-6]),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_groups_and_selection_match_reference_on_tied_ratios(half, center, nudge, rel, alpha):
    values = mirrored(half, center, nudge, rel)
    if len(values) < 3 or len(set(values)) < len(values):
        return
    s = make_sample(values)
    for prof in (lk_mom(s), lk_edf(s)):
        assert list(_ratio_groups(prof)) == reference_groups(prof)
        assert selection_fields(prof, alpha) == reference_selection(prof, alpha)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.sampled_from([1.0, 1 - 4e-10, 1 - 6e-10, 1 - 1e-9, 1 - 2e-9, 0.9, 0.0, math.inf]),
                   min_size=2, max_size=30),
    perm=st.randoms(use_true_random=False),
    alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)
def test_groups_and_selection_match_reference_on_ratio_chains(steps, perm, alpha):
    # Ratios falling by factors near 1 - RATIO_TIE_RTOL make chains in which
    # each ratio is within the tolerance of the one before it but not of the
    # group's first; 0.0 and inf enter as themselves.
    ratio, r = [], 1.0
    for f in steps:
        r *= f if math.isfinite(f) and f else 1.0
        ratio.append(f if f in (0.0, math.inf) else r)
    perm.shuffle(ratio)
    # Spacings l = pmf / r give back the chain's ratios to within rounding.
    n = len(ratio) - 1
    l = tuple(math.comb(n, k) / 2 ** n / r if r else math.inf for k, r in enumerate(ratio))
    prof = LkProfile(n, l)
    assert list(_ratio_groups(prof)) == reference_groups(prof)
    assert selection_fields(prof, alpha) == reference_selection(prof, alpha)


def test_distinct_and_tied_ratios_group_like_the_reference():
    # Distinct spacings give singleton groups; mirrored data give pairs, one
    # of them only within the tolerance.
    plain = lk_mom(make_sample([0.0, 1.0, 4.0, 11.0, 13.0]))
    assert all(len(ks) == 1 for _, ks in _ratio_groups(plain))
    for rel in (0.0, 5e-10):
        prof = lk_mom(make_sample(mirrored([1.0, 3.0, 7.0], True, 2, rel)))
        assert list(_ratio_groups(prof)) == reference_groups(prof)
        assert any(len(ks) == 2 for _, ks in _ratio_groups(prof))


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


def exact_pmf(n):
    """Oracle: P{B = k}, k = 0..n, for B ~ Binomial(n, 1/2), from math.comb."""
    return [Fraction(math.comb(n, k), 2 ** n) for k in range(n + 1)]


def two_sided_randomized(sample, alpha, u):
    """Direct construction: central binomial interval, randomize the widening.

    k2 is the 1 - alpha/2 binomial quantile, k1 = n - k2; the region widens
    from (x_(k1+1), x_(k2)) to (x_(k1), x_(k2+1)) with probability gamma.
    """
    n = sample.n
    pmf = exact_pmf(n)
    cdf = list(accumulate(pmf))
    k2 = next(k for k in range(n + 1) if cdf[k] >= 1 - Fraction(alpha) / 2)
    k1 = n - k2
    assert k1 < k2
    p_open = cdf[k2 - 1] - cdf[k1]
    gamma = float((1 - Fraction(alpha) - p_open) / (2 * pmf[k2]))
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
        assert assemble_region(s, symmetric_selection(s, alpha), u) == expect


@pytest.mark.parametrize("n", [4, 5, 10, 15])
@pytest.mark.parametrize("alpha", [0.02, 0.05, 0.1])
def test_sign_region_equals_wide_branch(n, alpha):
    # The non-randomized count-based region always equals the wide branch of
    # the randomized symmetric one.
    data = sample(normal(), n, RngStream(32, ("sign", n)))
    s = make_sample(data)
    wide, _ = two_sided_randomized(s, alpha, 0.0)
    assert cr_sign(s, alpha) == wide


def test_methods_3_and_10_share_one_cached_selection_and_11_has_its_own(monkeypatch):
    built = []

    def counting(profile, alpha):
        built.append(profile.exact_ratio)
        return select_gamma0(profile, alpha)

    optimal._fixed_selection.cache_clear()
    monkeypatch.setattr(optimal, "select_gamma0", counting)
    a, b = make_sample(range(12)), make_sample([0.5 * x * x for x in range(12)])
    sym = METHODS[10].selection(a, 0.05)
    for s in (a, b):
        assert symmetric_selection(s, 0.05) is sym
        assert compute_region(3, s, 0.05) == conservative_region(s, sym)
        assert compute_region(10, s, 0.05, u=0.9) == assemble_region(s, sym, 0.9)
    exp = METHODS[11].selection(a, 0.05)
    assert exponential_selection(b, 0.05) is exp and exp != sym
    assert compute_region(11, b, 0.05, u=0.9) == assemble_region(b, exp, 0.9)
    # One profile and one selection per closed form at (12, 0.05).
    assert built == [FIXED_PROFILES["uniform"](12).exact_ratio,
                     FIXED_PROFILES["exponential"](12).exact_ratio]
    assert symmetric_selection(a, 0.1) is not sym and len(built) == 3


def test_adaptive_mom_matches_symmetric_on_equally_spaced_data():
    # Equally spaced observations make every interior spacing equal, so the
    # observed-spacing ratios order the interior counts exactly like the
    # binomial coefficients do.
    s = make_sample(np.linspace(0.0, 9.0, 10))
    mom, sym = adaptive_mom_selection(s, 0.05), symmetric_selection(s, 0.05)
    for u in (0.0, 0.4, 0.68, 0.9):
        assert assemble_region(s, mom, u) == assemble_region(s, sym, u)


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
    pmf = exact_pmf(n)
    ks = set(int(k) for k in np.flatnonzero(gen.random(n + 1) < 0.4))
    mass = sum(pmf[k] for k in ks)
    target = Fraction(1) - Fraction(alpha)
    remaining = sorted(set(range(n + 1)) - ks, key=lambda k: -pmf[k])
    while mass < target and remaining:
        k = remaining.pop(0)
        ks.add(k)
        mass += pmf[k]
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
# Equivariance of the four randomized regions
# ---------------------------------------------------------------------------

# Each builder with the name of the region it yields (methods 10..13).
BUILDERS = [
    pytest.param(symmetric_selection, id="cr_symmetric_focused"),
    pytest.param(exponential_selection, id="cr_exponential_focused"),
    pytest.param(adaptive_mom_selection, id="cr_adaptive_mom"),
    pytest.param(adaptive_edf_selection, id="cr_adaptive_edf"),
]


def realized(build, data, alpha, u):
    s = make_sample(data)
    return assemble_region(s, build(s, alpha), u)


@pytest.mark.parametrize("build", BUILDERS)
def test_shift_equivariance(build):
    data = [-2.0, -1.0, 0.5, 1.25, 2.0, 3.5, 6.0, 7.0, 9.0, 12.0]
    shift = 128.0  # power of two keeps float addition exact on these values
    for u in (0.1, 0.68, 0.95):
        base = realized(build, data, 0.05, u)
        moved = realized(build, [v + shift for v in data], 0.05, u)
        assert moved == base.shifted(shift)


@pytest.mark.parametrize("build", BUILDERS)
def test_scale_equivariance(build):
    data = [-2.0, -1.0, 0.5, 1.25, 2.0, 3.5, 6.0, 7.0, 9.0, 12.0]
    scale = 4.0
    for u in (0.1, 0.68, 0.95):
        base = realized(build, data, 0.05, u)
        scaled = realized(build, [v * scale for v in data], 0.05, u)
        expect = tuple(
            Interval(iv.lo * scale, iv.hi * scale, iv.closed_hi)
            for iv in base.intervals
        )
        assert scaled.intervals == expect


def test_adaptive_procs_require_n3():
    s = make_sample([1.0, 2.0])
    with pytest.raises(ValueError):
        adaptive_mom_selection(s, 0.5)
    with pytest.raises(ValueError):
        adaptive_edf_selection(s, 0.5)


def test_adaptive_edf_runs_and_is_deterministic():
    s = make_sample(sample(normal(), 12, RngStream(4, ("edf-run",))))
    r1 = assemble_region(s, adaptive_edf_selection(s, 0.05), 0.3)
    r2 = assemble_region(s, adaptive_edf_selection(s, 0.05), 0.3)
    assert r1 == r2
    assert not r1.is_empty
    assert r1.contains(s.median)


def test_exponential_focused_region_is_skewed_left():
    # The exponential-shape profile spends width where spacings are short,
    # which sits below the center: with alpha = .05, n = 10 the admitted
    # counts are {2..7} versus the symmetric {3..7}(+tie).
    s = make_sample(DATA10)
    r = assemble_region(s, exponential_selection(s, 0.05), 1.0)
    assert r.intervals == (Interval(s.order_stat(2), s.order_stat(8)),)
