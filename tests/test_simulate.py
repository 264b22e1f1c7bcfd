"""Monte Carlo harness: pairing, aggregation, CSV stability."""

import math
import tracemalloc
import warnings
from dataclasses import astuple, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mediancr.classical import (
    ClampedProbabilityWarning,
    SampleRows,
    bootstrap_median_rows,
    bootstrap_medians,
)
from mediancr.distributions import (
    RngStream,
    exponential,
    normal,
    sample,
    study_distributions,
    uniform,
)
from mediancr.errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from mediancr import simulate
from mediancr.methods import ALL_METHOD_IDS, METHODS, compute_region
from mediancr.regions import Region, make_sample
from mediancr.simulate import (
    _BLOCK,
    CSV_HEADER,
    SimConfig,
    SimResult,
    _draw_block,
    _run_block,
    _run_cell,
    draw,
    replicate,
    results_to_csv,
    run_simulation,
)


def small_config(**overrides):
    base = dict(
        distributions=(normal(), exponential(1.0)),
        sample_sizes=(10, 15),
        alpha=0.05,
        reps=40,
        breps=50,
        methods=tuple(range(1, 14)),
        master_seed=7,
        workers=1,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_config(sample_sizes=(2,))
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(ValueError):
        small_config(methods=(3, 1))
    with pytest.raises(ValueError):
        small_config(methods=(1, 99))
    with pytest.raises(ValueError):
        small_config(distributions=())
    with pytest.raises(ValueError):
        small_config(alpha=0.0)
    with pytest.raises(ValueError):
        small_config(workers=0)


def test_config_rejects_a_repeated_distribution_or_size():
    # Each would run one cell twice and write its rows twice.
    with pytest.raises(ValueError, match="distributions must be distinct"):
        small_config(distributions=(normal(), exponential(1.0), normal(0.0, 1.0)))
    with pytest.raises(ValueError, match="sample sizes must be distinct"):
        small_config(sample_sizes=(10, 15, 10))


@pytest.mark.parametrize("field, value", [("sample_sizes", (10, 15.0)), ("reps", 2.0),
                                          ("breps", 20.0), ("workers", 1.0)])
def test_config_rejects_a_non_integer_count(field, value):
    # Each used to fail only inside run_simulation, a size when its cell started.
    with pytest.raises(ValueError, match="must be an integer"):
        small_config(**{field: value})


def test_numpy_integer_counts_and_seed_write_the_same_rows_and_a_float_seed_raises():
    one = dict(distributions=(normal(),), methods=(3, 5))
    ints = small_config(**one, sample_sizes=(10,), reps=3, breps=5)
    numpy_ints = small_config(**one, sample_sizes=(np.int64(10),), reps=np.int32(3),
                              breps=np.int64(5), workers=np.int8(1), master_seed=np.int64(7))
    assert results_to_csv(run_simulation(numpy_ints)) == results_to_csv(run_simulation(ints))
    # A float seed used to run and key its streams "i:1.5".
    with pytest.raises(ValueError, match="master seed must be an integer"):
        run_simulation(small_config(**one, sample_sizes=(10,), reps=1, master_seed=1.5))


def test_cell_streams_are_the_replication_keys():
    # A cell keys (seed, label, n) once and takes child(rep) per replication:
    # each sample is draw's on the replication's own key.
    dist = study_distributions()["gamma"]
    rngs = [RngStream(7, (dist.label, 10)).child(rep) for rep in range(5)]
    for s, rep in zip(_draw_block(dist, 10, rngs), range(5)):
        one = draw(dist, 10, RngStream(7, (dist.label, 10, rep)))
        assert s == one and s.array.tobytes() == one.array.tobytes()
        assert not s.array.flags.writeable


def test_replicate_deterministic_and_subset_invariant():
    rng = RngStream(7, (normal().label, 10, 0))
    full = replicate(draw(normal(), 10, rng), 0.05, tuple(range(1, 14)), 50, rng)
    again = replicate(draw(normal(), 10, rng), 0.05, tuple(range(1, 14)), 50, rng)
    assert full == again
    # Asking for fewer methods must not change the shared ones: each method
    # draws from its own purpose-keyed stream.
    some = replicate(draw(normal(), 10, rng), 0.05, (3, 9, 12), 50, rng)
    for m in (3, 9, 12):
        assert some[m] == full[m]


def test_replicate_records_failures():
    # Method 11 cannot reach level .95 at n = 3 (attainable 7/8).
    rng = RngStream(1, ("f", 0))
    out = replicate(draw(uniform(-1.0, 1.0), 3, rng), 0.05, (3, 11), 10, rng)
    assert out[11] is None
    assert isinstance(out[3], Region)


def test_rows_ordered_by_cell_then_method():
    res = run_simulation(small_config(reps=5, methods=(1, 3, 10)))
    key = [(r.dist, r.n, r.method) for r in res]
    labels = [normal().label, exponential(1.0).label]
    expect = [(d, n, m) for d in labels for n in (10, 15) for m in (1, 3, 10)]
    assert key == expect


def test_cell_results_independent_of_grid():
    # A cell's rows depend only on (dist, n, seed, alpha, reps, breps), not on
    # which other cells are in the grid or their order.
    big = run_simulation(small_config(reps=15))
    solo = run_simulation(
        small_config(reps=15, distributions=(exponential(1.0),), sample_sizes=(15,))
    )
    flipped = run_simulation(
        small_config(reps=15, distributions=(exponential(1.0), normal()))
    )
    by_key = {(r.dist, r.n, r.method): r for r in big}
    for r in solo + flipped:
        assert by_key[(r.dist, r.n, r.method)] == r


def test_workers_do_not_change_output():
    cfg1 = small_config(reps=10)
    cfg3 = small_config(reps=10, workers=3)
    assert results_to_csv(run_simulation(cfg1)) == results_to_csv(run_simulation(cfg3))


def test_failure_accounting_and_nan_rows():
    # At n = 3 and alpha = .05 method 11 fails every replication: its row
    # reports failures == reps with nan coverage.
    cfg = small_config(
        distributions=(normal(),), sample_sizes=(3,), reps=12, methods=(3, 11)
    )
    res = run_simulation(cfg)
    row11 = next(r for r in res if r.method == 11)
    assert row11.failures == 12
    assert math.isnan(row11.coverage)
    assert math.isnan(row11.mean_content)
    row3 = next(r for r in res if r.method == 3)
    assert row3.failures == 0
    # Sign regions at n = 3, alpha = .05 span the whole line.
    assert row3.infinite_count == 12
    assert row3.coverage == 1.0
    assert math.isnan(row3.mean_content)


def test_unsupported_size_is_a_per_replication_failure():
    # The signed-rank null is supported up to n = 200, so at n = 250 method 2
    # fails every replication while the sign region still runs.
    cfg = small_config(
        distributions=(normal(),), sample_sizes=(250,), reps=3, methods=(2, 3)
    )
    res = run_simulation(cfg)
    row2 = next(r for r in res if r.method == 2)
    assert row2.failures == 3
    assert math.isnan(row2.coverage)
    row3 = next(r for r in res if r.method == 3)
    assert row3.failures == 0
    assert 0.0 <= row3.coverage <= 1.0


def test_binomial_size_cap_is_a_per_replication_failure():
    # The binomial tables stop at n = 1000, so above it the sign region and
    # the plug-in adaptive region fail every replication while the t
    # interval still runs.  At n = 1100, C(n, n/2) no longer fits a float.
    cfg = small_config(
        distributions=(normal(),), sample_sizes=(1001, 1100), reps=2, methods=(1, 3, 13)
    )
    for row in run_simulation(cfg):
        if row.method == 1:
            assert row.failures == 0
        else:
            assert row.failures == 2
            assert math.isnan(row.coverage)


def oracle_rows(config: SimConfig) -> list[SimResult]:
    """Every row rebuilt from one ``replicate`` call per replication."""
    rows = []
    for dist in config.distributions:
        target = dist.true_median()
        for n in config.sample_sizes:
            covered = dict.fromkeys(config.methods, 0)
            content = dict.fromkeys(config.methods, 0.0)
            infinite = dict.fromkeys(config.methods, 0)
            failures = dict.fromkeys(config.methods, 0)
            for rep in range(config.reps):
                rng = RngStream(config.master_seed, (dist.label, n, rep))
                try:
                    s = draw(dist, n, rng)
                except UnsupportedSizeError:
                    out = dict.fromkeys(config.methods)
                else:
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore", ClampedProbabilityWarning)
                        out = replicate(s, config.alpha, config.methods, config.breps, rng)
                for m, region in out.items():
                    if region is None:
                        failures[m] += 1
                    elif math.isinf(region.content):
                        covered[m] += region.contains(target)
                        infinite[m] += 1
                    else:
                        covered[m] += region.contains(target)
                        content[m] += region.content
            for m in config.methods:
                ok = config.reps - failures[m]
                cov = covered[m] / ok if ok else math.nan
                mean = content[m] / (ok - infinite[m]) if ok > infinite[m] else math.nan
                rows.append(SimResult(
                    m, dist.label, n, config.alpha, config.reps, config.breps, cov,
                    math.sqrt(cov * (1 - cov) / ok) if ok else math.nan, mean,
                    mean * math.sqrt(n), infinite[m], failures[m]))
    return rows


def test_coverage_and_content_recomputed_from_replicates():
    # Every law of the study plus two that push rows off the batch path:
    # 1e-322 spans about 20 subnormals, so rows tie, and 1e307 overflows the
    # sums of methods 1 and 6.
    tied, wide = uniform(0.0, 1e-322), normal(0.0, 1e307)
    cfg = small_config(distributions=(*study_distributions().values(), tied, wide),
                       sample_sizes=(10, 11), reps=5, master_seed=3)
    got = run_simulation(cfg)
    # repr tells every float apart, -0.0 too, and gives nan == nan.
    assert [repr(astuple(r)) for r in got] == [repr(astuple(r)) for r in oracle_rows(cfg)]
    row = {(r.dist, r.n, r.method): r for r in got}
    for n in (10, 11):
        assert row[tied.label, n, 4].failures == 5
        assert row[tied.label, n, 13].infinite_count == 5 - row[tied.label, n, 13].failures
        assert row[wide.label, n, 1].failures == row[wide.label, n, 6].failures == 5
    assert (row[tied.label, 10, 12].failures, row[tied.label, 11, 12].failures) == (5, 4)


def test_draw_beyond_the_float_range_is_a_failure_of_every_method():
    # About half the normal(0, 1e308) variates overflow to +-inf.
    dist = normal(0.0, 1e308)
    cfg = small_config(distributions=(dist,), sample_sizes=(10,), reps=12, methods=(3, 7, 10))
    overflowed = 0
    for rep in range(12):
        try:
            sample(dist, 10, RngStream(7, (dist.label, 10, rep)).child("data"))
        except UnsupportedSizeError:
            overflowed += 1
    assert 0 < overflowed < 12
    assert [r.failures for r in run_simulation(cfg)] == [overflowed] * 3


def test_csv_format():
    cfg = small_config(distributions=(normal(),), sample_sizes=(10,), reps=5,
                       methods=(1, 11))
    text = results_to_csv(run_simulation(cfg))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0].count(",") == 11
    assert len(lines) == 3
    fields = lines[1].split(",")
    assert fields[0] == "1"
    assert fields[1] == normal().label
    assert fields[2] == "10"
    assert fields[3] == "0.05"
    assert fields[4] == "5"
    assert fields[5] == "50"
    float(fields[6])
    assert text == results_to_csv(run_simulation(cfg))


def test_csv_text_of_hand_built_rows():
    # A row where every replication failed, and one whose regions were
    # unbounded in 3 of 20 replications.
    nan = math.nan
    failed = SimResult(11, "normal(0;1)", 3, 0.05, 12, 50, nan, nan, nan, nan, 0, 12)
    unbounded = SimResult(10, "exponential(1)", 4, 0.1, 20, 500, 0.85,
                          math.sqrt(0.85 * 0.15 / 20), 1.0 / 3.0, 12345678901.5, 3, 0)
    text = results_to_csv([failed, unbounded])
    assert text == (
        "method,dist,n,alpha,reps,breps,coverage,mc_se,"
        "mean_content,std_content,infinite_count,failures\n"
        "11,normal(0;1),3,0.05,12,50,nan,nan,nan,nan,0,12\n"
        "10,exponential(1),4,0.1,20,500,0.85,0.07984359711,0.3333333333,1.23456789e+10,3,0\n"
    )
    assert CSV_HEADER.split(",") == [f.name for f in fields(SimResult)]
    assert results_to_csv([]) == CSV_HEADER + "\n"


def test_paired_design_shares_data_across_methods():
    # The paired design draws one dataset per (dist, n, rep) regardless of the
    # method list; two disjoint method subsets therefore see identical data,
    # which shows up as identical coverage for the same method requested in
    # different company.
    cfg_a = small_config(distributions=(normal(),), sample_sizes=(10,),
                         reps=20, methods=(3,))
    cfg_b = small_config(distributions=(normal(),), sample_sizes=(10,),
                         reps=20, methods=(1, 2, 3, 9, 13))
    [row_a] = run_simulation(cfg_a)
    row_b = next(r for r in run_simulation(cfg_b) if r.method == 3)
    assert row_a == row_b


def test_full_method_panel_runs_on_study_grid_cell():
    # One cell of the study grid with every method, small rep count.
    dists = study_distributions()
    cfg = SimConfig(
        distributions=(dists["gamma"],),
        sample_sizes=(10,),
        alpha=0.05,
        reps=8,
        breps=40,
        methods=tuple(range(1, 14)),
        master_seed=3,
    )
    res = run_simulation(cfg)
    assert len(res) == 13
    for row in res:
        assert row.failures + row.infinite_count <= row.reps
        if not math.isnan(row.coverage):
            assert 0.0 <= row.coverage <= 1.0


def test_warm_replication_constructs_no_bit_generator(monkeypatch):
    # A replication re-keys one shared Philox for its data, bootstrap and
    # randomizer draws.  Once the cell is warm, constructing a generator per
    # draw would show up here as a construction.
    dist, methods = study_distributions()["mixture"], tuple(range(1, 14))
    rng = RngStream(4, (dist.label, 10, 0))
    replicate(draw(dist, 10, rng), 0.05, methods, 50, rng)
    constructed = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        constructed.append(args or kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    rng = RngStream(4, (dist.label, 10, 1))
    out = replicate(draw(dist, 10, rng), 0.05, methods, 50, rng)
    assert sorted(out) == list(methods)
    # A whole cell too: its block draw, bootstrap words and every randomizer uniform.
    cfg = small_config(distributions=(dist,), sample_sizes=(10,), reps=3, methods=methods)
    assert len(_run_cell((dist, 10, cfg))) == len(methods)
    assert constructed == []
    RngStream(4).generator()  # the guard does see a construction
    assert len(constructed) == 1


BATCHED = [m for m in ALL_METHOD_IDS if METHODS[m].rows is not None]

# A row is n mantissas times one scale, or times a scale each: ties from the
# few fixed mantissas, sums that overflow at 1e308, subnormal rows that round
# to ties, and mixed rows whose bandwidth is subnormal while their sd is not.
MANTISSA = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0]), st.floats(-1.75, 1.75))
SCALE = st.sampled_from([1.0, 1e308, 2.0 ** -1040, 2.0 ** -1072])
# Spacings that are equal, or within RATIO_TIE_RTOL of each other, give method
# 12 ratio groups of two or more counts wherever the binomial masses agree.
GAP = st.sampled_from([1.0, 1.0 + 2.0 ** -40, 1.0 + 1e-12, 2.0, 0.0])


def sample_row(n):
    one_scale = st.builds(lambda m, c: [v * c for v in m],
                          st.lists(MANTISSA, min_size=n, max_size=n), SCALE)
    mixed = st.lists(st.builds(lambda m, c: m * c, MANTISSA, SCALE), min_size=n, max_size=n)
    # Partial sums of at most 79 spacings of at most 2, scaled by 2**-8 so none overflows.
    steps = st.builds(lambda g, c: np.cumsum([0.0, *g]) / 256 * c,
                      st.lists(GAP, min_size=n - 1, max_size=n - 1), SCALE)
    return st.one_of(one_scale, mixed, steps).map(make_sample)


def test_methods_1_2_4_to_9_and_12_have_batch_forms():
    # Methods 3, 10, 11 and 13 are decided by replicate, one replication at a time.
    assert BATCHED == [1, 2, 4, 5, 6, 7, 8, 9, 12]


def block_and_scalar(methods, samples, alpha, target, breps, rngs):
    """``_run_block`` on the rows, and each row's outcome per method from ``compute_region``."""
    medians = None
    if any(METHODS[m].needs_bootstrap for m in methods):
        medians = bootstrap_median_rows(samples, breps, [rng.child("boot") for rng in rngs])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampedProbabilityWarning)
        got = list(_run_block(methods, list(zip(samples, rngs)), alpha, target, breps))
        want = []
        for i, (s, rng) in enumerate(zip(samples, rngs)):
            boot = None if medians is None else bootstrap_medians(s, breps, rng.child("boot"))
            assert boot is None or boot.tobytes() == medians[i].tobytes()
            row = {}
            for m in methods:
                u = rng.child("rand", m).uniform() if METHODS[m].randomized else None
                try:
                    region = compute_region(m, s, alpha, u=u, boot=boot)
                except (InfeasibleLevelError, DegenerateDataError, UnsupportedSizeError):
                    row[m] = None
                else:
                    row[m] = (region.contains(target), region.content)
            want.append(row)
    # repr tells every float apart, -0.0 too.
    return [repr(o) for o in got], [repr(o) for o in want]


# Every method alone, and a mix of batch forms, bootstrap methods and methods
# without a batch form in one block.  Sizes 3-5 hold infeasible levels, 63 and
# up need Python-int masses; alpha 0.25 and 0.5 are dyadic, so their target
# masses are integers.
@pytest.mark.parametrize("methods", [(m,) for m in ALL_METHOD_IDS] + [(2, 3, 6, 9, 11, 12, 13)],
                         ids=lambda ms: "-".join(map(str, ms)))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.one_of(st.integers(3, 12), st.sampled_from([63, 64, 80])),
       reps=st.integers(1, 9), breps=st.integers(1, 30), seed=st.integers(0, 2 ** 16),
       alpha=st.sampled_from([0.05, 0.3, 0.9, 1e-17, 0.25, 0.5]))
def test_batch_form_equals_the_scalar_form_row_by_row(methods, data, n, reps, breps, seed, alpha):
    samples = tuple(data.draw(sample_row(n)) for _ in range(reps))
    # Region ends are order statistics, so a target on one tests their closure.
    target = data.draw(st.sampled_from([0.0, samples[0].median, *samples[0].values]))
    rngs = [RngStream(seed, ("rows", i)) for i in range(reps)]
    got, want = block_and_scalar(methods, samples, alpha, target, breps, rngs)
    assert got == want


def replicate_calls(monkeypatch, methods, reps):
    """The methods of each ``replicate`` call that a normal n = 11 cell makes."""
    calls = []

    def recording(sample, alpha, left, breps, rng):
        calls.append(left)
        return replicate(sample, alpha, left, breps, rng)

    monkeypatch.setattr(simulate, "replicate", recording)
    _run_cell((normal(), 11, small_config(methods=methods, reps=reps)))
    return calls


def test_a_block_decided_in_batch_calls_replicate_zero_times(monkeypatch):
    # On normal data every batch form decides every row, over two blocks.
    assert replicate_calls(monkeypatch, tuple(BATCHED), _BLOCK + 6) == []


def test_methods_without_a_batch_form_share_one_replicate_call_per_replication(monkeypatch):
    reps = _BLOCK + 6
    assert replicate_calls(monkeypatch, (3, 10, 11, 13), reps) == [(3, 10, 11, 13)] * reps


@pytest.mark.parametrize("method", BATCHED)
def test_batch_form_decides_ordinary_rows_itself(method):
    # Off rows fall back to the scalar form, so equal outputs alone would not
    # show that the batch form runs; on normal data it decides every row, at
    # n = 70 too, where method 12's masses are Python ints.
    rngs = [RngStream(5, ("rows", i)) for i in range(8)]
    u = np.array([rng.child("rand", method).uniform() for rng in rngs])
    for n in (11, 70):
        samples = tuple(draw(normal(), n, rng) for rng in rngs)
        medians = bootstrap_median_rows(samples, 50, [rng.child("boot") for rng in rngs])
        off = METHODS[method].rows(SampleRows(samples, medians), 0.05, 0.0, u)[0]
        assert not any(off)


@pytest.mark.parametrize("alpha", [0.05, 0.25])
def test_method_12_leaves_rows_with_a_ratio_group_to_the_scalar_form(alpha):
    # Equal spacings give equal ratios to the counts k and n - k; spacings
    # within RATIO_TIE_RTOL group as well.  Those rows, and the tied one, are
    # off; the plain row is decided by the batch form.
    n = 9
    plain = np.cumsum(np.arange(1.0, n + 1.0) ** 1.5)
    even = np.arange(float(n))
    near = np.cumsum([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 1.0 + 1e-10])
    tied = np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    samples = tuple(make_sample(x) for x in (plain, even, near, tied))
    rngs = [RngStream(2, ("rows", i)) for i in range(4)]
    u = np.array([rng.child("rand", 12).uniform() for rng in rngs])
    off = METHODS[12].rows(SampleRows(samples), alpha, 10.0, u)[0]
    assert off == [False, True, True, True]
    got, want = block_and_scalar((12,), samples, alpha, 10.0, 1, rngs)
    assert got == want


def test_method_12_is_off_where_no_mass_crosses_the_target():
    # At n = 4 the interior counts hold 14/16 of the mass: alpha 0.125 is met
    # exactly by all of them, alpha 0.05 is infeasible.  Both go to the scalar
    # form, which gives the region and the failure.
    samples = tuple(make_sample([0.0, 1.0, 3.0, 6.0 + i]) for i in range(3))
    rngs = [RngStream(4, ("rows", i)) for i in range(3)]
    u = np.array([rng.child("rand", 12).uniform() for rng in rngs])
    for alpha, outcome in ((0.125, (True, 6.0)), (0.05, None)):
        assert METHODS[12].rows(SampleRows(samples), alpha, 2.0, u)[0] == [True] * 3
        got, want = block_and_scalar((12,), samples, alpha, 2.0, 1, rngs)
        assert got == want
        assert want[0] == repr({12: outcome})


def test_method_12_meets_an_integer_target_mass_without_a_tie_group():
    # n = 4, alpha = 1/2: the target mass is 8 of 16.  The ratios rank the
    # counts 1, 3, 2, so counts 1 and 3 (mass 4 + 4) meet it exactly and
    # count 2 is not randomized in, whatever u: the region is
    # [x_(1), x_(2)) + [x_(3), x_(4)), of content 1 + 1.5.
    samples = (make_sample([0.0, 1.0, 11.0, 12.5]),) * 8
    rngs = [RngStream(6, ("rows", i)) for i in range(8)]
    u = np.array([rng.child("rand", 12).uniform() for rng in rngs])
    off, covered, content = METHODS[12].rows(SampleRows(samples), 0.5, 5.0, u)
    assert off == [False] * 8 and covered == [False] * 8 and content == [2.5] * 8
    got, want = block_and_scalar((12,), samples, 0.5, 5.0, 1, rngs)
    assert got == want


def _cell_peak(n: int, reps: int, breps: int) -> int:
    cfg = small_config(distributions=(normal(),), sample_sizes=(n,), reps=reps, breps=breps,
                       methods=(5, 6, 7, 8, 9))
    _run_cell((normal(), n, small_config(distributions=(normal(),), reps=1, methods=(5, 9))))
    tracemalloc.start()
    try:
        _run_cell((normal(), n, cfg))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cell_peak_memory_is_one_resample_matrix_and_the_medians():
    # A sim_boot-sized cell: the resamples are drawn one replication at a
    # time; twenty resample matrices alive at once would be 8 MB.
    n, reps, breps = 50, 20, 2000
    assert _cell_peak(n, reps, breps) <= breps * n * 4 + reps * breps * 8 + 2**18


def test_cell_peak_memory_does_not_grow_with_reps():
    # Past one block, the cell holds one block's medians and one temporary of
    # their size (method 6's deviations), whatever the number of replications.
    n, breps = 50, 2000
    few, many = _cell_peak(n, 133, breps), _cell_peak(n, 384, breps)
    assert many <= few + 2**16
    assert few <= breps * n * 4 + 2 * _BLOCK * breps * 8 + 2**18
