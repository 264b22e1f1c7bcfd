"""Monte Carlo harness: pairing, aggregation, CSV stability."""

import math

import pytest

from mediancr.distributions import (
    RngStream,
    exponential,
    normal,
    study_distributions,
    uniform,
)
from mediancr.simulate import (
    CSV_HEADER,
    SimConfig,
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


def test_replicate_deterministic_and_subset_invariant():
    rng = RngStream(7, (normal().label, 10, 0))
    full = replicate(normal(), 10, 0.05, tuple(range(1, 14)), 50, rng)
    again = replicate(normal(), 10, 0.05, tuple(range(1, 14)), 50, rng)
    assert full == again
    # Asking for fewer methods must not change the shared ones: each method
    # draws from its own purpose-keyed stream.
    some = replicate(normal(), 10, 0.05, (3, 9, 12), 50, rng)
    for m in (3, 9, 12):
        assert some[m] == full[m]


def test_replicate_records_failures():
    # Method 11 cannot reach level .95 at n = 3 (attainable 7/8).
    out = replicate(uniform(-1.0, 1.0), 3, 0.05, (3, 11), 10, RngStream(1, ("f", 0)))
    assert out[11].failed
    assert math.isnan(out[11].content)
    assert not out[3].failed


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


def test_coverage_and_content_recomputed_from_replicates():
    cfg = small_config(distributions=(normal(),), sample_sizes=(10,), reps=25,
                       methods=(1, 10))
    [row1, row10] = run_simulation(cfg)
    med = normal().true_median()
    cover = {1: 0, 10: 0}
    content = {1: 0.0, 10: 0.0}
    for rep in range(25):
        rng = RngStream(7, (normal().label, 10, rep))
        out = replicate(normal(), 10, 0.05, (1, 10), 50, rng)
        for m in (1, 10):
            cover[m] += out[m].covered
            content[m] += out[m].content
    assert row1.coverage == cover[1] / 25
    assert row10.coverage == cover[10] / 25
    assert row1.mean_content == pytest.approx(content[1] / 25, rel=1e-12)
    assert row10.mean_content == pytest.approx(content[10] / 25, rel=1e-12)
    assert row1.std_content == pytest.approx(row1.mean_content * math.sqrt(10), rel=1e-12)
    se = math.sqrt(row1.coverage * (1 - row1.coverage) / 25)
    assert row1.mc_se == pytest.approx(se, rel=1e-12)
    assert med == 0.0


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
