"""The benchmark's own tests: every gate fails on a corrupted output.

    python3 -m pytest -q perfbench/test_gates.py

These run one simulate unit of ``sim_desk`` twice (plain and traced, about
three seconds each) and the CLI in-process on a small sample.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import gates
import run
import tracing
import workloads

DESK = workloads.WORKLOADS["sim_desk"]


@pytest.fixture(scope="module")
def work():
    path = run.OUT / "test"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture(scope="module")
def desk_unit(work):
    unit = run.sim_unit(DESK, workloads.DEFAULT_SEED, 0, work)
    assert unit["rc"] == 0, unit["stderr"]
    return unit


def test_frozen_digest_matches_and_one_altered_byte_fails(desk_unit, work):
    digests = gates.load_digests()
    seed = workloads.DEFAULT_SEED
    assert gates.digest_problems(digests, DESK.name, seed, 0, desk_unit["digest"]) == []

    data = bytearray((work / "u0.csv").read_bytes())
    pos = data.index(b"\n") + 1  # first byte of the first data row
    data[pos] = data[pos] ^ 0x01
    altered = gates.sha256(bytes(data))
    assert altered != desk_unit["digest"]
    assert gates.digest_problems(digests, DESK.name, seed, 0, altered)


def _checked_rows(rows):
    return [r for r in rows if gates.target_coverage(int(r["method"]), int(r["n"]), workloads.ALPHA)]


@pytest.mark.parametrize("method", [3, 10, 11])
def test_coverage_oracle_catches_a_row_moved_outside_its_band(desk_unit, method):
    rows = [dict(r) for r in desk_unit["rows"]]
    assert gates.coverage_problems(gates.pool_rows([rows]), workloads.ALPHA) == []

    row = next(r for r in rows if int(r["method"]) == method and int(r["n"]) == 30)
    reps = int(row["reps"])
    level = gates.FOUR_SIGMA_TAIL / len(_checked_rows(rows))
    p0 = gates.target_coverage(method, 30, workloads.ALPHA)
    lo, _ = gates.binomial_band(reps, p0, level)
    assert lo > 0
    row["coverage"] = repr((lo - 1) / reps)
    problems = gates.coverage_problems(gates.pool_rows([rows]), workloads.ALPHA)
    assert len(problems) == 1 and problems[0].startswith(f"m{method} {row['dist']} n=30")


def test_sign_window_is_the_exact_binomial_cutoff():
    for n in (10, 20, 30, 50, 100, 200, 1000):
        k1, k2 = gates.sign_window(n, workloads.ALPHA)
        cdf = [Fraction(sum(math.comb(n, j) for j in range(k + 1)), 2 ** n) for k in range(n + 1)]
        half = Fraction(workloads.ALPHA) / 2
        assert cdf[k1] <= half < cdf[k1 + 1]
        assert cdf[k2] >= 1 - half > cdf[k2 - 1]


def test_traced_unit_writes_the_same_bytes(desk_unit, work):
    traced = run.sim_unit(DESK, workloads.DEFAULT_SEED, 0, work, traced=True)
    assert traced["rc"] == 0, traced["stderr"]
    assert traced["digest"] == desk_unit["digest"]
    spans = traced["trace"]["spans"]
    assert {s[0] for s in spans} >= {"simulate.replicate", "classical.cr_sign", "methods.compute_region.m13"}
    assert traced["trace"]["counts"]["distributions.signed_rank_null_cdf"] > 0


def test_envelope_check_catches_broken_regions(work, capsys):
    sys.path.insert(0, str(run.SRC))
    try:
        from mediancr.cli import main
    finally:
        sys.path.remove(str(run.SRC))
    values = [float(v) for v in workloads.cr_sample_text(7, 0).split()[:60]]
    path = work / "small.txt"
    path.write_text("".join(f"{v!r}\n" for v in values))
    assert main(workloads.cr_argv(str(path), 7)) == 0
    doc = json.loads(capsys.readouterr().out)
    methods = workloads.CR_METHODS
    assert gates.envelope_problems(doc, values, methods, workloads.ALPHA) == []

    def broken(edit):
        copy = json.loads(json.dumps(doc))
        edit(copy["results"])
        return gates.envelope_problems(copy, values, methods, workloads.ALPHA)

    def swap_first(results):
        iv = results[0]["intervals"][0]
        iv["lo"], iv["hi"] = iv["hi"], iv["lo"]

    def shift_sign(results):
        results[1]["intervals"][0]["hi"] = sorted(values)[-1]

    def overlap(results):
        results[0]["intervals"].append(dict(results[0]["intervals"][0]))

    for edit in (swap_first, shift_sign, overlap, lambda rs: rs.pop()):
        assert broken(edit)


def test_layer_stats_self_time_and_failure_reasons():
    doc = {
        "spans": [
            ["methods.compute_region.m12", 0, 100, -1, "DegenerateDataError"],
            ["spacings.lk_mom", 10, 40, 0, "DegenerateDataError"],
            ["methods.compute_region.m12", 200, 260, -1, None],
            ["simulate.replicate", 300, 400, -1, None],
        ],
        "counts": {"distributions.binom_cdf": 5},
        "keys": {"methods.compute_region.m12": 1},
        "tallies": {},
    }
    metrics = tracing.per_layer_metrics(
        doc,
        [
            "methods.compute_region.m12.ms",
            "methods.compute_region.m12.failures",
            "spacings.lk_mom.self_ms",
            "distributions.binom_cdf.calls",
            "simulate.replicate.ms_p99",
            "classical.cr_sign.recompute_ratio",
        ],
    )
    assert metrics == {
        "methods.compute_region.m12.ms": 160e-6,
        "methods.compute_region.m12.failures": 1,
        "spacings.lk_mom.self_ms": 30e-6,
        "distributions.binom_cdf.calls": 5,
        "simulate.replicate.ms_p99": 100e-6,
        "classical.cr_sign.recompute_ratio": 0.0,
    }
    stats = tracing.layer_stats(doc)
    assert stats["methods.compute_region.m12"]["self_ns"] == 130
    assert tracing.failure_reasons(doc) == {"m12": {"DegenerateDataError": 1}}


def test_refuses_to_run_without_the_sources(work):
    bare = work / "bare"
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_desk", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
