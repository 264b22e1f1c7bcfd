"""Command line behavior: formats, determinism, exit codes."""

import gc
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import mediancr
from mediancr import simulate
from mediancr.cli import (
    EXIT_DATA,
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PIPE,
    EXIT_USAGE,
    _jitter_ties,
    main,
    run,
)
from mediancr.distributions import RngStream
from mediancr.spacings import FIXED_PROFILES

DATA = [3.7, -1.2, 0.4, 2.2, 5.9, -0.8, 1.3, 0.9, 4.1, 2.8]
ROOT = Path(__file__).resolve().parents[1]


def child_env() -> dict:
    """The environment of a ``python -m mediancr.cli`` child: this checkout's
    package first on the path, and no MEDIANCR_SEED."""
    src = str(Path(mediancr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("MEDIANCR_SEED", None)
    return env


@pytest.fixture
def datafile(tmp_path):
    p = tmp_path / "obs.txt"
    p.write_text(" ".join(str(v) for v in DATA) + "\n")
    return str(p)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def test_table_exponential_n10(capsys):
    assert main(["table", "--n", "10"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "focus=exponential n=10"
    assert out[1] == "k\tr(k)\tP(B=k)"
    assert out[2] == "0\t1\t0.0009765625"
    assert out[7] == "5\t126\t0.2460937500"
    assert out[12] == "10\t0\t0.0009765625"


def test_table_with_selection(capsys):
    assert main(["table", "--n", "10", "--alpha", "0.05"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "included={2,3,4,5,6,7} mass=0.9345703125" in out
    assert "tie_set={1,8} mass=0.0537109375" in out
    assert "gamma=0.2872727273" in out


def test_table_uniform_focus(capsys):
    assert main(["table", "--n", "4", "--focus", "uniform"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "focus=uniform n=4"
    assert out[2] == "0\t1\t0.0625000000"
    assert out[4] == "2\t6\t0.3750000000"


@pytest.mark.parametrize("focus", ["uniform", "exponential"])
@pytest.mark.parametrize("n", [1, 10, 500, 1000])
def test_table_pmf_column_is_the_rounded_exact_pmf(capsys, n, focus):
    # Oracle: C(n, k) / 2**n from math.comb, rounded once by Fraction.
    assert main(["table", "--n", str(n), "--focus", focus]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split("\t")[2] for row in rows] == [
        f"{float(Fraction(math.comb(n, k), 2 ** n)):.10f}" for k in range(n + 1)
    ]


def test_table_infeasible_level(capsys):
    assert main(["table", "--n", "3", "--alpha", "0.05"]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "0.875" in err


def test_table_usage_error(capsys):
    assert main(["table", "--n", "0"]) == EXIT_USAGE


@pytest.mark.parametrize("focus", ["normal", "cauchy", "Uniform", ""])
def test_table_focus_outside_the_closed_forms_is_a_usage_error(capsys, focus):
    assert tuple(FIXED_PROFILES) == ("uniform", "exponential")
    with pytest.raises(SystemExit) as info:
        main(["table", "--n", "10", "--focus", focus])
    assert info.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid choice: '{focus}'" in captured.err


@pytest.mark.parametrize("focus", ["uniform", "exponential"])
def test_table_size_cap_names_n(capsys, focus):
    assert main(["table", "--n", "3000000", "--focus", focus]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("got 3000000")


# ---------------------------------------------------------------------------
# cr
# ---------------------------------------------------------------------------


def test_cr_json_envelope(datafile, capsys):
    assert main(["cr", "--input", datafile, "--methods", "1,3,10",
                 "--seed", "11"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 10
    assert doc["alpha"] == 0.05
    assert doc["seed"] == 11
    assert [r["method"] for r in doc["results"]] == [1, 3, 10]
    by_id = {r["method"]: r for r in doc["results"]}
    assert by_id[1]["name"] == "t_interval"
    assert by_id[1]["u"] is None
    assert by_id[1]["intervals"][0]["closed_hi"] is True
    assert 0.0 <= by_id[10]["u"] <= 1.0
    assert by_id[3]["u"] is None
    [iv3] = by_id[3]["intervals"]
    assert iv3["closed_hi"] is False
    assert iv3["lo"] in DATA and iv3["hi"] in DATA
    assert by_id[3]["content"] == pytest.approx(iv3["hi"] - iv3["lo"])


def test_cr_all_methods_runs(datafile, capsys):
    assert main(["cr", "--input", datafile, "--seed", "2",
                 "--breps", "200"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["results"]) == 13


def test_cr_deterministic_given_seed(datafile, capsys):
    main(["cr", "--input", datafile, "--seed", "5", "--breps", "100"])
    first = capsys.readouterr().out
    main(["cr", "--input", datafile, "--seed", "5", "--breps", "100"])
    assert capsys.readouterr().out == first
    main(["cr", "--input", datafile, "--seed", "6", "--breps", "100"])
    assert capsys.readouterr().out != first


def test_cr_seed_env_fallback(datafile, capsys, monkeypatch):
    monkeypatch.setenv("MEDIANCR_SEED", "5")
    main(["cr", "--input", datafile, "--methods", "10"])
    env_out = capsys.readouterr().out
    monkeypatch.delenv("MEDIANCR_SEED")
    main(["cr", "--input", datafile, "--methods", "10", "--seed", "5"])
    assert capsys.readouterr().out == env_out
    assert json.loads(env_out)["seed"] == 5


def test_cr_bad_env_seed(datafile, capsys, monkeypatch):
    monkeypatch.setenv("MEDIANCR_SEED", "ten")
    assert main(["cr", "--input", datafile, "--methods", "1"]) == EXIT_USAGE


def test_cr_csv_format(datafile, capsys):
    assert main(["cr", "--input", datafile, "--methods", "3,10", "--seed", "1",
                 "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "method,intervals,content,u,flags"
    assert lines[1].startswith("3,[")
    # Interval endpoints are separated by a colon so the row stays parseable.
    assert ":" in lines[1].split(",")[1]
    assert lines[2].startswith("10,[")


def test_cr_subnormal_gap_adds_no_warning_flag(tmp_path, capsys):
    # P{B = 1} / 5e-324 overflows to inf, which the ratio rule allows silently.
    p = tmp_path / "subnormal.txt"
    p.write_text("0 5e-324 1 2 3 4")
    assert main(["cr", "--input", str(p), "--methods", "12,13", "--format", "csv",
                 "--seed", "1"]) == EXIT_OK
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["12", "13"]
    assert all(row.split(",")[-1] == "" for row in rows)


def test_cr_explain_csv(datafile, capsys):
    assert main(["cr", "--input", datafile, "--methods", "10", "--seed", "1",
                 "--format", "csv", "--explain"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "# method 10: gamma=" in out
    assert "if u<=gamma" in out and "if u>gamma" in out


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_cr_explain_builds_the_selection_once(datafile, capsys, monkeypatch, fmt):
    calls = []
    real = mediancr.optimal.lk_edf

    def counted(sample):
        calls.append(sample.n)
        return real(sample)

    monkeypatch.setattr(mediancr.optimal, "lk_edf", counted)
    assert main(["cr", "--input", datafile, "--methods", "13", "--seed", "1",
                 "--format", fmt, "--explain"]) == EXIT_OK
    assert "gamma" in capsys.readouterr().out
    assert calls == [len(DATA)]


def test_cr_closed_stdout_exits_quietly(datafile):
    # The reader closes the pipe before the command writes, as `cr | head -c 5`
    # can; the command must exit nonzero without a traceback.
    # Leaving the with block closes the stderr pipe too.
    with subprocess.Popen(
        [sys.executable, "-m", "mediancr.cli", "cr", "--input", datafile, "--methods", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_PIPE
    assert "Traceback" not in err and "BrokenPipeError" not in err, err


class ClosedStdout(io.StringIO):
    """Standard output whose reader has gone: every write raises EPIPE.

    ``main`` then points the descriptor at devnull, so it hands out a file of
    the test's own."""

    def __init__(self, fd: int):
        super().__init__()
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


# One case or more per exit code; the EXIT_PIPE case closes standard output
# before the command writes.
ENTRY_BATTERY = [
    (EXIT_OK, ["cr", "--input", "obs.txt", "--methods", "3,10,13", "--seed", "1",
               "--format", "csv", "--explain"]),
    (EXIT_OK, ["table", "--n", "6", "--alpha", "0.2"]),
    (EXIT_PIPE, ["cr", "--input", "obs.txt", "--methods", "3"]),
    (EXIT_USAGE, ["cr", "--input", "obs.txt", "--alpha", "1.5"]),
    (EXIT_USAGE, ["cr", "--methods", "3"]),
    (EXIT_DATA, ["cr", "--input", "missing.txt"]),
    (EXIT_INFEASIBLE, ["cr", "--input", "obs.txt", "--methods", "2", "--alpha", "0.001"]),
]


@pytest.mark.parametrize("code, argv", ENTRY_BATTERY)
def test_module_entry_writes_what_main_writes(tmp_path, monkeypatch, capsys, code, argv):
    # `python -m mediancr.cli` runs `run`, which freezes the collector after
    # main returns; the process must still flush and exit as main decided.
    (tmp_path / "obs.txt").write_text(" ".join(str(v) for v in DATA) + "\n")
    with subprocess.Popen([sys.executable, "-m", "mediancr.cli", *argv], cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env()) as proc:
        if code == EXIT_PIPE:
            proc.stdout.close()
            out, err = b"", proc.stderr.read()
        else:
            out, err = proc.communicate(timeout=60)
        assert proc.wait(timeout=60) == code

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MEDIANCR_SEED", raising=False)
    with open(tmp_path / "devnull-target", "w") as target, monkeypatch.context() as patch:
        if code == EXIT_PIPE:
            patch.setattr(sys, "stdout", ClosedStdout(target.fileno()))
        try:
            got = main(argv)
        except SystemExit as exc:  # argparse's own usage error
            got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert (out.decode(), err.decode()) == (captured.out, captured.err)


def test_main_never_freezes_and_the_module_entry_does(datafile, monkeypatch, capsys):
    argv = ["cr", "--input", datafile, "--methods", "3"]
    before = gc.get_freeze_count()
    assert main(argv) == EXIT_OK
    assert gc.get_freeze_count() == before
    monkeypatch.setattr(sys, "argv", ["mediancr", *argv])
    try:
        with warnings.catch_warnings():
            # runpy notes that the package already imported mediancr.cli.
            warnings.filterwarnings("ignore", "'mediancr.cli' found in sys.modules",
                                    RuntimeWarning)
            with pytest.raises(SystemExit) as exc:
                runpy.run_module("mediancr.cli", run_name="__main__")
        assert gc.get_freeze_count() > before
    finally:
        gc.unfreeze()
    assert exc.value.code == EXIT_OK
    assert capsys.readouterr().out.startswith("{")


def test_console_script_is_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, attr = scripts["mediancr"].split(":")
    assert (module, attr) == (run.__module__, run.__name__)


@pytest.mark.parametrize("extra", [[], ["--sizes", "10,11", "--workers", "2"]])
def test_simulate_under_warnings_as_errors_writes_only_the_csv(extra):
    # One resample saturates the bias correction of methods 8 and 9 on every
    # replication; the clamping is part of those methods, so no warning may
    # reach stderr, from this process or from a pool worker.
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "mediancr.cli", "simulate", "--dists", "normal",
         "--sizes", "10", "--reps", "3", "--breps", "1", "--methods", "8,9", "--out", "-", *extra],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    rows = proc.stdout.splitlines()
    assert rows[0].startswith("method,dist,n,") and len(rows) == 1 + 2 * (1 + bool(extra))


def test_cr_keeps_the_clamping_flag(datafile, capsys):
    assert main(["cr", "--input", datafile, "--methods", "8,9", "--breps", "1"]) == EXIT_OK
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["flags"] for r in results] == [["ClampedProbabilityWarning"]] * 2


def test_cr_explain_json(datafile, capsys):
    assert main(["cr", "--input", datafile, "--methods", "11", "--seed", "1",
                 "--explain"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    ex = doc["results"][0]["explain"]
    assert ex["included"] == [2, 3, 4, 5, 6, 7]
    assert ex["tie_set"] == [1, 8]
    assert ex["gamma"] == pytest.approx(15.8 / 55, abs=1e-12)
    wide = ex["if_u_le_gamma"]["content"]
    narrow = ex["if_u_gt_gamma"]["content"]
    assert wide > narrow


def test_cr_infeasible_exit(tmp_path, capsys):
    p = tmp_path / "three.txt"
    p.write_text("1.0 2.0 3.0")
    assert main(["cr", "--input", str(p), "--methods", "11"]) == EXIT_INFEASIBLE
    err = capsys.readouterr().err
    assert "maximum attainable" in err
    assert "rand_exponential_profile" in err


def test_cr_missing_file(tmp_path, capsys):
    assert main(["cr", "--input", str(tmp_path / "nope.txt")]) == EXIT_DATA


def test_cr_malformed_and_nonfinite_data(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1.0 two 3.0")
    assert main(["cr", "--input", str(p)]) == EXIT_DATA
    p.write_text("1.0 inf 3.0")
    assert main(["cr", "--input", str(p)]) == EXIT_DATA
    p.write_text("")
    assert main(["cr", "--input", str(p)]) == EXIT_DATA


def test_cr_bad_methods_usage(datafile):
    assert main(["cr", "--input", datafile, "--methods", "99"]) == EXIT_USAGE
    assert main(["cr", "--input", datafile, "--methods", "one"]) == EXIT_USAGE


@pytest.mark.parametrize("alpha", ["1.5", "0", "-0.1", "nan"])
@pytest.mark.parametrize("command", ["cr", "table"])
def test_bad_alpha_is_a_usage_error_before_any_work(datafile, capsys, command, alpha):
    rest = ["--input", datafile, "--methods", "3"] if command == "cr" else ["--n", "10"]
    assert main([command, f"--alpha={alpha}", *rest]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--alpha must be in (0, 1)" in captured.err
    assert "method" not in captured.err and "jitter" not in captured.err


def test_cr_tied_data_suggests_jitter(tmp_path, capsys):
    p = tmp_path / "tied.txt"
    p.write_text("1 1 2 3 4 5 6 7 8 9")
    assert main(["cr", "--input", str(p), "--methods", "12"]) == EXIT_DATA
    assert "consider --jitter" in capsys.readouterr().err


@pytest.mark.parametrize("data, method, message", [
    ("5", 1, "need n >= 2, got 1"),
    ("5 7", 12, "need n >= 3, got 2"),
])
def test_cr_too_few_observations_exits_without_jitter_hint(tmp_path, capsys, data, method,
                                                            message):
    # Jittering cannot add observations, so the hint would mislead.
    p = tmp_path / "few.txt"
    p.write_text(data)
    assert main(["cr", "--input", str(p), "--methods", str(method)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert message in err
    assert "jitter" not in err


def test_cr_unsupported_size_exits_without_jitter_hint(tmp_path, capsys):
    p = tmp_path / "big.txt"
    p.write_text(" ".join(str(v) for v in range(250)))
    assert main(["cr", "--input", str(p), "--methods", "2"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "signed_rank" in err
    assert "jitter" not in err


def test_cr_bootstrap_se_with_one_resample_names_breps(datafile, capsys):
    # One bootstrap median has no spread to estimate; the data are not at fault.
    assert main(["cr", "--input", datafile, "--methods", "6", "--breps", "1"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err == "error: method 6 (boot_se_t): the bootstrap standard error needs breps >= 2, got 1\n"


@pytest.mark.parametrize("n, method", [(1001, 3), (1001, 13), (1100, 13)])
def test_cr_binomial_size_cap_exits_without_jitter_hint(tmp_path, capsys, n, method):
    p = tmp_path / "big.txt"
    p.write_text(" ".join(str(v) for v in range(n)))
    assert main(["cr", "--input", str(p), "--methods", str(method)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(n) in err
    assert "jitter" not in err


NEAR_FLOAT_LIMIT = " ".join(repr(1.7e308 - i * 1e305) for i in range(10))


@pytest.mark.parametrize("method, data, alpha", [
    (4, "-1.7e308 -1e308 0 1e308 1.7e308 1.5e308 -1.2e308", "0.05"),
    (13, "-1e308 1e308 1.5e308 1.6e308 1.7e308", "0.3"),
    pytest.param(1, NEAR_FLOAT_LIMIT, "0.05", id="1-near-float-limit"),
])
def test_cr_spread_beyond_float_range_exits_without_jitter_hint(tmp_path, capsys, method,
                                                                data, alpha):
    # Valid data whose spread overflows the method's estimate: a data error
    # that jittering cannot help, not a crash or an infeasible level.
    p = tmp_path / "wide.txt"
    p.write_text(data)
    code = main(["cr", "--input", str(p), "--methods", str(method), "--alpha", alpha])
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert f"error: method {method} " in err
    assert "float range" in err
    assert "jitter" not in err


def test_cr_bca_near_the_float_limit_prints_a_finite_interval(tmp_path, capsys):
    # The acceleration is a closed form in the spacings at the median, so the
    # interval is not refused where the data's moments overflow.
    p = tmp_path / "near.txt"
    p.write_text(NEAR_FLOAT_LIMIT)
    assert main(["cr", "--input", str(p), "--methods", "9"]) == EXIT_OK
    [res] = json.loads(capsys.readouterr().out)["results"]
    [iv] = res["intervals"]
    assert 1.69e308 <= iv["lo"] <= iv["hi"] <= 1.7e308


def test_cr_jitter_resolves_ties(tmp_path, capsys):
    p = tmp_path / "tied.txt"
    p.write_text("1 1 2 3 4 5 6 7 8 9")
    assert main(["cr", "--input", str(p), "--methods", "12", "--seed", "3",
                 "--jitter", "1e-6"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    [res] = doc["results"]
    assert "jittered" in res["flags"]
    # Same seed, same jitter: byte-stable.
    main(["cr", "--input", str(p), "--methods", "12", "--seed", "3",
          "--jitter", "1e-6"])
    assert json.loads(capsys.readouterr().out) == doc


def test_cr_jitter_draws_the_stream_generator_bytes():
    values = [2.0, 1.0, 2.0, 3.0, 1.0, 1.0]
    draws = iter(RngStream(3, ("jitter",)).generator().random(5))
    expected = [v if v == 3.0 else v + 0.5 * (2.0 * next(draws) - 1.0) for v in values]
    assert _jitter_ties(values, 0.5, RngStream(3, ("jitter",))) == (expected, True)
    assert _jitter_ties([1.0, 2.0], 0.5, RngStream(3, ("jitter",))) == ([1.0, 2.0], False)


def test_cr_jitter_too_small_to_move_a_tie_is_not_flagged_and_named(tmp_path, capsys):
    # 1.0 + 1e-300 * v rounds back to 1.0, so no value moves.
    p = tmp_path / "tied.txt"
    p.write_text("1 1 2 3 4 5 6 7 8 9")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cr", "--input", str(p), "--methods", "1", "--jitter", "1e-300"]) == EXIT_OK
        [res] = json.loads(capsys.readouterr().out)["results"]
        assert res["flags"] == []
        assert main(["cr", "--input", str(p), "--methods", "12",
                     "--jitter", "1e-300"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.rstrip().endswith("; 1.0 is still tied: --jitter 1e-300 is too small to move it")
    assert "consider --jitter" not in err


@pytest.mark.parametrize("eps", ["nan", "inf"])
def test_cr_non_finite_jitter_is_a_usage_error(datafile, capsys, eps):
    assert main(["cr", "--input", datafile, "--methods", "3", "--jitter", eps]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--jitter must be finite, got {eps}" in captured.err


def test_cr_jitter_leaves_distinct_data_alone(datafile, capsys):
    assert main(["cr", "--input", datafile, "--methods", "3", "--seed", "1",
                 "--jitter", "1e-6"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["flags"] == []


def test_cr_comma_separated_input(tmp_path, capsys):
    p = tmp_path / "commas.txt"
    p.write_text(",".join(str(v) for v in DATA))
    assert main(["cr", "--input", str(p), "--methods", "3"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["n"] == 10


def test_cr_unbounded_region_serializes(tmp_path, capsys):
    # n = 3 sign region at alpha = .05 is the whole line; JSON must carry the
    # infinities as strings.
    p = tmp_path / "three.txt"
    p.write_text("1.0 2.0 3.0")
    assert main(["cr", "--input", str(p), "--methods", "3"]) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    [res] = doc["results"]
    [iv] = res["intervals"]
    assert iv["lo"] == "-inf" and iv["hi"] == "inf"
    assert res["content"] == "inf"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_stable_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["simulate", "--dists", "normal,uniform", "--sizes", "10",
            "--reps", "6", "--breps", "30", "--methods", "1,3,10",
            "--seed", "9"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert "wrote 6 rows" in capsys.readouterr().out
    assert main(args + ["--out", str(out2), "--workers", "2"]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    text = out1.read_text()
    assert text.startswith("method,dist,n,alpha,")
    assert len(text.strip().splitlines()) == 7


def test_simulate_runs_a_repeated_distribution_or_size_once(capsys):
    # Deduplicated in first-seen order, as --methods is.
    tail = ["--reps", "3", "--breps", "20", "--seed", "1", "--out", "-"]
    assert main(["simulate", "--dists", "uniform,normal,uniform", "--sizes", "10,5,10",
                 "--methods", "3,3", *tail]) == EXIT_OK
    repeated = capsys.readouterr().out
    assert main(["simulate", "--dists", "uniform,normal", "--sizes", "10,5",
                 "--methods", "3", *tail]) == EXIT_OK
    assert repeated == capsys.readouterr().out
    assert [row.split(",")[1:3] for row in repeated.splitlines()[1:]] == [
        ["uniform(-1;1)", "10"], ["uniform(-1;1)", "5"], ["normal(0;1)", "10"], ["normal(0;1)", "5"]]


def test_simulate_stdout(capsys):
    assert main(["simulate", "--dists", "normal", "--sizes", "10", "--reps", "3",
                 "--breps", "20", "--methods", "3", "--seed", "0",
                 "--out", "-"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("method,dist,n,alpha,")
    assert len(out.strip().splitlines()) == 2


def test_simulate_to_an_unwritable_path_exits_usage_before_any_replication(
        tmp_path, capsys, monkeypatch):
    drawn = []
    monkeypatch.setattr(simulate, "_draw_block", lambda *args: drawn.append(args))
    out = tmp_path / "absent" / "x.csv"
    assert main(["simulate", "--dists", "normal", "--sizes", "10", "--reps", "3",
                 "--methods", "3", "--seed", "0", "--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert drawn == []


def test_simulate_counts_binomial_size_cap_as_failures(capsys):
    assert main(["simulate", "--dists", "normal", "--sizes", "1001", "--reps", "1",
                 "--methods", "3", "--seed", "0", "--out", "-"]) == EXIT_OK
    header, row = capsys.readouterr().out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["reps"] == fields["failures"] == "1"


@pytest.mark.parametrize("method", [1, 4, 6, 8, 9])
def test_cr_level_whose_upper_quantile_rounds_to_one_exits_infeasible(tmp_path, capsys, method):
    p = tmp_path / "x.txt"
    p.write_text("1 2 3 4 5 6 7 8 9 10")
    assert main(["cr", "--input", str(p), "--methods", str(method), "--alpha", "1e-17"]) \
        == EXIT_INFEASIBLE
    assert "rounds to 1" in capsys.readouterr().err


@pytest.mark.parametrize("values, method, alpha, requested, attainable", [
    (range(1, 11), 9, "1e-17", "1.0", "0.9999999999999999"),
    (range(50), 2, "1e-15", "0.999999999999999", "0.9999999999999982"),
])
def test_infeasible_level_message_tells_the_two_levels_apart(tmp_path, capsys, values, method,
                                                              alpha, requested, attainable):
    # Both levels once printed as 1: they are written with repr.
    p = tmp_path / "x.txt"
    p.write_text(" ".join(map(str, values)))
    assert main(["cr", "--input", str(p), "--methods", str(method), "--alpha", alpha]) \
        == EXIT_INFEASIBLE
    assert (f"confidence level {requested} is not attainable; "
            f"maximum attainable level is {attainable} (") in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["1e-17", "5e-324"])
def test_simulate_counts_a_level_whose_quantile_rounds_to_one_as_failures(capsys, alpha):
    # Method 1 fails every replication; method 3's rows are still written.
    assert main(["simulate", "--alpha", alpha, "--methods", "1,3", "--reps", "2",
                 "--sizes", "10", "--dists", "normal", "--seed", "0", "--out", "-"]) == EXIT_OK
    header, *rows = capsys.readouterr().out.strip().splitlines()
    rows = {r["method"]: r for r in (dict(zip(header.split(","), row.split(","))) for row in rows)}
    assert sorted(rows) == ["1", "3"]
    assert rows["1"]["failures"] == "2" and rows["3"]["failures"] == "0"


def test_simulate_rejects_unknown_distribution(capsys):
    assert main(["simulate", "--dists", "laplace", "--sizes", "10",
                 "--reps", "2", "--methods", "3", "--out", "-"]) == EXIT_USAGE


def test_simulate_rejects_tiny_sizes(capsys):
    assert main(["simulate", "--dists", "normal", "--sizes", "2",
                 "--reps", "2", "--methods", "3", "--out", "-"]) == EXIT_USAGE


# ---------------------------------------------------------------------------
# frozen output of the command line
# ---------------------------------------------------------------------------

# Files of the battery, written under fixed relative names so that the JSON
# "input" field and the error messages that quote a path are stable.
BATTERY_FILES = {
    "obs.txt": " ".join(str(v) for v in DATA) + "\n",
    "tied.txt": "1 1 2 3 4 5 6 7 8 9",
    "three.txt": "1.0 2.0 3.0",
    "big.txt": " ".join(str(v) for v in range(250)),
    "bad.txt": "1 2 x",
    "nonfinite.txt": "1 2 inf",
    "empty.txt": "",
}

SIM = ["simulate", "--dists", "normal", "--sizes", "10", "--reps", "2", "--breps", "20",
       "--methods", "3,10", "--seed", "0"]

# (MEDIANCR_SEED or None, argv)
CLI_BATTERY = [
    (None, ["cr", "--input", "obs.txt", "--seed", "1", "--breps", "200"]),
    (None, ["cr", "--input", "obs.txt", "--seed", "1", "--breps", "200", "--format", "csv"]),
    (None, ["cr", "--input", "obs.txt", "--seed", "2", "--methods", "10,11,12,13", "--explain"]),
    (None, ["cr", "--input", "obs.txt", "--seed", "2", "--methods", "10,11,12,13", "--explain",
            "--format", "csv"]),
    (None, ["cr", "--input", "tied.txt", "--seed", "3", "--breps", "200", "--jitter", "1e-6"]),
    (None, ["cr", "--input", "tied.txt", "--seed", "3", "--breps", "200", "--jitter", "1e-6",
            "--format", "csv"]),
    (None, ["cr", "--input", "three.txt", "--methods", "3,13"]),
    (None, ["cr", "--input", "three.txt", "--methods", "3,13", "--format", "csv"]),
    # Exit 4: the signed-rank window is undefined at n = 3.
    (None, ["cr", "--input", "three.txt", "--methods", "2"]),
    # Exit 3 on tied data: with the jitter hint, and once --jitter is given
    # with an EPS too small to move 1.0, with a hint that names the tie left.
    (None, ["cr", "--input", "tied.txt", "--methods", "12"]),
    (None, ["cr", "--input", "tied.txt", "--methods", "12", "--jitter", "1e-300"]),
    (None, ["cr", "--input", "big.txt", "--methods", "2"]),
    (None, ["cr", "--input", "absent.txt"]),
    (None, ["cr", "--input", "bad.txt"]),
    (None, ["cr", "--input", "nonfinite.txt"]),
    (None, ["cr", "--input", "empty.txt"]),
    # The data are read before the method list is parsed.
    (None, ["cr", "--input", "absent.txt", "--methods", "0"]),
    (None, ["cr", "--input", "obs.txt", "--methods", "0"]),
    (None, ["cr", "--input", "obs.txt", "--methods", "x"]),
    (None, ["cr", "--input", "obs.txt", "--methods", ","]),
    (None, ["cr", "--input", "obs.txt", "--methods", "0", "--jitter", "0"]),
    (None, ["cr", "--input", "obs.txt", "--jitter", "0"]),
    (None, ["cr", "--input", "obs.txt", "--jitter", "-1"]),
    (None, ["cr", "--input", "obs.txt", "--methods", "5", "--breps", "0"]),
    (None, ["cr", "--input", "obs.txt", "--alpha", "1.5"]),
    ("x", ["cr", "--input", "absent.txt"]),
    (None, ["table", "--n", "10", "--alpha", "0.05"]),
    (None, ["table", "--n", "0"]),
    (None, ["table", "--n", "3000000"]),
    (None, ["table", "--n", "3", "--alpha", "0.05"]),
    (None, SIM + ["--out", "-"]),
    (None, SIM + ["--out", "sim.csv"]),
    (None, SIM + ["--dists", "laplace", "--out", "-"]),
    # The seed is resolved before the distributions are parsed.
    ("x", ["simulate", "--dists", "laplace", "--out", "-"]),
    (None, SIM + ["--sizes", "2", "--out", "-"]),
    (None, SIM + ["--sizes", "x", "--out", "-"]),
    (None, SIM + ["--methods", "0", "--out", "-"]),
    (None, SIM + ["--reps", "0", "--out", "-"]),
]


def cli_transcript(tmp_path, monkeypatch, capsys) -> str:
    """One JSON line per battery case: the arguments, exit code, stdout and stderr."""
    monkeypatch.chdir(tmp_path)
    for name, text in BATTERY_FILES.items():
        (tmp_path / name).write_text(text)
    lines = []
    for seed_env, argv in CLI_BATTERY:
        if seed_env is None:
            monkeypatch.delenv("MEDIANCR_SEED", raising=False)
        else:
            monkeypatch.setenv("MEDIANCR_SEED", seed_env)
        code = main(argv)
        captured = capsys.readouterr()
        lines.append(json.dumps([argv, seed_env, code, captured.out, captured.err]))
    return "\n".join(lines) + "\n"


def test_cli_frozen_digest(tmp_path, monkeypatch, capsys):
    """Every byte the battery writes, and every exit code, stay frozen.

    The digest changes only with an announced change of the command line's
    output; a refactor that moves it is a regression."""
    text = cli_transcript(tmp_path, monkeypatch, capsys)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "5d1888098d6c669960e317f61b8dea903a2c309424fcf448e25863410c599845"
    )
