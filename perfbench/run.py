"""Benchmark for mediancr, measured from outside the package.

    python3 perfbench/run.py --workload sim_desk --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 2026 --seconds 20 --trace 0

Run from the repository root.  The workloads are defined in workloads.py and
listed with their metrics in BENCHMARK.json.  Every process this starts is
waited for; each run reports the metrics of BENCHMARK.json, runs the output
gates (gates.py) and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` repeats fresh-process units for ``--seconds`` and reports the
end-to-end metrics:

* ``reps_per_s``: replications per second, one replication being every
  selected method on one sample.  Simulate workloads: the median over units
  of reps / in-process time of ``run_simulation`` plus CSV rendering, cold
  caches included.  ``cr_large``: calls / total call wall time.
* ``call_ms_p50``: median wall ms of one unit process, spawn to exit.
* ``setup_s``: median time of ``import mediancr.cli`` plus config
  construction in a fresh interpreter (each simulate unit, or three probes
  for ``cr_large``).
* ``peak_rss_mb``: median over units of the unit process's peak RSS.

Every time above is scaled to a nominal host speed by the reference loop
that brackets each unit (see ``run_untraced``); the unscaled times are in
the run's detail file, ``perfbench/.out/<workload>/result-trace0.json``.

Failed evaluations (the CSV ``failures`` column, or missing methods and
nonzero exits for ``cr``) over evaluations attempted are the ``failed`` and
``attempted`` keys.

``--trace 1`` runs unit 0 untraced and traced (tracing.py) in pairs for
``--seconds``, checks that every output has the same digest, and reports the
per-layer metrics of the first traced unit plus the tracing overhead (median
traced / untraced wall time, each scaled like the end-to-end times).
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

import numpy as np

import gates
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
CHILD = HERE / "child.py"
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 120.0
# Time of reference_s() on an unloaded host of the kind the benchmark was
# tuned on (2-core Intel Xeon VM, Python 3.11, numpy 2.4).
NOMINAL_REF_S = 0.25


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("MEDIANCR_SEED", None)
    return env


def spawn(argv: list[str], stdout_path: Path, cwd: Path = ROOT) -> dict:
    """Run one child to completion; return its exit code, wall time and peak RSS."""
    err_path = stdout_path.with_suffix(".err")
    t0 = time.perf_counter()
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=out, stderr=err)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall_s,
        "rss_kb": usage.ru_maxrss,
        "stderr": err_path.read_text(errors="replace")[-2000:],
    }


# -- units -----------------------------------------------------------------------


def sim_unit(w, seed: int, unit: int, work: Path, traced: bool = False) -> dict:
    tag = f"u{unit}{'t' if traced else ''}"
    csv_path, report_path, spans_path = work / f"{tag}.csv", work / f"{tag}.report", work / f"{tag}.spans"
    argv = [sys.executable, str(CHILD), "sim", w.name, str(seed), str(unit), str(csv_path), str(report_path)]
    res = spawn(argv + ([str(spans_path)] if traced else []), work / f"{tag}.out")
    evaluations = 7 * len(w.sizes) * w.reps * len(w.methods)
    res.update(unit=unit, attempted=evaluations, failed=evaluations, problems=[], rows=[])
    if res["rc"] != 0:
        res["problems"].append(f"unit {unit} exited {res['rc']}: {res['stderr'][-300:]}")
        return res
    res.update(json.loads(report_path.read_text()))
    data = csv_path.read_bytes()
    res["digest"] = gates.sha256(data)
    res["rows"] = gates.parse_csv(data.decode())
    res["failed"] = sum(int(r["failures"]) for r in res["rows"])
    res["problems"] += gates.csv_problems(res["rows"], w)
    if traced:
        res["trace"] = json.loads(spans_path.read_text())
    return res


def cr_unit(w, seed: int, unit: int, work: Path, traced: bool = False) -> dict:
    tag = f"u{unit}{'t' if traced else ''}"
    # The envelope echoes the --input path, so the call runs in the work
    # directory with a fixed relative name to keep its digest path-free.
    input_path = work / "input.txt"
    input_path.write_text(workloads.cr_sample_text(seed, unit))
    cli_args = workloads.cr_argv(input_path.name, seed)
    if traced:
        argv = [sys.executable, str(CHILD), "cli", str(work / f"{tag}.spans"), "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "mediancr.cli", *cli_args]
    out_path = work / f"{tag}.out"
    res = spawn(argv, out_path, cwd=work)
    res.update(unit=unit, attempted=len(w.methods), failed=len(w.methods), problems=[])
    data = out_path.read_bytes()
    res["digest"] = gates.sha256(data)
    if res["rc"] != 0:
        res["problems"].append(f"call {unit} exited {res['rc']}: {res['stderr'][-300:]}")
        return res
    doc = json.loads(data)
    values = [float(v) for v in input_path.read_text().split()]
    got = {r["method"] for r in doc["results"]}
    res["failed"] = len(set(w.methods) - got)
    res["problems"] += gates.envelope_problems(doc, values, w.methods, workloads.ALPHA)
    if traced:
        res["trace"] = json.loads((work / f"{tag}.spans").read_text())
    return res


def setup_probe(w, seed: int, work: Path, i: int) -> float:
    report = work / f"setup{i}.report"
    res = spawn([sys.executable, str(CHILD), "setup", w.name, str(seed), str(report)], work / f"setup{i}.out")
    if res["rc"] != 0:
        raise RuntimeError(f"setup probe exited {res['rc']}: {res['stderr'][-300:]}")
    return json.loads(report.read_text())["setup_s"]


# -- runs ------------------------------------------------------------------------


def unit_fn_for(w):
    return cr_unit if w.kind == "cr" else sim_unit


def _gate(w, seed: int, units: list[dict], digests: dict) -> list[str]:
    problems = [p for u in units for p in u["problems"]]
    for u in units:
        if "digest" in u:
            problems += gates.digest_problems(digests, w.name, seed, u["unit"], u["digest"])
    if w.kind == "sim":
        problems += gates.coverage_problems(gates.pool_rows([u["rows"] for u in units]), workloads.ALPHA)
    return problems


def reference_s() -> float:
    """Seconds taken by a fixed mix of the library's kinds of work.

    Fraction sums (the cutoff layer), a scalar float loop (the plug-in
    profile), small numpy sorts and medians, and resample-and-median on an
    index matrix (bootstrap).  This code never changes between commits, so
    its time measures the host's current speed.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 12_000):
        acc += Fraction(k, 1 << (k % 60))
    total = 0.0
    for i in range(1, 450_000):
        total += (1.0 - i * 1e-6) ** 3 * i
    rng = np.random.default_rng(0)
    x = rng.random((500, 51))
    for _ in range(75):
        np.sort(np.median(x, axis=1))
    idx = rng.integers(0, 50, size=(2000, 50))
    for _ in range(10):
        np.sort(np.median(x[0][idx], axis=1))
    return time.perf_counter() - t0


def run_untraced(w, seed: int, seconds: float, work: Path, digests: dict) -> dict:
    """Units for ``seconds``, each bracketed by two reference timings.

    A unit's times are scaled by NOMINAL_REF_S over the mean of its two
    reference times, so they read as if the host ran the reference loop in
    NOMINAL_REF_S.  The shared hosts this runs on drift in speed by about
    25% over tens of seconds, which the scaling cancels to within a few
    percent; the unscaled figures are kept in the run's detail file.
    """
    unit_fn = unit_fn_for(w)
    reference_s()  # warm-up: the first call pays for first-use costs
    refs = [reference_s()]

    def scale() -> float:
        refs.append(reference_s())
        return NOMINAL_REF_S * 2.0 / (refs[-2] + refs[-1])

    setup = []
    if w.kind == "cr":
        for i in range(SETUP_PROBES):
            raw = setup_probe(w, seed, work, i)
            setup.append(raw * scale())
    units: list[dict] = []
    t0 = time.perf_counter()
    while len(units) < workloads.MAX_UNITS:
        units.append(unit_fn(w, seed, len(units), work))
        units[-1]["scale"] = scale()
        elapsed = time.perf_counter() - t0
        if len(units) >= workloads.MIN_UNITS and elapsed + units[-1]["wall_s"] > seconds:
            break
    ok = [u for u in units if u["rc"] == 0]
    metrics = {}
    if ok:
        if w.kind == "cr":
            reps_per_s = len(ok) / sum(u["wall_s"] * u["scale"] for u in ok)
        else:
            reps_per_s = statistics.median(u["reps"] / (u["run_s"] * u["scale"]) for u in ok)
            setup = [u["setup_s"] * u["scale"] for u in ok]
        metrics = {
            "reps_per_s": reps_per_s,
            "call_ms_p50": 1000.0 * statistics.median(u["wall_s"] * u["scale"] for u in ok),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(u["rss_kb"] for u in ok) / 1024.0,
        }
    notes = {
        "units": len(units),
        "measured_s": time.perf_counter() - t0,
        "setup_samples": len(setup),
        "reference_s": refs,
        "unscaled": [
            {k: u[k] for k in ("wall_s", "run_s", "setup_s", "reps") if k in u} for u in units
        ],
        "digests": [u.get("digest") for u in units],
    }
    return {"units": units, "metrics": metrics, "problems": _gate(w, seed, units, digests), "notes": notes}


def run_traced(w, seed: int, seconds: float, work: Path, digests: dict, layer_names: list[str]) -> dict:
    """Pairs of unit 0, plain then traced, for ``seconds`` (at least one pair).

    The per-layer metrics come from the first traced unit, so they always
    describe the same, fixed work.  The overhead is the median over pairs of
    traced / plain wall time, each scaled by its bracketing reference times
    as in run_untraced.
    """
    unit_fn = unit_fn_for(w)
    reference_s()
    refs = [reference_s()]
    pairs, ratios = [], []
    t0 = time.perf_counter()
    while len(pairs) < workloads.MAX_UNITS:
        plain = unit_fn(w, seed, 0, work)
        refs.append(reference_s())
        traced = unit_fn(w, seed, 0, work, traced=True)
        refs.append(reference_s())
        pairs.append((plain, traced))
        ratios.append((traced["wall_s"] / (refs[-2] + refs[-1])) / (plain["wall_s"] / (refs[-3] + refs[-2])))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(pairs) + 1) / len(pairs) > seconds:
            break
    first_plain, first_traced = pairs[0]
    # Every run is unit 0 on the same data, so only one enters the oracle.
    problems = _gate(w, seed, [first_plain], digests) + first_traced["problems"]
    digests_seen = {u.get("digest") for pair in pairs for u in pair}
    if len(digests_seen) != 1:
        problems.append(f"traced and untraced outputs differ: digests {sorted(map(str, digests_seen))}")
    doc = first_traced.get("trace", {"spans": [], "counts": {}, "keys": {}, "tallies": {}})
    metrics = tracing.per_layer_metrics(doc, layer_names)
    metrics["perfbench.trace.overhead_ratio"] = statistics.median(ratios)
    notes = {
        "failure_reasons": tracing.failure_reasons(doc),
        "spans": len(doc["spans"]),
        "pairs": len(pairs),
        "overhead_ratios": ratios,
        "reference_s": refs,
        "digests": sorted(map(str, digests_seen)),
    }
    return {"units": [first_traced], "metrics": metrics, "problems": problems, "notes": notes}


# -- environment and output ------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mediancr").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict, env: dict) -> dict:
    w = workloads.WORKLOADS[name]
    work = OUT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    digests = gates.load_digests()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    if trace:
        layer_names = [m["name"] for m in declared]
        run = run_traced(w, seed, seconds, work, digests, layer_names)
    else:
        run = run_untraced(w, seed, seconds, work, digests)
    differ = {m["name"] for m in declared} ^ set(run["metrics"])
    if differ:
        run["problems"].append(f"reported metrics differ from BENCHMARK.json: {sorted(differ)}")
    result = {
        "correct": not run["problems"],
        "attempted": sum(u["attempted"] for u in run["units"]),
        "failed": sum(u["failed"] for u in run["units"]),
        "metrics": {
            m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]}
            for m in declared
            if m["name"] in run["metrics"]
        },
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "problems": run["problems"], **run["notes"], "result": result,
    }
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(detail, indent=1))
    _print_summary(detail)
    return result


def _print_summary(detail: dict) -> None:
    r = detail["result"]
    print(
        f"perfbench {detail['workload']} seed={detail['seed']} trace={detail['trace']}: "
        f"{r['attempted']} evaluations attempted, {r['failed']} failed"
    )
    for name, m in r["metrics"].items():
        print(f"  {name:48s} {m['value']:14.6g} {m['unit']}")
    for key in ("units", "setup_samples", "pairs", "spans", "failure_reasons"):
        if key in detail:
            print(f"  {key}: {detail[key]}")
    gate = "passed" if r["correct"] else "FAILED"
    print(f"  output gate {gate}" + "".join(f"\n    {p}" for p in detail["problems"][:20]))
    print(f"  environment: {json.dumps(detail['environment'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "mediancr" / "cli.py").is_file():
        print(f"error: no mediancr sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    # Bytecode is written once here, so no run times compilation as set-up.
    compileall.compile_dir(SRC, quiet=1)
    spec = load_spec()
    env = environment()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), spec, env) for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
