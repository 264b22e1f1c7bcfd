"""Output gates: frozen digests and oracles that do not use the code under test.

Each check returns a list of problems; an empty list means it passed.

Coverage oracle.  Methods 10 and 11 cover the true median with probability
exactly 1 - alpha, and method 3 with the binomial window mass
P{k1 + 1 <= B <= k2}, B ~ Binomial(n, 1/2), which this module computes with
``math.comb`` and ``Fraction``, not with mediancr's ``binom_*``.  A row's
covered count is Binomial(reps, p0) under that claim.  The band is the
4-sigma level (two-sided normal tail 6.33e-5) for the whole run, split over
the rows checked (Bonferroni) and taken from exact binomial tails: a
per-row 4 * mc_se band would fail a correct program in about one run in ten
once a run checks a few dozen rows.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

FOUR_SIGMA_TAIL = math.erfc(4.0 / math.sqrt(2.0))
DIGESTS_PATH = Path(__file__).with_name("digests.json")

CSV_FIELDS = [
    "method", "dist", "n", "alpha", "reps", "breps", "coverage", "mc_se",
    "mean_content", "std_content", "infinite_count", "failures",
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_digests() -> dict:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest_problems(digests: dict, workload: str, seed: int, unit: int, digest: str) -> list[str]:
    """Compare a unit's output digest with the frozen one, where one is frozen."""
    expected = digests.get(workload, {}).get(str(seed), [])
    if unit < len(expected) and expected[unit] != digest:
        return [f"{workload} seed {seed} unit {unit}: digest {digest[:12]} != frozen {expected[unit][:12]}"]
    return []


# -- simulate CSV --------------------------------------------------------------


def parse_csv(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    if reader.fieldnames != CSV_FIELDS:
        raise ValueError(f"unexpected CSV header {reader.fieldnames}")
    return list(reader)


def csv_problems(rows: list[dict], workload) -> list[str]:
    """Row count and order, and sane values, for one simulate unit."""
    expected = 7 * len(workload.sizes) * len(workload.methods)
    problems = []
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    methods = [int(r["method"]) for r in rows[: len(workload.methods)]]
    if methods != list(workload.methods):
        problems.append(f"first cell has methods {methods}, expected {list(workload.methods)}")
    for r in rows:
        ok = int(r["reps"]) - int(r["failures"])
        cov = float(r["coverage"])
        if ok and not 0.0 <= cov <= 1.0:
            problems.append(f"m{r['method']} {r['dist']} n={r['n']}: coverage {cov} outside [0, 1]")
    return problems


def sign_window(n: int, alpha: float) -> tuple[int, int]:
    """Exact (k1, k2) of the sign region, from binomial coefficients."""
    half = Fraction(alpha) / 2
    cdf, k1, k2 = Fraction(0), -1, n
    for k in range(n + 1):
        cdf += Fraction(math.comb(n, k), 2 ** n)
        if cdf <= half:
            k1 = k
        if cdf >= 1 - half:
            k2 = k
            break
    return k1, k2


def target_coverage(method: int, n: int, alpha: float):
    """Exact coverage the paper promises for a method, or None if it promises none."""
    if method in (10, 11):
        return 1 - Fraction(alpha)
    if method == 3:
        k1, k2 = sign_window(n, alpha)
        return Fraction(sum(math.comb(n, k) for k in range(k1 + 1, k2 + 1)), 2 ** n)
    return None


def binomial_band(reps: int, p0, level: float) -> tuple[int, int]:
    """Smallest and largest covered counts whose one-sided exact tail is at least level / 2."""
    p = float(p0)
    if not 0.0 < p < 1.0:
        return (reps, reps) if p == 1.0 else (0, 0)
    log_p, log_q, log_fact = math.log(p), math.log1p(-p), math.lgamma(reps + 1)
    pmf = [
        math.exp(log_fact - math.lgamma(k + 1) - math.lgamma(reps - k + 1) + k * log_p + (reps - k) * log_q)
        for k in range(reps + 1)
    ]
    lo, acc = 0, 0.0
    while lo < reps and acc + pmf[lo] < level / 2:
        acc += pmf[lo]
        lo += 1
    hi, acc = reps, 0.0
    while hi > 0 and acc + pmf[hi] < level / 2:
        acc += pmf[hi]
        hi -= 1
    return lo, hi


def pool_rows(units_rows: list[list[dict]]) -> dict:
    """Sum covered and attempted counts per (method, dist, n) over units."""
    pooled: dict[tuple, list[int]] = {}
    for rows in units_rows:
        for r in rows:
            ok = int(r["reps"]) - int(r["failures"])
            covered = round(float(r["coverage"]) * ok) if ok else 0
            acc = pooled.setdefault((int(r["method"]), r["dist"], int(r["n"])), [0, 0])
            acc[0] += covered
            acc[1] += ok
    return pooled


def coverage_problems(pooled: dict, alpha: float) -> list[str]:
    """The exact-coverage oracle on every pooled row of methods 3, 10 and 11."""
    checked = {k: v for k, v in pooled.items() if target_coverage(k[0], k[2], alpha) is not None and v[1]}
    if not checked:
        return []
    level = FOUR_SIGMA_TAIL / len(checked)
    problems = []
    for (method, dist, n), (covered, reps) in sorted(checked.items()):
        p0 = target_coverage(method, n, alpha)
        lo, hi = binomial_band(reps, p0, level)
        if not lo <= covered <= hi:
            problems.append(
                f"m{method} {dist} n={n}: covered {covered}/{reps}, band [{lo}, {hi}] "
                f"around p0={float(p0):.6f}"
            )
    return problems


# -- cr JSON envelope --------------------------------------------------------------


def _endpoint(x) -> float:
    return {"inf": math.inf, "-inf": -math.inf}.get(x, x) if isinstance(x, str) else float(x)


def envelope_problems(doc: dict, values: list[float], methods, alpha: float) -> list[str]:
    """Every method present; every region nonempty, disjoint and ascending; sign region exact."""
    problems = []
    if doc.get("n") != len(values):
        problems.append(f"n = {doc.get('n')}, expected {len(values)}")
    got = [r["method"] for r in doc.get("results", [])]
    if got != list(methods):
        problems.append(f"methods {got}, expected {list(methods)}")
    for r in doc.get("results", []):
        ivs = [(_endpoint(iv["lo"]), _endpoint(iv["hi"])) for iv in r["intervals"]]
        if not ivs:
            problems.append(f"m{r['method']}: empty region")
        if any(not lo < hi for lo, hi in ivs):
            problems.append(f"m{r['method']}: empty interval in {ivs}")
        if any(a[1] >= b[0] for a, b in zip(ivs, ivs[1:])):
            problems.append(f"m{r['method']}: intervals overlap or are out of order")
        if r["method"] == 3:
            xs = sorted(values)
            k1, k2 = sign_window(len(xs), alpha)
            order = [-math.inf] + xs + [math.inf]
            want = [(order[k1 + 1], order[k2 + 1])]
            if ivs != want:
                problems.append(f"m3: region {ivs}, expected order statistics {want}")
    return problems
