"""Monte Carlo harness for coverage and expected-content comparisons.

The design is paired: within one replication every selected method sees the
same sample, the bootstrap methods share one resample distribution, and each
randomized method draws one fresh uniform.  Randomness is keyed per
(distribution, size, replication, purpose), so results do not depend on the
worker count, on which other methods run, or on the order of the
distribution grid.

A cell (one law, one n) hashes its stream key once, and each replication's
stream extends a copy of it.  The cell draws its replications' samples in
blocks of ``_BLOCK``, each block as the rows of one matrix sorted at once
(``_draw_block``: row i is ``draw``'s sample for replication i, and a row
beyond the float range fails every method).  Each method with a batch form
(``MethodInfo.rows``) runs it once per block: 1, 2 and 4 over the samples as
matrix rows, 5-9 over one (block, breps) matrix of sorted bootstrap medians,
and 12 over each row's spacing ratios, drawing each row's uniform as
``replicate`` draws it.  Then one ``replicate`` call per replication, which
returns each method's region for one sample, decides the methods left off on
it: 3, 10, 11 and 13, which have no batch form, a form that refuses the
whole block, and a row off the plain path (overflow, a refused density; for
method 12 also tied values, a ratio group of two or more counts, or no count
whose mass crosses the level).  Contents are added in replication order: the
CSV bytes are those of ``replicate`` on every replication, which stays the
tests' oracle.  Memory does not grow with the number of replications.

Infinite-content regions (possible for the sign region at small n and for
the plug-in adaptive region) still count toward coverage but are excluded
from the mean content and tallied separately.  The standardized content
column scales the mean content by sqrt(n) to put sample sizes on one axis.
The CSV columns are the fields of ``SimResult``, in order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import Iterator

import numpy as np

from .classical import (
    ClampedProbabilityWarning,
    SampleRows,
    bootstrap_median_rows,
    bootstrap_medians,
)
from .distributions import DistributionSpec, RngStream, sample, sample_block
from .errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from .methods import METHODS, compute_region, method_info
from .regions import Region, SortedSample, make_sample

__all__ = ["SimConfig", "SimResult", "draw", "replicate", "run_simulation", "results_to_csv"]

# What a method raises for one replication's sample; the cell counts it as a failure.
_FAILURES = (InfeasibleLevelError, DegenerateDataError, UnsupportedSizeError)


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    distributions: tuple[DistributionSpec, ...]
    sample_sizes: tuple[int, ...]
    alpha: float
    reps: int
    breps: int
    methods: tuple[int, ...]
    master_seed: int
    workers: int = 1

    def __post_init__(self):
        if not self.distributions:
            raise ValueError("need at least one distribution")
        # A float count would fail only mid-run: a size not until its cell starts.
        for name, count in [*(("sample size", n) for n in self.sample_sizes),
                            ("reps", self.reps), ("breps", self.breps), ("workers", self.workers)]:
            if not isinstance(count, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {count!r}")
        if not self.sample_sizes or any(n < 3 for n in self.sample_sizes):
            raise ValueError("sample sizes must all be >= 3")
        # A repeated law or size would run the same cell again and repeat its rows.
        if len(set(self.distributions)) != len(self.distributions):
            raise ValueError("distributions must be distinct")
        if len(set(self.sample_sizes)) != len(self.sample_sizes):
            raise ValueError("sample sizes must be distinct")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.reps < 1:
            raise ValueError(f"reps must be >= 1, got {self.reps}")
        if self.breps < 1:
            raise ValueError(f"breps must be >= 1, got {self.breps}")
        for m in self.methods:
            method_info(m)  # raises on an unknown id
        if not self.methods or tuple(sorted(set(self.methods))) != self.methods:
            raise ValueError("methods must be a non-empty sorted tuple of distinct ids")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class SimResult:
    """Aggregated outcome of one (method, distribution, n) cell; one CSV row."""

    method: int
    dist: str
    n: int
    alpha: float
    reps: int
    breps: int
    coverage: float
    mc_se: float
    mean_content: float
    std_content: float
    infinite_count: int
    failures: int


CSV_HEADER = ",".join(f.name for f in fields(SimResult))


# Replications that the batch forms evaluate together.  A block's bootstrap
# medians, not the cell's, are alive at once: 64 x breps 2000 is 1 MB.
_BLOCK = 64


@dataclass
class _Tally:
    """One method's running counts over the replications of a cell."""

    covered: int = 0
    content_sum: float = 0.0
    infinite: int = 0
    failures: int = 0

    def add(self, outcome: tuple[bool, float] | None) -> None:
        """One replication's (covered, content), or None for a failure."""
        if outcome is None:
            self.failures += 1
            return
        covered, content = outcome
        self.covered += covered
        if math.isinf(content):
            self.infinite += 1
        else:
            self.content_sum += content


def draw(dist: DistributionSpec, n: int, rng: RngStream) -> SortedSample:
    """One replication's sample: ``n`` draws on the "data" child of its stream, sorted.

    A variate beyond the float range raises UnsupportedSizeError (``sample``);
    the cell counts that replication as a failure of every method.
    """
    return make_sample(sample(dist, n, rng.child("data")))


def _draw_block(dist: DistributionSpec, n: int,
                rngs: list[RngStream]) -> list[SortedSample | None]:
    """``draw`` on each replication's stream, or None where a variate is beyond the float range.

    The block's samples are drawn as the rows of one matrix (``sample_block``)
    and sorted at once; each finite row is wrapped as a SortedSample as it is,
    without ``make_sample``'s list round trip.
    """
    x, finite = sample_block(dist, n, [rng.child("data") for rng in rngs])
    x.sort(axis=1)
    x.flags.writeable = False
    return [SortedSample(tuple(row.tolist()), row) if ok else None for row, ok in zip(x, finite)]


def replicate(sample: SortedSample, alpha: float, methods: tuple[int, ...], breps: int,
              rng: RngStream) -> dict[int, Region | None]:
    """Every requested method's region on one replication's sample, drawn by ``draw``.

    A method maps to None where it raised InfeasibleLevelError,
    DegenerateDataError or UnsupportedSizeError; the cell counts that
    replication as a failure.  Purpose-keyed child streams make the region
    for a given method independent of which other methods were requested.
    """
    boot = None
    if any(METHODS[m].needs_bootstrap for m in methods):
        boot = bootstrap_medians(sample, breps, rng.child("boot"))
    out: dict[int, Region | None] = {}
    for m in methods:
        u = rng.child("rand", m).uniform() if METHODS[m].randomized else None
        try:
            out[m] = compute_region(m, sample, alpha, u=u, boot=boot)
        except _FAILURES:
            out[m] = None
    return out


def _outcome(region: Region | None, target: float) -> tuple[bool, float] | None:
    return None if region is None else (region.contains(target), region.content)


def _batch_form(m: int, rows: SampleRows, alpha: float, target: float,
                rngs: tuple[RngStream, ...]) -> tuple[list, ...]:
    """Method m's (off, covered, content) on the rows; every row is off without a batch form."""
    info = METHODS[m]
    if info.rows is not None:
        # Each row's uniform, drawn as replicate draws it.
        u = [rng.child("rand", m).uniform() for rng in rngs] if info.randomized else None
        try:
            return info.rows(rows, alpha, target, u)
        except _FAILURES:
            pass  # Refused for (n, alpha), as at an unattainable level: each row decides alone.
    return [True] * len(rngs), None, None


def _run_block(methods: tuple[int, ...], block: list[tuple[SortedSample, RngStream]],
               alpha: float, target: float, breps: int) -> Iterator[dict[int, tuple[bool, float] | None]]:
    """Each drawn replication's outcome per method, in replication order.

    The batch forms decide the rows they can; one ``replicate`` call per
    replication decides the methods left off on it, and none is made when no
    method is left.
    """
    samples, rngs = zip(*block)
    medians = None
    if any(METHODS[m].needs_bootstrap for m in methods):
        medians = bootstrap_median_rows(samples, breps, [rng.child("boot") for rng in rngs])
    rows = SampleRows(samples, medians)
    forms = {m: _batch_form(m, rows, alpha, target, rngs) for m in methods}
    for i, (s, rng) in enumerate(zip(samples, rngs)):
        left = tuple(m for m in methods if forms[m][0][i])
        regions = replicate(s, alpha, left, breps, rng) if left else {}
        yield {m: _outcome(regions[m], target) if m in regions else (covered[i], content[i])
               for m, (_, covered, content) in forms.items()}


def _run_cell(args) -> list[SimResult]:
    dist, n, config = args
    target = dist.true_median()
    tallies = {m: _Tally() for m in config.methods}
    # The cell's (seed, label, n) prefix is hashed once; each replication extends a copy.
    cell = RngStream(config.master_seed, (dist.label, n))
    # A clamped bootstrap probability is part of the method, not news for the CSV's reader.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampedProbabilityWarning)
        for start in range(0, config.reps, _BLOCK):
            rngs = [cell.child(rep) for rep in range(start, min(start + _BLOCK, config.reps))]
            block = [(s, rng) for s, rng in zip(_draw_block(dist, n, rngs), rngs) if s is not None]
            for _ in range(len(rngs) - len(block)):
                for t in tallies.values():
                    t.add(None)
            if block:
                for outcomes in _run_block(config.methods, block, config.alpha, target, config.breps):
                    for m, outcome in outcomes.items():
                        tallies[m].add(outcome)
    out = []
    for m, t in tallies.items():
        ok = config.reps - t.failures
        cov = t.covered / ok if ok else math.nan
        mc_se = math.sqrt(cov * (1.0 - cov) / ok) if ok else math.nan
        mean = t.content_sum / (ok - t.infinite) if ok > t.infinite else math.nan
        out.append(SimResult(
            method=m, dist=dist.label, n=n, alpha=config.alpha, reps=config.reps,
            breps=config.breps, coverage=cov, mc_se=mc_se, mean_content=mean,
            std_content=mean * math.sqrt(n), infinite_count=t.infinite, failures=t.failures))
    return out


def run_simulation(config: SimConfig) -> list[SimResult]:
    """Run the full grid; rows ordered by (distribution, n, method).

    The per-replication stream key (distribution label, n, replication)
    makes every cell self-contained: rerunning with a different worker
    count, method subset, or grid order reproduces identical rows.
    """
    cells = [(dist, n, config) for dist in config.distributions for n in config.sample_sizes]
    if config.workers == 1 or len(cells) == 1:
        per_cell = [_run_cell(c) for c in cells]
    else:
        # Imported here, its only use, so a serial run does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(config.workers, len(cells))) as pool:
            per_cell = list(pool.map(_run_cell, cells))
    return [row for cell_rows in per_cell for row in cell_rows]


# (name, formatter) per CSV column; under the ``__future__`` import f.type is a string.
_COLUMNS = [(f.name, "{:.10g}".format if f.type == "float" else str) for f in fields(SimResult)]


def results_to_csv(results: list[SimResult]) -> str:
    """Render results as CSV, one column per SimResult field; floats get 10 significant digits."""
    rows = (",".join(fmt(getattr(r, name)) for name, fmt in _COLUMNS) for r in results)
    return "\n".join([CSV_HEADER, *rows]) + "\n"
