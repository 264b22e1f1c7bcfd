"""Monte Carlo harness for coverage and expected-content comparisons.

The design is paired: within one replication every selected method sees the
same sample, the bootstrap methods share one resample distribution, and each
randomized method draws one fresh uniform.  Randomness is keyed per
(distribution, size, replication, purpose), so results do not depend on the
worker count, on which other methods run, or on the order of the
distribution grid.

``replicate`` returns each method's region for one sample; each cell keeps
one running tally per method over its replications.  Infinite-content
regions (possible for the sign region at small n and for the plug-in
adaptive region) still count toward coverage but are excluded from the mean
content and tallied separately.  The standardized content column scales the
mean content by sqrt(n) to put sample sizes on one axis.  The CSV columns
are the fields of ``SimResult``, in order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .classical import ClampedProbabilityWarning, bootstrap_medians
from .distributions import DistributionSpec, RngStream, sample
from .errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from .methods import METHODS, compute_region, method_info
from .regions import Region, make_sample

__all__ = ["SimConfig", "SimResult", "replicate", "run_simulation", "results_to_csv"]


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
        if not self.sample_sizes or any(n < 3 for n in self.sample_sizes):
            raise ValueError("sample sizes must all be >= 3")
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


@dataclass
class _Tally:
    """One method's running counts over the replications of a cell."""

    covered: int = 0
    content_sum: float = 0.0
    infinite: int = 0
    failures: int = 0


def replicate(dist: DistributionSpec, n: int, alpha: float, methods: tuple[int, ...],
              breps: int, rng: RngStream) -> dict[int, Region | None]:
    """Every requested method's region on one fresh sample.

    A method maps to None where it raised InfeasibleLevelError,
    DegenerateDataError or UnsupportedSizeError; the cell counts that
    replication as a failure.  Purpose-keyed child streams make the region
    for a given method independent of which other methods were requested.
    """
    srt = make_sample(sample(dist, n, rng.child("data")))
    boot = None
    if any(METHODS[m].needs_bootstrap for m in methods):
        boot = bootstrap_medians(srt, breps, rng.child("boot"))
    out: dict[int, Region | None] = {}
    for m in methods:
        u = rng.child("rand", m).uniform() if METHODS[m].randomized else None
        try:
            out[m] = compute_region(m, srt, alpha, u=u, boot=boot)
        except (InfeasibleLevelError, DegenerateDataError, UnsupportedSizeError):
            out[m] = None
    return out


def _run_cell(args) -> list[SimResult]:
    dist, n, config = args
    target = dist.true_median()
    tallies = {m: _Tally() for m in config.methods}
    # A clamped bootstrap probability is part of the method, not news for the CSV's reader.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ClampedProbabilityWarning)
        for rep in range(config.reps):
            rng = RngStream(config.master_seed, (dist.label, n, rep))
            regions = replicate(dist, n, config.alpha, config.methods, config.breps, rng)
            for m, region in regions.items():
                t = tallies[m]
                if region is None:
                    t.failures += 1
                    continue
                t.covered += region.contains(target)
                content = region.content
                if math.isinf(content):
                    t.infinite += 1
                else:
                    t.content_sum += content
    rows = []
    for m, t in tallies.items():
        ok = config.reps - t.failures
        cov = t.covered / ok if ok else math.nan
        mc_se = math.sqrt(cov * (1.0 - cov) / ok) if ok else math.nan
        mean = t.content_sum / (ok - t.infinite) if ok > t.infinite else math.nan
        rows.append(SimResult(
            method=m, dist=dist.label, n=n, alpha=config.alpha, reps=config.reps,
            breps=config.breps, coverage=cov, mc_se=mc_se, mean_content=mean,
            std_content=mean * math.sqrt(n), infinite_count=t.infinite, failures=t.failures))
    return rows


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
