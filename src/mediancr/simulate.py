"""Monte Carlo harness for coverage and expected-content comparisons.

The design is paired: within one replication every selected method sees the
same sample, the bootstrap methods share one resample distribution, and each
randomized method draws one fresh uniform.  Randomness is keyed per
(distribution, size, replication, purpose), so results do not depend on the
worker count, on which other methods run, or on the order of the
distribution grid.

Infinite-content regions (possible for the sign region at small n and for
the plug-in adaptive region) still count toward coverage but are excluded
from the mean content and tallied separately.  The standardized content
column scales the mean content by sqrt(n) to put sample sizes on one axis.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

from .classical import bootstrap_medians
from .distributions import DistributionSpec, RngStream, sample
from .errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from .methods import METHODS, compute_region
from .regions import make_sample

__all__ = ["SimConfig", "SimResult", "RepOutcome", "replicate", "run_simulation", "results_to_csv"]

CSV_HEADER = (
    "method,dist,n,alpha,reps,breps,coverage,mc_se,"
    "mean_content,std_content,infinite_count,failures"
)


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
        if not self.methods or any(m not in METHODS for m in self.methods):
            raise ValueError("methods must be a non-empty subset of 1..13")
        if tuple(sorted(set(self.methods))) != self.methods:
            raise ValueError("methods must be sorted and unique")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass(frozen=True)
class RepOutcome:
    covered: bool
    content: float
    failed: bool = False


@dataclass(frozen=True)
class SimResult:
    """Aggregated outcome of one (method, distribution, n) cell."""

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


@lru_cache(maxsize=64)
def _true_median(dist: DistributionSpec) -> float:
    return dist.true_median()


def replicate(
    dist: DistributionSpec,
    n: int,
    alpha: float,
    methods: tuple[int, ...],
    breps: int,
    rng: RngStream,
) -> dict[int, RepOutcome]:
    """Evaluate every requested method on one fresh sample.

    Purpose-keyed child streams make the outcome for a given method
    independent of which other methods were requested.
    """
    data = sample(dist, n, rng.child("data"))
    srt = make_sample(data)
    target = _true_median(dist)
    boot = None
    if any(METHODS[m].needs_bootstrap for m in methods):
        boot = bootstrap_medians(srt, breps, rng.child("boot"))
    out: dict[int, RepOutcome] = {}
    for m in methods:
        u = rng.child("rand", m).uniform() if METHODS[m].randomized else None
        try:
            region = compute_region(m, srt, alpha, u=u, boot=boot)
        except (InfeasibleLevelError, DegenerateDataError, UnsupportedSizeError):
            out[m] = RepOutcome(covered=False, content=math.nan, failed=True)
            continue
        out[m] = RepOutcome(covered=region.contains(target), content=region.content)
    return out


def _run_cell(args) -> list[SimResult]:
    dist, n, config = args
    methods = config.methods
    covered = {m: 0 for m in methods}
    content_sum = {m: 0.0 for m in methods}
    infinite = {m: 0 for m in methods}
    failures = {m: 0 for m in methods}
    for rep in range(config.reps):
        rng = RngStream(config.master_seed, (dist.label, n, rep))
        outcomes = replicate(dist, n, config.alpha, methods, config.breps, rng)
        for m, oc in outcomes.items():
            if oc.failed:
                failures[m] += 1
                continue
            if oc.covered:
                covered[m] += 1
            if math.isinf(oc.content):
                infinite[m] += 1
            else:
                content_sum[m] += oc.content
    results = []
    for m in methods:
        ok = config.reps - failures[m]
        cov = covered[m] / ok if ok else math.nan
        mc_se = math.sqrt(cov * (1.0 - cov) / ok) if ok else math.nan
        finite_count = ok - infinite[m]
        mean_content = content_sum[m] / finite_count if finite_count else math.nan
        results.append(
            SimResult(
                method=m,
                dist=dist.label,
                n=n,
                alpha=config.alpha,
                reps=config.reps,
                breps=config.breps,
                coverage=cov,
                mc_se=mc_se,
                mean_content=mean_content,
                std_content=mean_content * math.sqrt(n),
                infinite_count=infinite[m],
                failures=failures[m],
            )
        )
    return results


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
        with ProcessPoolExecutor(max_workers=min(config.workers, len(cells))) as pool:
            per_cell = list(pool.map(_run_cell, cells))
    return [row for cell_rows in per_cell for row in cell_rows]


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def results_to_csv(results: list[SimResult]) -> str:
    """Render results as CSV with 10-significant-digit floats."""
    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            ",".join(
                [
                    str(r.method),
                    r.dist,
                    str(r.n),
                    _fmt(r.alpha),
                    str(r.reps),
                    str(r.breps),
                    _fmt(r.coverage),
                    _fmt(r.mc_se),
                    _fmt(r.mean_content),
                    _fmt(r.std_content),
                    str(r.infinite_count),
                    str(r.failures),
                ]
            )
        )
    return "\n".join(lines) + "\n"
