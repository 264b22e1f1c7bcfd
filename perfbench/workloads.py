"""The four benchmark workloads and the fixed work in one unit of each.

A run repeats units until its time is up.  A simulate unit is one
``run_simulation`` in a fresh interpreter (so every ``lru_cache`` starts
cold), with ``workers=1``: the machines this runs on have two cores, and a
pool would time the scheduler rather than the library.  A ``cr`` unit is one
fresh ``python -m mediancr.cli cr`` call on a new n = 1000 sample.

Every workload uses alpha = 0.05.  It is not dyadic, so no binomial or
signed-rank CDF can equal alpha/2 exactly, and an exact-cutoff fix cannot
change the output bytes.

This module imports nothing from mediancr, so the parent process can read
it without paying the library's import.
"""

from __future__ import annotations

from dataclasses import dataclass

ALPHA = 0.05

# Seeds whose unit outputs are frozen in digests.json.  HELD_OUT_SEED is
# never used while tuning run lengths.
DEFAULT_SEED = 2026
HELD_OUT_SEED = 1811

# Units always run, whatever --seconds says; digests cover units 0..2.
MIN_UNITS = 3
MAX_UNITS = 200

CR_SAMPLE_SIZE = 1000
CR_METHODS = (1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13)


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each exists."""

    name: str
    kind: str  # "sim" or "cr"
    methods: tuple[int, ...]
    sizes: tuple[int, ...] = ()
    reps: int = 0  # replications per (distribution, n) cell in one unit
    breps: int = 2000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sim_desk",
            "sim",
            methods=tuple(range(1, 14)),
            sizes=(10, 20, 30),
            reps=20,
            breps=500,
        ),
        Workload(
            "sim_rank_large",
            "sim",
            methods=(2, 3, 10, 11, 12, 13),
            sizes=(50, 100, 200),
            reps=2,
        ),
        Workload(
            "sim_boot",
            "sim",
            methods=(5, 6, 7, 8, 9),
            sizes=(20, 50),
            reps=20,
        ),
        Workload(
            "cr_large",
            "cr",
            methods=CR_METHODS,
        ),
    )
}


def unit_seed(seed: int, unit: int) -> int:
    """Master seed of one unit; unit 0 uses the run's seed itself."""
    return seed + 1_000_003 * unit


def cr_argv(input_path: str, seed: int) -> list[str]:
    """Arguments of one ``mediancr cr`` call: default breps, JSON output."""
    return [
        "cr",
        "--input",
        input_path,
        "--methods",
        ",".join(str(m) for m in CR_METHODS),
        "--seed",
        str(seed),
    ]


def cr_sample_text(seed: int, unit: int) -> str:
    """A fresh gamma(2, 1) sample of size 1000, written at 17 significant digits.

    Drawn with numpy directly, not with mediancr's own sampler, so the input
    does not depend on the code under test.
    """
    import numpy as np

    x = np.random.default_rng([seed, unit]).gamma(2.0, 1.0, CR_SAMPLE_SIZE)
    return "".join(f"{v:.17g}\n" for v in x)
