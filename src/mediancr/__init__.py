"""Confidence regions for the median of an unknown continuous error distribution.

The package provides thirteen procedures behind one method table
(``methods``), the randomized minimum-content construction (``optimal``),
expected-spacing profiles (``spacings``), classical competitors
(``classical``), exact distributional primitives (``distributions``), region
algebra (``regions``), and a reproducible Monte Carlo harness (``simulate``).
The top level exports the documented API; every other name is imported from
its submodule.
"""

from .classical import BootstrapDistribution
from .errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from .methods import ALL_METHOD_IDS, METHODS, compute_region
from .regions import Interval, Region, SortedSample, make_sample

__version__ = "0.1.0"

__all__ = [
    "ALL_METHOD_IDS",
    "BootstrapDistribution",
    "DegenerateDataError",
    "InfeasibleLevelError",
    "Interval",
    "METHODS",
    "Region",
    "SortedSample",
    "UnsupportedSizeError",
    "compute_region",
    "make_sample",
]
