"""The method table: ids 1..13, their names, and how each region is built.

The numbering is the one used throughout the CLI and the simulation output:

 1 t interval                      8 bias-corrected bootstrap
 2 signed-rank (Walsh averages)    9 BCa bootstrap
 3 sign (order statistics)        10 randomized, uniform-shape profile
 4 asymptotic median with KDE     11 randomized, exponential-shape profile
 5 basic bootstrap                12 randomized, adaptive spacing profile
 6 bootstrap-SE with t quantile   13 randomized, adaptive plug-in profile
 7 percentile bootstrap
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .classical import (
    BootstrapDistribution,
    SampleRows,
    cr_asymp_median,
    cr_asymp_median_rows,
    cr_bootstrap,
    cr_bootstrap_rows,
    cr_sign,
    cr_t,
    cr_t_rows,
    cr_wilcoxon,
    cr_wilcoxon_rows,
)
from .optimal import (
    Gamma0Selection,
    adaptive_edf_selection,
    adaptive_mom_rows,
    adaptive_mom_selection,
    assemble_region,
    exponential_selection,
    symmetric_selection,
)
from .regions import Region, SortedSample

__all__ = ["MethodInfo", "METHODS", "ALL_METHOD_IDS", "method_info", "compute_region", "parse_method_ids"]


@dataclass(frozen=True)
class MethodInfo:
    """One method: its id, its output name, and how its region is built.

    ``region(sample, alpha, u, boot)`` builds the region.  A randomized method
    also carries ``selection(sample, alpha)``, the count selection that its
    region realizes for the draw u.  A batch form ``rows(rows, alpha, target,
    u)`` over a ``SampleRows``, with one uniform per row in ``u`` for a
    randomized method and None otherwise, gives three lists: whether
    each row is off (left to ``region``), covers target, and its content, as
    ``region`` gives them.  Every callable reaches its procedure through a
    name looked up at call time, so rebinding that module attribute (as a
    tracer or a test does) reaches every caller.
    """

    method_id: int
    name: str
    region: Callable[[SortedSample, float, float | None, BootstrapDistribution | None], Region]
    selection: Callable[[SortedSample, float], Gamma0Selection] | None = None
    boot_variant: str | None = None
    rows: Callable[[SampleRows, float, float, Sequence[float] | None], tuple[list, ...]] | None = None

    @property
    def randomized(self) -> bool:
        return self.selection is not None

    @property
    def needs_bootstrap(self) -> bool:
        return self.boot_variant is not None


def _closed_rows(ends: tuple[np.ndarray, ...], target: float) -> tuple[list, ...]:
    """Closed intervals [lo, hi] as rows; a row whose ends are not finite and ordered is off."""
    lo, hi = ends
    off = ~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi))
    with np.errstate(over="ignore", invalid="ignore"):
        return off.tolist(), ((lo <= target) & (target <= hi)).tolist(), (hi - lo).tolist()


def _half_open_rows(ends: tuple[np.ndarray, ...], target: float) -> tuple[list, ...]:
    """Half-open windows [lo, hi) as rows, empty where lo >= hi; no row is off."""
    lo, hi = ends
    with np.errstate(over="ignore"):
        return ([False] * len(lo), ((lo <= target) & (target < hi)).tolist(),
                np.where(lo < hi, hi - lo, 0.0).tolist())


def _bootstrap(method_id: int, name: str, variant: str) -> MethodInfo:
    return MethodInfo(method_id, name, lambda s, a, u, b: cr_bootstrap(s, a, b, variant),
                      boot_variant=variant,
                      rows=lambda r, a, t, u: _closed_rows(cr_bootstrap_rows(r, a, variant), t))


def _randomized(method_id: int, name: str,
                selection: Callable[[SortedSample, float], Gamma0Selection],
                rows: Callable | None = None) -> MethodInfo:
    return MethodInfo(method_id, name, lambda s, a, u, b: assemble_region(s, selection(s, a), u),
                      selection=selection, rows=rows)


METHODS: dict[int, MethodInfo] = {info.method_id: info for info in (
    MethodInfo(1, "t_interval", lambda s, a, u, b: cr_t(s, a),
               rows=lambda r, a, t, u: _closed_rows(cr_t_rows(r, a), t)),
    MethodInfo(2, "signed_rank", lambda s, a, u, b: cr_wilcoxon(s, a),
               rows=lambda r, a, t, u: _half_open_rows(cr_wilcoxon_rows(r.x, a), t)),
    MethodInfo(3, "sign", lambda s, a, u, b: cr_sign(s, a)),
    MethodInfo(4, "asymp_median_kde", lambda s, a, u, b: cr_asymp_median(s, a),
               rows=lambda r, a, t, u: _closed_rows(cr_asymp_median_rows(r, a), t)),
    _bootstrap(5, "boot_basic", "basic"),
    _bootstrap(6, "boot_se_t", "se"),
    _bootstrap(7, "boot_percentile", "percentile"),
    _bootstrap(8, "boot_bc", "bc"),
    _bootstrap(9, "boot_bca", "bca"),
    _randomized(10, "rand_uniform_profile", lambda s, a: symmetric_selection(s, a)),
    _randomized(11, "rand_exponential_profile", lambda s, a: exponential_selection(s, a)),
    _randomized(12, "rand_adaptive_spacings", lambda s, a: adaptive_mom_selection(s, a),
                lambda r, a, t, u: adaptive_mom_rows(r, a, t, u)),
    _randomized(13, "rand_adaptive_plugin", lambda s, a: adaptive_edf_selection(s, a)),
)}

ALL_METHOD_IDS = tuple(sorted(METHODS))
METHOD_ID_RANGE = f"{ALL_METHOD_IDS[0]}..{ALL_METHOD_IDS[-1]}"


def method_info(method_id: int) -> MethodInfo:
    """The ``METHODS`` entry of ``method_id``; ValueError names the valid range."""
    try:
        return METHODS[method_id]
    except KeyError:
        raise ValueError(f"unknown method id {method_id}; valid ids are {METHOD_ID_RANGE}") from None


def compute_region(
    method_id: int,
    sample: SortedSample,
    alpha: float,
    *,
    u: float | None = None,
    boot: BootstrapDistribution | None = None,
) -> Region:
    """Build the region of ``method_id`` from its ``METHODS`` entry.

    Randomized methods (10..13) require ``u``; bootstrap methods (5..9)
    require ``boot``.  Supplying what a method does not need is harmless, so
    a caller may prepare both once and evaluate several methods.
    """
    info = method_info(method_id)
    if info.randomized and u is None:
        raise ValueError(f"method {method_id} is randomized and needs u")
    if info.needs_bootstrap and boot is None:
        raise ValueError(f"method {method_id} needs a bootstrap distribution")
    return info.region(sample, alpha, u, boot)


def parse_method_ids(text: str) -> tuple[int, ...]:
    """Parse a CLI method list: 'all' or comma-separated ids, deduplicated."""
    if text.strip().lower() == "all":
        return ALL_METHOD_IDS
    ids = set()
    for part in filter(None, map(str.strip, text.split(","))):
        try:
            mid = int(part)
        except ValueError:
            raise ValueError(f"method ids must be integers, got {part!r}") from None
        ids.add(method_info(mid).method_id)
    if not ids:
        raise ValueError("no method ids given")
    return tuple(sorted(ids))
