"""Spans and counters around mediancr's layers, installed from outside.

The tracer rebinds the module attributes that callers look up (for example
``mediancr.simulate.compute_region`` or ``mediancr.optimal.select_gamma0``)
and ``RngStream.generator`` on its class.  Nothing under ``src/`` changes.

A span is ``[name, start_ns, end_ns, parent, error]``; spans stay in memory
and are written out once, when the traced process ends.  The two scalar
CDFs are called about a million times per unit, so they get counters only.

``layer_stats`` turns a dump into per-name totals; a span's self time is its
duration minus the durations of its direct children, which nest inside it
because the traced code is single-threaded.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict


def _n_alpha(args, kwargs):
    sample = args[0] if args else kwargs["sample"]
    alpha = args[1] if len(args) > 1 else kwargs["alpha"]
    return f"{sample.n}:{alpha!r}"


def _boot_bytes(args, kwargs):
    sample = args[0] if args else kwargs["sample"]
    breps = args[1] if len(args) > 1 else kwargs["breps"]
    return breps * sample.n * 16


def _method_name(args, kwargs):
    method_id = args[0] if args else kwargs["method_id"]
    return f"methods.compute_region.m{method_id}"


# (defining module, attribute, span name, distinct-key fn, work-tally fn)
SPANS = (
    ("mediancr.classical", "cr_sign", "classical.cr_sign", _n_alpha, None),
    ("mediancr.classical", "cr_wilcoxon", "classical.cr_wilcoxon", _n_alpha, None),
    ("mediancr.classical", "bootstrap_medians", "classical.bootstrap_medians", None, _boot_bytes),
    ("mediancr.classical", "jackknife_acceleration", "classical.jackknife_acceleration", None, None),
    ("mediancr.classical", "cr_bootstrap", "classical.cr_bootstrap", None, None),
    ("mediancr.optimal", "select_gamma0", "optimal.select_gamma0", None, None),
    ("mediancr.spacings", "lk_edf", "spacings.lk_edf", None, None),
    ("mediancr.spacings", "lk_mom", "spacings.lk_mom", None, None),
    ("mediancr.distributions", "sample", "distributions.sample", None, None),
    ("mediancr.regions", "make_sample", "regions.make_sample", None, None),
    ("mediancr.regions", "region_from_gamma0", "regions.region_from_gamma0", None, None),
    ("mediancr.methods", "compute_region", _method_name, None, None),
    ("mediancr.simulate", "replicate", "simulate.replicate", None, None),
)

COUNTERS = (
    ("mediancr.distributions", "binom_cdf", "distributions.binom_cdf"),
    ("mediancr.distributions", "signed_rank_null_cdf", "distributions.signed_rank_null_cdf"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.tallies: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, fn, name, key=None, tally=None):
        """``fn`` recording one span per call; ``name`` may be a function of the arguments."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            if key is not None:
                self.keys[label].add(key(args, kwargs))
            if tally is not None:
                self.tallies[label] += tally(args, kwargs)
            rec = [label, clock(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Rebind every mediancr module attribute that refers to a traced function."""
        modules = [m for k, m in sys.modules.items() if k == "mediancr" or k.startswith("mediancr.")]

        def rebind(orig, replacement):
            for mod in modules:
                for attr in [a for a, v in vars(mod).items() if v is orig]:
                    setattr(mod, attr, replacement)

        for modname, attr, name, key, tally in SPANS:
            orig = getattr(sys.modules[modname], attr)
            rebind(orig, self.wrap(orig, name, key, tally))
        for modname, attr, name in COUNTERS:
            orig = getattr(sys.modules[modname], attr)
            rebind(orig, self.count(orig, name))
        rng_stream = sys.modules["mediancr.distributions"].RngStream
        rng_stream.generator = self.wrap(rng_stream.generator, "distributions.rng_generator")

    def dump(self, path) -> None:
        doc = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "keys": {k: len(v) for k, v in self.keys.items()},
            "tallies": dict(self.tallies),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def layer_stats(doc) -> dict:
    """Per span name: calls, inclusive and self ns, sorted durations, errors by class."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    stats: dict[str, dict] = {}
    for i, (name, start, end, _, error) in enumerate(spans):
        s = stats.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0, "durs": [], "errors": Counter()})
        s["calls"] += 1
        s["incl_ns"] += end - start
        s["self_ns"] += end - start - child_ns[i]
        s["durs"].append(end - start)
        if error is not None:
            s["errors"][error] += 1
    for s in stats.values():
        s["durs"].sort()
    return stats


def per_layer_metrics(doc, names) -> dict[str, float]:
    """Values of the per-layer metrics ``names``; a layer the unit never entered reads 0."""
    stats = layer_stats(doc)
    empty = {"calls": 0, "incl_ns": 0, "self_ns": 0, "durs": [], "errors": Counter()}
    out = {}
    for metric in names:
        layer, stat = metric.rsplit(".", 1)
        s = stats.get(layer, empty)
        if stat == "self_ms":
            value = s["self_ns"] / 1e6
        elif stat == "ms":
            value = s["incl_ns"] / 1e6
        elif stat == "calls":
            value = doc["counts"].get(layer, s["calls"])
        elif stat == "recompute_ratio":
            value = doc["keys"].get(layer, 0) / s["calls"] if s["calls"] else 0.0
        elif stat == "bytes_computed":
            value = doc["tallies"].get(layer, 0)
        elif stat == "failures":
            value = sum(s["errors"].values())
        elif stat.startswith("ms_p"):
            value = _percentile(s["durs"], int(stat[4:])) / 1e6
        else:
            continue
        out[metric] = value
    return out


def failure_reasons(doc) -> dict[str, dict[str, int]]:
    """Failures by method and exception class, from the compute_region spans."""
    out = {}
    for name, s in layer_stats(doc).items():
        if name.startswith("methods.compute_region.") and s["errors"]:
            out[name.rsplit(".", 1)[1]] = dict(s["errors"])
    return out
