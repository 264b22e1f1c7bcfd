"""Command line interface.

Three subcommands:

* ``cr``        compute regions for a data file
* ``simulate``  run the Monte Carlo grid and write a CSV
* ``table``     print a selection table (ratios, masses, admitted counts)

Exit codes: 0 success, 1 standard output closed by its reader, 2 bad
arguments, 3 unreadable or unusable data, 4 requested level infeasible for a
selected method.  A subcommand raises ValueError for a bad argument, and
``main`` is the one place that turns it into exit 2.  ``run`` is the
command's process entry point (``python -m mediancr.cli`` and the
``mediancr`` script); library callers and tests call ``main``.

Output is a pure function of the arguments, the input file bytes, and the
seed (``--seed``, else the MEDIANCR_SEED environment variable, else 0).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import warnings
from collections import Counter

from .classical import bootstrap_medians
from .distributions import RngStream, binom_counts, exponential, study_distributions
from .errors import DegenerateDataError, InfeasibleLevelError
from .methods import METHOD_ID_RANGE, METHODS, compute_region, parse_method_ids
from .optimal import assemble_region, conservative_region, select_gamma0
from .regions import json_float, make_sample, region_from_gamma0
from .simulate import SimConfig, results_to_csv, run_simulation
from .spacings import FIXED_PROFILES

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4

_DISTRIBUTIONS = {**study_distributions(), "exponential": exponential(1.0)}


def _dist_by_name(name: str):
    if name not in _DISTRIBUTIONS:
        raise ValueError(f"unknown distribution {name!r}; choose from {', '.join(_DISTRIBUTIONS)}")
    return _DISTRIBUTIONS[name]


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("MEDIANCR_SEED", "0")
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"MEDIANCR_SEED must be an integer, got {env!r}") from None


def _read_data(path: str) -> list[float]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    values = []
    for tok in text.replace(",", " ").split():
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"malformed number {tok!r} in {path}") from None
    if not values:
        raise ValueError(f"no numbers found in {path}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite value in {path}")
    return values


def _jitter_ties(values: list[float], eps: float, rng: RngStream) -> tuple[list[float], bool]:
    """Perturb every member of each tied set by an independent uniform(-eps, eps).

    Also returns whether any value moved: an EPS far below a tied value's
    spacing of floats leaves it where it was.
    """
    counts = Counter(values)
    tied_idx = [i for i, v in enumerate(values) if counts[v] > 1]
    out = list(values)
    for i, d in zip(tied_idx, rng._rekeyed().random(len(tied_idx))):
        out[i] = values[i] + eps * (2.0 * d - 1.0)
    return out, out != values


def _tie_hint(exc: ValueError, srt, eps: float | None) -> str:
    """Ties or no spread can be jittered away; a size limit or too few observations cannot."""
    if not isinstance(exc, DegenerateDataError):
        return ""
    if eps is None:
        return "; consider --jitter"
    tied = next((a for a, b in zip(srt.values, srt.values[1:]) if a == b), None)
    return "" if tied is None else f"; {tied!r} is still tied: --jitter {eps!r} is too small to move it"


def _region_payload(region) -> dict:
    return {"intervals": region.to_jsonable(), "content": json_float(region.content)}


def _cmd_cr(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        values = _read_data(args.input)
    except (IOError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    method_ids = parse_method_ids(args.methods)

    flags_global: list[str] = []
    if args.jitter is not None:
        if args.jitter <= 0:
            raise ValueError("--jitter must be positive")
        if not math.isfinite(args.jitter):
            raise ValueError(f"--jitter must be finite, got {args.jitter}")
        values, did = _jitter_ties(values, args.jitter, RngStream(seed, ("jitter",)))
        if did:
            flags_global.append("jittered")

    try:
        srt = make_sample(values)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    boot = None
    if any(METHODS[m].needs_bootstrap for m in method_ids):
        boot = bootstrap_medians(srt, args.breps, RngStream(seed, ("boot",)))

    results = []
    for m in method_ids:
        info = METHODS[m]
        u = RngStream(seed, ("cr", m)).uniform() if info.randomized else None
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                # --explain builds the selection once and shows both of its branches.
                sel = info.selection(srt, args.alpha) if args.explain and info.randomized else None
                region = (compute_region(m, srt, args.alpha, u=u, boot=boot) if sel is None
                          else assemble_region(srt, sel, u))
        except ValueError as exc:
            print(f"error: method {m} ({info.name}): {exc}{_tie_hint(exc, srt, args.jitter)}",
                  file=sys.stderr)
            return EXIT_INFEASIBLE if isinstance(exc, InfeasibleLevelError) else EXIT_DATA
        entry = {
            "method": m,
            "name": info.name,
            **_region_payload(region),
            "u": u,
            "flags": flags_global + sorted({w.category.__name__ for w in caught}),
        }
        if sel is not None:
            entry["explain"] = _explain_randomized(sel, srt)
        results.append((entry, region))

    if args.format == "json":
        doc = {
            "input": args.input,
            "n": srt.n,
            "alpha": args.alpha,
            "seed": seed,
            "results": [entry for entry, _ in results],
        }
        print(json.dumps(doc, indent=2, default=_region_payload))
        return EXIT_OK
    print("method,intervals,content,u,flags")
    for r, region in results:
        region_txt = ";".join(region.to_strings())
        u_txt = "" if r["u"] is None else f"{r['u']!r}"
        print(f"{r['method']},{region_txt},{r['content']},{u_txt},{'|'.join(r['flags'])}")
        if "explain" in r:
            ex = r["explain"]
            print(f"# method {r['method']}: gamma={ex['gamma']!r} "
                  f"included={ex['included']} tie_set={ex['tie_set']}")
            for branch, key in (("u<=gamma", "if_u_le_gamma"), ("u>gamma ", "if_u_gt_gamma")):
                print(f"# method {r['method']}: if {branch} -> {';'.join(ex[key].to_strings())}")
    return EXIT_OK


def _explain_randomized(sel, srt) -> dict:
    """Both branches of a randomized region; JSON output writes each via _region_payload."""
    return {
        "included": sorted(sel.included),
        "tie_set": sorted(sel.tie_set),
        "gamma": sel.gamma,
        "if_u_le_gamma": conservative_region(srt, sel),
        "if_u_gt_gamma": region_from_gamma0(srt, sel.included),
    }


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    dists = (_dist_by_name(s.strip()) for s in args.dists.split(",") if s.strip())
    sizes = (int(s) for s in args.sizes.split(",") if s.strip())
    config = SimConfig(
        # Deduplicated in first-seen order, as --methods is deduplicated.
        distributions=tuple(dict.fromkeys(dists)),
        sample_sizes=tuple(dict.fromkeys(sizes)),
        alpha=args.alpha,
        reps=args.reps,
        breps=args.breps,
        methods=parse_method_ids(args.methods),
        master_seed=seed,
        workers=args.workers,
    )

    if args.out == "-":
        sys.stdout.write(results_to_csv(run_simulation(config)))
        return EXIT_OK
    # Opened before the grid runs, so a path that cannot be written costs no replication.
    try:
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from None
    with fh:
        results = run_simulation(config)
        fh.write(results_to_csv(results))
    print(
        f"wrote {len(results)} rows ({len(config.distributions)} distributions x "
        f"{len(config.sample_sizes)} sizes x {len(config.methods)} methods) to {args.out}"
    )
    return EXIT_OK


def _cmd_table(args) -> int:
    n, focus = args.n, args.focus
    if n < 1:
        raise ValueError(f"--n must be >= 1, got {n}")
    profile = FIXED_PROFILES[focus](n)
    print(f"focus={focus} n={n}")
    print("k\tr(k)\tP(B=k)")
    # int / int is correctly rounded, as float(Fraction) is.
    for k, (r_int, c) in enumerate(zip(profile.exact_ratio, binom_counts(n))):
        print(f"{k}\t{r_int}\t{c / (1 << n):.10f}")
    if args.alpha is not None:
        try:
            sel = select_gamma0(profile, args.alpha)
        except InfeasibleLevelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        inc = ",".join(str(k) for k in sorted(sel.included))
        tie = ",".join(str(k) for k in sorted(sel.tie_set))
        print(f"alpha={args.alpha:g}")
        print(f"included={{{inc}}} mass={sel.p_included:.10f}")
        print(f"tie_set={{{tie}}} mass={sel.p_tie:.10f}")
        print(f"c={sel.c:.10g}")
        print(f"gamma={sel.gamma:.10f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediancr",
        description="Confidence regions for the median of a continuous error distribution.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cr = sub.add_parser("cr", help="compute confidence regions for a data file")
    p_cr.add_argument("--input", required=True, help="text file of numbers (whitespace or comma separated)")
    p_cr.add_argument("--alpha", type=float, default=0.05)
    p_cr.add_argument("--methods", default="all", help=f"'all' or comma-separated ids in {METHOD_ID_RANGE}")
    p_cr.add_argument("--seed", type=int, default=None)
    p_cr.add_argument("--breps", type=int, default=2000, help="bootstrap resamples for methods 5..9")
    p_cr.add_argument("--jitter", type=float, default=None, metavar="EPS",
                      help="perturb tied values by uniform(-EPS, EPS) before analysis")
    p_cr.add_argument("--format", choices=("json", "csv"), default="json")
    p_cr.add_argument("--explain", action="store_true",
                      help="show both branches of each randomized region")
    p_cr.set_defaults(func=_cmd_cr)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo grid")
    p_sim.add_argument("--dists", default=",".join(study_distributions()),
                       help=f"comma-separated names from: {', '.join(_DISTRIBUTIONS)}")
    p_sim.add_argument("--sizes", default="10,15,20,25,30,40,50")
    p_sim.add_argument("--reps", type=int, default=10000)
    p_sim.add_argument("--breps", type=int, default=2000)
    p_sim.add_argument("--alpha", type=float, default=0.05)
    p_sim.add_argument("--methods", default="all")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out", required=True, help="output CSV path, or - for stdout")
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.set_defaults(func=_cmd_simulate)

    p_tab = sub.add_parser("table", help="print the ratio/selection table for a profile")
    p_tab.add_argument("--n", type=int, required=True)
    p_tab.add_argument("--focus", choices=tuple(FIXED_PROFILES), default="exponential")
    p_tab.add_argument("--alpha", type=float, default=None)
    p_tab.set_defaults(func=_cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Every subcommand takes --alpha; check it before any work is done.
        if args.alpha is not None and not 0.0 < args.alpha < 1.0:
            raise ValueError(f"--alpha must be in (0, 1), got {args.alpha}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader went away (e.g. `| head`).  Point stdout at devnull so
        # the flush at interpreter exit cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def run() -> int:
    """``main`` for a process that exits next.

    Freezing moves every live object out of the collector's reach, so the
    interpreter's shutdown does not walk the tens of thousands of objects
    that importing numpy and scipy made; the OS reclaims them with the
    process.  Exit handlers and the flush of the standard streams still run.
    ``main`` never freezes: its callers keep running.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
