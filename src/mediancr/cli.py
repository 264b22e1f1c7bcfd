"""Command line interface.

Three subcommands:

* ``cr``        compute regions for a data file
* ``simulate``  run the Monte Carlo grid and write a CSV
* ``table``     print a selection table (ratios, masses, admitted counts)

Exit codes: 0 success, 1 standard output closed by its reader, 2 bad
arguments, 3 unreadable or unusable data, 4 requested level infeasible for a
selected method.

Output is a pure function of the arguments, the input file bytes, and the
seed (``--seed``, else the MEDIANCR_SEED environment variable, else 0).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings

from .classical import bootstrap_medians
from .distributions import RngStream, binom_pmf_fraction, exponential, study_distributions
from .errors import DegenerateDataError, InfeasibleLevelError, UnsupportedSizeError
from .methods import METHODS, compute_region, parse_method_ids
from .optimal import assemble_region, select_gamma0
from .regions import make_sample, region_from_gamma0
from .simulate import SimConfig, results_to_csv, run_simulation
from .spacings import lk_exponential, lk_uniform

EXIT_OK = 0
EXIT_PIPE = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4

_DIST_NAMES = tuple(study_distributions()) + ("exponential",)


def _dist_by_name(name: str):
    table = study_distributions()
    table["exponential"] = exponential(1.0)
    if name not in table:
        raise ValueError(f"unknown distribution {name!r}; choose from {', '.join(table)}")
    return table[name]


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("MEDIANCR_SEED")
    if env is None:
        return 0
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
    """Perturb every member of each tied set by an independent uniform(-eps, eps)."""
    counts: dict[float, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    tied_idx = [i for i, v in enumerate(values) if counts[v] > 1]
    if not tied_idx:
        return values, False
    gen = rng.generator()
    draws = gen.random(len(tied_idx))
    out = list(values)
    for pos, i in enumerate(tied_idx):
        out[i] = values[i] + eps * (2.0 * draws[pos] - 1.0)
    return out, True


def _fmt_endpoint_json(x):
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _region_payload(region) -> dict:
    content = region.content
    return {
        "intervals": region.to_jsonable(),
        "content": _fmt_endpoint_json(content),
    }


def _cmd_cr(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        values = _read_data(args.input)
    except (IOError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    try:
        method_ids = parse_method_ids(args.methods)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    flags_global: list[str] = []
    if args.jitter is not None:
        if args.jitter <= 0:
            print("error: --jitter must be positive", file=sys.stderr)
            return EXIT_USAGE
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
        flags = list(flags_global)
        sel = None
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if args.explain and info.randomized:
                    # Build the selection once; the explanation shows both of its branches.
                    sel = info.selection(srt, args.alpha)
                    region = assemble_region(srt, sel, u)
                else:
                    region = compute_region(m, srt, args.alpha, u=u, boot=boot)
            flags.extend(sorted({w.category.__name__ for w in caught}))
        except InfeasibleLevelError as exc:
            print(f"error: method {m} ({info.name}): {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except UnsupportedSizeError as exc:
            # A size limit of the method: jittering the data cannot help.
            print(f"error: method {m} ({info.name}): {exc}", file=sys.stderr)
            return EXIT_DATA
        except (DegenerateDataError, ValueError) as exc:
            print(
                f"error: method {m} ({info.name}): {exc}"
                + ("" if args.jitter is not None else "; consider --jitter"),
                file=sys.stderr,
            )
            return EXIT_DATA
        entry = {
            "method": m,
            "name": info.name,
            **_region_payload(region),
            "u": u,
            "flags": flags,
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
    else:
        print("method,intervals,content,u,flags")
        for r, region in results:
            region_txt = ";".join(region.to_strings())
            u_txt = "" if r["u"] is None else f"{r['u']!r}"
            print(
                f"{r['method']},{region_txt},{r['content']},{u_txt},{'|'.join(r['flags'])}"
            )
            if "explain" in r:
                ex = r["explain"]
                print(f"# method {r['method']}: gamma={ex['gamma']!r} "
                      f"included={ex['included']} tie_set={ex['tie_set']}")
                print(f"# method {r['method']}: if u<=gamma -> "
                      f"{';'.join(ex['if_u_le_gamma'].to_strings())}")
                print(f"# method {r['method']}: if u>gamma  -> "
                      f"{';'.join(ex['if_u_gt_gamma'].to_strings())}")
    return EXIT_OK


def _explain_randomized(sel, srt) -> dict:
    """Both branches of a randomized region; JSON output writes each via _region_payload."""
    return {
        "included": sorted(sel.included),
        "tie_set": sorted(sel.tie_set),
        "gamma": sel.gamma,
        "if_u_le_gamma": region_from_gamma0(srt, sel.included | sel.tie_set),
        "if_u_gt_gamma": region_from_gamma0(srt, sel.included),
    }


def _cmd_simulate(args) -> int:
    seed = _resolve_seed(args.seed)
    try:
        dists = tuple(_dist_by_name(s.strip()) for s in args.dists.split(",") if s.strip())
        sizes = tuple(int(s) for s in args.sizes.split(",") if s.strip())
        methods = parse_method_ids(args.methods)
        config = SimConfig(
            distributions=dists,
            sample_sizes=sizes,
            alpha=args.alpha,
            reps=args.reps,
            breps=args.breps,
            methods=methods,
            master_seed=seed,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    results = run_simulation(config)
    csv_text = results_to_csv(results)
    if args.out == "-":
        sys.stdout.write(csv_text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        print(
            f"wrote {len(results)} rows ({len(config.distributions)} distributions x "
            f"{len(config.sample_sizes)} sizes x {len(config.methods)} methods) to {args.out}"
        )
    return EXIT_OK


def _cmd_table(args) -> int:
    focus = args.focus
    try:
        if args.n < 1:
            raise ValueError(f"--n must be >= 1, got {args.n}")
        profile = lk_uniform(args.n) if focus == "uniform" else lk_exponential(args.n)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    n = args.n
    print(f"focus={focus} n={n}")
    print("k\tr(k)\tP(B=k)")
    for k in range(n + 1):
        r_int = profile.exact_ratio[k]
        p = binom_pmf_fraction(k, n)
        print(f"{k}\t{r_int}\t{float(p):.10f}")
    if args.alpha is not None:
        try:
            sel = select_gamma0(profile, args.alpha)
        except InfeasibleLevelError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
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
    p_cr.add_argument("--methods", default="all", help="'all' or comma-separated ids in 1..13")
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
                       help=f"comma-separated names from: {', '.join(_DIST_NAMES)}")
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
    p_tab.add_argument("--focus", choices=("uniform", "exponential"), default="exponential")
    p_tab.add_argument("--alpha", type=float, default=None)
    p_tab.set_defaults(func=_cmd_table)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
