"""One fresh interpreter of the benchmark.

    child.py setup WORKLOAD SEED REPORT
        Time ``import mediancr.cli`` plus the workload's config construction.
    child.py sim WORKLOAD SEED UNIT CSV REPORT [SPANS]
        Set up as above, then run one simulate unit and write its CSV.  With
        SPANS, trace the run and write the spans there at exit.
    child.py cli SPANS -- CLI-ARGS...
        ``python -m mediancr.cli CLI-ARGS`` with tracing installed.

REPORT receives a JSON object with the setup and run times and the peak
resident memory of this process.  The parent puts ``src`` on PYTHONPATH;
this program refuses to run against a mediancr found anywhere else.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    import mediancr.cli

    if Path(mediancr.cli.__file__).resolve().parent != SRC / "mediancr":
        raise SystemExit(f"mediancr imported from {mediancr.cli.__file__}, not from {SRC}")
    return mediancr.cli


def _set_up(workload, seed: int, unit: int):
    """Import the CLI module and build the unit's config; return (config, seconds)."""
    t0 = time.perf_counter()
    cli = _import_cli()
    if workload.kind == "cr":
        config = cli.build_parser().parse_args(workloads.cr_argv("input.txt", seed))
    else:
        from mediancr.distributions import study_distributions
        from mediancr.simulate import SimConfig

        config = SimConfig(
            distributions=tuple(study_distributions().values()),
            sample_sizes=workload.sizes,
            alpha=workloads.ALPHA,
            reps=workload.reps,
            breps=workload.breps,
            methods=workload.methods,
            master_seed=workloads.unit_seed(seed, unit),
            workers=1,
        )
    return config, time.perf_counter() - t0


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        name, seed, report = argv[1], int(argv[2]), argv[3]
        _, setup_s = _set_up(workloads.WORKLOADS[name], seed, 0)
        _write_json(report, {"setup_s": setup_s})
        return 0
    if mode == "sim":
        name, seed, unit, csv_path, report = argv[1], int(argv[2]), int(argv[3]), argv[4], argv[5]
        spans_path = argv[6] if len(argv) > 6 else None
        config, setup_s = _set_up(workloads.WORKLOADS[name], seed, unit)
        from mediancr.simulate import results_to_csv, run_simulation

        tracer = Tracer() if spans_path else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        text = results_to_csv(run_simulation(config))
        run_s = time.perf_counter() - t0
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        reps = config.reps * len(config.distributions) * len(config.sample_sizes)
        _write_json(report, {"setup_s": setup_s, "run_s": run_s, "reps": reps, "rss_kb": _peak_rss_kb()})
        if tracer:
            tracer.dump(spans_path)
        return 0
    if mode == "cli":
        spans_path, cli_args = argv[1], argv[3:]
        cli = _import_cli()
        tracer = Tracer()
        tracer.install()
        code = tracer.wrap(cli.main, "cli.main")(cli_args)
        sys.stdout.flush()
        tracer.dump(spans_path)
        return code
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
