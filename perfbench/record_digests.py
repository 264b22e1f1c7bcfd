"""Freeze the output digests that the benchmark's gate compares against.

    python3 perfbench/record_digests.py

Runs units 0..MIN_UNITS-1 of every workload for the default and the
held-out seed, and writes the sha256 of each simulate CSV and each ``cr``
JSON envelope to digests.json.  Rerun it only when a change alters the
output bytes on purpose, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys

import gates
import run
import workloads


def main() -> int:
    digests: dict[str, dict[str, list[str]]] = {}
    for w in workloads.WORKLOADS.values():
        work = run.OUT / "record" / w.name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        unit_fn = run.unit_fn_for(w)
        for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
            units = [unit_fn(w, seed, i, work) for i in range(workloads.MIN_UNITS)]
            problems = [p for u in units for p in u["problems"]]
            if problems:
                print(f"{w.name} seed {seed}: not recording, {problems}", file=sys.stderr)
                return 1
            digests.setdefault(w.name, {})[str(seed)] = [u["digest"] for u in units]
            print(f"{w.name} seed {seed}: {[d[:12] for d in digests[w.name][str(seed)]]}")
    gates.DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
