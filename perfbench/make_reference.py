"""Regenerate perfbench/reference.json, the output digests of the shipped seeds.

    python3 perfbench/make_reference.py [workload ...]

Seed 0 is the default seed and seed 1 is held out for gain claims.  For
each, the first passes of every workload are run untraced and must pass
every output check; their op digests are stored.  A benchmark run with a
shipped seed fails every op whose digest differs.  Regenerate only on a
commit whose outputs are known good, and say so where the change is
described: an output that changes on purpose changes these digests.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

from run import ROOT, THREAD_ENV
from worker import Run
from workloads import WORKLOADS

SHIPPED_SEEDS = (0, 1)
# about twice the passes a 30 s run makes at the time of writing
PASSES = {"paper_curves": 40, "desk_exact": 32, "desk_chain": 40, "cli_pipeline": 8}


def main(names):
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import plandscape as P
    import plandscape.cli  # noqa: F401

    path = Path(__file__).resolve().parent / "reference.json"
    ref = json.loads(path.read_text())
    for name in names or WORKLOADS:
        wl = WORKLOADS[name]
        ref[name] = {}
        for seed in SHIPPED_SEEDS:
            run = Run(ROOT, wl, P, seed, trace=False)
            for j in range(PASSES[name]):
                run.one_pass(j, wl.pass_inputs(seed, j), False)
            if run.failed:
                raise SystemExit(f"{name} seed {seed}: output checks failed: {run.errors}")
            ref[name][str(seed)] = {str(k): v for k, v in run.digests[False].items()}
            print(f"{name} seed {seed}: {len(ref[name][str(seed)])} digests", flush=True)
    path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
