"""One workload run in a fresh single-threaded process.

    python3 perfbench/worker.py <root> <workload> <seed> <seconds> <trace> [--setup-only]

Imports plandscape from <root>/src, makes the first pass's inputs, prints
"ready" (the parent times set-up up to that line), then runs passes until
<seconds> is spent.  Each pass is timed op by op; digests and output checks
run after the pass, outside the timed region.  The last stdout line is a
JSON object with the run's raw figures.

With trace 1 every pass index runs twice on the same inputs, once plain and
once traced, in alternating order; per-layer figures come from the traced
copies and trace.overhead_frac from the pair.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

from workloads import PROLOGUE_OFFSET, WORKLOADS, digest, op_seed

MIN_PASSES = 3  # for the median pass time; the trace run needs one pair


def plain(vals):
    """Digestable part of an op's values (keys with a leading _ are kept out)."""
    if isinstance(vals, dict):
        return {k: v for k, v in vals.items() if not k.startswith("_")}
    return vals


class Run:
    def __init__(self, root, wl, P, seed, trace):
        self.root, self.wl, self.P, self.seed = root, wl, P, seed
        self.tracer = None
        if trace:
            from spans import Tracer
            self.tracer = Tracer(P)
        self.op_ms = []        # untraced op latencies
        self.traced_op_s = {}  # traced op id -> seconds, as the spans name it
        self.pass_s = {False: [], True: []}  # pass wall times by traced flag
        self.digests = {False: {}, True: {}}  # op index -> digest
        self.raw_sha = {False: {}, True: {}}  # op index -> {file: sha256 of raw bytes}
        self.attempted = 0
        self.failed = set()
        self.errors = []

    def fail(self, index, msg):
        self.failed.add(index)
        if len(self.errors) < 20:
            self.errors.append(f"op {index}: {msg}")

    def one_pass(self, j, inputs, traced):
        wl, P = self.wl, self.P
        # a trace run replays CLI commands in-process, both copies alike
        ctx = wl.begin_pass(self.root, j, in_process=self.tracer is not None)
        first = j * wl.pass_size
        raws = [None] * len(inputs)
        lat = []
        if traced:
            self.tracer.install()
        try:
            t_pass = time.perf_counter()
            if traced:
                self.tracer.op = f"{j}:prologue"
            try:
                pro = wl.prologue(P, prologue_seed(self.seed, j))
            except Exception as exc:  # noqa: BLE001 - any raise is a failed op
                pro = exc
            pro_s = time.perf_counter() - t_pass
            for i, inp in enumerate(inputs):
                if traced:
                    self.tracer.op = f"{j}:{i}"
                t0 = time.perf_counter()
                try:
                    raws[i] = wl.run(P, inp, ctx)
                except Exception as exc:  # noqa: BLE001
                    raws[i] = exc
                lat.append((time.perf_counter() - t0) * 1e3)
            self.pass_s[traced].append(time.perf_counter() - t_pass)
        finally:
            if traced:
                self.tracer.uninstall()
                self.tracer.op = None
        if traced:
            self.traced_op_s[f"{j}:prologue"] = pro_s
            self.traced_op_s.update((f"{j}:{i}", ms / 1e3) for i, ms in enumerate(lat))
        else:
            self.op_ms += lat
        self.attempted += len(inputs) + (pro is not None)
        self.check_pass(j, first, inputs, pro, raws, ctx, traced)
        wl.end_pass(ctx)

    def check_pass(self, j, first, inputs, pro, raws, ctx, traced):
        wl = self.wl
        rng = random.Random(first)
        if isinstance(pro, Exception):
            self.fail(f"{j}:prologue", f"raised {pro!r}")
        elif pro is not None:
            vals = wl.prologue_values(pro)
            self.digests[traced][f"{j}:prologue"] = digest(plain(vals))
            for e in wl.prologue_check(vals):
                self.fail(f"{j}:prologue", e)
        vals = []
        for i, (inp, raw) in enumerate(zip(inputs, raws)):
            if isinstance(raw, Exception):
                self.fail(first + i, f"raised {raw!r}")
                vals.append(None)
                continue
            v = wl.values(inp, raw, ctx)
            self.digests[traced][first + i] = digest(plain(v))
            self.raw_sha[traced][first + i] = v.get("_raw_sha", {})
            vals.append(v)
        for i, (inp, v) in enumerate(zip(inputs, vals)):
            if v is None:
                continue
            try:
                errs = wl.check(inp, plain(v), rng, ctx)
            except Exception as exc:  # noqa: BLE001 - malformed output
                errs = [f"output check raised {exc!r}"]
            for e in errs:
                self.fail(first + i, e)

    def loop(self, seconds):
        start = time.perf_counter()
        j = 0
        while True:
            spent = time.perf_counter() - start
            done = len(self.pass_s[False])
            per = (spent / j) if j else 0.0
            need = 1 if self.tracer else MIN_PASSES
            if done >= need and spent + per > seconds:
                break
            inputs = self.wl.pass_inputs(self.seed, j)
            if self.tracer is None:
                self.one_pass(j, inputs, False)
            else:
                order = (False, True) if j % 2 == 0 else (True, False)
                for traced in order:
                    self.one_pass(j, inputs, traced)
            j += 1
        return j

    def compare_twins(self):
        """Traced and untraced copies of an op must give identical digests;
        raw file hashes that differ are counted, not failed."""
        mismatches = 0
        for idx, d in self.digests[True].items():
            if self.digests[False].get(idx) != d:
                self.fail(idx, "traced output differs from untraced output")
        for idx, files in self.raw_sha[True].items():
            twin = self.raw_sha[False].get(idx, {})
            mismatches += sum(twin.get(name) != sha for name, sha in files.items())
        return mismatches


def prologue_seed(run_seed, j):
    return op_seed(run_seed, PROLOGUE_OFFSET + j)


def calibration_ms():
    """A fixed pure-Python loop, to tell a slow machine from a slow program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return round((time.perf_counter() - t0) * 1e3, 3)


def main(argv):
    root, name, seed, seconds, trace = argv[0], argv[1], int(argv[2]), float(argv[3]), argv[4] == "1"
    setup_only = "--setup-only" in argv
    sys.path.insert(0, str(Path(root) / "src"))
    import plandscape as P
    import plandscape.cli  # noqa: F401 - the cli namespace is part of the library surface

    if not Path(P.__file__).resolve().is_relative_to(Path(root, "src").resolve()):
        raise SystemExit(f"plandscape imported from {P.__file__}, not from {root}/src")
    wl = WORKLOADS[name]
    wl.pass_inputs(seed, 0)
    print("ready", flush=True)
    if setup_only:
        return 0
    calib0 = calibration_ms()
    run = Run(root, wl, P, seed, trace)
    passes = run.loop(seconds)
    rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = {
        "attempted": run.attempted,
        "passes": passes,
        "op_ms": run.op_ms,
        "pass_s": run.pass_s[False],
        "traced_pass_s": run.pass_s[True],
        "peak_rss_mb": rss_children if name == "cli_pipeline" else rss_self,
        "calibration_ms": [calib0, calibration_ms()],
    }
    if trace:
        mismatches = run.compare_twins()
        layers = run.tracer.layer_metrics(len(run.pass_s[True]))
        layers["cli.output_digest_mismatches"] = (mismatches, "count")
        result["layers"] = layers
        result["spans"] = run.tracer.dump()
        result["traced_op_s"] = run.traced_op_s
    result["failed_ops"] = sorted(str(i) for i in run.failed)
    result["errors"] = run.errors
    result["digests"] = {str(k): v for k, v in run.digests[bool(trace)].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
