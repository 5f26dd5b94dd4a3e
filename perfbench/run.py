"""plandscape benchmark: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the library is imported from ./src, never
from an installed copy.  Each run starts the workload in a fresh
single-threaded process (perfbench/worker.py), times set-up in separate
fresh processes, checks every op's output, and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md).  An environment line (versions,
CPU, load average, a calibration loop time) is printed before the result and
saved with the run record under perfbench/.work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_curves", "desk_exact", "desk_chain", "cli_pipeline")
SETUP_SAMPLES = 5   # fresh set-up probes, plus the workload process itself
IMPORT_SAMPLES = 5  # cli.import_s probe pairs (trace runs)
RUN_LIMIT_S = 170   # the whole invocation stays under 180 s
THREAD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def worker_cmd(workload, seed, seconds, trace, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed),
           str(seconds), str(int(trace))]
    return cmd + ["--setup-only"] if setup_only else cmd


def start_until_ready(cmd, env, timeout):
    """Start a worker and return (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline() if sel.select(timeout) else ""
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker did not become ready: {line!r}")
    return proc, elapsed


def setup_probe(workload, seed, env):
    proc, elapsed = start_until_ready(worker_cmd(workload, seed, 0, False, True), env, 60)
    proc.communicate(timeout=60)
    return elapsed


def import_probe(env):
    """Fresh-process import of plandscape.cli minus a bare interpreter start."""
    src_env = dict(env, PYTHONPATH=str(ROOT / "src"))
    imp, bare = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, acc in (("import plandscape.cli", imp), ("pass", bare)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=src_env, check=True,
                           stdin=subprocess.DEVNULL, timeout=60)
            acc.append(time.perf_counter() - t0)
    return statistics.median(imp) - statistics.median(bare)


def environment():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "nproc": os.cpu_count(), "cpu": cpu, "loadavg_start": os.getloadavg()}


def load_reference(workload, seed):
    ref = json.loads((HERE / "reference.json").read_text())
    return ref.get(workload, {}).get(str(seed), {})


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(res, setups):
    op = res["op_ms"]
    return {
        # the timed part of the run per pass it completed: what a batch user waits
        "wall_s": metric(sum(res["pass_s"]) / len(res["pass_s"]), "s"),
        "op_p50_ms": metric(statistics.median(op), "ms"),
        "op_p90_ms": metric(statistics.quantiles(op, n=10)[8], "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
        "ok_frac": metric(1.0 - res["failed_total"] / res["attempted"], "frac"),
    }


def per_layer(res, import_s):
    m = {name: metric(v, unit) for name, (v, unit) in res["layers"].items()}
    m["cli.import_s"] = metric(import_s, "s")
    overhead = statistics.median(res["traced_pass_s"]) / statistics.median(res["pass_s"]) - 1.0
    m["trace.overhead_frac"] = metric(overhead, "frac")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "plandscape" / "__init__.py").is_file():
        print(f"error: no plandscape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    t_start = time.perf_counter()
    env = environment()
    child_env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child_env.update(THREAD_ENV)
    setup_probe(args.workload, args.seed, child_env)  # warm-up: bytecode caches, page cache
    setups = [setup_probe(args.workload, args.seed, child_env) for _ in range(SETUP_SAMPLES)]
    import_s = import_probe(child_env) if args.trace else None

    proc, first_setup = start_until_ready(worker_cmd(args.workload, args.seed, args.seconds, args.trace),
                                          child_env, 60)
    setups.append(first_setup)
    try:
        out, _ = proc.communicate(timeout=max(RUN_LIMIT_S - (time.perf_counter() - t_start), 10))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("error: workload process timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0 or not out.strip():
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])

    # reference digests for the shipped seeds
    failed = set(res["failed_ops"])
    ref = load_reference(args.workload, args.seed)
    checked = 0
    for idx, d in res["digests"].items():
        if idx in ref:
            checked += 1
            if ref[idx] != d:
                failed.add(idx)
                res["errors"].append(f"op {idx}: digest {d} differs from reference {ref[idx]}")
    res["failed_total"] = len(failed)

    env["loadavg_end"] = os.getloadavg()
    env["calibration_ms"] = res["calibration_ms"]
    metrics = per_layer(res, import_s) if args.trace else end_to_end(res, setups)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "setup_s": setups, "passes": res["passes"], "ops_timed": len(res["op_ms"]),
              "pass_s": res["pass_s"], "traced_pass_s": res["traced_pass_s"],
              "reference_checked": checked, "errors": res["errors"], "digests": res["digests"],
              "metrics": metrics}
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (work / f"run-{stem}.json").write_text(json.dumps(record))
    if args.trace:
        (work / f"spans-{stem}.json").write_text(
            json.dumps({"op_s": res["traced_op_s"], "spans": res["spans"]}))
    print("env " + json.dumps(env))
    print(f"info passes={res['passes']} ops_timed={len(res['op_ms'])} "
          f"reference_checked={checked} errors={res['errors'][:5]}")
    print(json.dumps({"correct": not failed, "attempted": res["attempted"],
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
