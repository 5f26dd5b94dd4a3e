"""Self-test of the benchmark: every workload at minimal size.

    python3 perfbench/selftest.py [workload ...]

For each workload it runs run.py once untraced and once traced with
--seconds 1 (the fewest passes a run makes) and asserts that

  * every metric BENCHMARK.json names is emitted with its unit;
  * the run is correct, and the traced and untraced runs give identical
    output digests, so tracing changes no result;
  * within every traced op, the per-layer self times add up to no more
    than the op's own time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import defaultdict

from run import HERE, ROOT, WORKLOADS

SLACK_S = 1e-4  # clock granularity between the op timer and the span timers


def run(workload, trace):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
                          "--seconds", "1", "--trace", str(trace)],
                         cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    record = json.loads((HERE / ".work" / f"run-{workload}-0-trace{trace}.json").read_text())
    return json.loads(out.stdout.strip().splitlines()[-1]), record


def check_workload(workload, bench):
    problems = []
    digests = {}
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result, record = run(workload, trace)
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: incorrect run: {record['errors'][:3]}")
        for m in bench[section]:
            got = result["metrics"].get(m["name"])
            if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                problems.append(f"trace {trace}: metric {m['name']} missing or without unit {m['unit']}")
        extra = set(result["metrics"]) - {m["name"] for m in bench[section]}
        if extra:
            problems.append(f"trace {trace}: metrics not in BENCHMARK.json: {sorted(extra)}")
        digests[trace] = record["digests"]
    common = digests[0].keys() & digests[1].keys()
    if not common:
        problems.append("traced and untraced runs share no op")
    problems += [f"op {k}: traced digest differs" for k in sorted(common) if digests[0][k] != digests[1][k]]

    traced = json.loads((HERE / ".work" / f"spans-{workload}-0-trace1.json").read_text())
    self_by_op = defaultdict(float)
    for span in traced["spans"]:
        self_by_op[span["op"]] += span["self"]
    for op, self_s in self_by_op.items():
        if self_s > traced["op_s"][op] + SLACK_S:
            problems.append(f"op {op}: layer self times {self_s:.6f}s exceed op time {traced['op_s'][op]:.6f}s")
    return problems


def main(names):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = False
    for workload in names or WORKLOADS:
        problems = check_workload(workload, bench)
        failed |= bool(problems)
        print(f"{workload}: {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
