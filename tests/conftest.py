"""Shared pytest hooks: surface the acceptance criterion verdicts in the
terminal summary even when output capture is on, one hypothesis profile
for every property test, and pass 0 of a benchmark workload run
in-process against its shipped reference digests."""

import importlib.util
import json
import pathlib

import pytest
from hypothesis import settings

import plandscape

# property examples call exact kernels whose run time varies with the drawn
# size, so a per-example deadline only flakes on a loaded machine
settings.register_profile("plandscape", deadline=None)
settings.load_profile("plandscape")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.line(line)


@pytest.fixture
def pass_zero_digests():
    """run(name) -> (got, want): the digest of each op of pass 0 of the named
    perfbench workload on both shipped seeds, run in-process, beside its
    digest in perfbench/reference.json, both keyed (seed, op).  A changed
    value fails in tier-1, not only in a benchmark run; perfbench is read,
    never modified."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    reference = json.loads((path / "reference.json").read_text())

    def run(name):
        wl, got, want = workloads.WORKLOADS[name], {}, {}
        for seed in (0, 1):
            for i, inp in enumerate(wl.pass_inputs(seed, 0)):
                got[seed, i] = workloads.digest(wl.values(inp, wl.run(plandscape, inp, {}), {}))
                want[seed, i] = reference[name][str(seed)][str(i)]
        return got, want
    return run
