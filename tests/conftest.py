"""Shared pytest hooks: surface the acceptance criterion verdicts in the
terminal summary even when output capture is on, one hypothesis profile
for every property test, and pass 0 of a benchmark workload run
in-process against its shipped reference digests."""

import importlib.util
import json
import pathlib
import sys

import pytest
from hypothesis import settings

import plandscape
import plandscape.cli  # noqa: F401 - cli_pipeline runs plandscape.cli.main, as the worker does

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
def pass_zero_digests(tmp_path, monkeypatch):
    """run(name) -> (got, want): the digest of each op of pass 0 of the named
    perfbench workload on both shipped seeds, its prologue included, beside
    its digest in perfbench/reference.json, both keyed (seed, op).  The pass
    runs in-process as a traced benchmark pass does (CLI commands through
    plandscape.cli.main, in a work directory under tmp_path) and is digested
    as the benchmark worker digests it.  A changed value fails in tier-1, not
    only in a benchmark run; perfbench is read, never modified."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    modules = {}
    for name in ("workloads", "worker"):  # worker.py imports workloads by name
        spec = importlib.util.spec_from_file_location(name, path / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    workloads, worker = modules["workloads"], modules["worker"]
    reference = json.loads((path / "reference.json").read_text())

    def run(name):
        wl, got, want = workloads.WORKLOADS[name], {}, {}
        for seed in (0, 1):
            ref = reference[name][str(seed)]
            pro = wl.prologue(plandscape, worker.prologue_seed(seed, 0))
            if pro is not None:
                got[seed, "0:prologue"] = workloads.digest(worker.plain(wl.prologue_values(pro)))
                want[seed, "0:prologue"] = ref["0:prologue"]
            ctx = wl.begin_pass(tmp_path, 0, in_process=True)
            try:
                for i, inp in enumerate(wl.pass_inputs(seed, 0)):
                    vals = wl.values(inp, wl.run(plandscape, inp, ctx), ctx)
                    got[seed, i] = workloads.digest(worker.plain(vals))
                    want[seed, i] = ref[str(i)]
            finally:
                wl.end_pass(ctx)
        return got, want
    return run
