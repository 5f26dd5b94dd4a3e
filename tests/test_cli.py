import ast
import gc
import hashlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import pytest

import plandscape
from plandscape import cli, landscape, mcmc, ogp
from plandscape.cli import EXIT_BUDGET, EXIT_NOT_CERTIFIABLE, EXIT_REFUTED, EXIT_USAGE, build_parser, main
from plandscape.errors import ParameterError
from plandscape.model import BitGraph, load_graph, sample_planted, save_graph
from plandscape.ogp import dip_witness, overlap_curve


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "# schema: v1"
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def test_sample_roundtrip(tmp_path):
    out = tmp_path / "g.pcg"
    assert main(["sample", "--n", "14", "--k", "4", "--seed", "7", "--out", str(out)]) == 0
    g = load_graph(out)
    assert g.n == 14 and g.k == 4 and g.seed == 7
    manifest = json.loads((tmp_path / "g.pcg.manifest.json").read_text())
    assert manifest["subcommand"] == "sample"
    assert manifest["outputs"][0]["path"] == str(out)


def test_curve_csv_shape(tmp_path):
    out = tmp_path / "c.csv"
    rc = main(["curve", "--n", "1000", "--k", "20", "--kbar", "30",
               "--kind", "gamma-tilde", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["z", "value", "kind", "n", "k", "kbar"]
    z_lo = 30 * 20 // 1000
    assert len(rows) == 20 - z_lo + 1
    assert rows[0][2] == "GammaTilde"
    assert all(math.isfinite(float(r[1])) for r in rows)


def test_classify_stdout(tmp_path, capsys):
    assert main(["classify", "--n", "10000000", "--k", "4000",
                 "--kbar", "6250000"]) == 0
    assert capsys.readouterr().out.strip() == "Increasing"
    out = tmp_path / "cls.json"
    assert main(["classify", "--n", "10000000", "--k", "700", "--kbar", "700",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["label"] == "NonMonotonic"


def test_classify_empirical_mode(capsys):
    rc = main(["classify", "--n", "10000000", "--k", "700", "--kbar", "980000",
               "--empirical", "--kind", "gamma-tilde-renorm"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "Decreasing"


def test_module_entry_point_runs_the_command():
    src = pathlib.Path(plandscape.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "plandscape.cli", "classify", "--n", "10000000",
         "--k", "4000", "--kbar", "6250000"],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout.strip(), proc.stderr) == (0, "Increasing", "")


def test_missing_flag_usage_error():
    assert main(["curve", "--n", "5"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_budget_exit_code(tmp_path):
    g = tmp_path / "g.pcg"
    main(["sample", "--n", "20", "--k", "4", "--seed", "0", "--out", str(g)])
    rc = main(["d-curve", "--graph", str(g), "--kbar", "8",
               "--budget", "10", "--out", str(tmp_path / "d.csv")])
    assert rc == EXIT_BUDGET


def test_d_curve_and_ogp_exit_codes(tmp_path):
    g = tmp_path / "g.pcg"
    main(["sample", "--n", "12", "--k", "4", "--seed", "30", "--out", str(g)])

    rc = main(["d-curve", "--graph", str(g), "--kbar", "4",
               "--out", str(tmp_path / "d.csv")])
    assert rc == 0
    header, rows = read_csv(tmp_path / "d.csv")
    assert header == ["z", "value", "method", "witness"]
    assert all(r[2] == "Exhaustive" for r in rows)

    rc = main(["ogp", "--graph", str(g), "--kbar", "4",
               "--out", str(tmp_path / "cert.json")])
    assert rc == 0  # seed 30 has a certified gap
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert cert["holds"] is True
    assert cert["zeta1"] < cert["zeta2"]

    rc = main(["ogp", "--graph", str(g), "--kbar", "4", "--method", "local",
               "--out", str(tmp_path / "ev.json")])
    assert rc == EXIT_NOT_CERTIFIABLE

    # a dip-free instance refutes
    for seed in range(60):
        gg = tmp_path / "gg.pcg"
        main(["sample", "--n", "12", "--k", "4", "--seed", str(seed), "--out", str(gg)])
        if dip_witness(overlap_curve(load_graph(gg), 4)) is None:
            rc = main(["ogp", "--graph", str(gg), "--kbar", "4",
                       "--out", str(tmp_path / "ref.json")])
            assert rc == EXIT_REFUTED
            break
    else:
        pytest.fail("no dip-free seed found")


def test_ogp_with_caller_supplied_thresholds(tmp_path):
    # --zeta1 --zeta2 --rn certify the exact curve at the caller's thresholds:
    # cert.json is certify_ogp's certificate field for field, exit 0 when it
    # holds and 3 when it is refuted
    g = tmp_path / "g.pcg"
    main(["sample", "--n", "14", "--k", "4", "--seed", "0", "--out", str(g)])
    curve = overlap_curve(load_graph(g), 5)
    lo, hi = curve.z_lo, curve.z_hi

    def members(s):
        return None if s is None else list(s.members)

    # an empty band holds at r_n = 0; r_n above C(5,2) fails condition (1);
    # the whole window as the band puts a dense subset in it
    for zeta1, zeta2, r_n, want_rc in [(lo, lo + 1, 0.0, 0), (lo, hi, 11.0, EXIT_REFUTED),
                                       (lo, hi, 0.0, EXIT_REFUTED)]:
        out = tmp_path / "cert.json"
        rc = main(["ogp", "--graph", str(g), "--kbar", "5", "--zeta1", str(zeta1),
                   "--zeta2", str(zeta2), "--rn", str(r_n), "--out", str(out)])
        want = ogp.certify_ogp(curve, zeta1, zeta2, r_n)
        assert (rc, want.holds) == (want_rc, want_rc == 0)
        viol = want.violation and {"z": want.violation[0], "subset": members(want.violation[1])}
        assert json.loads(out.read_text()) == {
            "schema": "v1", "kbar": 5, "thresholds": "caller-supplied", "holds": want.holds,
            "zeta1": zeta1, "zeta2": zeta2, "r_n": r_n,
            "low_witness": members(want.low_witness), "high_witness": members(want.high_witness),
            "violation": viol, "reason": want.reason}


def test_cli_pipeline_outputs_match_the_benchmark_reference(pass_zero_digests):
    # pass 0 of the cli_pipeline benchmark workload on both shipped seeds, each
    # README command run through main: a changed output file, stdout line or
    # exit code fails here, not only in a benchmark run
    got, want = pass_zero_digests("cli_pipeline")
    assert got == want


def test_flatness_json(tmp_path):
    out = tmp_path / "flat.json"
    rc = main(["flatness", "--K", "14", "--gamma", "0.6", "--delta", "0.2",
               "--seed", "1", "--mode", "exhaustive", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["K"] == 14 and rep["checked"] == "Exhaustive"
    rc = main(["flatness", "--K", "30", "--gamma", "0.7", "--delta", "0.2",
               "--seed", "1", "--mode", "sampled:20", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["checked"] == "Sampled(20)"


def test_dense_modes(tmp_path):
    out = tmp_path / "pred.json"
    assert main(["dense", "--predict", "--n", "50", "--K", "10",
                 "--out", str(out)]) == 0
    pred = json.loads(out.read_text())
    assert pred["first_order"] == pytest.approx(43.014000035057, rel=1e-12)

    g = tmp_path / "g.pcg"
    main(["sample", "--n", "16", "--k", "1", "--seed", "42", "--out", str(g)])
    out2 = tmp_path / "dense.json"
    assert main(["dense", "--graph", str(g), "--K", "6", "--out", str(out2)]) == 0
    val = json.loads(out2.read_text())
    assert val["method"] == "Exhaustive"
    assert len(val["witness"].split("-")) == 6


def test_mcmc_trace_csv(tmp_path):
    g = tmp_path / "g.pcg"
    main(["sample", "--n", "12", "--k", "4", "--seed", "2", "--out", str(g)])
    out = tmp_path / "tr.csv"
    rc = main(["mcmc", "--graph", str(g), "--kbar", "4", "--beta", "0.5",
               "--t-max", "1000", "--stride", "100", "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["t", "overlap", "edges"]
    assert [int(r[0]) for r in rows] == list(range(0, 1001, 100))


def test_hit_json_and_few(tmp_path):
    g = tmp_path / "g.pcg"
    main(["sample", "--n", "12", "--k", "4", "--seed", "30", "--out", str(g)])
    out = tmp_path / "hit.json"
    rc = main(["hit", "--graph", str(g), "--kbar", "4", "--beta", "0.5",
               "--t-max", "100000", "--d2", "0.5", "--seed", "3",
               "--out", str(out), "--trace-out", str(tmp_path / "tr.csv")])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["censored"] is False and payload["hit_time"] >= 1
    assert "wall_ms" not in payload  # run timing lives in the manifest only
    assert (tmp_path / "tr.csv").exists()

    rc = main(["few", "--graph", str(g), "--kbar", "4", "--beta", "1.0",
               "--d2", "0.5", "--out", str(tmp_path / "few.json")])
    assert rc == 0
    few = json.loads((tmp_path / "few.json").read_text())
    assert few["ln_ratio"] is not None


def test_hit_without_a_trace_file_keeps_no_trace(tmp_path):
    # hit.json is the same with or without --trace-out, and without it the
    # run holds no per-step trace: a censored 60,000-step run (d2 = 100 puts
    # the band roof above k) peaks under 1 MB, where the stride-1 trace
    # alone would add about 3 MB
    import tracemalloc

    g = tmp_path / "g.pcg"
    main(["sample", "--n", "12", "--k", "4", "--seed", "30", "--out", str(g)])
    args = ["hit", "--graph", str(g), "--kbar", "4", "--beta", "0.5", "--t-max", "60000",
            "--d2", "100", "--seed", "3"]
    assert main(args + ["--out", str(tmp_path / "a.json"),
                        "--trace-out", str(tmp_path / "tr.csv")]) == 0
    assert len(read_csv(tmp_path / "tr.csv")[1]) == 60001
    tracemalloc.start()
    try:
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert json.loads((tmp_path / "b.json").read_text())["censored"] is True
    assert peak < 2e6, peak


# one run of every file-writing subcommand: {g} is the input graph, {out}
# and {trace} the output paths
WRITERS = {
    "sample": "sample --out {out}",
    "curve": "curve --n 1000 --k 20 --kbar 30 --out {out}",
    "classify": "classify --n 1000 --k 20 --kbar 40 --out {out}",
    "phase": "phase --n 1000 --k-grid 20 --kbar-grid 40 --out {out}",
    "dense-predict": "dense --predict --n 50 --K 10 --out {out}",
    "dense": "dense --graph {g} --K 5 --out {out}",
    "d-curve": "d-curve --graph {g} --out {out}",
    "flatness": "flatness --K 14 --gamma 0.6 --delta 0.2 --graph {g} --out {out}",
    "mcmc": "mcmc --graph {g} --beta 1 --t-max 10 --out {out}",
    "hit": "hit --graph {g} --beta 1 --t-max 10 --out {out} --trace-out {trace}",
    "few": "few --graph {g} --beta 1 --out {out}",
    "ogp": "ogp --graph {g} --out {out}",
}

BAD_OUTPUTS = [
    *(pytest.param(cmd, out, "t.csv", id=f"{cmd}-{bad}")
      for cmd in WRITERS for bad, out in (("dir", "adir"), ("missing", "nodir/o"))),
    pytest.param("hit", "h.json", "adir", id="hit-trace-dir"),
    pytest.param("hit", "h.json", "nodir/t.csv", id="hit-trace-missing"),
    pytest.param("hit", "h.json", "h.json", id="hit-twice"),
    pytest.param("hit", "h.json", "./h.json.manifest.json", id="hit-manifest"),
]


@pytest.mark.parametrize("cmd, out, trace", BAD_OUTPUTS)
def test_every_output_checked_before_any_work(tmp_path, monkeypatch, capsys, cmd, out, trace):
    # the input graph is missing as well, so only a check made before any
    # work fails on the output path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    assert main(WRITERS[cmd].format(g="missing.pcg", out=out, trace=trace).split()) == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and err.startswith("error: cannot write ")
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]


@pytest.mark.parametrize("cmd", WRITERS)
def test_manifest_lists_exactly_the_files_written(tmp_path, monkeypatch, cmd):
    # and records the input graph, if any, with its sha256 and size
    monkeypatch.chdir(tmp_path)
    save_graph(sample_planted(14, 4, 0), "g.pcg")
    argv = WRITERS[cmd].format(g="g.pcg", out="o.out", trace="t.csv").split()
    assert main(argv) in (0, EXIT_REFUTED)
    manifest = json.loads((tmp_path / "o.out.manifest.json").read_text())
    assert manifest["subcommand"] == WRITERS[cmd].split()[0]
    outputs = [o["path"] for o in manifest["outputs"]]
    assert outputs == (["o.out", "t.csv"] if cmd == "hit" else ["o.out"])
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(["g.pcg", "o.out.manifest.json", *outputs])
    for o in manifest["outputs"]:
        data = (tmp_path / o["path"]).read_bytes()
        assert (o["sha256"], o["bytes"]) == (hashlib.sha256(data).hexdigest(), len(data))
    graph = (tmp_path / "g.pcg").read_bytes()
    assert manifest["inputs"] == ([{"path": "g.pcg", "sha256": hashlib.sha256(graph).hexdigest(),
                                    "bytes": len(graph)}] if "{g}" in WRITERS[cmd] else [])


def test_file_entry_hashes_across_chunks(tmp_path):
    path = tmp_path / "blob"
    data = bytes(range(256)) * 10_000  # 2.4 MiB: two full 1 MiB chunks and a partial one
    path.write_bytes(data)
    assert cli._file_entry(str(path)) == {"path": str(path), "sha256": hashlib.sha256(data).hexdigest(),
                                          "bytes": len(data)}


def test_readme_commands_are_the_benchmark_drive():
    # the cli_pipeline benchmark times the documented commands; read its
    # list without importing the benchmark
    root = pathlib.Path(__file__).resolve().parents[1]
    block = (root / "README.md").read_text().split("## Command line")[1].split("```")[1]
    documented = [" ".join(line.split("#")[0].split()[1:]) for line in block.strip().splitlines()]
    tree = ast.parse((root / "perfbench" / "workloads.py").read_text())
    drive = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "README_DRIVE")
    assert documented == [cmd.format(seed=0) for cmd in drive[:12]]


def test_phase_csv(tmp_path):
    out = tmp_path / "ph.csv"
    rc = main(["phase", "--n", "1000000", "--k-grid", "100,2000",
               "--kbar-grid", "100,900000", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["k", "kbar", "label"]
    table = {(r[0], r[1]): r[2] for r in rows}
    assert table[("2000", "100")] == "BelowDiagonal"
    assert table[("100", "100")] == "OGP"


def test_outputs_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for d in (a, b):
        main(["sample", "--n", "14", "--k", "4", "--seed", "9",
              "--out", str(d / "g.pcg")])
        main(["curve", "--n", "1000", "--k", "20", "--kbar", "30",
              "--out", str(d / "c.csv")])
        main(["d-curve", "--graph", str(d / "g.pcg"), "--kbar", "5",
              "--out", str(d / "d.csv")])
        main(["mcmc", "--graph", str(d / "g.pcg"), "--kbar", "4", "--beta", "1.0",
              "--t-max", "2000", "--stride", "50", "--seed", "4",
              "--out", str(d / "tr.csv")])
    for name in ("g.pcg", "c.csv", "d.csv", "tr.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
        ma = json.loads((a / f"{name}.manifest.json").read_text())
        mb = json.loads((b / f"{name}.manifest.json").read_text())
        assert [o["sha256"] for o in ma["outputs"]] == [o["sha256"] for o in mb["outputs"]]


def test_manifest_version_is_package_version(tmp_path):
    out = tmp_path / "g.pcg"
    assert main(["sample", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "g.pcg.manifest.json").read_text())
    assert manifest["version"] == plandscape.__version__
    assert "threads" not in manifest["params"]


def test_file_writing_run_closes_every_file(tmp_path):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sample", "--n", "14", "--k", "4", "--out", str(tmp_path / "g.pcg")]) == 0
        gc.collect()
    assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []


# input -> documented exit code: a one-line message and no file written on
# failure, an empty stderr on success, never a traceback; {g} is a valid
# desk-scale graph file
CONTRACT = [
    ("curve --n 1000 --k 20 --kbar 20 --kind phi --out c.csv", EXIT_USAGE),
    ("curve --n 1000 --k 20 --kbar 30 --z-lo 25 --out c.csv", EXIT_USAGE),
    ("classify --n 1000 --k 20 --kbar 20 --empirical --kind phi", 0),
    ("classify --n 10000000 --k 3000 --kbar 9999999 --empirical", EXIT_USAGE),
    ("flatness --K 10 --gamma 0.5 --delta 1.5 --out f.json", EXIT_USAGE),
    ("flatness --K 10 --gamma 0.5 --delta 0.2 --mode sampled:abc --out f.json", EXIT_USAGE),
    ("phase --n 1000 --k-grid a,2 --kbar-grid 5 --out p.csv", EXIT_USAGE),
    ("mcmc --graph {g} --kbar 0 --beta 1.0 --t-max 10 --out tr.csv", EXIT_USAGE),
    ("sample --seed -1 --out s.pcg", EXIT_USAGE),
    ("mcmc --graph {g} --beta 1.0 --t-max 10 --seed -1 --out tr.csv", EXIT_USAGE),
    ("dense --K 5 --out d.json", EXIT_USAGE),
    ("dense --predict --K 5 --out d.json", EXIT_USAGE),
    ("ogp --graph {g} --kbar 5 --zeta1 1 --out o.json", EXIT_USAGE),
    ("ogp --graph {g} --kbar 5 --zeta1 1 --zeta2 3 --out o.json", EXIT_USAGE),
    ("d-curve --graph {g} --kbar 3 --out d.csv", EXIT_USAGE),
    ("dense --graph {g} --K 5 --method local --restarts -1 --out d.json", EXIT_USAGE),
    ("dense --graph missing.pcg --K 5 --out d.json", EXIT_USAGE),
    ("dense --graph {g} --K 9 --budget 5 --out d.json", EXIT_BUDGET),
    ("dense --graph {g} --K 5 --budget -1 --out d.json", EXIT_USAGE),
    ("d-curve --graph {g} --kbar 5 --budget -1 --out d.csv", EXIT_USAGE),
    ("ogp --graph {g} --kbar 5 --budget -1 --out o.json", EXIT_USAGE),
    ("dense --graph . --K 5 --out d.json", EXIT_USAGE),
    ("dense --graph {g} --K 5 --out .", EXIT_USAGE),
    ("hit --graph {g} --kbar 5 --beta nan --t-max 100 --out h.json", EXIT_USAGE),
    ("hit --graph {g} --kbar 5 --beta inf --t-max 100 --out h.json", EXIT_USAGE),
    ("classify --n 1000 --k 20 --kbar 40 --empirical --c0 nan", EXIT_USAGE),
    ("classify --n 1000 --k 20 --kbar 40 --empirical --c0 inf", EXIT_USAGE),
    ("few --graph {g} --beta nan --out f.json", EXIT_USAGE),
    ("ogp --graph {g} --zeta1 1 --zeta2 3 --rn nan --out o.json", EXIT_USAGE),
    ("mcmc --graph {g} --beta nan --t-max 10 --out tr.csv", EXIT_USAGE),
    ("classify --n 1000 --k 20 --kbar 40 --margin nan", EXIT_USAGE),
    ("phase --n 1000 --k-grid 20 --kbar-grid 40 --margin nan --out p.csv", EXIT_USAGE),
    ("hit --graph {g} --beta 1.0 --t-max 10 --d2 inf --out h.json", EXIT_USAGE),
    ("few --graph {g} --beta 1.0 --d2 inf --out f.json", EXIT_USAGE),
    ("mcmc --graph {g} --init conditional --beta 1.0 --t-max 10 --d2 inf --out tr.csv", EXIT_USAGE),
    ("hit --graph {g} --beta 1e308 --t-max 10 --out h.json", EXIT_USAGE),
    ("few --graph {g} --beta 1e308 --out f.json", EXIT_USAGE),
    ("mcmc --graph {g} --init conditional --beta 1e308 --t-max 10 --out tr.csv", EXIT_USAGE),
    ("few --graph {g} --beta 1.0 --budget -1 --out f.json", EXIT_USAGE),
    ("few --graph {g} --kbar 12 --d1 0.05 --beta 1 --out f.json", EXIT_USAGE),
    ("dense --graph {g} --K 5 --method local --budget -1 --out d.json", EXIT_USAGE),
    ("dense --predict --n 50 --K 10 --budget -1 --out d.json", EXIT_USAGE),
    ("dense --predict --n 50 --K 10 --graph missing.pcg --out p.json", EXIT_USAGE),
    ("dense --predict --n 50 --K 10 --graph {g} --out p.json", 0),
    ("d-curve --graph {g} --kbar 5 --method local --budget -1 --out d.csv", EXIT_USAGE),
    ("ogp --graph {g} --kbar 5 --method local --budget -1 --out o.json", EXIT_USAGE),
    ("mcmc --graph {g} --kbar 5 --beta 1 --t-max 10 --out {g}", EXIT_USAGE),
    ("hit --graph {g} --kbar 5 --beta 1 --t-max 10 --out h.json --trace-out ./{g}", EXIT_USAGE),
]


@pytest.mark.parametrize("argv, code", CONTRACT)
def test_cli_contract_exit_codes(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--out", "g.pcg"]) == 0
    graph = (tmp_path / "g.pcg").read_bytes()
    capsys.readouterr()
    assert main(argv.format(g="g.pcg").split()) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (tmp_path / "g.pcg").read_bytes() == graph
    if code == 0:
        assert err == ""
        return
    assert len(err.strip().splitlines()) == 1
    assert err.startswith("error:" if code == EXIT_USAGE else "budget exceeded:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.pcg", "g.pcg.manifest.json"]


# the contract on a plain graph file (k = 0, as save_graph writes one):
# what needs a planted set exits 2, the rest answers
PLAIN_CONTRACT = [
    ("d-curve --graph plain.pcg --out d.csv", EXIT_USAGE),
    ("d-curve --graph plain.pcg --method local --out d.csv", EXIT_USAGE),
    ("hit --graph plain.pcg --beta 1 --t-max 10 --out h.json --trace-out t.csv", EXIT_USAGE),
    ("few --graph plain.pcg --beta 1 --out f.json", EXIT_USAGE),
    ("ogp --graph plain.pcg --out o.json", EXIT_USAGE),
    ("ogp --graph plain.pcg --method local --out o.json", EXIT_USAGE),
    ("mcmc --graph plain.pcg --init conditional --beta 1 --t-max 10 --out tr.csv", EXIT_USAGE),
    ("mcmc --graph plain.pcg --beta 1 --t-max 10 --out tr.csv", 0),
    ("dense --graph plain.pcg --K 5 --out d.json", 0),
    ("dense --graph plain.pcg --K 5 --method local --out d.json", 0),
    ("flatness --K 14 --gamma 0.6 --delta 0.2 --graph plain.pcg --out f.json", 0),
]


@pytest.mark.parametrize("argv, code", PLAIN_CONTRACT)
def test_cli_contract_on_a_plain_graph_file(tmp_path, monkeypatch, capsys, argv, code):
    monkeypatch.chdir(tmp_path)
    save_graph(BitGraph(n=14, rows=sample_planted(14, 4, 0).rows), "plain.pcg")
    assert (tmp_path / "plain.pcg").read_text().startswith("pcg v1 14 0 0\n\n")
    assert main(argv.split()) == code
    err = capsys.readouterr().err
    written = sorted(p.name for p in tmp_path.iterdir())
    if code == 0:
        out = argv.split("--out ")[1]
        assert err == "" and written == sorted(["plain.pcg", out, f"{out}.manifest.json"])
        if out == "tr.csv":
            assert {r[1] for r in read_csv(tmp_path / out)[1]} == {"0"}
        return
    assert err == "error: need 1 <= k <= kbar <= n, got n=14 k=0 kbar=5\n"
    assert written == ["plain.pcg"]


def test_one_subset_budget_default():
    assert landscape.SUBSET_BUDGET == 10**7
    for f in (mcmc.exact_gibbs, mcmc.free_energy_well_ratio, mcmc.conditional_init,
              mcmc.hitting_time):
        assert inspect.signature(f).parameters["budget"].default == 10**7, f.__name__
    argv = "few --graph g --beta 1.0 --out f.json".split()
    assert build_parser().parse_args(argv).budget == 10**7


def test_one_node_budget_default():
    assert landscape.NODE_BUDGET == 10**6
    for f in (landscape.densest_with_overlap, landscape.densest_subgraph,
              ogp.overlap_curve, ogp.auto_certify):
        assert inspect.signature(f).parameters["budget"].default == 10**6, f.__name__
    parser = build_parser()
    for argv in ("dense --K 5 --out d.json", "d-curve --graph g --out d.csv",
                 "ogp --graph g --out o.json"):
        assert parser.parse_args(argv.split()).budget == 10**6, argv
    # the kernel rejects a negative budget, even at K = 1 where it is otherwise skipped
    with pytest.raises(ParameterError, match="^node budget must be >= 0, got -1$"):
        landscape.densest_subgraph(sample_planted(8, 2, 0), 1, budget=-1)
    with pytest.raises(ParameterError, match="^node budget must be >= 0, got -1$"):
        landscape.densest_with_overlap(sample_planted(8, 2, 0), 3, 1, budget=-1)


@pytest.mark.parametrize("argv", [
    "d-curve --graph {g} --kbar 5 --method local --seed -1 --out d.csv",
    "ogp --graph {g} --kbar 5 --method local --seed -1 --out o.json",
])
def test_local_curve_names_the_seed_it_was_given(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(["sample", "--out", "g.pcg"]) == 0
    capsys.readouterr()
    assert main(argv.format(g="g.pcg").split()) == EXIT_USAGE
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


def test_every_benchmark_wrapped_function_exists():
    # the benchmark tracer getattr()s each of these at start-up, so a
    # missing one fails every traced run; its layer and work functions read
    # arguments by name, so a renamed parameter fails every traced run too
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing, read = [], []
    for mod, name, layer, work in spans.WRAPPED:
        fn = getattr(importlib.import_module(f"plandscape.{mod}"), name, None)
        if not callable(fn):
            missing.append((mod, name))
            continue
        params = inspect.signature(fn).parameters
        for reader in (r for r in (layer, work) if callable(r)):
            read += [(name, key, key in params) for key in
                     re.findall(r'arguments\["(\w+)"\]', inspect.getsource(reader))]
    assert spans.WRAPPED and missing == []
    assert read and [r for r in read if not r[2]] == []


def test_help_available_for_all_subcommands(capsys):
    for cmd in ("sample", "curve", "classify", "phase", "dense", "d-curve",
                "flatness", "mcmc", "hit", "few", "ogp"):
        assert main([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out
