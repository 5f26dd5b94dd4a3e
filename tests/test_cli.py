import json
import math

import pytest

from plandscape.cli import EXIT_BUDGET, EXIT_NOT_CERTIFIABLE, EXIT_REFUTED, EXIT_USAGE, main
from plandscape.model import load_graph
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


def test_threads_do_not_change_results(tmp_path):
    one, four = tmp_path / "c1.csv", tmp_path / "c4.csv"
    main(["--threads", "1", "curve", "--n", "5000", "--k", "40", "--kbar", "60",
          "--out", str(one)])
    main(["--threads", "4", "curve", "--n", "5000", "--k", "40", "--kbar", "60",
          "--out", str(four)])
    assert one.read_bytes() == four.read_bytes()


def test_help_available_for_all_subcommands(capsys):
    for cmd in ("sample", "curve", "classify", "phase", "dense", "d-curve",
                "flatness", "mcmc", "hit", "few", "ogp"):
        assert main([cmd, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--help" in out or "usage" in out
