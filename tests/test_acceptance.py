"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import json
import math
import statistics
import time
from itertools import combinations

import numpy as np

from plandscape.errors import UndefinedCurveError
from plandscape.flatness import is_flat, sample_conditioned
from plandscape.landscape import (
    binomial_tail_bracket,
    densest_prediction,
    densest_subgraph,
    densest_with_overlap,
    log_binomial_tail,
)
from plandscape.mcmc import (
    MCMCConfig,
    WellPartition,
    exact_gibbs,
    free_energy_well_ratio,
    hitting_time,
    run_chain,
    transition_matrix,
)
from plandscape.model import ModelParams, VertexSubset, sample_planted
from plandscape.numerics import (
    LN2,
    binary_entropy,
    binary_entropy_inv,
    classify_curve,
    curve_grid,
    entropy_inv_series,
    first_moment_curve,
)
from plandscape.ogp import auto_certify, dip_witness, overlap_curve

DIP_SEED = 30  # sample_planted(12, 4, 30): exact curve dips below both ends


def report(num, ok, detail):
    import conftest

    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.acceptance_lines.append(line)
    print(f"\n{line}", flush=True)  # visible live under -s
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_figure_reproduction():
    cases = [
        (700, 700, "NonMonotonic"),
        (700, 980000, "Decreasing"),
        (4000, 4000, "NonMonotonic"),
        (4000, 6250000, "Increasing"),
    ]
    details = []
    ok = True
    for k, kbar, want in cases:
        t0 = time.perf_counter()
        curve = curve_grid(ModelParams(10**7, k, kbar), "gamma-tilde-renorm")
        dt = time.perf_counter() - t0
        finite = all(math.isfinite(pt.value) for pt in curve.points)
        label = classify_curve(curve).label
        ok &= finite and dt < 5.0 and label == want
        details.append(f"(k={k}, kbar={kbar}) -> {label} in {dt:.2f}s")
    report(1, ok, "; ".join(details))


def test_criterion_02_entropy_toolkit():
    t0 = time.perf_counter()
    worst = max(abs(binary_entropy(binary_entropy_inv(LN2 * i / 999)) - LN2 * i / 999)
                for i in range(1000))
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3, 1e-3, 5e-4, 2.5e-4, 1e-4):
        err = abs(entropy_inv_series(eps) - binary_entropy_inv(LN2 - eps))
        ratios.append(err / eps**2.5)
    mid = sorted(ratios)[len(ratios) // 2]
    order_ok = all(abs(r / mid - 1.0) <= 0.25 for r in ratios)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and order_ok and dt < 1.0
    report(2, ok, f"roundtrip worst {worst:.2e}, remainder/eps^2.5 spread "
                  f"{min(ratios)/mid:.3f}..{max(ratios)/mid:.3f}, {dt:.2f}s")


def test_criterion_03_binomial_tail():
    import mpmath as mp

    mp.mp.dps = 40

    def oracle(N, t):
        term = math.comb(N, t)
        total = term
        for j in range(t, N):
            term = term * (N - j) // (j + 1)
            total += term
        return float(mp.log(mp.mpf(total)) - N * mp.log(2))

    rng = np.random.Generator(np.random.Philox(2024))
    pairs = []
    while len(pairs) < 50:
        N = int(rng.integers(4, 10**4 + 1))
        t = int(rng.integers(N // 2, N + 1))
        pairs.append((N, t))
    worst = max(abs(log_binomial_tail(N, t) - oracle(N, t)) / abs(oracle(N, t))
                for N, t in pairs)
    bracket_ok = True
    for gamma in (0.55, 0.6):
        lo, hi = binomial_tail_bracket(10**4, gamma)
        exact = log_binomial_tail(10**4, math.ceil(gamma * 10**4))
        bracket_ok &= lo <= exact <= hi
    ok = worst <= 1e-10 and bracket_ok
    report(3, ok, f"50 pairs worst rel err {worst:.2e}; bracket holds at "
                  f"gamma 0.55/0.60: {bracket_ok}")


def test_criterion_04_landscape_oracle_equivalence():
    t0 = time.perf_counter()
    n, k, kbar = 14, 4, 5
    agree = total = 0
    exceed = defined = 0
    gamma_vals = {}
    p = ModelParams(n, k, kbar)
    for z in range(0, 5):
        try:
            gamma_vals[z] = first_moment_curve(p, z)
        except UndefinedCurveError:
            gamma_vals[z] = None
    for seed in range(100):
        g = sample_planted(n, k, seed)
        planted = set(g.planted)
        best = {z: -1 for z in range(0, 5)}
        for c in combinations(range(n), kbar):
            z = len(planted.intersection(c))
            e = sum(g.has_edge(a, b) for i, a in enumerate(c) for b in c[i + 1 :])
            if e > best[z]:
                best[z] = e
        for z in range(0, 5):
            total += 1
            if densest_with_overlap(g, kbar, z).value == best[z]:
                agree += 1
            if gamma_vals[z] is not None:
                defined += 1
                exceed += best[z] > gamma_vals[z]
    dt = time.perf_counter() - t0
    ok = agree == total and dt < 120
    report(4, ok, f"{agree}/{total} oracle agreement in {dt:.1f}s; "
                  f"first-moment report: d(z) > curve at {exceed}/{defined} "
                  "defined (instance, z) pairs (informational)")


def test_criterion_05_er_prediction():
    t0 = time.perf_counter()
    pred = densest_prediction(50, 10)
    vals = [densest_subgraph(sample_planted(50, 1, seed), 10).value
            for seed in range(200)]
    mean = sum(vals) / len(vals)
    rel = abs(mean - pred.first_order) / pred.first_order
    big = densest_prediction(10**6, 1000)
    rel_orders = abs(big.first_order - big.second_order) / big.first_order
    dt = time.perf_counter() - t0
    ok = rel <= 0.10 and rel_orders <= 0.02
    report(5, ok, f"mean d(50,10) = {mean:.2f} vs {pred.first_order:.2f} "
                  f"({100*rel:.1f}%); orders at (1e6,1e3) differ {100*rel_orders:.2f}%; {dt:.0f}s")


def test_criterion_06_flatness():
    from test_flatness import gray_code_flat_oracle

    gamma18, delta = 0.6, 0.2
    agree = 0
    for seed in range(50):
        g = sample_conditioned(18, gamma18, seed)
        rep = is_flat(g, gamma18, delta)
        oracle_flat, oracle_viol = gray_code_flat_oracle(g, gamma18, delta)
        same = rep.is_flat == oracle_flat and \
            {(e, m) for e, m, _ in rep.violations} == oracle_viol
        agree += same
    gamma60 = 0.5 + math.sqrt(math.log(60) / 60)
    flat = sum(
        is_flat(sample_conditioned(60, gamma60, s), gamma60, delta,
                mode="sampled", samples=50, seed=s).is_flat
        for s in range(100))
    ok = agree == 50 and flat / 100 >= 0.8
    report(6, ok, f"K=18 oracle agreement {agree}/50; K=60 flat fraction "
                  f"{flat}/100 at gamma={gamma60:.3f}")


def test_criterion_07_mcmc_correctness():
    t0 = time.perf_counter()
    g10 = sample_planted(10, 3, 5)
    t, states = transition_matrix(g10, 3, 1.0)
    eg10 = exact_gibbs(g10, 3, 1.0)
    same_states = states == eg10.masks  # state i of both is the same mask
    flow = eg10.probs()[:, None] * t
    db_worst = float(np.abs(flow - flow.T).max())

    g12 = sample_planted(12, 4, 11)
    cfg = MCMCConfig(beta=0.5, kbar=4, t_max=10**7, seed=2, stride=10**7)
    trace = run_chain(g12, cfg, VertexSubset.from_iterable(range(4)),
                      count_visits=True)
    eg = exact_gibbs(g12, 4, 0.5)
    emp = np.array([trace.visits.get(m, 0) for m in eg.masks], float)
    emp /= emp.sum()
    tv = 0.5 * float(np.abs(emp - eg.probs()).sum())
    dt = time.perf_counter() - t0
    ok = same_states and db_worst <= 1e-12 and tv <= 0.05 and dt < 300
    report(7, ok, f"states in exact-law order {same_states}; detailed balance worst "
                  f"{db_worst:.2e}; TV after 1e7 steps {tv:.4f}; {dt:.0f}s")


def test_criterion_08_few_and_hitting_trends():
    g = sample_planted(12, 4, DIP_SEED)
    assert dip_witness(overlap_curve(g, 4)) is not None
    part = WellPartition.from_params(12, 4, 4, 0.25, 0.5)
    betas = (0.0, 1.0, 2.0, 4.0)
    ratios = [free_energy_well_ratio(g, 4, b, part) for b in betas]
    few_ok = all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
    medians = []
    for beta in betas:
        hits = []
        for seed in range(100):
            cfg = MCMCConfig(beta=beta, kbar=4, t_max=2 * 10**5, seed=7 * seed + 1,
                             d1=0.25, d2=0.5, stride=2 * 10**5)
            tr = hitting_time(g, cfg)
            hits.append(tr.hit_time if tr.hit_time is not None else cfg.t_max + 1)
        medians.append(statistics.median(hits))
    hit_ok = all(b >= a for a, b in zip(medians, medians[1:]))
    ok = few_ok and hit_ok
    report(8, ok, f"well ratios {[round(r, 3) for r in ratios]}; "
                  f"hit medians {medians}")


def test_criterion_09_certification_soundness():
    n, k, kbar = 14, 4, 5
    holding = false_certs = 0
    for seed in range(100):
        g = sample_planted(n, k, seed)
        cert = auto_certify(g, kbar)
        if not cert.holds:
            continue
        holding += 1
        planted = set(g.planted)
        low = high = False
        sound = True
        for c in combinations(range(n), kbar):
            e = sum(g.has_edge(a, b) for i, a in enumerate(c) for b in c[i + 1 :])
            if e >= cert.r_n:
                z = len(planted.intersection(c))
                if cert.zeta1 < z < cert.zeta2:
                    sound = False
                    break
                low |= z <= cert.zeta1
                high |= z >= cert.zeta2
        if not (sound and low and high):
            false_certs += 1
    ok = false_certs == 0
    report(9, ok, f"{holding}/100 instances certified, {false_certs} false "
                  "certificates under independent re-verification")


def test_criterion_10_determinism(tmp_path):
    from plandscape.cli import main

    runs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        main(["sample", "--n", "12", "--k", "4", "--seed", str(DIP_SEED),
              "--out", str(d / "g.pcg")])
        main(["curve", "--n", "10000000", "--k", "700", "--kbar", "700",
              "--kind", "gamma-tilde-renorm", "--out", str(d / "c.csv")])
        main(["d-curve", "--graph", str(d / "g.pcg"), "--kbar", "4",
              "--out", str(d / "d.csv")])
        main(["ogp", "--graph", str(d / "g.pcg"), "--kbar", "4",
              "--out", str(d / "cert.json")])
        main(["mcmc", "--graph", str(d / "g.pcg"), "--kbar", "4", "--beta", "1.0",
              "--t-max", "100000", "--stride", "1000", "--seed", "3",
              "--out", str(d / "tr.csv")])
        main(["hit", "--graph", str(d / "g.pcg"), "--kbar", "4", "--beta", "1.0",
              "--t-max", "100000", "--d2", "0.5", "--seed", "5",
              "--out", str(d / "hit.json")])
        runs.append(d)
    names = ["g.pcg", "c.csv", "d.csv", "cert.json", "tr.csv", "hit.json"]
    same = all((runs[0] / nm).read_bytes() == (runs[1] / nm).read_bytes()
               for nm in names)
    hit = json.loads((runs[0] / "hit.json").read_text())["hit_time"]
    report(10, same, f"byte-identical {names} across repeated runs; hit_time {hit}")
