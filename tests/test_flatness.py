import math

import pytest

from plandscape.errors import DomainError, ParameterError
from plandscape.flatness import _thresholds, is_flat, sample_conditioned, subset_slack
from plandscape.landscape import local_search_densest
from plandscape.model import BitGraph, rng_from_seed

# frozen 50-digit mpmath evaluation of the slack formula
SLACK_60_30_01_06 = 228.188359374594915821


def gray_code_flat_oracle(g, gamma, delta):
    """Independent exhaustive checker: walk all subsets in gray-code order,
    maintaining the edge count with one add/remove per step, and compare
    against thresholds computed with its own formula instance."""
    K = g.n
    thr = {}
    for ell in range(2, K):
        coeff = 2 * gamma * ((2 + delta) if ell < 2 * K / 3 else (1 + delta))
        lead = min(math.comb(K, 2) - math.comb(ell, 2), math.comb(ell, 2))
        logs = math.log(math.comb(K, ell)) + 2 * math.log(K)
        thr[ell] = math.ceil(gamma * math.comb(ell, 2)) + math.sqrt(coeff * lead * logs)
    violations = set()
    mask, edges, size = 0, 0, 0
    for i in range(1, 1 << K):
        v = (i & -i).bit_length() - 1  # bit flipped between gray(i-1), gray(i)
        bit = 1 << v
        if mask & bit:
            mask ^= bit
            edges -= (g.rows[v] & mask).bit_count()
            size -= 1
        else:
            edges += (g.rows[v] & mask).bit_count()
            mask ^= bit
            size += 1
        if 2 <= size <= K - 1 and edges > thr[size]:
            violations.add((size, tuple(u for u in range(K) if mask >> u & 1)))
    ok_edges = g.edge_total() == math.ceil(gamma * math.comb(K, 2) - 1e-9)
    return ok_edges and not violations, violations


def test_slack_zero_cases():
    assert subset_slack(60, 0, 0.1, 0.6) == 0.0
    assert subset_slack(60, 1, 0.1, 0.6) == 0.0
    assert subset_slack(60, 60, 0.1, 0.6) == 0.0


def test_slack_matches_high_precision():
    assert subset_slack(60, 30, 0.1, 0.6) == pytest.approx(SLACK_60_30_01_06, rel=1e-12)


def test_slack_piecewise_coefficient():
    # just under 2K/3 uses (2+delta), at it uses (1+delta)
    lo = subset_slack(18, 11, 0.2, 0.5)
    hi = subset_slack(18, 12, 0.2, 0.5)
    ratio_lo = lo**2 / (min(153 - 55, 55) * (math.log(math.comb(18, 11)) + 2 * math.log(18)))
    ratio_hi = hi**2 / (min(153 - 66, 66) * (math.log(math.comb(18, 12)) + 2 * math.log(18)))
    assert ratio_lo == pytest.approx(2 * 0.5 * 2.2, rel=1e-9)
    assert ratio_hi == pytest.approx(2 * 0.5 * 1.2, rel=1e-9)


def test_slack_domain_errors():
    with pytest.raises(DomainError):
        subset_slack(10, 11, 0.1, 0.5)
    with pytest.raises(DomainError):
        subset_slack(10, 5, 1.5, 0.5)
    with pytest.raises(DomainError):
        subset_slack(10, 5, 0.1, -0.2)


def test_complete_graph_is_flat():
    g = BitGraph.from_edges(8, [(i, j) for i in range(8) for j in range(i + 1, 8)])
    rep = is_flat(g, 1.0, 0.2)
    assert rep.is_flat and not rep.violations and rep.checked == "Exhaustive"


def test_empty_graph_is_flat_at_gamma_zero():
    rep = is_flat(BitGraph.from_edges(6, []), 0.0, 0.2)
    assert rep.is_flat


def test_constructed_violation_detected():
    # 8-clique inside K=18 at gamma=0.2: ceil(.2*C(8,2)) + slack ~ 26.1 < 28
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(8, 9), (10, 11), (12, 13)]  # pad to the exact edge target of 31
    g = BitGraph.from_edges(18, edges)
    rep = is_flat(g, 0.2, 0.2)
    assert not rep.is_flat
    assert rep.edge_count_mismatch is None
    assert len(rep.violations) == 1
    ell, members, excess = rep.violations[0]
    assert (ell, members) == (8, (0, 1, 2, 3, 4, 5, 6, 7))
    assert excess > 0


def test_edge_count_mismatch_is_distinct_reason():
    g = BitGraph.from_edges(10, [(0, 1), (1, 2)])
    rep = is_flat(g, 0.5, 0.2)
    assert not rep.is_flat
    assert rep.edge_count_mismatch == (2, 23)
    assert not rep.violations


def test_exhaustive_limit():
    g = BitGraph.from_edges(23, [])
    with pytest.raises(ParameterError):
        is_flat(g, 0.5, 0.2)
    with pytest.raises(ParameterError):
        is_flat(BitGraph.from_edges(5, []), 0.5, 0.2, mode="janky")


def test_exhaustive_agrees_with_gray_code_oracle():
    gamma, delta = 0.6, 0.2
    for seed in range(12):
        g = sample_conditioned(14, gamma, seed)
        rep = is_flat(g, gamma, delta)
        oracle_flat, oracle_viol = gray_code_flat_oracle(g, gamma, delta)
        assert rep.is_flat == oracle_flat
        assert {(ell, mem) for ell, mem, _ in rep.violations} == oracle_viol


def test_sampled_mode_finds_planted_violation():
    edges = [(i, j) for i in range(8) for j in range(i + 1, 8)]
    edges += [(8, 9), (10, 11), (12, 13)]
    g = BitGraph.from_edges(18, edges)
    rep = is_flat(g, 0.2, 0.2, mode="sampled", samples=20, seed=1)
    assert not rep.is_flat  # the greedy witness at ell=8 finds the clique
    assert rep.checked == "Sampled(20)"


def scalar_sampled_violations(g, gamma, delta, samples, seed):
    """Reference for sampled mode: the same draws and greedy witnesses, each
    subset counted on its own through the packed rows."""
    K = g.n
    thr = _thresholds(K, gamma, delta)
    rng = rng_from_seed(seed, stream=1)
    found = {}

    def check(members):
        e = g.count_in_mask(sum(1 << v for v in members))
        if e > thr[len(members)]:
            found.setdefault((len(members), tuple(members)), float(e - thr[len(members)]))

    for ell in range(2, K):
        for _ in range(samples):
            check(sorted(int(v) for v in rng.permutation(K)[:ell]))
    for ell in range(2, K, max(1, K // 10)):
        check(local_search_densest(g, ell, restarts=2, seed=seed).witness.members)
    return sorted((ell, mem, exc) for (ell, mem), exc in found.items())


@pytest.mark.parametrize("K,density,gamma", [
    (3, 0.6, 0.6), (12, 0.9, 0.5), (20, 1.0, 0.3), (30, 0.8, 0.3), (40, 0.9, 0.4)])
def test_sampled_mode_matches_scalar_reference(K, density, gamma):
    for seed in range(3):
        g = sample_conditioned(K, density, seed)
        for samples in (0, 1, 10):
            rep = is_flat(g, gamma, 0.2, mode="sampled", samples=samples, seed=seed)
            assert list(rep.violations) == scalar_sampled_violations(g, gamma, 0.2, samples, seed)


def test_sample_conditioned_edges_exact():
    assert sample_conditioned(10, 1.0, 0).edge_total() == 45
    assert sample_conditioned(10, 0.0, 0).edge_total() == 0
    g = sample_conditioned(10, 0.5, 3)
    assert g.edge_total() == 23
    g2 = sample_conditioned(10, 0.5, 3)
    assert g2.rows == g.rows  # deterministic


def test_sample_conditioned_pair_frequencies():
    # every specific pair is present with hypergeometric probability
    # m / C(K,2) = 23/45; check all pairs stay within 3 sigma over 2000 seeds
    K, gamma, reps = 10, 0.5, 2000
    m = 23
    p = m / 45
    counts = {}
    for s in range(reps):
        g = sample_conditioned(K, gamma, s)
        for u, v in g.edges():
            counts[(u, v)] = counts.get((u, v), 0) + 1
    sigma = math.sqrt(p * (1 - p) / reps)
    for u in range(K):
        for v in range(u + 1, K):
            freq = counts.get((v, u), counts.get((u, v), 0)) / reps
            assert abs(freq - p) <= 3.2 * sigma, (u, v, freq)


def test_flat_verdict_independent_of_enumeration_order():
    # vectorized mask order vs gray-code order agree violation-for-violation
    g = sample_conditioned(12, 0.4, 5)
    rep = is_flat(g, 0.4, 0.2)
    oracle_flat, oracle_viol = gray_code_flat_oracle(g, 0.4, 0.2)
    assert rep.is_flat == oracle_flat
    assert {(ell, mem) for ell, mem, _ in rep.violations} == oracle_viol


def test_slack_min_factor_symmetric():
    # C(9,2)-C(7,2) = C(6,2): the min(...) factor agrees for ell=6 and ell'=7
    assert math.comb(9, 2) - math.comb(7, 2) == math.comb(6, 2)
    m6 = min(math.comb(9, 2) - math.comb(6, 2), math.comb(6, 2))
    m7 = min(math.comb(9, 2) - math.comb(7, 2), math.comb(7, 2))
    assert m6 == m7 == 15
    # both sizes sit in the same piecewise branch (>= 2K/3 = 6), so the
    # slack ratio reduces to the log-term ratio alone
    s6 = subset_slack(9, 6, 0.2, 0.5)
    s7 = subset_slack(9, 7, 0.2, 0.5)
    logs6 = math.log(math.comb(9, 6)) + 2 * math.log(9)
    logs7 = math.log(math.comb(9, 7)) + 2 * math.log(9)
    assert (s6 / s7) ** 2 == pytest.approx(logs6 / logs7, rel=1e-12)
