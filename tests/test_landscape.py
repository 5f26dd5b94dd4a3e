import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from plandscape.errors import BudgetError, DomainError, ParameterError
from plandscape.landscape import (
    EXHAUSTIVE,
    LOCAL_SEARCH,
    binomial_tail_bracket,
    densest_prediction,
    densest_subgraph,
    densest_with_overlap,
    local_search_densest,
    log_binomial_tail,
    log_expected_dense_count,
)
from plandscape.model import (
    BitGraph,
    ModelParams,
    PlantedGraph,
    VertexSubset,
    edge_count,
    rng_from_seed,
    sample_planted,
)

# frozen exact big-rational evaluation (mpmath, 40 digits)
LN_E_40_6_8_2_07 = 13.17481000694375103329


def naive_overlap_densest(g, kbar, z):
    """Independent brute-force oracle: plain combinations + edge_count."""
    planted = set(g.planted)
    best = -1
    for c in combinations(range(g.n), kbar):
        if len(planted.intersection(c)) == z:
            best = max(best, edge_count(g, VertexSubset(c)))
    return best


def naive_densest(g, K):
    best = -1
    for c in combinations(range(g.n), K):
        best = max(best, edge_count(g, VertexSubset(c)))
    return best


# --- binomial tails ---------------------------------------------------------


def test_tail_trivial_values():
    assert log_binomial_tail(4, 0) == 0.0
    assert log_binomial_tail(4, 3) == pytest.approx(math.log(5 / 16), abs=1e-13)
    assert log_binomial_tail(4, 5) == -math.inf


def test_tail_monotone_decreasing_in_t():
    vals = [log_binomial_tail(200, t) for t in range(0, 201)]
    assert all(b <= a for a, b in zip(vals, vals[1:]))


def exact_tail_log(N, t):
    """Big-integer oracle: exact sum of C(N, j) for j >= t, logged in mpmath."""
    import mpmath as mp

    mp.mp.dps = 40
    term = math.comb(N, t)
    total = term
    for j in range(t, N):
        term = term * (N - j) // (j + 1)
        total += term
    return float(mp.log(mp.mpf(total)) - N * mp.log(2))


def test_tail_matches_big_integer_oracle():
    pairs = [(10, 7), (37, 20), (100, 50), (100, 65), (500, 300), (999, 530),
             (1000, 520), (1000, 600), (4096, 2100), (10000, 5010),
             (10000, 5500), (10000, 6000), (10000, 9000)]
    for N, t in pairs:
        want = exact_tail_log(N, t)
        got = log_binomial_tail(N, t)
        assert abs(got - want) / abs(want) <= 1e-10, (N, t)


def test_tail_complement_identity():
    # P[X >= t] + P[X <= t-1] = 1, with P[X <= t-1] = P[X >= N-t+1] by symmetry
    for N, t in [(10, 4), (100, 47), (1000, 520), (10000, 5030)]:
        s = math.exp(log_binomial_tail(N, t)) + math.exp(log_binomial_tail(N, N - t + 1))
        assert s == pytest.approx(1.0, abs=1e-10)


def test_tail_bracket_from_rate_function():
    for gamma in (0.55, 0.6):
        lo, hi = binomial_tail_bracket(10000, gamma)
        exact = log_binomial_tail(10000, math.ceil(gamma * 10000))
        assert lo <= exact <= hi
    with pytest.raises(DomainError):
        binomial_tail_bracket(100, 0.4)


def test_expected_dense_count():
    p = ModelParams(40, 6, 8)
    assert log_expected_dense_count(p, 2, 0.7) == pytest.approx(LN_E_40_6_8_2_07, abs=1e-10)
    # gamma = 1: the tail is the full-clique point mass 2^{-M}
    m = math.comb(8, 2) - 1
    want = math.log(math.comb(6, 2) * math.comb(34, 6)) - m * math.log(2)
    assert log_expected_dense_count(p, 2, 1.0) == pytest.approx(want, abs=1e-10)
    # gamma = 1/2: the median tail keeps the combinatorial term up to O(ln M)
    v = log_expected_dense_count(p, 2, 0.5)
    comb_term = math.log(math.comb(6, 2) * math.comb(34, 6))
    assert comb_term - math.log(m) <= v <= comb_term
    with pytest.raises(DomainError):
        log_expected_dense_count(p, 2, 0.3)


# --- exact enumeration --------------------------------------------------------


def test_overlap_densest_full_clique():
    g = sample_planted(14, 4, 5)
    r = densest_with_overlap(g, 4, 4)
    assert r.value == 6
    assert r.witness.members == g.planted
    assert r.method == EXHAUSTIVE


def test_overlap_densest_pair_zero_overlap():
    g = sample_planted(10, 3, 2)
    r = densest_with_overlap(g, 2, 0)
    assert r.value == 1  # some non-planted edge exists at this seed


def test_overlap_densest_matches_naive_all_z():
    for seed in (0, 3, 11):
        g = sample_planted(14, 4, seed)
        for z in range(0, 5):
            r = densest_with_overlap(g, 5, z)
            assert r.value == naive_overlap_densest(g, 5, z)
            assert edge_count(g, r.witness) == r.value
            assert len(set(g.planted) & set(r.witness.members)) == z


def test_overlap_densest_budget_and_feasibility():
    g = sample_planted(30, 6, 1)
    with pytest.raises(BudgetError):
        densest_with_overlap(g, 12, 2, budget=100)
    with pytest.raises(ParameterError):
        densest_with_overlap(g, 5, 7)  # z > min(k, kbar)
    with pytest.raises(ParameterError):
        densest_with_overlap(g, 28, 2)  # kbar - z > n - k


def test_densest_subgraph_trivial_sizes():
    g = sample_planted(12, 1, 9)
    assert densest_subgraph(g, 12).value == g.edge_total()
    assert densest_subgraph(g, 2).value == 1


def test_densest_subgraph_matches_naive():
    g = sample_planted(16, 1, 42)
    assert densest_subgraph(g, 6).value == naive_densest(g, 6)
    for seed in range(8):
        gg = sample_planted(14, 1, seed)
        for K in (3, 5, 7):
            assert densest_subgraph(gg, K).value == naive_densest(gg, K), (seed, K)


def test_densest_subgraph_witness_consistent():
    g = sample_planted(20, 5, 4)
    r = densest_subgraph(g, 6)
    assert r.witness.size == 6
    assert edge_count(g, r.witness) == r.value


def test_densest_subgraph_node_budget():
    g = sample_planted(30, 1, 0)
    with pytest.raises(BudgetError):
        densest_subgraph(g, 15, budget=5)


def test_overlap_densest_monotone_under_edge_addition():
    for seed in range(6):
        g = sample_planted(12, 3, seed)
        absent = [(u, v) for u in range(12) for v in range(u + 1, 12) if not g.has_edge(u, v)]
        u, v = absent[0]
        rows = list(g.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        g2 = PlantedGraph(n=12, rows=tuple(rows), planted=g.planted,
                          seed=g.seed, planted_mask=g.planted_mask)
        for z in range(4):
            assert densest_with_overlap(g2, 4, z).value >= densest_with_overlap(g, 4, z).value


def test_max_over_z_equals_unconstrained():
    for seed in range(10):
        g = sample_planted(14, 4, seed)
        by_overlap = max(densest_with_overlap(g, 5, z).value for z in range(5))
        assert by_overlap == densest_subgraph(g, 5).value


# --- local search ---------------------------------------------------------------


def test_local_search_clique_fixed_point():
    # the planted clique is the unique feasible subset at z = kbar = k,
    # hence a fixed point scoring C(k,2)
    g = sample_planted(15, 5, 21)
    r = local_search_densest(g, 5, z=5, restarts=3, seed=0)
    assert r.value == 10
    assert r.witness.members == g.planted
    assert r.method == LOCAL_SEARCH


def test_local_search_zero_restarts_scores_initial():
    g = sample_planted(14, 4, 3)
    r = local_search_densest(g, 5, restarts=0, seed=17)
    assert r.restarts_used == 0
    assert edge_count(g, r.witness) == r.value
    # same seed draws the same initial subset
    r2 = local_search_densest(g, 5, restarts=0, seed=17)
    assert r2.witness == r.witness and r2.value == r.value


def test_local_search_never_beats_exact():
    hits = 0
    for s in range(200):
        g = sample_planted(14, 4, 1000 + s)
        z = s % 5
        exact = densest_with_overlap(g, 5, z).value
        ls = local_search_densest(g, 5, z=z, restarts=20, seed=s)
        assert ls.value <= exact
        assert len(set(g.planted) & set(ls.witness.members)) == z
        hits += ls.value == exact
    assert hits / 200 >= 0.95


def scalar_local_search(g, kbar, z=None, restarts=1, seed=0, plateau=None):
    """Reference swap ascent: the scalar double loop over (u in, v out) per
    pool with first-strict-max tie-breaks.  Returns (value, members, restarts)."""
    n = g.n
    plateau_budget = 2 * kbar if plateau is None else plateau
    rng = rng_from_seed(seed)
    if z is None:
        pools, takes = [list(range(n))], [kbar]
    else:
        non_planted = [v for v in range(n) if not (g.planted_mask >> v & 1)]
        pools, takes = [list(g.planted), non_planted], [z, kbar - z]

    def initial():
        members = []
        for pool, take in zip(pools, takes):
            pick = rng.permutation(len(pool))[:take]
            members.extend(pool[i] for i in pick)
        return sorted(members)

    def mask_of(members):
        return sum(1 << v for v in members)

    def ascend(members):
        mask = mask_of(members)
        val = g.count_in_mask(mask)
        inside = set(members)
        plateau_left = plateau_budget
        while True:
            best = None  # (delta, u, v)
            for pool in pools:
                ins = sorted(v for v in pool if v in inside)
                outs = sorted(v for v in pool if v not in inside)
                for u in ins:
                    loss = (g.rows[u] & mask).bit_count()
                    for v in outs:
                        delta = (g.rows[v] & mask).bit_count() - (g.rows[v] >> u & 1) - loss
                        if best is None or delta > best[0]:
                            best = (delta, u, v)
            if best is None:
                break
            delta, u, v = best
            if delta < 0 or (delta == 0 and plateau_left <= 0):
                break
            plateau_left = plateau_left - 1 if delta == 0 else plateau_budget
            inside.remove(u)
            inside.add(v)
            mask = (mask & ~(1 << u)) | (1 << v)
            val += delta
        return val, tuple(sorted(inside))

    if restarts == 0:
        members = initial()
        return g.count_in_mask(mask_of(members)), tuple(members), 0
    best_val, best_members = None, None
    for _ in range(restarts):
        val, members = ascend(initial())
        if best_val is None or val > best_val or (val == best_val and members < best_members):
            best_val, best_members = val, members
    return best_val, best_members, restarts


@st.composite
def search_cases(draw):
    """A graph of any density (ties everywhere at 0 and 1) with a planted
    set that need not be a clique nor be listed in order, plus every
    local-search argument."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, n))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.random((n, n)) < density, 1)
    edges = list(zip(*np.nonzero(adj)))
    base = BitGraph.from_edges(n, [(int(u), int(v)) for u, v in edges])
    planted = tuple(int(v) for v in rng.permutation(n)[:k])
    if draw(st.booleans()):
        planted = tuple(sorted(planted))
    g = PlantedGraph(n=n, rows=base.rows, planted=planted,
                     planted_mask=sum(1 << v for v in planted))
    kbar = draw(st.integers(1, n))
    z = draw(st.one_of(st.none(), st.integers(max(0, kbar - (n - k)), min(k, kbar))))
    return g, kbar, z


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.integers(0, 5), st.integers(0, 2**16),
       st.one_of(st.none(), st.integers(0, 3)))
def test_local_search_matches_scalar_reference(case, restarts, seed, plateau):
    g, kbar, z = case
    r = local_search_densest(g, kbar, z=z, restarts=restarts, seed=seed, plateau=plateau)
    ref = scalar_local_search(g, kbar, z=z, restarts=restarts, seed=seed, plateau=plateau)
    assert (r.value, r.witness.members, r.restarts_used) == ref


def test_local_search_matches_scalar_reference_on_planted_samples():
    for s in range(40):
        g = sample_planted(30, 6, s)
        for z in (None, 0, 3, 6):
            for plateau in (None, 0):
                r = local_search_densest(g, 8, z=z, restarts=s % 6, seed=s, plateau=plateau)
                ref = scalar_local_search(g, 8, z=z, restarts=s % 6, seed=s, plateau=plateau)
                assert (r.value, r.witness.members, r.restarts_used) == ref


def test_local_search_feasibility_errors():
    g = sample_planted(10, 3, 0)
    with pytest.raises(ParameterError):
        local_search_densest(g, 4, z=4)
    plain = BitGraph.from_edges(5, [(0, 1)])
    with pytest.raises(ParameterError):
        local_search_densest(plain, 3, z=1)


# --- prediction ----------------------------------------------------------------


def test_prediction_whole_graph_limit():
    pred = densest_prediction(40, 40)
    assert pred.first_order == pytest.approx(math.comb(40, 2) / 2, abs=1e-9)


def test_prediction_orders_agree_at_scale():
    pred = densest_prediction(10**6, 1000)
    rel = abs(pred.first_order - pred.second_order) / pred.first_order
    assert rel <= 0.02


def test_prediction_lower_bound_and_errors():
    for n, K in [(50, 10), (1000, 30), (10**6, 1000)]:
        pred = densest_prediction(n, K)
        assert pred.first_order >= math.comb(K, 2) / 2
    with pytest.raises(ParameterError):
        densest_prediction(10, 1)


def test_error_exponent_reporting_formula():
    from plandscape.landscape import OGP_EXPONENT_LIMIT, error_exponent_bound

    assert OGP_EXPONENT_LIMIT == pytest.approx(0.5 - math.sqrt(6) / 6, abs=1e-15)
    # at the transfer limit the admissible exponent reaches 1 (error ~ K)
    assert error_exponent_bound(OGP_EXPONENT_LIMIT) == pytest.approx(1.0, abs=1e-12)
    # below the positivity boundary any positive exponent works
    c0 = (2.5 - math.sqrt(6)) / (4 - math.sqrt(6))
    assert error_exponent_bound(c0) == pytest.approx(0.0, abs=1e-12)
    assert error_exponent_bound(c0 / 2) == 0.0
    assert error_exponent_bound(0.49) < 1.5
    with pytest.raises(DomainError):
        error_exponent_bound(0.5)
