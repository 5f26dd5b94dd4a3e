import importlib.util
import json
import math
import pathlib
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import plandscape
from plandscape import landscape, model
from plandscape.errors import BudgetError, DomainError, ParameterError
from plandscape.flatness import sample_conditioned
from plandscape.landscape import (
    EXHAUSTIVE,
    LOCAL_SEARCH,
    binomial_tail_bracket,
    densest_prediction,
    densest_subgraph,
    densest_with_overlap,
    induced_edges,
    kbar_subsets,
    local_search_densest,
    log_binomial_tail,
    log_expected_dense_count,
)
from plandscape.mcmc import MCMCConfig, WellPartition, exact_gibbs, run_chain, transition_matrix
from plandscape.model import (
    BitGraph,
    ModelParams,
    VertexSubset,
    edge_count,
    feasible_overlaps,
    mask_to_members,
    overlap,
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


def series_tail_log(N, t):
    """Series oracle for t >= N/2 at 40 digits: ln C(N, t) from mp.loggamma
    plus the log of the decreasing ratio terms C(N, j) / C(N, t), j >= t."""
    import mpmath as mp

    with mp.workdps(40):
        term = total = mp.mpf(1)
        for j in range(t, N):
            term *= mp.mpf(N - j) / (j + 1)
            total += term
            if term < mp.mpf(10) ** -45 * total:
                break
        anchor = mp.loggamma(N + 1) - mp.loggamma(t + 1) - mp.loggamma(N - t + 1)
        return float(anchor + mp.log(total) - N * mp.log(2))


@pytest.mark.parametrize("N", [20_000, 50_000, 100_000, 100_001, 600_000])
def test_tail_past_the_big_integer_anchor(N):
    # the anchor is log_binomial at every N: its direct log sum for both
    # points up to N = 100001 and for t = 0.6 N at N = 600000, log-gamma for
    # t near N/2 at N = 600000
    for t in (N // 2 + 1, math.ceil(0.6 * N)):
        assert abs(log_binomial_tail(N, t) - series_tail_log(N, t)) <= 2e-9, (N, t)


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


def test_overlap_densest_cuts_branches_that_can_only_tie():
    # every subset of a complete graph ties: only the lexicographically
    # first one's branch is searched, not the 10 * C(25, 8) = 1e7 others
    g = BitGraph(n=30, rows=BitGraph.from_edges(30, combinations(range(30), 2)).rows,
                 planted=(3, 7, 11, 19, 23))
    r = densest_with_overlap(g, 10, 2, budget=100)
    assert (r.value, r.witness.members) == (45, tuple(range(10)))


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


def test_densest_subgraph_budget_error_says_how_far_it_got():
    g = sample_planted(50, 1, 0)
    exact = (lambda **kw: densest_subgraph(g, 10, **kw),
             lambda **kw: densest_with_overlap(g, 10, 0, **kw))
    for solve, floor in zip(exact, (local_search_densest(g, 10, restarts=4, seed=0).value, 0)):
        with pytest.raises(BudgetError) as exc:
            solve(budget=50)
        msg = str(exc.value)
        assert msg.startswith("branch-and-bound exceeded node budget 50: 50 nodes explored, "
                              "best value so far "), msg
        best = int(msg.rsplit(" ", 1)[1])
        assert floor <= best <= solve().value


def test_overlap_densest_monotone_under_edge_addition():
    for seed in range(6):
        g = sample_planted(12, 3, seed)
        absent = [(u, v) for u in range(12) for v in range(u + 1, 12) if not g.has_edge(u, v)]
        u, v = absent[0]
        rows = list(g.rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        g2 = BitGraph(n=12, rows=tuple(rows), planted=g.planted, seed=g.seed)
        for z in range(4):
            assert densest_with_overlap(g2, 4, z).value >= densest_with_overlap(g, 4, z).value


def test_planted_split_is_derived_from_planted():
    g = sample_planted(12, 4, 0)
    h = BitGraph(n=g.n, rows=g.rows, planted=g.planted, seed=g.seed)
    assert h == g
    assert overlap(h, VertexSubset(g.planted)) == overlap(g, VertexSubset(g.planted)) == 4
    for z in range(5):
        got, want = densest_with_overlap(h, 5, z), densest_with_overlap(g, 5, z)
        assert (got.value, got.witness) == (want.value, want.witness)
        assert overlap(h, got.witness) == z
    cfg = MCMCConfig(beta=1.0, kbar=5, t_max=3000, seed=5)
    init = VertexSubset((0, 1, 2, 3, 4))
    assert run_chain(h, cfg, init, max_overlap=2) == run_chain(g, cfg, init, max_overlap=2)


def test_induced_edges_counts_rows_in_any_order():
    g = sample_planted(70, 5, 1)  # bitmasks span two 64-bit words
    rng = rng_from_seed(2)
    c = np.array([rng.permutation(70)[:9] for _ in range(50)])
    got = induced_edges(g, c)
    assert got.dtype == np.int64
    assert got.tolist() == [edge_count(g, VertexSubset.from_iterable(row)) for row in c.tolist()]


def test_kbar_subsets_scan_blocks_in_lexicographic_order():
    g = sample_planted(9, 3, 4)
    masks, edges, overlaps = kbar_subsets(g, 4, budget=126)
    assert edges.dtype == overlaps.dtype == np.int64
    subsets = [VertexSubset(c) for c in combinations(range(9), 4)]
    assert masks == [s.mask for s in subsets]
    assert edges.tolist() == [edge_count(g, s) for s in subsets]
    assert overlaps.tolist() == [overlap(g, s) for s in subsets]
    with pytest.raises(BudgetError, match=r"C\(9,4\) = 126 exceeds budget 125"):
        kbar_subsets(g, 4, budget=125)  # at the call, before any enumeration
    huge = sample_planted(60, 4, 0)  # a negative budget is bad input, not an exceeded one
    for f in (lambda: kbar_subsets(huge, 30, -1), lambda: exact_gibbs(huge, 30, 1.0, budget=-1),
              lambda: transition_matrix(huge, 30, 1.0, budget=-1)):
        with pytest.raises(ParameterError, match=r"^subset budget must be >= 0, got -1$"):
            f()
    wide = sample_planted(20, 5, 0)
    for kbar in (-1, 25):  # comb raises at -1 and is 0, within budget, at 25
        with pytest.raises(ParameterError, match=rf"^need 0 <= kbar <= n, got kbar={kbar} n=20$"):
            kbar_subsets(wide, kbar, 10)


def reference_branch_and_bound(adj, cand, d_in, edges, chosen, K, best, budget, ties=False):
    """The plain recursion: every child is entered and counts itself, and a
    child whose first bound fails breaks at once.  Same contract as
    landscape._branch_and_bound."""
    best_val, best_members, nodes = best
    cr2 = [r * (r - 1) // 2 for r in range(K + 1)]
    floor = 0 if ties else 1

    def recurse(cand, d_in, chosen, edges):
        nonlocal best_val, best_members, nodes
        nodes += 1
        if nodes > budget:
            so_far = best_val if best_val >= 0 else "none"
            raise BudgetError(f"branch-and-bound exceeded node budget {budget}: "
                              f"{nodes - 1} nodes explored, best value so far {so_far}")
        r = K - len(chosen)
        if r == 0:
            if edges > best_val or (ties and edges == best_val and tuple(sorted(chosen)) < best_members):
                best_val, best_members = edges, tuple(sorted(chosen))
            return
        if len(cand) < r:
            return
        srt = np.argsort(-d_in, kind="stable")
        cand = cand[srt]
        d_in = d_in[srt]
        suffix_top = np.cumsum(d_in)
        for i in range(len(cand) - r + 1):
            top_rest = suffix_top[i + r - 1] - suffix_top[i] if r > 1 else 0
            bound = edges + d_in[i] + top_rest + (r - 1) + cr2[r - 1]
            if bound < best_val + floor:
                break
            v = int(cand[i])
            if ties and bound == best_val and tuple(sorted(
                    [*chosen, v, *np.sort(cand[i + 1 :])[: r - 1].tolist()])) >= best_members:
                continue
            child_cand = cand[i + 1 :]
            child_d = d_in[i + 1 :] + adj[v, child_cand]
            chosen.append(v)
            recurse(child_cand, child_d, chosen, edges + int(d_in[i]))
            chosen.pop()

    recurse(cand, d_in, list(chosen), edges)
    return best_val, best_members, nodes


@settings(max_examples=300)
@given(st.data())
def test_branch_and_bound_matches_the_plain_recursion_node_for_node(data):
    # settling a dead child at its parent must keep the tree: the same
    # value, witness and node count, or the same BudgetError message
    n = data.draw(st.integers(1, 30))
    density = data.draw(st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, 1)
    adj = (upper | upper.T).astype(np.int64)
    K = data.draw(st.integers(1, min(n, 10)))
    fixed = rng.permutation(n)[: data.draw(st.integers(0, min(K, 3)))].tolist()
    cand = np.array([v for v in rng.permutation(n).tolist() if v not in fixed], dtype=np.intp)
    if data.draw(st.booleans()):  # densest_subgraph's pool order
        cand = cand[np.argsort(-adj[cand].sum(axis=1), kind="stable")]
    d_in = adj[fixed][:, cand].sum(axis=0)
    edges = int(adj[np.ix_(fixed, fixed)].sum()) // 2
    best = (data.draw(st.integers(-1, K * (K - 1) // 2)),
            tuple(sorted(rng.permutation(n)[:K].tolist())), data.draw(st.integers(0, 5)))
    budget = data.draw(st.one_of(st.integers(0, 60), st.just(3000)))
    ties = data.draw(st.booleans())
    outcome = []
    for kernel in (landscape._branch_and_bound, reference_branch_and_bound):
        try:
            outcome.append(kernel(adj, cand, d_in, edges, tuple(fixed), K, best, budget, ties=ties))
        except BudgetError as exc:
            outcome.append(str(exc))
    assert outcome[0] == outcome[1]


def test_max_over_z_equals_unconstrained():
    # the last two are past enumeration's reach: C(50, 10) is 1e10 subsets
    for n, k, kbar, seeds in [(14, 4, 5, range(10)), (40, 6, 8, range(3)), (50, 7, 10, range(3))]:
        for seed in seeds:
            g = sample_planted(n, k, seed)
            curve = [densest_with_overlap(g, kbar, z).value for z in feasible_overlaps(n, k, kbar)]
            assert max(curve) == densest_subgraph(g, kbar).value, (n, k, kbar, seed)


# A recursive generator, kept as the oracle of the exact paths:
# it yields (mask, edge count) over the size-subsets of pool[start:] in
# lexicographic order, updating the count one vertex at a time.
def enum_counts_reference(rows, pool, size, start, mask, count):
    if size == 0:
        yield mask, count
        return
    for i in range(start, len(pool) - size + 1):
        v = pool[i]
        add = (rows[v] & mask).bit_count()
        yield from enum_counts_reference(rows, pool, size - 1, i + 1, mask | (1 << v), count + add)


def reference_exact_gibbs(g, kbar, beta):
    masks, weights, overlaps = [], [], []
    for mask, count in enum_counts_reference(g.rows, list(range(g.n)), kbar, 0, 0, 0):
        masks.append(mask)
        weights.append(beta * count)
        overlaps.append((mask & g.planted_mask).bit_count())
    w = np.array(weights)
    m = float(w.max())
    return masks, w, np.array(overlaps, dtype=np.int64), m + math.log(float(np.exp(w - m).sum()))


def reference_densest_with_overlap(g, kbar, z):
    non_planted = [v for v in range(g.n) if not (g.planted_mask >> v & 1)]
    best_val, best_members = -1, None
    for pmask, pcount in enum_counts_reference(g.rows, list(g.planted), z, 0, 0, 0):
        for fmask, fcount in enum_counts_reference(g.rows, non_planted, kbar - z, 0, pmask, pcount):
            cand = mask_to_members(fmask)
            if fcount > best_val or (fcount == best_val and cand < best_members):
                best_val, best_members = fcount, cand
    return best_val, best_members


@st.composite
def enum_graphs(draw, n_max=70):
    """A graph on up to 70 vertices (masks cross one 64-bit word) of any
    density, with a planted set that is listed in any order."""
    n = draw(st.integers(1, n_max))
    k = draw(st.integers(1, n))
    density = draw(st.sampled_from([0.0, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.random((n, n)) < density, 1)
    base = BitGraph.from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(adj))])
    planted = tuple(int(v) for v in rng.permutation(n)[:k])
    return BitGraph(n=n, rows=base.rows, planted=planted)


@settings(max_examples=300)
@given(st.data())
def test_kbar_subsets_match_combinations(data):
    g = data.draw(enum_graphs())
    n = g.n
    kbar = data.draw(st.one_of(st.integers(0, n), st.integers(0, min(n, 3)), st.integers(max(0, n - 3), n)))
    total = math.comb(n, kbar)
    budget = data.draw(st.sampled_from([total - 1, total])) if total <= 3000 else 3000
    if budget < total:
        with pytest.raises(BudgetError, match=rf"^C\({n},{kbar}\) = {total} exceeds budget {budget}$"):
            kbar_subsets(g, kbar, budget)
        return
    masks, edges, overlaps = kbar_subsets(g, kbar, budget)
    subsets = [VertexSubset(c) for c in combinations(range(n), kbar)]
    assert masks == [s.mask for s in subsets] and all(type(m) is int for m in masks)
    assert edges.dtype == overlaps.dtype == np.int64
    assert edges.tolist() == [edge_count(g, s) for s in subsets]
    assert overlaps.tolist() == [overlap(g, s) for s in subsets]


@settings(max_examples=200)
@given(st.data(), st.sampled_from([0.0, 0.7, 2.5]))
def test_exact_gibbs_and_states_match_recursive_reference(data, beta):
    g = data.draw(enum_graphs())
    kbar = data.draw(st.sampled_from([kb for kb in range(g.k, g.n + 1) if math.comb(g.n, kb) <= 3000]))
    masks, weights, overlaps, log_z = reference_exact_gibbs(g, kbar, beta)
    eg = exact_gibbs(g, kbar, beta)
    assert eg.masks == masks and all(type(m) is int for m in eg.masks)
    assert eg.log_weights.tobytes() == weights.tobytes()
    assert eg.overlaps.tobytes() == overlaps.tobytes()
    assert eg.log_z == log_z
    if kbar < g.n and len(masks) <= 300:
        roof = data.draw(st.one_of(st.none(), st.integers(0, g.k)))
        part = None if roof is None else WellPartition(0, 0, roof, roof + 1)
        _, states = transition_matrix(g, kbar, beta, part=part)
        assert states == [m for m, z in zip(masks, overlaps) if roof is None or z <= roof]


@settings(max_examples=200)
@given(st.data())
def test_densest_with_overlap_matches_recursive_reference(data):
    g = data.draw(enum_graphs())
    n, k = g.n, g.k
    cases = [(kbar, z) for kbar in range(1, n + 1) for z in feasible_overlaps(n, k, kbar)
             if math.comb(k, z) * math.comb(n - k, kbar - z) <= 1000]
    kbar, z = data.draw(st.sampled_from(cases))
    r = densest_with_overlap(g, kbar, z)
    assert (r.value, r.witness.members) == reference_densest_with_overlap(g, kbar, z)


def first_max_with_overlap(g, kbar, z):
    """The lexicographically first kbar-subset with overlap z and the most
    edges, by a scan of every kbar-subset."""
    masks, edges, ov = kbar_subsets(g, kbar, math.comb(g.n, kbar))
    at_z = np.flatnonzero(ov == z)
    i = at_z[np.argmax(edges[at_z])]  # the first maximum
    return int(edges[i]), mask_to_members(masks[i])


@settings(max_examples=150)
@given(st.data())
def test_densest_with_overlap_is_the_first_maximum_of_the_scan(data):
    g = data.draw(enum_graphs(n_max=22))
    n, k = g.n, g.k
    # an edgeless graph leaves the bound nothing to prune: cap the search too
    cases = [(kbar, z) for kbar in range(1, n + 1) if math.comb(n, kbar) <= 10**5
             for z in feasible_overlaps(n, k, kbar)
             if math.comb(k, z) * math.comb(n - k, kbar - z) <= 2 * 10**4]
    kbar, z = data.draw(st.sampled_from(cases))
    r = densest_with_overlap(g, kbar, z)
    assert (r.value, r.witness.members) == first_max_with_overlap(g, kbar, z)


def test_exact_paths_match_reference_past_one_word():
    g = sample_planted(66, 5, 3)
    masks, weights, overlaps, log_z = reference_exact_gibbs(g, 65, 1.5)
    eg = exact_gibbs(g, 65, 1.5)
    assert max(masks).bit_length() == 66 and eg.masks == masks
    assert eg.log_weights.tobytes() == weights.tobytes() and eg.log_z == log_z
    assert eg.overlaps.tobytes() == overlaps.tobytes()
    assert transition_matrix(g, 65, 1.5)[1] == masks
    rng = np.random.default_rng(0)
    for size in (1, 2, 63, 64, 65, 66):  # rows in any order, masks over two words
        c = np.array([rng.permutation(66)[:size] for _ in range(40)])
        assert model._word_ints(landscape._subset_words(c, 66)) == \
            [VertexSubset.from_iterable(row.tolist()).mask for row in c]
    for z in range(4):
        r = densest_with_overlap(g, 3, z)
        assert (r.value, r.witness.members) == reference_densest_with_overlap(g, 3, z)


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


def scalar_local_search(g, kbar, z=None, restarts=1, seed=0):
    """Reference swap ascent: the scalar double loop over (u in, v out) per
    pool with first-strict-max tie-breaks.  Returns (value, members, restarts)."""
    n = g.n
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
        plateau_left = 2 * kbar
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
            plateau_left = plateau_left - 1 if delta == 0 else 2 * kbar
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
    set that may be empty, need not be a clique nor be listed in order, plus
    every local-search argument."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(0, n))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.random((n, n)) < density, 1)
    edges = list(zip(*np.nonzero(adj)))
    base = BitGraph.from_edges(n, [(int(u), int(v)) for u, v in edges])
    planted = tuple(int(v) for v in rng.permutation(n)[:k])
    if draw(st.booleans()):
        planted = tuple(sorted(planted))
    g = BitGraph(n=n, rows=base.rows, planted=planted)
    kbar = draw(st.integers(1, n))
    z = draw(st.one_of(st.none(), st.integers(max(0, kbar - (n - k)), min(k, kbar))))
    return g, kbar, z


@settings(max_examples=300)
@given(search_cases(), st.integers(0, 5), st.integers(0, 2**16))
def test_local_search_matches_scalar_reference(case, restarts, seed):
    g, kbar, z = case
    r = local_search_densest(g, kbar, z=z, restarts=restarts, seed=seed)
    ref = scalar_local_search(g, kbar, z=z, restarts=restarts, seed=seed)
    assert (r.value, r.witness.members, r.restarts_used) == ref


def test_local_search_matches_scalar_reference_on_planted_samples():
    for s in range(40):
        g = sample_planted(30, 6, s)
        for z in (None, 0, 3, 6):
            r = local_search_densest(g, 8, z=z, restarts=s % 6, seed=s)
            ref = scalar_local_search(g, 8, z=z, restarts=s % 6, seed=s)
            assert (r.value, r.witness.members, r.restarts_used) == ref


def test_local_search_matches_scalar_reference_at_flatness_scale():
    # plateau walks long enough to cycle: sampled flatness's witness
    # searches, and graphs where every swap ties
    for K in (38, 42):
        for s in range(3):
            g = sample_conditioned(K, 0.6, s)
            for ell in (K // 2, K - 2):
                r = local_search_densest(g, ell, restarts=2, seed=s)
                assert (r.value, r.witness.members, r.restarts_used) == \
                    scalar_local_search(g, ell, restarts=2, seed=s), (K, s, ell)
    for rows in (BitGraph.from_edges(24, []).rows,
                 BitGraph.from_edges(24, combinations(range(24), 2)).rows):
        g = BitGraph(n=24, rows=rows, planted=(1, 4, 6, 9, 13, 17, 20))
        for kbar, z in ((10, 0), (10, 3), (10, 7), (20, 5)):
            for seed in range(3):
                r = local_search_densest(g, kbar, z=z, restarts=3, seed=seed)
                assert (r.value, r.witness.members, r.restarts_used) == \
                    scalar_local_search(g, kbar, z=z, restarts=3, seed=seed), (kbar, z, seed)


@st.composite
def plain_graphs(draw):
    """A graph of any density on up to 14 vertices with no planted set."""
    n = draw(st.integers(1, 14))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    adj = np.triu(rng.random((n, n)) < density, 1)
    return BitGraph.from_edges(n, [(int(u), int(v)) for u, v in zip(*np.nonzero(adj))])


@settings(max_examples=200)
@given(plain_graphs(), st.data())
def test_plain_graph_solvers_at_overlap_zero_are_the_unrestricted_ones(g, data):
    # on a plain graph (k = 0) every subset has overlap 0, so z = 0
    # restricts nothing
    assert (g.planted, g.k, g.planted_mask, g.non_planted) == ((), 0, 0, tuple(range(g.n)))
    K = data.draw(st.integers(1, g.n))
    fixed = densest_with_overlap(g, K, 0)
    assert fixed.value == densest_subgraph(g, K).value == edge_count(g, fixed.witness)
    restarts, seed = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 2**16))
    assert local_search_densest(g, K, z=0, restarts=restarts, seed=seed) == \
        local_search_densest(g, K, restarts=restarts, seed=seed)
    masks, edges, overlaps = kbar_subsets(g, K, 10**4)
    assert overlaps.tolist() == [0] * len(masks) == [overlap(g, VertexSubset(mask_to_members(m)))
                                                     for m in masks]


def test_local_search_feasibility_errors():
    g = sample_planted(10, 3, 0)
    with pytest.raises(ParameterError):
        local_search_densest(g, 4, z=4)
    plain = BitGraph.from_edges(5, [(0, 1)])  # k = 0: only z = 0 is feasible, and it answers
    with pytest.raises(ParameterError):
        local_search_densest(plain, 3, z=1)
    assert local_search_densest(plain, 3, z=0) == local_search_densest(plain, 3)


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


def test_desk_exact_outputs_match_the_benchmark_reference():
    # pass 0 of the desk_exact benchmark workload on both shipped seeds, run
    # in-process: a changed witness or value fails here, not only in a
    # benchmark run; perfbench/workloads.py is read, never modified
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    ref = json.loads((path / "reference.json").read_text())["desk_exact"]
    wl = workloads.WORKLOADS["desk_exact"]
    for seed in (0, 1):
        for i, inp in enumerate(wl.pass_inputs(seed, 0)):
            got = workloads.digest(wl.values(inp, wl.run(plandscape, inp, {}), {}))
            assert got == ref[str(seed)][str(i)], (seed, i)
