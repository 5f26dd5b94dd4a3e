import hashlib
import importlib.util
import json
import math
import pathlib
import statistics
import sys
from collections import Counter
from itertools import compress

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import plandscape
from plandscape import mcmc, ogp
from plandscape.errors import BudgetError, ParameterError
from plandscape.landscape import densest_with_overlap, kbar_subsets
from plandscape.mcmc import (
    ChainTrace,
    ExactGibbs,
    MCMCConfig,
    WellPartition,
    acceptance,
    conditional_init,
    exact_gibbs,
    free_energy_well_ratio,
    gibbs_log_weight,
    hitting_time,
    run_chain,
    transition_matrix,
    well_ratio_lower_bound,
)
from plandscape.model import (
    BitGraph,
    ModelParams,
    VertexSubset,
    edge_count,
    mask_to_members,
    rng_from_seed,
    sample_planted,
)
from test_landscape import enum_graphs

DIP_SEED = 30  # sample_planted(12, 4, 30) has exact d-curve [6, 6, 6, 5, 6]
DESK_PART = WellPartition(a0_max=0, a1_min=1, a1_max=1, a2_min=2)


def dip_instance():
    from plandscape.ogp import dip_witness, overlap_curve

    g = sample_planted(12, 4, DIP_SEED)
    assert dip_witness(overlap_curve(g, 4)) is not None  # verified dip
    return g


def overlap_birth_death(n, k, kbar):
    """Exact overlap transition probabilities of the beta=0 chain (the
    overlap is itself Markov under the uniform swap walk)."""
    up, down = {}, {}
    for z in range(0, min(k, kbar) + 1):
        up[z] = (kbar - z) / kbar * (k - z) / (n - kbar)
        down[z] = z / kbar * ((n - kbar) - (k - z)) / (n - kbar)
    return up, down


def exact_median_escape(n, k, kbar, a1_max, t_cap=100000):
    """Median first time the beta=0 overlap walk exceeds a1_max, started
    from the conditioned hypergeometric law."""
    up, down = overlap_birth_death(n, k, kbar)
    states = list(range(a1_max + 1))
    weights = np.array([math.comb(k, z) * math.comb(n - k, kbar - z) for z in states], float)
    dist = weights / weights.sum()
    q = np.zeros((len(states), len(states)))
    for z in states:
        if z > 0:
            q[z, z - 1] = down[z]
        if z + 1 <= a1_max:
            q[z, z + 1] = up[z]
        q[z, z] = 1.0 - down[z] - up[z]
    surv = dist.copy()
    escaped = 0.0
    for t in range(1, t_cap + 1):
        nxt = surv @ q
        escaped += surv.sum() - nxt.sum()
        surv = nxt
        if escaped >= 0.5:
            return t
    raise AssertionError("median escape beyond cap")


# --- weights ----------------------------------------------


def test_gibbs_log_weight():
    g = sample_planted(12, 4, 3)
    s = VertexSubset(g.planted)
    assert gibbs_log_weight(g, s, 0.0) == 0.0
    assert gibbs_log_weight(g, s, 2.5) == pytest.approx(2.5 * 6)
    rng = rng_from_seed(1)
    for _ in range(20):
        members = tuple(sorted(int(v) for v in rng.permutation(12)[:4]))
        sub = VertexSubset(members)
        assert gibbs_log_weight(g, sub, 1.7) == pytest.approx(1.7 * edge_count(g, sub))
    with pytest.raises(ParameterError):
        gibbs_log_weight(g, s, 1.0, kbar=5)


# --- run_chain ----------------------------------------------------------------


ONE_STEP_SEEDS = 10**4


def roof_state(g):
    """A kbar=4 state at the DESK_PART roof (overlap 1): every swap that
    brings in a planted vertex for a non-planted one leaves the band."""
    non_planted = [v for v in range(g.n) if v not in g.planted]
    return VertexSubset.from_iterable([g.planted[0]] + non_planted[:3])


def swap_deltas(g, s):
    """{neighbour mask: edge delta} over all (u in s, v outside) swaps,
    counted from scratch with edge_count."""
    base = edge_count(g, s)
    out = {}
    for u in s.members:
        for v in range(g.n):
            if v not in s.members:
                t = VertexSubset.from_iterable([w for w in s.members if w != u] + [v])
                out[t.mask] = edge_count(g, t) - base
    return out


def one_step_counts(g, beta, start, max_overlap=None):
    return Counter(
        run_chain(g, MCMCConfig(beta=beta, kbar=start.size, t_max=1, seed=s),
                  start, max_overlap=max_overlap).final_state.mask
        for s in range(ONE_STEP_SEEDS))


@pytest.mark.parametrize("seed, beta, part", [(7, 1.0, None), (7, 0.0, None),
                                              (DIP_SEED, 0.5, DESK_PART)],
                         ids=["plain", "beta0", "reflected"])
def test_run_chain_one_step_law_matches_transition_row(seed, beta, part):
    # one step from a fixed state, over many seeds, against the exact row of
    # the (reflected when part is set) Metropolis matrix
    g = sample_planted(10 if part is None else 12, 4, seed)
    start = VertexSubset(g.planted) if part is None else roof_state(g)
    max_overlap = None if part is None else part.a1_max
    t, states = transition_matrix(g, 4, beta, part=part)
    i = states.index(start.mask)
    row = t[i]
    counts = one_step_counts(g, beta, start, max_overlap)
    assert set(counts) <= set(states)  # never leaves the band
    for mask, p in zip(states, row):
        sigma = math.sqrt(p * (1 - p) / ONE_STEP_SEEDS)
        assert abs(counts[mask] / ONE_STEP_SEEDS - p) <= 3.5 * sigma, (mask, p)
    if beta == 0.0:  # infinite temperature: every proposal is accepted
        assert row[i] <= 1e-12 and counts[start.mask] == 0
    if part is not None:  # band-leaving proposals add self-loop mass
        plain, plain_states = transition_matrix(g, 4, beta)
        j = plain_states.index(start.mask)
        assert row[i] > plain[j, j]


def test_run_chain_full_band_identical_to_plain():
    g = sample_planted(12, 4, 3)
    cfg = MCMCConfig(beta=0.8, kbar=4, t_max=20000, seed=17, stride=1)
    init = VertexSubset.from_iterable(range(4))
    a = run_chain(g, cfg, init)
    b = run_chain(g, cfg, init, max_overlap=4)  # roof = k: nothing is reflected
    assert (a.times, a.overlaps, a.edges, a.final_state) == \
        (b.times, b.overlaps, b.edges, b.final_state)


def test_chain_step_acceptance_frequency():
    # one step from the planted clique moves with probability equal to the
    # proposal-average of min(1, e^{beta * delta})
    g = sample_planted(10, 4, 7)
    beta = 1.0
    start = VertexSubset(g.planted)
    deltas = swap_deltas(g, start)
    assert min(deltas.values()) < 0  # leaving a clique loses edges here
    want = sum(min(1.0, math.exp(beta * d)) for d in deltas.values()) / len(deltas)
    counts = one_step_counts(g, beta, start)
    moved = ONE_STEP_SEEDS - counts[start.mask]
    sigma = math.sqrt(want * (1 - want) / ONE_STEP_SEEDS)
    assert abs(moved / ONE_STEP_SEEDS - want) <= 3.5 * sigma
    assert set(counts) <= set(deltas) | {start.mask}


def test_chain_step_accepts_nonnegative_delta():
    # at beta = 50 a losing swap is accepted with probability <= e^-50, so a
    # step moves exactly when the proposed swap does not lose edges, and each
    # such swap is reached with its full proposal mass 1 / (kbar (n - kbar))
    g = sample_planted(10, 3, 2)
    start = VertexSubset.from_iterable([v for v in range(10) if v not in g.planted][:3])
    deltas = swap_deltas(g, start)
    gaining = {m for m, d in deltas.items() if d >= 0}
    assert gaining and len(gaining) < len(deltas)
    counts = one_step_counts(g, 50.0, start)
    assert set(counts) <= gaining | {start.mask}
    p = 1 / len(deltas)
    sigma = math.sqrt(p * (1 - p) / ONE_STEP_SEEDS)
    for mask in gaining:
        assert abs(counts[mask] / ONE_STEP_SEEDS - p) <= 3.5 * sigma, mask


def test_chain_step_errors():
    g = sample_planted(6, 2, 0)
    with pytest.raises(ParameterError):  # kbar = n: no swap neighbours
        run_chain(g, MCMCConfig(beta=1.0, kbar=6, t_max=10, seed=0),
                  VertexSubset.from_iterable(range(6)))
    with pytest.raises(ParameterError):  # init size differs from kbar
        run_chain(g, MCMCConfig(beta=1.0, kbar=3, t_max=10, seed=0),
                  VertexSubset.from_iterable(range(4)))


def test_run_chain_rejects_an_init_member_outside_the_graph():
    with pytest.raises(ParameterError, match="^subset members out of range for n=14$"):
        run_chain(sample_planted(14, 4, 0), MCMCConfig(beta=1.0, kbar=3, t_max=10, seed=0),
                  VertexSubset((0, 1, 99)))


def test_reflected_step_requires_band_state():
    g = sample_planted(12, 4, DIP_SEED)
    with pytest.raises(ParameterError):  # init above the reflecting roof
        run_chain(g, MCMCConfig(beta=1.0, kbar=4, t_max=10, seed=0),
                  VertexSubset(g.planted), max_overlap=DESK_PART.a1_max)
    roof = roof_state(g)  # at the roof itself the run starts
    run_chain(g, MCMCConfig(beta=1.0, kbar=4, t_max=10, seed=0), roof,
              max_overlap=DESK_PART.a1_max)


def test_run_chain_zero_steps():
    g = sample_planted(12, 4, 1)
    init = VertexSubset.from_iterable(range(4))
    tr = run_chain(g, MCMCConfig(beta=1.0, kbar=4, t_max=0, seed=0), init)
    assert tr.times == [0]
    assert tr.final_state == init
    assert tr.hit_time is None


def test_run_chain_time_average_overlap_beta_zero():
    # at beta = 0 the stationary law is uniform: mean overlap k*kbar/n
    g = sample_planted(10, 3, 4)
    cfg = MCMCConfig(beta=0.0, kbar=4, t_max=10**5, seed=5, stride=1)
    tr = run_chain(g, cfg, VertexSubset.from_iterable(range(4)))
    avg = sum(tr.overlaps) / len(tr.overlaps)
    assert abs(avg - 3 * 4 / 10) <= 0.05


def test_run_chain_large_beta_clique_is_absorbing():
    # pick a seed where every exit swap strictly loses edges; at beta = 20
    # the escape probability within 1e4 steps is ~1e4 * e^-20 ~ 2e-5
    target = None
    for seed in range(40):
        g = sample_planted(12, 6, seed)
        mask = g.planted_mask
        worst = max(
            (g.rows[v] & (mask ^ (1 << u))).bit_count() - (g.rows[u] & mask).bit_count()
            for u in g.planted for v in range(12) if not (mask >> v & 1))
        if worst < 0:
            target = g
            break
    assert target is not None
    cfg = MCMCConfig(beta=20.0, kbar=6, t_max=10**4, seed=3, stride=100)
    tr = run_chain(target, cfg, VertexSubset(target.planted))
    assert all(ov == 6 for ov in tr.overlaps)
    assert tr.final_state.members == target.planted


def test_run_chain_deterministic():
    g = sample_planted(12, 4, 8)
    cfg = MCMCConfig(beta=0.7, kbar=5, t_max=20000, seed=123, stride=37)
    init = VertexSubset.from_iterable(range(5))
    a = run_chain(g, cfg, init)
    b = run_chain(g, cfg, init)
    assert a.times == b.times and a.overlaps == b.overlaps and a.edges == b.edges
    assert a.final_state == b.final_state


def test_run_chain_edge_bookkeeping():
    # recorded edge counts must match recomputation from scratch
    g = sample_planted(12, 4, 2)
    cfg = MCMCConfig(beta=0.5, kbar=4, t_max=5000, seed=6, stride=5000)
    tr = run_chain(g, cfg, VertexSubset.from_iterable(range(4)))
    assert tr.edges[-1] == edge_count(g, tr.final_state)
    assert tr.overlaps[-1] == len(set(tr.final_state.members) & set(g.planted))


def trace_digests(tr):
    fields = {"times": tr.times, "overlaps": tr.overlaps, "edges": tr.edges,
              "hit_time": tr.hit_time, "final_state": list(tr.final_state.members),
              "visits": None if tr.visits is None else sorted(tr.visits.items())}
    return {name: hashlib.sha256(json.dumps(v, separators=(",", ":")).encode()).hexdigest()[:16]
            for name, v in fields.items()}


# sha256 prefixes of every trace field, recorded from the reference loop (the
# one that indexed numpy blocks per step).  Any rewrite of run_chain must keep
# each of them: the chain is keyed by its seed, so a trace is a fixed value.
# hit_time and visits read the same for every run without a hit / count.
NONE_DIGEST = "74234e98afe7498f"
GOLDEN_TRACES = {
    "plain": (dict(beta=1.0, t_max=5000, seed=11), {}, {
        "times": "1962068ca8b8104a", "overlaps": "c4b17ef6b14c6576", "edges": "b95d66b5756e4ee9",
        "hit_time": NONE_DIGEST, "final_state": "8507604494797140", "visits": NONE_DIGEST}),
    "reflected": (dict(beta=2.0, t_max=5000, seed=12), dict(max_overlap=1), {
        "times": "1962068ca8b8104a", "overlaps": "a8aad12b3531da28", "edges": "35f4e85cec1854d7",
        "hit_time": NONE_DIGEST, "final_state": "8a5f7e40b2acb58d", "visits": NONE_DIGEST}),
    "stop_above": (dict(beta=0.5, t_max=60000, seed=16, stride=7), dict(stop_above=3), {
        "times": "05cb8394585832bd", "overlaps": "dca92c202c58d699", "edges": "4ed34cc0d7bd82ee",
        "hit_time": "2b9449f314bf9314", "final_state": "0eb87b4157bd9dc9", "visits": NONE_DIGEST}),
    "count_visits": (dict(beta=0.5, t_max=3000, seed=14), dict(count_visits=True), {
        "times": "72c193240eb9f593", "overlaps": "91a5404bc0005c52", "edges": "71833cc28696c3bf",
        "hit_time": NONE_DIGEST, "final_state": "371b30bece7cc2a1", "visits": "d29183eead7f06ad"}),
    "stride": (dict(beta=1.0, t_max=10000, seed=15, stride=37), {}, {
        "times": "2748894b5d32fa60", "overlaps": "b11ef811530e4c53", "edges": "0f23c4b10305a263",
        "hit_time": NONE_DIGEST, "final_state": "ea4354016854eb4a", "visits": NONE_DIGEST}),
    # crosses the 32768-step random block
    "block_boundary": (dict(beta=0.5, t_max=40000, seed=16, stride=1000), {}, {
        "times": "2824a84dbe45c1ed", "overlaps": "8ff6bd1a4eb0186e", "edges": "a7f66217e5b3a211",
        "hit_time": NONE_DIGEST, "final_state": "cb57eabec29b6db4", "visits": NONE_DIGEST}),
}


@pytest.mark.parametrize("case", GOLDEN_TRACES)
def test_run_chain_trace_matches_golden_digest(case):
    cfg, kwargs, want = GOLDEN_TRACES[case]
    g = sample_planted(14, 4, 5)
    init = VertexSubset.from_iterable([v for v in range(14) if v not in g.planted][:5])
    tr = run_chain(g, MCMCConfig(kbar=5, **cfg), init, **kwargs)
    assert trace_digests(tr) == want
    assert (tr.hit_time == 736) == (case == "stop_above")


def reference_run_chain(g, cfg, init, max_overlap=None, stop_above=None, count_visits=False):
    """The plain step loop, kept as the oracle of run_chain: every step draws
    from whole-block arrays, counts its visit and tests stride and stop."""
    n, kbar = g.n, cfg.kbar
    if init.size != kbar:
        raise ParameterError(f"init size {init.size} != kbar {kbar}")
    if kbar >= n:
        raise ParameterError("no swap neighbors when kbar = n")
    rng = rng_from_seed(cfg.seed)
    rows = g.rows
    pmask = g.planted_mask
    mask = init.mask
    in_list = list(init.members)
    out_list = [v for v in range(n) if not mask >> v & 1]
    edges = edge_count(g, init)
    ov = (mask & pmask).bit_count()
    if max_overlap is not None and ov > max_overlap:
        raise ParameterError(f"init overlap {ov} already above max_overlap {max_overlap}")
    table = acceptance(cfg.beta, kbar)
    times, overlaps_rec, edges_rec = [0], [ov], [edges]
    visits = {} if count_visits else None
    hit_time = None
    stride, t_max = cfg.stride, cfg.t_max
    roof = n if max_overlap is None else max_overlap
    stop = n if stop_above is None else stop_above
    t = 0
    done = False
    while t < t_max and not done:
        block = min(mcmc._BLOCK, t_max - t)
        ui = rng.integers(0, kbar, size=block)
        vi = rng.integers(0, n - kbar, size=block)
        uni = rng.random(size=block)
        for a, b, r in zip(ui.tolist(), vi.tolist(), uni.tolist()):
            t += 1
            u = in_list[a]
            v = out_list[b]
            new_ov = ov - (pmask >> u & 1) + (pmask >> v & 1)
            if new_ov <= roof:
                m2 = mask ^ (1 << u)
                d = (rows[v] & m2).bit_count() - (rows[u] & mask).bit_count()
                if d >= 0 or r < table[d]:
                    mask = m2 | (1 << v)
                    in_list[a] = v
                    out_list[b] = u
                    edges += d
                    ov = new_ov
            if visits is not None:
                visits[mask] = visits.get(mask, 0) + 1
            if t % stride == 0:
                times.append(t)
                overlaps_rec.append(ov)
                edges_rec.append(edges)
            if ov > stop:
                hit_time = t
                if t % stride:
                    times.append(t)
                    overlaps_rec.append(ov)
                    edges_rec.append(edges)
                done = True
                break
    return ChainTrace(times=times, overlaps=overlaps_rec, edges=edges_rec,
                      hit_time=hit_time, final_state=VertexSubset.from_iterable(in_list),
                      t_max=cfg.t_max, visits=visits)


def chain_outcome(kernel, g, cfg, init, **kwargs):
    """Every trace field, visits in insertion order, or the error raised."""
    try:
        tr = kernel(g, cfg, init, **kwargs)
    except ParameterError as exc:
        return "ParameterError", str(exc)
    return (tr.times, tr.overlaps, tr.edges, tr.hit_time, tr.final_state.members, tr.t_max,
            None if tr.visits is None else list(tr.visits.items()))


def assert_chain_matches_reference(g, cfg, init, **kwargs):
    got = chain_outcome(run_chain, g, cfg, init, **kwargs)
    assert got == chain_outcome(reference_run_chain, g, cfg, init, **kwargs)
    return got


@settings(max_examples=250)
@given(st.data())
def test_run_chain_matches_the_plain_step_loop(data):
    # run-length visits, accept-time samples and stop tests, and uniforms
    # drawn slice by slice must give the trace of the step-by-step loop
    n = data.draw(st.integers(2, 40))
    g = sample_planted(n, data.draw(st.integers(1, min(n, 8))), data.draw(st.integers(0, 999)))
    kbar = data.draw(st.integers(1, n))
    init = VertexSubset.from_iterable(data.draw(st.permutations(range(n)))[:kbar])
    ov = len(set(init.members) & set(g.planted))
    cfg = MCMCConfig(
        beta=data.draw(st.sampled_from([0.0, 0.3, 1.0, 2.0, 50.0, 1e300])), kbar=kbar,
        t_max=data.draw(st.one_of(st.sampled_from([0, 1, 2]), st.integers(3, 6000),
                                  st.integers(mcmc._BLOCK - 3, mcmc._BLOCK + 300))),
        seed=data.draw(st.integers(0, 2**32)),
        stride=data.draw(st.one_of(st.sampled_from([1, 2, 3, 7, 64, 100, mcmc._SLICE, 5000]),
                                   st.integers(1, 300))))
    assert_chain_matches_reference(
        g, cfg, init,
        max_overlap=data.draw(st.one_of(st.none(), st.integers(ov - 1, ov + 2))),
        stop_above=data.draw(st.one_of(st.none(), st.integers(ov - 2, ov + 2))),
        count_visits=data.draw(st.booleans()))


@pytest.mark.parametrize("stride", [1, 3, 64])
@pytest.mark.parametrize("stop_above", [None, 0, 1])
def test_run_chain_matches_the_plain_step_loop_from_an_accepted_first_step(stride, stop_above):
    # beta = 0 with no roof accepts every proposal, step 1 included, and the
    # small state space revisits the start mask; a start at overlap 2 lies
    # above either stop
    g = sample_planted(6, 3, 2)
    init = VertexSubset.from_iterable([v for v in range(6) if v in g.planted][:2])
    got = assert_chain_matches_reference(g, MCMCConfig(beta=0.0, kbar=2, t_max=300, seed=4, stride=stride),
                                         init, stop_above=stop_above, count_visits=True)
    visits = dict(got[-1])
    assert next(iter(visits)) != init.mask  # step 1 left the start
    if stop_above is None:
        assert init.mask in visits  # and came back later


def test_run_chain_start_above_stop_hits_at_step_one():
    # from the planted triangle every step keeps the overlap >= 2 > stop, so
    # step 1 is the hit whether it is accepted or (at beta = 50, mostly)
    # rejected and no accept ever tests the stop
    g = sample_planted(10, 3, 1)
    init = VertexSubset(g.planted)
    rejected = 0
    for seed in range(20):
        cfg = MCMCConfig(beta=50.0, kbar=3, t_max=500, seed=seed, stride=7)
        got = assert_chain_matches_reference(g, cfg, init, stop_above=1, count_visits=True)
        assert got[3] == 1 and got[0] == [0, 1]
        rejected += got[4] == init.members
    assert rejected > 10


@settings(max_examples=150)
@given(st.data())
def test_run_chain_on_a_plain_graph_moves_as_on_the_same_rows_with_a_planted_set(data):
    # the planted set only labels overlaps: with no roof and no stop the
    # chain moves alike with or without one, and on the plain graph (k = 0)
    # every overlap is 0
    n = data.draw(st.integers(2, 30))
    g = sample_planted(n, data.draw(st.integers(1, n)), data.draw(st.integers(0, 999)))
    plain = BitGraph(n=n, rows=g.rows)
    kbar = data.draw(st.integers(1, n - 1))
    init = VertexSubset.from_iterable(data.draw(st.permutations(range(n)))[:kbar])
    cfg = MCMCConfig(beta=data.draw(st.sampled_from([0.0, 0.3, 1.0, 2.0, 50.0])), kbar=kbar,
                     t_max=data.draw(st.integers(0, 3000)), seed=data.draw(st.integers(0, 2**32)),
                     stride=data.draw(st.integers(1, 100)))
    visits = data.draw(st.booleans())
    a = run_chain(plain, cfg, init, count_visits=visits)
    b = run_chain(g, cfg, init, count_visits=visits)
    assert (a.times, a.edges, a.final_state, a.hit_time, a.visits) == \
        (b.times, b.edges, b.final_state, b.hit_time, b.visits)
    assert a.overlaps == [0] * len(a.times)


PLAIN_PART = WellPartition.from_params(10, 3, 4, 0.25, 1.0)
NEEDS_PLANTED = {
    "exact_gibbs": lambda h: exact_gibbs(h, 4, 1.0),
    "transition_matrix": lambda h: transition_matrix(h, 4, 1.0, part=PLAIN_PART),
    "overlap_curve": lambda h: ogp.overlap_curve(h, 4),
    "overlap_curve-local": lambda h: ogp.overlap_curve(h, 4, method="local"),
    "auto_certify": lambda h: ogp.auto_certify(h, 4),
    "conditional_init": lambda h: conditional_init(h, 4, 1.0, PLAIN_PART, seed=0),
    "conditional_init-burnin": lambda h: conditional_init(h, 4, 1.0, PLAIN_PART, seed=0, budget=0),
    "hitting_time": lambda h: hitting_time(h, MCMCConfig(beta=1.0, kbar=4, t_max=100, seed=0)),
    "free_energy_well_ratio": lambda h: free_energy_well_ratio(h, 4, 1.0, PLAIN_PART),
}


@pytest.mark.parametrize("name", NEEDS_PLANTED)
def test_what_needs_a_planted_set_rejects_a_plain_graph(name):
    # it answers on a planted graph and raises ParameterError through
    # ModelParams on the plain graph (k = 0) of the same rows
    g = sample_planted(10, 3, 0)
    NEEDS_PLANTED[name](g)
    with pytest.raises(ParameterError, match=r"^need 1 <= k <= kbar <= n, got n=10 k=0 kbar=4$"):
        NEEDS_PLANTED[name](BitGraph(n=10, rows=g.rows))


# --- exact Gibbs ---------------------------------------------------------------


def test_exact_gibbs_uniform_at_beta_zero():
    g = sample_planted(10, 3, 1)
    eg = exact_gibbs(g, 3, 0.0)
    p = eg.probs()
    assert len(p) == math.comb(10, 3)
    assert np.allclose(p, 1 / math.comb(10, 3), atol=1e-14)
    assert abs(p.sum() - 1.0) <= 1e-10


def test_exact_gibbs_overlap_marginal_hypergeometric():
    g = sample_planted(12, 4, 11)
    marg = exact_gibbs(g, 4, 0.0).overlap_marginal()
    for z in range(5):
        want = math.comb(4, z) * math.comb(8, 4 - z) / math.comb(12, 4)
        assert marg[z] == pytest.approx(want, abs=1e-12)


def test_exact_gibbs_matches_independent_enumerator():
    # independently coded: itertools + pair loop + mpmath normalization
    from itertools import combinations

    import mpmath as mp

    mp.mp.dps = 30
    g = sample_planted(12, 4, 11)
    beta = 0.5
    eg = exact_gibbs(g, 4, beta)
    weights = {}
    for c in combinations(range(12), 4):
        e = sum(g.has_edge(a, b) for i, a in enumerate(c) for b in c[i + 1 :])
        weights[c] = mp.exp(beta * e)
    z = sum(weights.values())
    worst = 0.0
    for c, w in weights.items():
        mask = sum(1 << v for v in c)
        worst = max(worst, abs(eg.prob_of(mask) - float(w / z)))
    assert worst <= 1e-10


def test_exact_gibbs_budget():
    g = sample_planted(30, 5, 0)
    with pytest.raises(BudgetError):
        exact_gibbs(g, 15, 1.0, budget=1000)


def test_exact_gibbs_and_transition_matrix_check_the_budget_before_allocating():
    g = sample_planted(60, 4, 0)  # C(60, 30) ~ 1.2e17 states: no allocation could hold them
    with pytest.raises(BudgetError, match=r"C\(60,30\) = \d+ exceeds budget"):
        exact_gibbs(g, 30, 1.0)
    with pytest.raises(BudgetError, match=r"C\(60,30\) = \d+ exceeds budget"):
        transition_matrix(g, 30, 1.0)


def test_exact_gibbs_rejects_kbar_below_k_before_enumerating(monkeypatch):
    import plandscape.mcmc as mcmc

    def enumerate_nothing(g, kbar, budget):
        raise AssertionError(f"enumerated C({g.n},{kbar}) before checking the parameters")

    monkeypatch.setattr(mcmc, "kbar_subsets", enumerate_nothing)
    with pytest.raises(ParameterError, match="k=12 kbar=11"):
        exact_gibbs(sample_planted(22, 12, 0), 11, 1.0)


def test_beta_must_be_finite_and_non_negative():
    g = sample_planted(12, 4, 0)
    for beta in (math.nan, math.inf, -1.0):
        with pytest.raises(ParameterError, match="beta must be finite and >= 0"):
            MCMCConfig(beta=beta, kbar=4, t_max=10, seed=0)
        with pytest.raises(ParameterError, match="beta must be finite and >= 0"):
            exact_gibbs(g, 4, beta)
    with pytest.raises(ParameterError, match="overflows"):
        exact_gibbs(g, 5, 1e308)  # C(5, 2) * 1e308 is inf
    assert np.isfinite(exact_gibbs(g, 5, 1e307).log_weights).all()


@pytest.mark.parametrize("field, value", [("kbar", 5.0), ("t_max", 10.5), ("stride", 2.5),
                                          ("stride", True), ("t_max", np.int64(10))])
def test_mcmc_config_needs_int_sizes(field, value):
    # a float stride used to sample at t = 5, 10, ...; a float t_max or kbar
    # failed inside numpy with a bare TypeError
    sizes = {"kbar": 5, "t_max": 10, "stride": 1, field: value}
    with pytest.raises(ParameterError, match=f"^{field} must be an int, got "):
        MCMCConfig(beta=1.0, seed=0, **sizes)


def test_desk_chain_outputs_match_the_benchmark_reference(monkeypatch):
    # pass 0 of the desk_chain benchmark workload on both shipped seeds, its
    # prologue included, run in-process: a changed trace, hit time or visit
    # count fails here, not only in a benchmark run; perfbench is read only
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    modules = {}
    for name in ("workloads", "worker"):  # worker.py imports workloads by name
        spec = importlib.util.spec_from_file_location(name, path / f"{name}.py")
        modules[name] = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, modules[name])
        spec.loader.exec_module(modules[name])
    workloads, worker = modules["workloads"], modules["worker"]
    ref = json.loads((path / "reference.json").read_text())["desk_chain"]
    wl = workloads.WORKLOADS["desk_chain"]
    for seed in (0, 1):
        pro = wl.prologue(plandscape, worker.prologue_seed(seed, 0))
        got = workloads.digest(worker.plain(wl.prologue_values(pro)))
        assert got == ref[str(seed)]["0:prologue"], seed
        for i, inp in enumerate(wl.pass_inputs(seed, 0)):
            got = workloads.digest(worker.plain(wl.values(inp, wl.run(plandscape, inp, {}), {})))
            assert got == ref[str(seed)][str(i)], (seed, i)


def test_exact_gibbs_prob_of_rejects_masks_off_the_state_space():
    eg = exact_gibbs(sample_planted(8, 2, 0), 3, 1.0)
    assert eg.prob_of(0b111) > 0.0
    for mask in (0b11, 0, 0b1111, 1 << 8 | 0b11):  # too few, too many, vertex 8 >= n
        with pytest.raises(ParameterError, match=f"mask {mask} is not a 3-subset"):
            eg.prob_of(mask)


# --- wells ----------------------------------------------------------------------


def test_well_partition_from_params():
    part = WellPartition.from_params(12, 4, 4, 0.25, 0.5)
    assert part == DESK_PART
    assert part.valid
    # one predicate, 0 < d1 < d2 < inf, in WellPartition and MCMCConfig
    for d1, d2 in ((0.5, 0.25), (0.0, 1.0), (-1.0, 1.0), (0.25, math.inf),
                   (math.nan, 1.0), (0.25, math.nan), (0.25, 0.25)):
        with pytest.raises(ParameterError, match="need 0 < d1 < d2 < inf"):
            WellPartition.from_params(12, 4, 4, d1, d2)
        with pytest.raises(ParameterError, match="need 0 < d1 < d2 < inf"):
            MCMCConfig(beta=1.0, kbar=4, t_max=10, seed=0, d1=d1, d2=d2)


def test_well_ratio_beta_zero_counts():
    # uniform measure: the ratio is pure hypergeometric band counting
    g = sample_planted(12, 4, DIP_SEED)
    counts = [math.comb(4, z) * math.comb(8, 4 - z) for z in range(5)]
    want = math.log(min(counts[0], sum(counts[2:])) / counts[1])
    got = free_energy_well_ratio(g, 4, 0.0, DESK_PART)
    assert got == pytest.approx(want, abs=1e-10)


def test_well_ratio_monotone_in_beta_on_dip_instance():
    g = dip_instance()
    ratios = [free_energy_well_ratio(g, 4, b, DESK_PART) for b in (0.0, 1.0, 2.0, 4.0)]
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(ratios, ratios[1:]))


def test_well_ratio_empty_band_is_inf():
    g = sample_planted(12, 4, 0)
    part = WellPartition(a0_max=0, a1_min=5, a1_max=5, a2_min=2)  # A1 infeasible
    assert free_energy_well_ratio(g, 4, 1.0, part) == math.inf


def test_well_ratio_lower_bound_is_a_bound():
    g = dip_instance()
    d = {z: densest_with_overlap(g, 4, z).value for z in range(5)}
    p = ModelParams(12, 4, 4)
    for beta in (0.5, 1.0, 3.0):
        bound = well_ratio_lower_bound(p, beta, DESK_PART, d)
        exact = free_energy_well_ratio(g, 4, beta, DESK_PART)
        assert bound <= exact + 1e-9


# --- conditional init ------------------------------------------------------------


def test_conditional_init_stays_in_band():
    g = sample_planted(12, 4, DIP_SEED)
    for seed in range(30):
        s = conditional_init(g, 4, 0.5, DESK_PART, seed)
        assert len(set(s.members) & set(g.planted)) <= DESK_PART.a1_max


def test_conditional_init_exact_law():
    g = sample_planted(12, 4, DIP_SEED)
    eg = exact_gibbs(g, 4, 0.5)
    sel = np.nonzero(eg.overlaps <= 1)[0]
    lw = eg.log_weights[sel]
    cond = np.exp(lw - lw.max())
    cond /= cond.sum()
    rng = rng_from_seed(99)
    draws = Counter(eg.sample(rng, size=3 * 10**5, max_overlap=1))
    emp = np.array([draws.get(eg.masks[i], 0) for i in sel], float)
    emp /= emp.sum()
    assert 0.5 * np.abs(emp - cond).sum() <= 0.02


def test_conditional_init_burn_in_mode():
    g = sample_planted(12, 4, DIP_SEED)
    s, info = conditional_init(g, 4, 0.5, DESK_PART, seed=5, budget=10,
                               return_info=True)
    assert info["mode"] == "burnin" and info["burn_in"] > 0
    assert len(set(s.members) & set(g.planted)) <= DESK_PART.a1_max


# --- reflected chain ---------------------------------------------------------------


def test_reflected_chain_never_exceeds_roof():
    g = sample_planted(12, 4, DIP_SEED)
    cfg = MCMCConfig(beta=1.0, kbar=4, t_max=20000, seed=2, stride=1)
    init = VertexSubset.from_iterable([v for v in range(12) if v not in g.planted][:4])
    tr = run_chain(g, cfg, init, max_overlap=DESK_PART.a1_max)
    assert max(tr.overlaps) <= DESK_PART.a1_max


def test_reflected_longrun_matches_conditional_law():
    g = sample_planted(12, 4, DIP_SEED)
    cfg = MCMCConfig(beta=0.0, kbar=4, t_max=3 * 10**5, seed=4, stride=1)
    init = VertexSubset.from_iterable([v for v in range(12) if v not in g.planted][:4])
    tr = run_chain(g, cfg, init, max_overlap=1, count_visits=True)
    eg = exact_gibbs(g, 4, 0.0)
    sel = np.nonzero(eg.overlaps <= 1)[0]
    lw = eg.log_weights[sel]
    cond = np.exp(lw - lw.max())
    cond /= cond.sum()
    emp = np.array([tr.visits.get(eg.masks[i], 0) for i in sel], float)
    emp /= emp.sum()
    assert 0.5 * np.abs(emp - cond).sum() <= 0.05


def test_reflected_transition_matrix_reversible_for_conditional():
    g = sample_planted(10, 3, 5)
    part = WellPartition(a0_max=0, a1_min=1, a1_max=1, a2_min=1)
    t, states = transition_matrix(g, 3, 1.0, part=part)
    eg = exact_gibbs(g, 3, 1.0)
    pi = np.array([eg.prob_of(m) for m in states])
    pi /= pi.sum()
    worst = np.abs(pi[:, None] * t - (pi[:, None] * t).T).max()
    assert worst <= 1e-12
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_transition_matrix_at_a_huge_beta():
    # beta * delta > 709 on every uphill swap: accepted with certainty, never
    # through exp(beta * delta), which overflows
    g = sample_planted(8, 3, 0)
    t, states = transition_matrix(g, 3, 1000.0)
    prop = 1.0 / (3 * 5)
    deltas = [swap_deltas(g, VertexSubset(mask_to_members(m))) for m in states]
    for i, row in enumerate(deltas):
        for mask, d in row.items():
            assert t[i, states.index(mask)] == (prop if d >= 0 else 0.0)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


def per_swap_transition_matrix(g, kbar, beta, part=None):
    """The Metropolis matrix by trying every (u out, v in) swap of every
    state against an index of the states, with its own acceptance rule."""
    states, edges, ov = kbar_subsets(g, kbar, math.comb(g.n, kbar))
    if part is not None:
        keep = ov <= part.a1_max
        states, edges = list(compress(states, keep)), edges[keep]
    edges = edges.tolist()
    index = {m: i for i, m in enumerate(states)}
    prop = 1.0 / (kbar * (g.n - kbar))
    t = np.zeros((len(states), len(states)))
    for i, mask in enumerate(states):
        ins = [v for v in range(g.n) if mask >> v & 1]
        outs = [v for v in range(g.n) if not (mask >> v & 1)]
        for u in ins:
            for v in outs:
                j = index.get((mask ^ (1 << u)) | (1 << v))
                if j is None:  # outside the band: reflected self-loop
                    continue
                t[i, j] += prop * math.exp(min(0.0, beta * (edges[j] - edges[i])))
        t[i, i] = 1.0 - t[i].sum() + t[i, i]
    return t, states


@settings(max_examples=150)
@given(st.data(), st.sampled_from([0.0, 0.7, 2.5, 1e3, 1e300]))
def test_transition_matrix_matches_per_swap_oracle(data, beta):
    g = data.draw(enum_graphs())
    sizes = [kb for kb in range(g.k, g.n) if math.comb(g.n, kb) <= 300]
    assume(sizes)
    kbar = data.draw(st.sampled_from(sizes))
    roof = data.draw(st.one_of(st.none(), st.integers(0, g.k)))
    part = None if roof is None else WellPartition(0, 0, roof, roof + 1)
    t, states = transition_matrix(g, kbar, beta, part=part)
    want, want_states = per_swap_transition_matrix(g, kbar, beta, part)
    assert states == want_states
    assert t.tobytes() == want.tobytes()


def test_transition_matrix_limits():
    with pytest.raises(ParameterError, match="^no swap neighbors when kbar = n$"):
        transition_matrix(sample_planted(5, 2, 0), 5, 1.0)
    # the dense matrix takes 8 S^2 bytes: 4096 states (134 MB) by default
    g = sample_planted(16, 3, 0)
    with pytest.raises(BudgetError, match=r"^C\(16,5\) = 4368 exceeds budget 4096$"):
        transition_matrix(g, 5, 1.0)
    t, states = transition_matrix(g, 3, 1.0, budget=560)
    assert t.shape == (560, 560) and len(states) == 560


@pytest.mark.parametrize("beta", [0.0, 1.0, 40.0, 1e3, 1e17])
def test_exact_gibbs_normalized_and_reversible_at_any_beta(beta):
    g = sample_planted(8, 3, 0)
    eg = exact_gibbs(g, 3, beta)
    pi = eg.probs()
    assert abs(math.fsum(pi.tolist()) - 1.0) <= 1e-12
    assert abs(math.fsum(eg.prob_of(m) for m in eg.masks) - 1.0) <= 1e-12
    t, states = transition_matrix(g, 3, beta)
    assert states == eg.masks
    flow = pi[:, None] * t
    assert np.abs(flow - flow.T).max() <= 1e-12


# --- hitting times ------------------------------------------------------------------


def test_hitting_time_beta_zero_matches_birth_death_projection():
    g = sample_planted(12, 4, DIP_SEED)
    exact_med = exact_median_escape(12, 4, 4, a1_max=1)
    hits = []
    for seed in range(100):
        cfg = MCMCConfig(beta=0.0, kbar=4, t_max=10**5, seed=seed, d1=0.25,
                         d2=0.5, stride=10**5)
        tr = hitting_time(g, cfg)
        assert tr.hit_time is not None
        hits.append(tr.hit_time)
    med = statistics.median(hits)
    assert exact_med / 2 <= med <= exact_med * 2


def test_hitting_time_median_monotone_in_beta():
    g = dip_instance()
    medians = []
    for beta in (0.0, 1.0, 2.0, 4.0):
        hits = []
        for seed in range(60):
            cfg = MCMCConfig(beta=beta, kbar=4, t_max=2 * 10**5, seed=7 * seed + 1,
                             d1=0.25, d2=0.5, stride=2 * 10**5)
            tr = hitting_time(g, cfg)
            hits.append(tr.hit_time if tr.hit_time is not None else cfg.t_max + 1)
        medians.append(statistics.median(hits))
    assert all(m2 >= m1 for m1, m2 in zip(medians, medians[1:]))


def test_hitting_time_records_censoring():
    g = sample_planted(12, 4, DIP_SEED)
    cfg = MCMCConfig(beta=30.0, kbar=4, t_max=50, seed=0, d1=0.25, d2=0.5)
    tr = hitting_time(g, cfg)
    if tr.hit_time is None:
        assert tr.t_max == 50  # censored outcome is legitimate and recorded
    else:
        assert tr.hit_time <= 50


def test_beta_scale_threshold_advisory():
    from plandscape.mcmc import beta_scale_threshold

    want = math.log(12 / 4) ** 1.5
    assert beta_scale_threshold(12, 4) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ParameterError):
        beta_scale_threshold(10, 10)
