"""Densest-subgraph values: exact at desk scale, heuristic beyond, plus the
first-moment expectation machinery and the ER densest-K-subgraph prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError, ParameterError
from .model import (
    BitGraph,
    ModelParams,
    PlantedGraph,
    VertexSubset,
    edge_count,
    mask_to_members,
    rng_from_seed,
)
from .numerics import LN2, binary_entropy_inv, log_binomial, log_placements, rate_function

EXHAUSTIVE = "Exhaustive"
LOCAL_SEARCH = "LocalSearch"

# exact big-integer binomials below this N; log-gamma above (see
# log_binomial_tail docstring for the accuracy statement)
_EXACT_COMB_LIMIT = 100_000


@dataclass(frozen=True)
class DensestResult:
    value: int
    witness: VertexSubset
    method: str
    restarts_used: int = 0


@dataclass(frozen=True)
class DensestPrediction:
    """First/second order predictions for the densest K-subgraph of ER(1/2)."""

    n: int
    K: int
    first_order: float
    second_order: float


# --- binomial tails --------------------------------------------------------


def log_binomial_tail(N: int, t: int) -> float:
    """Exact ln P[Bin(N, 1/2) >= t] by streamed log-sum-exp from the largest
    term outward, stopping once increments drop below 1e-18 of the running sum.

    Accuracy: relative error in log space <= ~1e-12 for N <= 1e5 (exact
    big-integer anchor term); for larger N the anchor uses log-gamma, giving
    absolute error ~2e-9, which is still 1e-10 relative whenever
    |ln P| >= 20.  Returns -inf for t > N.
    """
    if N < 0 or t < 0:
        raise ParameterError(f"need N, t >= 0, got N={N} t={t}")
    if t > N:
        return -math.inf
    if t == 0:
        return 0.0
    j0 = max(t, N // 2)
    terms = [1.0]
    run = 1.0
    term = 1.0
    j = j0
    while j > t:  # downward: term(j-1) = term(j) * j / (N - j + 1)
        term *= j / (N - j + 1)
        if term < 1e-18 * run:
            break
        terms.append(term)
        run += term
        j -= 1
    term = 1.0
    j = j0
    while j < N:  # upward: term(j+1) = term(j) * (N - j) / (j + 1)
        term *= (N - j) / (j + 1)
        if term < 1e-18 * run:
            break
        terms.append(term)
        run += term
        j += 1
    if N <= _EXACT_COMB_LIMIT:
        anchor = math.log(math.comb(N, j0))
    else:
        anchor = log_binomial(N, j0)
    return anchor + math.log(math.fsum(terms)) - N * LN2


def binomial_tail_bracket(N: int, gamma: float) -> tuple[float, float]:
    """Large-deviation bracket for ln P[Bin(N,1/2) >= ceil(gamma N)]:
    [-N r(gamma) - ln N, -N r(gamma)].  Valid once (gamma - 1/2) sqrt(N)
    is large."""
    if not 0.5 < gamma <= 1.0:
        raise DomainError(f"gamma must lie in (1/2, 1], got {gamma}")
    exponent = N * rate_function(gamma)
    return (-exponent - math.log(N), -exponent)


def _ceil_threshold(x: float) -> int:
    """ceil with protection against float fuzz on near-integer products."""
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.ceil(x))


def log_expected_dense_count(p: ModelParams, z: int, gamma: float) -> float:
    """ln of the expected number of kbar-subsets with overlap exactly z and
    at least C(z,2) + gamma * (C(kbar,2) - C(z,2)) edges:

        log_placements(p, z) + ln P[ Bin(M, 1/2) >= gamma M ],

    M = C(kbar,2) - C(z,2)."""
    if not 0.5 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [1/2, 1], got {gamma}")
    lp = log_placements(p, z)  # validates feasibility
    m = math.comb(p.kbar, 2) - math.comb(z, 2)
    return lp + log_binomial_tail(m, _ceil_threshold(gamma * m))


# --- exact enumeration ------------------------------------------------------


def _enum_counts(rows, pool, size, start, mask, count):
    """Yield (mask, count) over all size-subsets of pool[start:], in
    lexicographic order, with incremental edge-count updates."""
    if size == 0:
        yield mask, count
        return
    for i in range(start, len(pool) - size + 1):
        v = pool[i]
        add = (rows[v] & mask).bit_count()
        yield from _enum_counts(rows, pool, size - 1, i + 1, mask | (1 << v), count + add)


def densest_with_overlap(g: PlantedGraph, kbar: int, z: int,
                         budget: int = 10**8) -> DensestResult:
    """Exact maximum edge count over kbar-subsets with overlap exactly z,
    by enumerating planted choices x non-planted choices.  Witness ties break
    to the lexicographically smallest subset."""
    n, k = g.n, g.k
    if not (0 <= z <= min(k, kbar) and kbar - z <= n - k and kbar <= n):
        raise ParameterError(f"infeasible (kbar={kbar}, z={z}) for n={n}, k={k}")
    count = math.comb(k, z) * math.comb(n - k, kbar - z)
    if count > budget:
        raise BudgetError(
            f"{count} subsets at z={z}: too large for exhaustive (budget {budget})")
    non_planted = [v for v in range(n) if not (g.planted_mask >> v & 1)]
    best_val = -1
    best_members = None
    for pmask, pcount in _enum_counts(g.rows, list(g.planted), z, 0, 0, 0):
        for fmask, fcount in _enum_counts(g.rows, non_planted, kbar - z, 0, pmask, pcount):
            if fcount > best_val:
                best_val, best_members = fcount, mask_to_members(fmask)
            elif fcount == best_val:
                cand = mask_to_members(fmask)
                if cand < best_members:
                    best_members = cand
    return DensestResult(best_val, VertexSubset(best_members), EXHAUSTIVE)


def densest_subgraph(g: BitGraph, K: int, budget: int = 10**8) -> DensestResult:
    """Exact densest K-subgraph of any graph by branch and bound.

    `budget` caps the number of explored search nodes (an explicit error when
    exceeded, never a silent fallback).  The bound at a node with s chosen
    vertices, e internal edges and r = K - s slots left is
    e + (sum of the r largest candidate degrees into the chosen set)
    + C(r,2); candidates are scanned in decreasing order of that degree, so
    near-clique optima prune almost everything.
    """
    n = g.n
    if not 1 <= K <= n:
        raise ParameterError(f"need 1 <= K <= n, got K={K} n={n}")
    if K == 1:
        return DensestResult(0, VertexSubset((0,)), EXHAUSTIVE)

    adj = g.dense.astype(np.int64)
    seed_res = local_search_densest(g, K, restarts=4, seed=0)
    best_val = seed_res.value
    best_members = list(seed_res.witness.members)

    cand0 = np.argsort(-adj.sum(axis=1), kind="stable")  # degree desc, then label
    d0 = np.zeros(n, dtype=np.int64)
    nodes = 0
    cr2 = [r * (r - 1) // 2 for r in range(K + 1)]

    def recurse(cand, d_in, chosen, edges):
        nonlocal best_val, best_members, nodes
        nodes += 1
        if nodes > budget:
            raise BudgetError(f"branch-and-bound exceeded node budget {budget}")
        r = K - len(chosen)
        if r == 0:
            if edges > best_val:
                best_val, best_members = edges, list(chosen)
            return
        if len(cand) < r:
            return
        srt = np.argsort(-d_in, kind="stable")
        cand = cand[srt]
        d_in = d_in[srt]
        suffix_top = np.cumsum(d_in)  # sum of the i+1 largest degrees
        for i in range(len(cand) - r + 1):
            # optimistic sibling bound, nonincreasing in i: each later vertex
            # can add at most one edge to cand[i] on top of its current degree
            top_rest = suffix_top[i + r - 1] - suffix_top[i] if r > 1 else 0
            if edges + d_in[i] + top_rest + (r - 1) + cr2[r - 1] <= best_val:
                break
            v = int(cand[i])
            child_cand = cand[i + 1 :]
            child_d = d_in[i + 1 :] + adj[v, child_cand]
            chosen.append(v)
            recurse(child_cand, child_d, chosen, edges + int(d_in[i]))
            chosen.pop()

    recurse(cand0, d0, [], 0)
    return DensestResult(best_val, VertexSubset.from_iterable(best_members), EXHAUSTIVE)


# --- local search ------------------------------------------------------------


def local_search_densest(g: BitGraph, kbar: int, z: int | None = None,
                         restarts: int = 1, seed: int = 0,
                         plateau: int | None = None) -> DensestResult:
    """Greedy swap ascent to a local maximum of the induced edge count.

    Each sweep applies the best single swap (one vertex out, one in); when z
    is fixed, swaps stay within the planted part and within the non-planted
    part so the overlap never changes.  Equal-value swaps are taken up to a
    plateau budget (default 2*kbar consecutive) to escape ties.  Best value
    over `restarts` seeded starts; restarts=0 scores the seeded initial
    subset as-is.
    """
    n = g.n
    if not 1 <= kbar <= n:
        raise ParameterError(f"need 1 <= kbar <= n, got kbar={kbar}")
    if z is not None:
        if not isinstance(g, PlantedGraph):
            raise ParameterError("overlap-constrained search needs a planted graph")
        if not (0 <= z <= min(g.k, kbar) and kbar - z <= n - g.k):
            raise ParameterError(f"infeasible overlap z={z}")

    plateau_budget = 2 * kbar if plateau is None else plateau
    rng = rng_from_seed(seed)
    if z is None:
        pools = [list(range(n))]
        takes = [kbar]
    else:
        planted = list(g.planted)
        non_planted = [v for v in range(n) if not (g.planted_mask >> v & 1)]
        pools = [planted, non_planted]
        takes = [z, kbar - z]

    def initial():
        members = []
        for pool, take in zip(pools, takes):
            pick = rng.permutation(len(pool))[:take].tolist()
            members.extend(pool[i] for i in pick)
        return sorted(members)

    if restarts == 0:
        start = VertexSubset(tuple(initial()))
        return DensestResult(edge_count(g, start), start, LOCAL_SEARCH, 0)

    # Pool-major coordinates: each pool sorted, planted pool first, so the
    # row-major first argmax over (u in, v out) is the first-strict-max swap
    # of a scan over pools, then sorted u, then sorted v.
    order = np.concatenate([sorted(p) for p in pools]).astype(np.intp)
    pos = np.argsort(order)
    adj = g.dense[np.ix_(order, order)].astype(np.int32)
    arows = list(adj)
    pool_of = np.repeat(np.arange(len(pools)), [len(p) for p in pools])
    # With e = d + neg * [v inside], d the neighbours inside the set, swap
    # (u, v) scores base[u, v] + e[v] - e[u] = d[v] - A[u, v] - d[u]; pairs
    # with v inside or across pools score below every swap delta (>= -kbar).
    neg = -2 * n - 1
    base = np.where(pool_of[:, None] == pool_of, neg - adj, 2 * neg).astype(np.int32)

    def ascend(members):
        x = np.zeros(n, dtype=bool)
        x[pos[members]] = True
        e = adj.dot(x)
        val = int(e.dot(x)) // 2
        e[x] += neg
        plateau_left = plateau_budget
        while True:
            ins = x.nonzero()[0]
            score = base.take(ins, axis=0)
            score += e
            score -= e.take(ins)[:, None]
            best = int(score.argmax())
            delta = score.item(best)
            if delta < 0 or (delta == 0 and plateau_left <= 0):
                break
            plateau_left = plateau_left - 1 if delta == 0 else plateau_budget
            u, v = ins.item(best // n), best % n
            x[u], x[v] = False, True
            e += arows[v] - arows[u]
            e[u] -= neg
            e[v] += neg
            val += delta
        return val, tuple(sorted(order[x].tolist()))

    best_val, best_members = None, None
    for _ in range(restarts):
        val, members = ascend(initial())
        if best_val is None or val > best_val or (val == best_val and members < best_members):
            best_val, best_members = val, members
    return DensestResult(best_val, VertexSubset(best_members), LOCAL_SEARCH, restarts)


# --- ER prediction ------------------------------------------------------------

# largest exponent C (K = n^C) at which the concentration error stays o(K),
# the regime where non-monotonicity of the envelope transfers to the
# per-instance curve: C = (5/2 - sqrt 6) / (1/2 + 5/2 - sqrt 6) = 1/2 - sqrt(6)/6
OGP_EXPONENT_LIMIT = 0.5 - math.sqrt(6.0) / 6.0


def error_exponent_bound(c: float) -> float:
    """Reporting formula for the densest-subgraph concentration error: with
    K = n^c, the error term is O(K^beta sqrt(log n)) for any
    beta > max(3/2 - (5/2 - sqrt 6)(1-c)/c, 0).  Returns that infimum.

    Hidden constants prevent a sharp numeric test; this is exposed for
    reporting only."""
    if not 0 < c < 0.5:
        raise DomainError(f"exponent must lie in (0, 1/2), got {c}")
    return max(1.5 - (2.5 - math.sqrt(6.0)) * (1.0 - c) / c, 0.0)


def densest_prediction(n: int, K: int) -> DensestPrediction:
    """Theoretical first/second order values for the densest K-subgraph of
    ER(n, 1/2), computed in log space:

        first  = h^{-1}( ln2 - ln C(n,K) / C(K,2) ) * C(K,2)
        second = K^2/4 + K^{3/2} sqrt(ln(n/K)) / 2

    For K small enough that the h^{-1} argument would go negative (clique
    regime) the first-order value saturates at C(K,2)."""
    if not 2 <= K <= n:
        raise ParameterError(f"need 2 <= K <= n, got K={K} n={n}")
    ck2 = math.comb(K, 2)
    arg = LN2 - log_binomial(n, K) / ck2
    first = binary_entropy_inv(min(max(arg, 0.0), LN2)) * ck2
    second = K * K / 4.0 + K**1.5 * math.sqrt(math.log(n / K)) / 2.0
    return DensestPrediction(n=n, K=K, first_order=first, second_order=second)
