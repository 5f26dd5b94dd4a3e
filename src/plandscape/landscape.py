"""Densest-subgraph values: exact at desk scale, heuristic beyond, plus the
first-moment expectation machinery and the ER densest-K-subgraph prediction.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import BudgetError, DomainError, ParameterError
from .model import (
    BitGraph,
    ModelParams,
    VertexSubset,
    check_ints,
    check_overlap,
    edge_count,
    feasible_overlaps,
    rng_from_seed,
    _pack_words,
    _word_ints,
)
from .numerics import LN2, binary_entropy_inv, log_binomial, log_placements, rate_function

EXHAUSTIVE = "Exhaustive"
LOCAL_SEARCH = "LocalSearch"

NODE_BUDGET = 10**6  # default branch-and-bound node cap: about 15 s at 15 us per node
SUBSET_BUDGET = 10**7  # default kbar_subsets cap on C(n, kbar) for the exact Gibbs law


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

    Accuracy: the anchor ln C(N, j0) is log_binomial's (a direct log sum up
    to a short side of 2^18, log-gamma beyond), whose rounding grows with N.
    Against a 40-digit series the absolute error in ln P is ~1e-11 at
    N = 1e4, ~1e-10 at 1e5 and ~2e-9 at 1e6, which is still 1e-10 relative
    whenever |ln P| >= 20.  Returns -inf for t > N.
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
    return log_binomial(N, j0) + math.log(math.fsum(terms)) - N * LN2


def binomial_tail_bracket(N: int, gamma: float) -> tuple[float, float]:
    """Large-deviation bracket for ln P[Bin(N,1/2) >= ceil(gamma N)]:
    [-N r(gamma) - ln N, -N r(gamma)].  Valid once (gamma - 1/2) sqrt(N)
    is large."""
    if N < 1:
        raise ParameterError(f"need N >= 1 trials, got N={N}")
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


def _subset_words(c: np.ndarray, n: int) -> np.ndarray:
    """Bitmasks of the rows of c (distinct vertices of range(n)) as uint64
    words: the sum of the members' one-hot words, which share no bit."""
    return _pack_words(np.eye(n, dtype=bool))[c].sum(axis=1)


def induced_edges(g: BitGraph, c: np.ndarray) -> np.ndarray:
    """Edges of g induced by each row of c, a matrix of distinct vertices
    per row in any order, as int64: the one batch subset-edge counter."""
    words = _subset_words(c, g.n)
    return np.bitwise_count(g.words[c] & words[:, None, :]).sum(axis=(1, 2), dtype=np.int64) // 2


def kbar_subsets(g: BitGraph, kbar: int, budget: int) -> tuple[list, np.ndarray, np.ndarray]:
    """Every kbar-subset of g's vertices once, in lexicographic order: their
    Python-int bitmasks and int64 arrays of their induced edge counts and
    overlaps with the planted set.  BudgetError at the call, before any
    enumeration, when C(n, kbar) exceeds budget.

    Built level by level: level s holds the s-subsets of range(kbar - s, n)
    in lexicographic order, and those of range(a + 1, n) are its last
    C(n - a - 1, s) rows.  So level s + 1 puts each first member a before
    that tail, and a new row's edge count is its tail's plus a's edges into
    the tail.  Overlaps are counted once, on the last level's masks."""
    n = g.n
    if not 0 <= kbar <= n:
        raise ParameterError(f"need 0 <= kbar <= n, got kbar={kbar} n={n}")
    if budget < 0:
        raise ParameterError(f"subset budget must be >= 0, got {budget}")
    total = math.comb(n, kbar)
    if total > budget:
        raise BudgetError(f"C({n},{kbar}) = {total} exceeds budget {budget}")
    adj, onehot = g.words, _pack_words(np.eye(n, dtype=bool))
    words = np.zeros((1, onehot.shape[1]), dtype=np.uint64)
    edges = np.zeros(1, dtype=np.int64)
    for s in range(kbar):
        size = math.comb(n - kbar + s + 1, s + 1)
        up_words = np.empty((size, words.shape[1]), dtype=np.uint64)
        added = np.empty((size, words.shape[1]), dtype=np.uint8)
        up_edges = np.empty(size, dtype=np.int64)
        at = 0
        for a in range(kbar - s - 1, n - s):
            m = math.comb(n - a - 1, s)  # the s-subsets of range(a + 1, n)
            row, tail = slice(at, at + m), words[-m:]
            np.bitwise_or(tail, onehot[a], out=up_words[row])
            np.bitwise_count(tail & adj[a], out=added[row])
            up_edges[row] = edges[-m:]
            at += m
        up_edges += added.sum(axis=1, dtype=np.int64)  # one reduction per level, not per a
        words, edges = up_words, up_edges
    planted = _subset_words(np.array([g.planted], dtype=np.intp), n)
    return _word_ints(words), edges, np.bitwise_count(words & planted).sum(axis=1, dtype=np.int64)


def _branch_and_bound(adj, cand, d_in, edges, chosen, K, best, budget, ties=False):
    """Best K-subset extending `chosen` (`edges` edges) from the pool `cand`
    (`d_in` degrees into `chosen`), improving on the incumbent `best` =
    (value, sorted members, nodes so far), returned updated.  `budget` caps
    the nodes: an explicit error, never a silent fallback.  The bound with e
    edges and r slots left is e + (the r largest degrees into the chosen set)
    + C(r,2); candidates go in decreasing degree, so near-clique optima prune
    almost everything.  With `ties`, a tie goes to the lexicographically
    smaller witness, so a branch that can only tie is searched while its
    smallest completion sorts below the incumbent's.

    A child whose own first bound already fails is settled at its parent:
    the parent counts it as a node, under the same budget check, and never
    enters it, so the tree, the node count and the witness are those of
    the plain recursion."""
    if budget < 0:
        raise ParameterError(f"node budget must be >= 0, got {budget}")
    best_val, best_members, nodes = best
    cr2 = [r * (r - 1) // 2 for r in range(K + 1)]
    floor = 0 if ties else 1  # a branch must reach best_val + floor

    def count():
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            so_far = best_val if best_val >= 0 else "none"
            raise BudgetError(f"branch-and-bound exceeded node budget {budget}: "
                              f"{nodes - 1} nodes explored, best value so far {so_far}")

    def recurse(cand, d_in, chosen, edges):
        nonlocal best_val, best_members
        count()
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
        deg = d_in.tolist()
        top = np.cumsum(d_in).tolist()  # sum of the i+1 largest degrees
        neg = (-d_in).tolist()  # ascending, for bisect
        rc = r - 1  # a child's slots
        for i in range(len(cand) - rc):
            # optimistic sibling bound, nonincreasing in i: each later vertex
            # can add at most one edge to cand[i] on top of its current degree
            bound = edges + deg[i] + top[i + rc] - top[i] + rc + cr2[rc]
            if bound < best_val + floor:
                break
            v = int(cand[i])
            if ties and bound == best_val and tuple(sorted(  # a tie needs a smaller witness
                    [*chosen, v, *np.sort(cand[i + 1 :])[:rc].tolist()])) >= best_members:
                continue
            child_cand = cand[i + 1 :]
            row = adj[v][child_cand]
            if rc:
                # The child's first bound is this one with its rc unit
                # credits replaced by the gain of its rc largest degrees
                # d + A_v over d: the ones above t = deg[i + rc], plus at
                # most the slots those leave of the run tied at t.
                hits = row.tolist()
                above = bisect_left(neg, neg[i + rc], i + 1) - i - 1
                tied = bisect_right(neg, neg[i + rc], i + 1) - i - 1
                gain = sum(hits[:above]) + min(sum(hits[above:tied]), rc - above)
                if bound - rc + gain < best_val + floor:
                    count()
                    continue
            chosen.append(v)
            recurse(child_cand, d_in[i + 1 :] + row, chosen, edges + deg[i])
            chosen.pop()

    recurse(cand, d_in, list(chosen), edges)
    return best_val, best_members, nodes


def densest_with_overlap(g: BitGraph, kbar: int, z: int,
                         budget: int = NODE_BUDGET) -> DensestResult:
    """Exact maximum edge count over kbar-subsets with overlap exactly z, by
    branch and bound over the non-planted vertices per planted z-subset (the
    incumbent carried across them; `budget` caps the call's search nodes).
    Witness ties break to the lexicographically smallest subset."""
    check_ints(kbar=kbar)
    check_overlap(z, feasible_overlaps(g.n, g.k, kbar))
    adj = g.dense.astype(np.int64)
    others = np.array(g.non_planted, dtype=np.intp)
    best = (-1, None, 0)
    for fixed in combinations(g.planted, z):
        inside = adj[list(fixed)]
        best = _branch_and_bound(adj, others, inside[:, others].sum(axis=0),
                                 int(inside[:, fixed].sum()) // 2, fixed, kbar, best, budget, ties=True)
    return DensestResult(best[0], VertexSubset(best[1]), EXHAUSTIVE)


def densest_subgraph(g: BitGraph, K: int, budget: int = NODE_BUDGET) -> DensestResult:
    """Exact densest K-subgraph of any graph by branch and bound over all
    vertices, seeded by local search; `budget` caps the search nodes."""
    n = g.n
    check_ints(K=K)
    if not 1 <= K <= n:
        raise ParameterError(f"need 1 <= K <= n, got K={K} n={n}")
    if K == 1 and budget >= 0:  # a negative budget fails in the kernel
        return DensestResult(0, VertexSubset((0,)), EXHAUSTIVE)
    adj = g.dense.astype(np.int64)
    seed = local_search_densest(g, K, restarts=4, seed=0)
    cand = np.argsort(-adj.sum(axis=1), kind="stable")  # degree desc, then label
    best = _branch_and_bound(adj, cand, np.zeros(n, dtype=np.int64), 0, (), K,
                             (seed.value, seed.witness.members, 0), budget)
    return DensestResult(best[0], VertexSubset(best[1]), EXHAUSTIVE)


# --- local search ------------------------------------------------------------


def local_search_densest(g: BitGraph, kbar: int, z: int | None = None,
                         restarts: int = 1, seed: int = 0) -> DensestResult:
    """Greedy swap ascent to a local maximum of the induced edge count.

    Each sweep applies the best single swap (one vertex out, one in); when z
    is fixed, swaps stay within the planted part and within the non-planted
    part so the overlap never changes; on a plain graph (k = 0) only z = 0
    is feasible, and it searches as z = None does.  Equal-value swaps are
    taken up to a plateau budget of 2*kbar consecutive ones to escape ties.
    Best value over `restarts` seeded starts; restarts=0 scores the seeded
    initial subset as-is.

    The swap taken depends on the current set alone, so once a set repeats
    within a plateau the walk cycles until its budget runs out: the sweep
    jumps straight to the set where it would stop, the same result as
    walking the cycle.
    """
    n = g.n
    check_ints(kbar=kbar, restarts=restarts)
    if not 1 <= kbar <= n or restarts < 0:
        raise ParameterError(f"need 1 <= kbar <= n, restarts >= 0, got {kbar}, {restarts}")
    if z is not None:
        check_overlap(z, feasible_overlaps(n, g.k, kbar))

    rng = rng_from_seed(seed)
    if z is None:
        pools = [list(range(n))]
        takes = [kbar]
    else:
        pools = [g.planted, g.non_planted]
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
        plateau_left = 2 * kbar
        path, seen = [], {}  # the sets since the last strict gain; first index of each
        while True:
            ins = x.nonzero()[0]
            key = ins.tobytes()
            j = seen.setdefault(key, len(path))
            if j < len(path):  # a repeat: the walk cycles through path[j:] until the budget runs out
                ins = np.frombuffer(path[j + plateau_left % (len(path) - j)], dtype=ins.dtype)
                return val, tuple(sorted(order[ins].tolist()))
            path.append(key)
            score = base.take(ins, axis=0)
            score += e
            score -= e.take(ins)[:, None]
            best = int(score.argmax())
            delta = score.item(best)
            if delta < 0 or (delta == 0 and plateau_left <= 0):
                break
            if delta:
                plateau_left, path, seen = 2 * kbar, [], {}
            else:
                plateau_left -= 1
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
