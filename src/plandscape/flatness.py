"""Flatness of K-vertex graphs: no induced subgraph may exceed its expected
edge share by more than a square-root slack.  Conditioned ER samples are
flat with high probability, which is what makes dense subgraphs overlap in
controllable ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .model import BitGraph, mask_to_members, rng_from_seed
from . import landscape

EXHAUSTIVE_LIMIT = 22  # 2^K masks; beyond this only sampled mode runs


def subset_slack(K: int, ell: int, delta: float, gamma: float) -> float:
    """Allowed excess over ceil(gamma*C(ell,2)) for an ell-subset of a flat
    K-vertex graph:

        sqrt( 2 gamma c * min(C(K,2)-C(ell,2), C(ell,2))
                        * (ln C(K,ell) + 2 ln K) ),

    with c = 2+delta for ell < 2K/3 and c = 1+delta above.

    gamma may sit on the [0,1] boundary: the formula stays defined there and
    the boundary graphs (empty, complete) are the trivially flat cases."""
    if not 0 <= ell <= K:
        raise DomainError(f"need 0 <= ell <= K, got ell={ell} K={K}")
    if not (0 <= gamma <= 1 and 0 < delta < 1):
        raise DomainError(f"need gamma in [0,1], delta in (0,1), got {gamma}, {delta}")
    coeff = 2 * gamma * ((2 + delta) if 3 * ell < 2 * K else (1 + delta))
    lead = min(math.comb(K, 2) - math.comb(ell, 2), math.comb(ell, 2))
    logs = math.lgamma(K + 1) - math.lgamma(ell + 1) - math.lgamma(K - ell + 1) + 2 * math.log(K)
    return math.sqrt(coeff * lead * logs)


def _edge_target(K: int, gamma: float) -> int:
    x = gamma * math.comb(K, 2)
    r = round(x)
    if abs(x - r) < 1e-9:
        return int(r)
    return int(math.ceil(x))


def sample_conditioned(K: int, gamma: float, seed: int) -> BitGraph:
    """Uniform K-vertex graph with exactly ceil(gamma*C(K,2)) edges."""
    if K < 1 or not 0 <= gamma <= 1:
        raise ParameterError(f"need K >= 1 and gamma in [0,1], got K={K} gamma={gamma}")
    npairs = math.comb(K, 2)
    m = _edge_target(K, gamma)
    rng = rng_from_seed(seed)
    picks = rng.permutation(npairs)[:m]
    il, jl = np.tril_indices(K, -1)
    return BitGraph.from_edges(K, [(int(il[p]), int(jl[p])) for p in picks])


@dataclass(frozen=True)
class FlatnessReport:
    K: int
    gamma: float
    delta: float
    is_flat: bool
    violations: tuple  # of (ell, members-tuple, excess)
    checked: str  # "Exhaustive" | "Sampled(<count>)"
    edge_count_mismatch: tuple | None = None  # (actual, required) when |E| is off


def _popcount_array(x: np.ndarray) -> np.ndarray:
    return np.bitwise_count(x)


def _thresholds(K: int, gamma: float, delta: float) -> np.ndarray:
    """Per-size ceilings for 2 <= ell <= K-1; +inf outside that range."""
    thr = np.full(K + 1, np.inf)
    for ell in range(2, K):
        thr[ell] = math.ceil(gamma * math.comb(ell, 2)) + subset_slack(K, ell, delta, gamma)
    return thr


def _check_exhaustive(g: BitGraph, gamma: float, delta: float):
    K = g.n
    if K > EXHAUSTIVE_LIMIT:
        raise ParameterError(f"exhaustive mode limited to K <= {EXHAUSTIVE_LIMIT}, got {K}")
    thr = _thresholds(K, gamma, delta)
    masks = np.arange(1 << K, dtype=np.int64)
    sizes = _popcount_array(masks).astype(np.int16)
    edges = np.zeros(1 << K, dtype=np.int32)
    for v in range(K):  # masks with top vertex v: v's edges into the rest, plus the rest
        low = masks[: 1 << v]
        edges[1 << v : 2 << v] = edges[: 1 << v] + _popcount_array(low & g.rows[v])
    bad = np.nonzero(edges > thr[sizes])[0]
    out = []
    for mask in bad:
        ell = int(sizes[mask])
        out.append((ell, mask_to_members(int(mask)), float(edges[mask] - thr[ell])))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _check_sampled(g: BitGraph, gamma: float, delta: float, samples: int, seed: int):
    """Uniform ell-subsets plus greedy densest witnesses on a coarse ell grid;
    uniform draws almost never land on a violation, the greedy witnesses do."""
    K = g.n
    thr = _thresholds(K, gamma, delta)
    rng = rng_from_seed(seed, stream=1)
    found = {}
    adj = g.dense.astype(np.float64)  # BLAS product; counts stay exact integers

    def check(ell, picks):  # one ell-subset per row of picks
        x = np.zeros((len(picks), K))
        np.put_along_axis(x, picks, 1, axis=1)
        edges = ((x @ adj) * x).sum(axis=1) // 2
        for i in np.flatnonzero(edges > thr[ell]):
            found.setdefault((ell, tuple(sorted(picks[i].tolist()))), float(edges[i] - thr[ell]))

    for ell in range(2, K):
        draws = [rng.permutation(K)[:ell] for _ in range(samples)]
        check(ell, np.array(draws, dtype=np.intp).reshape(samples, ell))
    step = max(1, K // 10)
    for ell in range(2, K, step):
        res = landscape.local_search_densest(g, ell, restarts=2, seed=seed)
        check(ell, np.array([res.witness.members]))
    out = [(ell, mem, exc) for (ell, mem), exc in found.items()]
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def is_flat(g: BitGraph, gamma: float, delta: float, mode: str = "exhaustive",
            samples: int = 100, seed: int = 0) -> FlatnessReport:
    """Check the flatness of a K-vertex graph.

    Exhaustive mode enumerates all 2^K subsets (K <= 22) and finds every
    violation; sampled mode only certifies "no violation found".  An edge
    count differing from ceil(gamma*C(K,2)) is reported as its own failure
    reason rather than as a subset violation."""
    K = g.n
    required = _edge_target(K, gamma)
    actual = g.edge_total()
    mismatch = None if actual == required else (actual, required)
    if mode == "exhaustive":
        violations = _check_exhaustive(g, gamma, delta)
        checked = "Exhaustive"
    elif mode == "sampled":
        violations = _check_sampled(g, gamma, delta, samples, seed)
        checked = f"Sampled({samples})"
    else:
        raise ParameterError(f"mode must be 'exhaustive' or 'sampled', got {mode!r}")
    return FlatnessReport(
        K=K, gamma=gamma, delta=delta,
        is_flat=mismatch is None and not violations,
        violations=tuple(violations), checked=checked,
        edge_count_mismatch=mismatch,
    )
