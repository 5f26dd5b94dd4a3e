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
from .model import BitGraph, _pair_graph, check_ints, mask_to_members, rng_from_seed
from . import landscape

EXHAUSTIVE_LIMIT = 22  # 2^K masks; beyond this only sampled mode runs
_BLOCK = 1 << 12  # sampled subsets drawn and counted at a time; bounds their memory


def subset_slack(K: int, ell: int, delta: float, gamma: float) -> float:
    """Allowed excess over ceil(gamma*C(ell,2)) for an ell-subset of a flat
    K-vertex graph:

        sqrt( 2 gamma c * min(C(K,2)-C(ell,2), C(ell,2))
                        * (ln C(K,ell) + 2 ln K) ),

    with c = 2+delta for ell < 2K/3 and c = 1+delta above.

    gamma may sit on the [0,1] boundary: the formula stays defined there and
    the boundary graphs (empty, complete) are the trivially flat cases."""
    check_ints(K=K, ell=ell)
    if not 0 <= ell <= K:
        raise DomainError(f"need 0 <= ell <= K, got ell={ell} K={K}")
    _check_gamma_delta(gamma, delta)
    coeff = 2 * gamma * ((2 + delta) if 3 * ell < 2 * K else (1 + delta))
    lead = min(math.comb(K, 2) - math.comb(ell, 2), math.comb(ell, 2))
    logs = math.lgamma(K + 1) - math.lgamma(ell + 1) - math.lgamma(K - ell + 1) + 2 * math.log(K)
    return math.sqrt(coeff * lead * logs)


def _check_gamma_delta(gamma: float, delta: float) -> None:
    if not (0 <= gamma <= 1 and 0 < delta < 1):
        raise DomainError(f"need gamma in [0,1], delta in (0,1), got {gamma}, {delta}")


def sample_conditioned(K: int, gamma: float, seed: int) -> BitGraph:
    """Uniform K-vertex graph with exactly ceil(gamma*C(K,2)) edges."""
    check_ints(K=K)
    if K < 1 or not 0 <= gamma <= 1:
        raise ParameterError(f"need K >= 1 and gamma in [0,1], got K={K} gamma={gamma}")
    npairs = math.comb(K, 2)
    m = landscape._ceil_threshold(gamma * npairs)
    rng = rng_from_seed(seed)
    bits = np.zeros(npairs, dtype=bool)
    bits[rng.permutation(npairs)[:m]] = True  # pair (i, j), j < i, at flat index C(i,2)+j
    return _pair_graph(np.packbits(bits, bitorder="little").tobytes(), K)


@dataclass(frozen=True)
class FlatnessReport:
    K: int
    gamma: float
    delta: float
    is_flat: bool
    violations: tuple  # of (ell, members-tuple, excess)
    checked: str  # "Exhaustive" | "Sampled(<count>)"
    edge_count_mismatch: tuple | None = None  # (actual, required) when |E| is off


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
    # a count exceeds thr iff it reaches floor(thr) + 1; +inf maps to 255, above C(22,2) = 231
    lim = np.minimum(np.floor(thr) + 1, 255).astype(np.uint8)
    sizes = np.zeros(1 << K, dtype=np.uint8)
    edges = np.zeros(1 << K, dtype=np.uint8)
    out = []
    for v in range(K):  # masks with top vertex v: the lower block plus v and its edges into it
        size, top = sizes[1 << v : 2 << v], edges[1 << v : 2 << v]
        np.add(sizes[: 1 << v], 1, out=size)
        top[:] = edges[: 1 << v]
        for b in mask_to_members(g.rows[v] & ((1 << v) - 1)):
            top.reshape(-1, 2, 1 << b)[:, 1] += 1  # the masks in this block that hold b
        for i in np.flatnonzero(top >= lim[size]):
            out.append((int(size[i]), mask_to_members(int(i) | 1 << v), float(top[i] - thr[size[i]])))
    out.sort(key=lambda t: (t[0], t[1]))
    return out


def _check_sampled(g: BitGraph, gamma: float, delta: float, samples: int, seed: int):
    """Uniform ell-subsets plus greedy densest witnesses on a coarse ell grid;
    uniform draws almost never land on a violation, the greedy witnesses do."""
    check_ints(samples=samples)
    if samples < 0:
        raise ParameterError(f"samples must be >= 0, got {samples}")
    K = g.n
    thr = _thresholds(K, gamma, delta)
    rng = rng_from_seed(seed, stream=1)
    found = {}

    def check(ell, picks):  # one ell-subset per row of picks
        edges = landscape.induced_edges(g, picks)
        for i in np.flatnonzero(edges > thr[ell]):
            found.setdefault((ell, tuple(sorted(picks[i].tolist()))), float(edges[i] - thr[ell]))

    for ell in range(2, K):  # the draws of one rng.permutation(K) per sample, block by block
        for lo in range(0, samples, _BLOCK):
            rows = min(_BLOCK, samples - lo)
            check(ell, rng.permuted(np.tile(np.arange(K), (rows, 1)), axis=1)[:, :ell])
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
    _check_gamma_delta(gamma, delta)
    K = g.n
    required = landscape._ceil_threshold(gamma * math.comb(K, 2))
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
