"""Reversible nearest-neighbor dynamics on kbar-subsets under the Gibbs law
pi_beta(S) ~ exp(beta |E[S]|).

The chain is Metropolis with uniform swap proposals (one vertex out, one
in), the simplest member of the reversible nearest-neighbor family on the
Hamming-distance-2 graph of subsets.  Desk-scale instances additionally get
the exact stationary distribution by enumeration, which is what the well
ratios and conditional initial laws are checked against.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, permutations

import numpy as np

from .errors import BudgetError, ParameterError
from .model import BitGraph, ModelParams, VertexSubset, edge_count, mask_to_members, rng_from_seed
from .landscape import SUBSET_BUDGET, kbar_subsets
from .numerics import log_placements

_BLOCK = 1 << 15
_SLICE = 1 << 12  # draws turned into Python lists at a time; bounds their memory


@dataclass(frozen=True)
class WellPartition:
    """Overlap bands: A0 = [0, a0_max], A1 = [a1_min, a1_max],
    A2 = [a2_min, k].  Derived from the well constants d1 < d2 in units of
    sqrt(kbar / ln(n/kbar)); a2 starts at floor(k/2)."""

    a0_max: int
    a1_min: int
    a1_max: int
    a2_min: int

    @classmethod
    def from_params(cls, n: int, k: int, kbar: int, d1: float, d2: float) -> "WellPartition":
        _check_wells(d1, d2)
        if kbar >= n:
            raise ParameterError("well scale needs kbar < n")
        s = math.sqrt(kbar / math.log(n / kbar))
        return cls(a0_max=math.floor(d1 * s), a1_min=math.ceil(d1 * s),
                   a1_max=math.ceil(d2 * s), a2_min=k // 2)

    @property
    def valid(self) -> bool:
        return self.a0_max < self.a1_max < self.a2_min


@dataclass(frozen=True)
class MCMCConfig:
    beta: float
    kbar: int
    t_max: int
    seed: int
    d1: float = 0.25
    d2: float = 1.0
    stride: int = 1

    def __post_init__(self):
        _check_beta(self.beta)
        for name in ("kbar", "t_max", "stride"):
            if type(getattr(self, name)) is not int:  # no float, bool or numpy int
                raise ParameterError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.kbar < 1 or self.t_max < 0 or self.stride < 1:
            raise ParameterError("need kbar >= 1, t_max >= 0, stride >= 1")
        _check_wells(self.d1, self.d2)


def _check_beta(beta: float) -> None:
    if not 0 <= beta < math.inf:
        raise ParameterError(f"beta must be finite and >= 0, got {beta}")


def _check_wells(d1: float, d2: float) -> None:
    if not 0 < d1 < d2 < math.inf:
        raise ParameterError(f"need 0 < d1 < d2 < inf, got {d1}, {d2}")


def beta_scale_threshold(n: int, kbar: int) -> float:
    """(ln(n/kbar))^{3/2}: the slow-mixing statements assume beta grows
    beyond this scale.  Advisory only, never enforced."""
    if not 0 < kbar < n:
        raise ParameterError(f"need 0 < kbar < n, got kbar={kbar} n={n}")
    return math.log(n / kbar) ** 1.5


@dataclass
class ChainTrace:
    """(t, overlap, edges) samples at the configured stride, plus the
    hitting record.  hit_time is None when the run timed out (a legitimate,
    censored outcome)."""

    times: list
    overlaps: list
    edges: list
    hit_time: int | None
    final_state: VertexSubset
    t_max: int
    visits: dict | None = field(default=None, repr=False)


def gibbs_log_weight(g: BitGraph, s: VertexSubset, beta: float,
                     kbar: int | None = None) -> float:
    """ln pi_beta(s) + ln Z = beta * |E[s]|; the partition function is never
    touched here."""
    if kbar is not None and s.size != kbar:
        raise ParameterError(f"subset size {s.size} != kbar {kbar}")
    return beta * edge_count(g, s)


def acceptance(beta: float, kbar: int) -> dict:
    """min(1, exp(beta * d)) per swap delta |d| <= kbar, with no exp overflow."""
    return {d: math.exp(min(0.0, beta * d)) for d in range(-kbar, kbar + 1)}


def run_chain(g: BitGraph, cfg: MCMCConfig, init: VertexSubset,
              max_overlap: int | None = None, stop_above: int | None = None,
              count_visits: bool = False) -> ChainTrace:
    """Run the chain for t_max steps (or until overlap exceeds stop_above).

    Each step proposes a uniform (u in, v out) swap and accepts it with
    probability min(1, exp(beta * delta_edges)).  With max_overlap set, a
    proposal that would raise the overlap above it is a self-loop (the
    reflected chain, reversible for pi_beta conditioned on
    overlap <= max_overlap); init must lie in that band.  stop_above turns
    the run into a hitting-time measurement; count_visits counts the steps
    t >= 1 that end at each mask, keyed in first-visit order.  Philox(seed)
    draws the u and v indices of a block of up to 2^15 steps whole, then
    its uniforms a slice at a time (64 steps, growing 4x up to 4096): a
    uniform takes one 64-bit word, so the stream is that of one draw per
    block and a run that stops early draws no more.  Identical configs
    give bit-identical traces regardless of stride or stopping."""
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
    edges = edge_count(g, init)  # checks every member is a vertex
    ov = (mask & pmask).bit_count()
    if max_overlap is not None and ov > max_overlap:
        raise ParameterError(f"init overlap {ov} already above max_overlap {max_overlap}")

    # acc[d] for d in -kbar..kbar (a negative d wraps); acc[d] = 1.0 > r for d >= 0
    table = acceptance(cfg.beta, kbar)
    acc = [table[d] for d in range(kbar + 1)] + [table[d] for d in range(-kbar, 0)]
    bit = [1 << v for v in range(n)]
    planted = [pmask >> v & 1 for v in range(n)]

    overlaps_rec, edges_rec = [ov], [edges]
    visits: dict | None = {} if count_visits else None
    hit_time = None
    stride, t_max = cfg.stride, cfg.t_max
    # overlaps never exceed n, so n stands for "no roof" and "never stop"
    roof = n if max_overlap is None else max_overlap
    stop = n if stop_above is None else stop_above
    # stride 1 records inline, every step; a longer stride records on the
    # accepts, the samples due since the last one all holding the state left
    every = stride == 1
    nxt = t_max + 1 if every else stride  # next sample time not yet recorded
    entered = 1  # first step after which the chain sat at mask
    # a start above stop is a hit at step 1 unless that step moves it back
    # down, so it is run as a slice of its own and tested after it
    size = 1 if ov > stop else 64
    t = 0
    while t < t_max and hit_time is None:
        block = min(_BLOCK, t_max - t)
        ui = rng.integers(0, kbar, size=block)
        vi = rng.integers(0, n - kbar, size=block)
        lo = 0
        while lo < block:
            hi = min(lo + size, block)
            size = min(4 * size, _SLICE)
            for t, a, b, r in zip(range(t + 1, t + 1 + hi - lo), ui[lo:hi].tolist(),
                                  vi[lo:hi].tolist(), rng.random(hi - lo).tolist()):
                u = in_list[a]
                v = out_list[b]
                m2 = mask ^ bit[u]
                d = (rows[v] & m2).bit_count() - (rows[u] & mask).bit_count()
                if r < acc[d]:
                    new_ov = ov - planted[u] + planted[v]
                    if new_ov <= roof:
                        if nxt < t:  # samples due before t hold the state being left
                            k = (t - 1 - nxt) // stride + 1
                            overlaps_rec += [ov] * k
                            edges_rec += [edges] * k
                            nxt += k * stride
                        if visits is not None and t > entered:
                            visits[mask] = visits.get(mask, 0) + t - entered
                        entered = t
                        mask = m2 | bit[v]
                        in_list[a] = v
                        out_list[b] = u
                        edges += d
                        ov = new_ov
                        if ov > stop:
                            break
                if every:
                    overlaps_rec.append(ov)
                    edges_rec.append(edges)
            if ov > stop:
                hit_time = t
                break
            lo = hi
    k = t // stride + 1 - len(overlaps_rec)  # samples due up to t, all at the final state
    overlaps_rec += [ov] * k
    edges_rec += [edges] * k
    times = list(range(0, t + 1, stride))
    if hit_time is not None and t % stride:
        times.append(t)
        overlaps_rec.append(ov)
        edges_rec.append(edges)
    if visits is not None and t >= entered:
        visits[mask] = visits.get(mask, 0) + t + 1 - entered
    return ChainTrace(times=times, overlaps=overlaps_rec, edges=edges_rec,
                      hit_time=hit_time, final_state=VertexSubset.from_iterable(in_list),
                      t_max=cfg.t_max, visits=visits)


# --- exact stationary law ----------------------------------------------------


def _log_sum_exp(w: np.ndarray) -> float:
    """ln sum(exp(w)), shifted by max(w) so no term overflows."""
    m = float(w.max())
    return m + math.log(float(np.exp(w - m).sum()))


def _normalized(w: np.ndarray) -> np.ndarray:
    """exp(w) / sum(exp(w)), shifted by max(w): exp(w - log_z) drifts from 1
    in sum at huge beta, this does not."""
    p = np.exp(w - w.max())
    return p / p.sum()


@dataclass
class ExactGibbs:
    """pi_beta by full enumeration of the C(n, kbar) subsets."""

    params: ModelParams
    beta: float
    masks: list
    log_weights: np.ndarray
    overlaps: np.ndarray
    log_z: float

    @functools.cached_property
    def _index(self) -> dict:
        return {m: i for i, m in enumerate(self.masks)}

    @functools.cached_property
    def _probs(self) -> np.ndarray:
        return _normalized(self.log_weights)

    def probs(self) -> np.ndarray:
        return self._probs.copy()

    def prob_of(self, mask: int) -> float:
        i = self._index.get(mask)
        if i is None:
            raise ParameterError(f"mask {mask!r} is not a {self.params.kbar}-subset "
                                 f"of the {self.params.n} vertices")
        return float(self._probs[i])

    def overlap_marginal(self) -> np.ndarray:
        """Probability mass per overlap value, indexed 0..k."""
        p = self.probs()  # an overlap no subset has sums to 0.0
        return np.array([p[self.overlaps == z].sum() for z in range(self.params.k + 1)])

    def log_band_mass(self, z_lo: int, z_hi: int) -> float:
        """ln pi(overlap in [z_lo, z_hi]); -inf for an empty band."""
        sel = (self.overlaps >= z_lo) & (self.overlaps <= z_hi)
        if not sel.any():
            return -math.inf
        return _log_sum_exp(self.log_weights[sel]) - self.log_z

    def well_log_ratio(self, part: WellPartition) -> float:
        """ln( min(pi(A0), pi(A2)) / pi(A1) ); +inf when A1 carries no mass."""
        k = self.params.k
        a0 = self.log_band_mass(0, part.a0_max)
        a1 = self.log_band_mass(part.a1_min, part.a1_max)
        a2 = self.log_band_mass(part.a2_min, k)
        if a1 == -math.inf:
            return math.inf
        return min(a0, a2) - a1

    def sample(self, rng: np.random.Generator, size: int = 1,
               max_overlap: int | None = None) -> list:
        """Masks drawn from pi_beta, optionally conditioned on
        overlap <= max_overlap."""
        if max_overlap is not None:
            sel = np.nonzero(self.overlaps <= max_overlap)[0]
            if sel.size == 0:
                raise ParameterError(f"no subsets with overlap <= {max_overlap}")
        else:
            sel = np.arange(len(self.masks))
        picks = rng.choice(sel.size, size=size, p=_normalized(self.log_weights[sel]))
        return [self.masks[sel[i]] for i in picks]


def exact_gibbs(g: BitGraph, kbar: int, beta: float,
                budget: int = SUBSET_BUDGET) -> ExactGibbs:
    """Exact Gibbs distribution by enumerating every kbar-subset (explicit
    budget on C(n, kbar)); probabilities sum to 1 up to float roundoff."""
    p = ModelParams(g.n, g.k, kbar)
    _check_beta(beta)
    if not math.isfinite(beta * math.comb(kbar, 2)):  # else weights - max is inf - inf
        raise ParameterError(f"beta * C(kbar, 2) overflows: beta={beta}, kbar={kbar}")
    masks, edges, overlaps = kbar_subsets(g, kbar, budget)
    weights = float(beta) * edges
    return ExactGibbs(params=p, beta=beta, masks=masks, log_weights=weights,
                      overlaps=overlaps, log_z=_log_sum_exp(weights))


def free_energy_well_ratio(g: BitGraph, kbar: int, beta: float,
                           part: WellPartition, budget: int = SUBSET_BUDGET) -> float:
    """ln( min(pi(A0), pi(A2)) / pi(A1) ) from the exact Gibbs law."""
    return exact_gibbs(g, kbar, beta, budget).well_log_ratio(part)


def well_ratio_lower_bound(p: ModelParams, beta: float, part: WellPartition,
                           d_values: dict) -> float:
    """Certified lower bound on the well log-ratio from per-overlap maximal
    edge counts d_values[z] alone: the best single subset of A0/A2 against a
    union bound over A1 (subset counts times their maximal weight)."""
    lo = [beta * d_values[z] for z in d_values if z <= part.a0_max]
    hi = [beta * d_values[z] for z in d_values if z >= part.a2_min]
    mid = [log_placements(p, z) + beta * d_values[z]
           for z in d_values if part.a1_min <= z <= part.a1_max]
    if not mid:
        return math.inf
    if not lo or not hi:
        return -math.inf
    m = max(mid)
    mid_mass = m + math.log(sum(math.exp(x - m) for x in mid))
    return min(max(lo), max(hi)) - mid_mass


def conditional_init(g: BitGraph, kbar: int, beta: float, part: WellPartition,
                     seed: int, budget: int = SUBSET_BUDGET, return_info: bool = False):
    """Sample a start state from pi_beta conditioned on overlap <= a1_max.

    Exact conditional sampling whenever enumeration fits the budget;
    otherwise a reflected-chain burn-in of 200 * n steps from a uniform
    low-overlap subset (its length reported via return_info)."""
    rng = rng_from_seed(seed, stream=7)
    try:
        eg = exact_gibbs(g, kbar, beta, budget)
        mask = eg.sample(rng, size=1, max_overlap=part.a1_max)[0]
        out = VertexSubset(mask_to_members(mask))
        info = {"mode": "exact", "burn_in": 0}
        return (out, info) if return_info else out
    except BudgetError:
        pass
    non_planted = g.non_planted
    base = min(kbar, len(non_planted))
    members = [non_planted[i] for i in rng.permutation(len(non_planted))[:base]]
    if base < kbar:  # forced planted vertices; stay under the band roof
        need = kbar - base
        if need > part.a1_max:
            raise ParameterError("band cannot hold any kbar-subset")
        members += list(g.planted[:need])
    steps = 200 * g.n
    cfg = MCMCConfig(beta=beta, kbar=kbar, t_max=steps, seed=seed ^ 0x5EED, stride=steps)
    trace = run_chain(g, cfg, VertexSubset.from_iterable(members),
                      max_overlap=part.a1_max)
    info = {"mode": "burnin", "burn_in": steps}
    return (trace.final_state, info) if return_info else trace.final_state


def hitting_time(g: BitGraph, cfg: MCMCConfig, budget: int = SUBSET_BUDGET) -> ChainTrace:
    """Escape time of the low-overlap region: start from the conditional law
    on overlap <= a1_max, run the unrestricted chain until the overlap
    exceeds a1_max or t_max runs out (hit_time None on timeout)."""
    part = WellPartition.from_params(g.n, g.k, cfg.kbar, cfg.d1, cfg.d2)
    init = conditional_init(g, cfg.kbar, cfg.beta, part, seed=cfg.seed, budget=budget)
    return run_chain(g, cfg, init, stop_above=part.a1_max)


def transition_matrix(g: BitGraph, kbar: int, beta: float,
                      part: WellPartition | None = None,
                      budget: int = 4096) -> tuple[np.ndarray, list]:
    """Explicit Metropolis transition matrix over all kbar-subsets (desk
    scale only).  With `part`, rows outside the band are dropped and
    band-leaving proposals become self-loops (the reflected chain).  The
    dense matrix takes 8 S^2 bytes for S states: 134 MB at the default
    budget.  States one swap apart are those sharing a (kbar-1)-core."""
    ModelParams(g.n, g.k, kbar)  # validates k <= kbar <= n
    if kbar >= g.n:
        raise ParameterError("no swap neighbors when kbar = n")
    states, edges, ov = kbar_subsets(g, kbar, budget)
    if part is not None:  # the reflected chain keeps only band states
        keep = ov <= part.a1_max
        states, edges = list(compress(states, keep)), edges[keep]
    cores = defaultdict(list)
    for i, mask in enumerate(states):
        for u in mask_to_members(mask):
            cores[mask ^ 1 << u].append(i)
    prop = 1.0 / (kbar * (g.n - kbar))
    acc = acceptance(beta, kbar)
    e = edges.tolist()
    t = np.zeros((len(states), len(states)))
    for group in cores.values():
        for i, j in permutations(group, 2):
            t[i, j] = prop * acc[e[j] - e[i]]
    t[np.diag_indices_from(t)] = 1.0 - t.sum(axis=1)  # rejected and band-leaving mass
    return t, states
