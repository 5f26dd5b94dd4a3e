"""The four benchmark workloads: inputs from a seed, one op, its digest and
its output check.

Inputs are plain parameters made by the benchmark from the workload seed
(``random.Random`` per op), never by library calls, so set-up time is import
plus parameter generation only.  An op returns what the library returned;
after the timed pass ``values`` turns that into plain Python values, which
the digest hashes and the oracle checks.

Only the public API is called: no ``threads=``, no ``chain_step`` or
``reflected_step``, no private helpers and no ``BitGraph`` fields.  Graph
adjacency for the oracles comes from ``has_edge``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

SEED_STRIDE = 1_000_003  # op i of run seed s has op seed s * SEED_STRIDE + i
PROLOGUE_OFFSET = 900_000
LN2 = math.log(2.0)


def op_seed(run_seed: int, index: int) -> int:
    return run_seed * SEED_STRIDE + index


def digest(value) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --- oracle helpers ------------------------------------------------------------


def adjacency(g) -> list[int]:
    """Adjacency bitmasks built through the public has_edge method."""
    adj = [0] * g.n
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.has_edge(u, v):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def edges_in(adj, members) -> int:
    mask = 0
    for v in members:
        mask |= 1 << v
    return sum((adj[v] & mask).bit_count() for v in members) // 2


def brute_overlap_curve(adj, planted, kbar):
    """Exact best edge count per overlap over all kbar-subsets."""
    pmask = 0
    for v in planted:
        pmask |= 1 << v
    best = {}
    subsets = []
    for combo in itertools.combinations(range(len(adj)), kbar):
        e = edges_in(adj, combo)
        z = sum(pmask >> v & 1 for v in combo)
        subsets.append((z, e))
        if e > best.get(z, -1):
            best[z] = e
    return best, subsets


def overlap_window(n, k, kbar):
    return max(kbar * k // n, kbar - (n - k)), min(k, kbar)


def has_dip(values) -> bool:
    """True when an interior value sits strictly below both endpoints."""
    cut = min(values[0], values[-1])
    return len(values) >= 3 and any(v < cut for v in values[1:-1])


def ref_log_binomial(n: int, k: int) -> float:
    """ln C(n, k) from 40-digit log-gamma (imported here, not at set-up)."""
    import mpmath

    with mpmath.workdps(40):
        return float(mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1) - mpmath.loggamma(n - k + 1))


def ref_entropy_inv(y: float) -> float:
    """Root of h(x) = y on [1/2, 1] by Newton's method from the right.

    h is concave and decreasing there, and 1/2 + sqrt((ln2 - y)/2) lies at
    or right of the root, so the iterates decrease monotonically onto it."""
    if y >= LN2:
        return 0.5
    if y <= 0.0:
        return 1.0
    x = min(0.5 + math.sqrt((LN2 - y) / 2.0), 1.0 - 1e-16)
    for _ in range(200):
        h = -x * math.log(x) - (1.0 - x) * math.log(1.0 - x)
        step = (h - y) / math.log((1.0 - x) / x)
        x -= step
        if abs(step) <= 1e-16:
            break
    return x


def ref_curve_value(kind: str, n: int, k: int, kbar: int, z: int) -> float:
    """Independent evaluation of one curve point from its documented formula."""
    a = ref_log_binomial(k, z) + ref_log_binomial(n - k, kbar - z)
    cz = z * (z - 1) // 2
    ck = kbar * (kbar - 1) // 2
    m = ck - cz
    if kind == "gamma":
        if z == kbar:
            return float(cz)
        return cz + ref_entropy_inv(max(LN2 - a / m, 0.0)) * m
    if kind == "gamma-tilde":
        return 0.5 * (ck + cz) + math.sqrt(m * a / 2.0)
    if kind == "gamma-tilde-renorm":
        return (0.5 * cz + math.sqrt(m * a / 2.0)) / kbar**1.5
    return 0.5 * (ck + cz) + math.sqrt(a * m / 2.0) - math.sqrt(a**3 / m) / (6.0 * math.sqrt(2.0))


def ref_params_label(n: int, k: int, kbar: int) -> str:
    if k * k == n:
        return "Indeterminate"
    s = math.sqrt(kbar / math.log(n / kbar))
    t = s * math.log(s * n / (kbar * k))
    if t <= kbar * k / n:
        return "Increasing"
    if t >= k:
        return "Decreasing"
    return "NonMonotonic"


def close(a: float, b: float, rel: float = 1e-11) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


class Workload:
    """A workload is a sequence of passes; pass j runs an optional prologue
    and then `pass_size` ops, each made from its own op seed."""

    name = ""
    pass_size = 1

    def pass_inputs(self, run_seed, j):
        first = j * self.pass_size
        return [self.inputs(op_seed(run_seed, first + i), i) for i in range(self.pass_size)]

    def begin_pass(self, root, j, in_process):
        return {}

    def end_pass(self, ctx):
        pass

    def prologue(self, P, seed):
        """Timed work that opens each pass; a workload that returns something
        here also defines prologue_values and prologue_check."""
        return None


# --- paper_curves ----------------------------------------------------------------

PAPER_N = 10**7
KINDS = ("gamma", "gamma-tilde", "gamma-tilde-renorm", "phi")
PHASE_LABELS = {"NonMonotonic": "OGP", "Decreasing": "Uninformative-NoOGP",
                "Increasing": "Informative-NoOGP", "Indeterminate": "Indeterminate"}


def curve_window(k, kbar, kind, long_sum):
    """z window of one curve: the default [floor(kbar*k/n), k], except that
    the expansion stops at k-1 when k = kbar (undefined at zero quadratic
    gap) and, at the long-direct-sum kbar, the three approximations take
    the first quarter so that regime does not swamp the op."""
    lo = overlap_window(PAPER_N, k, kbar)[0]
    if kind == "phi" and kbar == k:
        return lo, k - 1
    if long_sum and kind != "gamma":
        return lo, lo + k // 4
    return lo, k


class PaperCurves(Workload):
    """One op: a seeded k at n = 1e7, all four curve kinds plus both
    classifiers at one kbar in each log_binomial regime (kbar = k short sum,
    11k..14k long direct sum, > 2^18 log-gamma), and a 6x6 phase diagram.
    All work is in numerics; no graph is touched."""

    name = "paper_curves"
    pass_size = 10

    def inputs(self, seed, i):
        # op i of a pass draws each size from its own tenth of the range, so
        # every pass carries about the same work whatever the seed
        r = random.Random(seed)
        k = 300 + 40 * i + r.randint(0, 40)
        return {"k": k,
                "kbars": [k, 11_000 + 300 * (3 * i % 10) + r.randint(0, 300),
                          300_000 + 70_000 * (7 * i % 10) + r.randint(0, 70_000)],
                "k_grid": sorted(r.sample(range(100, 5_000), 6)),
                "kbar_grid": sorted(r.sample(range(100, 5_000_000), 6))}

    def run(self, P, inp, ctx):
        k = inp["k"]
        per_kbar = []
        for i, kbar in enumerate(inp["kbars"]):
            p = P.ModelParams(PAPER_N, k, kbar)
            curves = {kind: P.curve_grid(p, kind, *curve_window(k, kbar, kind, i == 1))
                      for kind in KINDS}
            per_kbar.append((kbar, curves, P.classify_curve(curves["gamma"]), P.classify_params(p)))
        return per_kbar, P.phase_diagram(PAPER_N, inp["k_grid"], inp["kbar_grid"])

    def values(self, inp, raw, ctx):
        per_kbar, phase = raw
        entries = []
        for kbar, curves, cls, cls_p in per_kbar:
            entries.append({
                "kbar": kbar,
                "curves": {kind: [c.kind, c.z_lo, c.z_hi, c.scale, [pt.value for pt in c.points]]
                           for kind, c in curves.items()},
                "classify_curve": [cls.label, cls.u1, cls.u2, cls.u1_scaled, cls.u2_scaled, cls.depth],
                "classify_params": cls_p.label,
            })
        return {"curves": entries, "phase": [list(row) for row in phase]}

    def check(self, inp, out, rng, ctx):
        errs = []
        k = inp["k"]
        for i, entry in enumerate(out["curves"]):
            kbar = entry["kbar"]
            for kind in KINDS:
                _, z_lo, z_hi, _, vals = entry["curves"][kind]
                lo, hi = curve_window(k, kbar, kind, i == 1)
                if (z_lo, z_hi, len(vals)) != (lo, hi, hi - lo + 1):
                    errs.append(f"{kind} kbar={kbar}: window [{z_lo},{z_hi}] x{len(vals)}")
                    continue
                for z in (z_lo, rng.randint(z_lo, z_hi), z_hi):
                    ref = ref_curve_value(kind, PAPER_N, k, kbar, z)
                    if not close(vals[z - z_lo], ref):
                        errs.append(f"{kind} kbar={kbar} z={z}: {vals[z - z_lo]!r} != {ref!r}")
            label = ref_params_label(PAPER_N, k, kbar)
            if entry["classify_params"] != label:
                errs.append(f"classify_params kbar={kbar}: {entry['classify_params']} != {label}")
            want = ref_curve_label(PAPER_N, k, kbar, entry["curves"]["gamma"])
            if entry["classify_curve"][0] != want:
                errs.append(f"classify_curve kbar={kbar}: {entry['classify_curve'][0]} != {want}")
        cells = [[kk, kb, "BelowDiagonal" if kb < kk else PHASE_LABELS[ref_params_label(PAPER_N, kk, kb)]]
                 for kk in inp["k_grid"] for kb in inp["kbar_grid"]]
        if out["phase"] != cells:
            errs.append("phase diagram labels differ from the trend rule")
        return errs


def ref_curve_label(n, k, kbar, stored, c0=8.0, epsilon=0.1):
    """Successive-difference verdict on the classifier window (documented rule)."""
    _, z_lo, _, scale, vals = stored
    lo, hi = int(c0 * kbar * k / n), int((1.0 - epsilon) * k)
    if lo > hi - 2:
        lo = overlap_window(n, k, kbar)[0]
    w = vals[lo - z_lo: hi - z_lo + 1]
    tol = 1e-6 * kbar * scale
    diffs = [b - a for a, b in zip(w, w[1:])]
    up, down = any(d > tol for d in diffs), any(d < -tol for d in diffs)
    if up != down:
        return "Increasing" if up else "Decreasing"
    if not up:
        return "Indeterminate"
    return "NonMonotonic" if min(w[0], w[-1]) - min(w) > tol else "Indeterminate"


# --- desk_exact -------------------------------------------------------------------


def members(subset):
    return None if subset is None else list(subset.members)


def certificate_errors(adj, planted, kbar, cert, expect_holds):
    """Criterion-9 re-verification of a certificate over every kbar-subset."""
    best, subsets = brute_overlap_curve(adj, planted, kbar)
    lo, hi = overlap_window(len(adj), len(planted), kbar)
    if expect_holds is None:
        expect_holds = has_dip([best[z] for z in range(lo, hi + 1)])
    holds, zeta1, zeta2, r_n, low, high = cert
    if holds != expect_holds:
        return [f"certificate holds={holds}, exact curve says {expect_holds}"]
    if not holds:
        return []
    pset = set(planted)
    errs = []
    if not lo <= zeta1 < zeta2 <= hi:
        errs.append(f"thresholds {zeta1}, {zeta2} outside [{lo}, {hi}]")
    for wit, ok in ((low, lambda z: z <= zeta1), (high, lambda z: z >= zeta2)):
        if wit is None or len(wit) != kbar or not ok(len(pset & set(wit))) or edges_in(adj, wit) < r_n:
            errs.append(f"witness {wit} does not reach r_n={r_n} on its side")
    if any(zeta1 < z < zeta2 and e >= r_n for z, e in subsets):
        errs.append(f"a subset inside ({zeta1}, {zeta2}) reaches r_n={r_n}")
    return errs


class DeskExact(Workload):
    """One op: sample_planted(14,4) + auto_certify(kbar=5) (exhaustive
    overlap curve), a local-search overlap curve on the same instance,
    densest_subgraph K=10 on sample_planted(50,1), exhaustive is_flat at
    K=18 and sampled is_flat at K = 38..42 (op i of a pass takes 38 + i % 5)."""

    name = "desk_exact"
    pass_size = 10

    def inputs(self, seed, i):
        return {"seed": seed, "K_sampled": 38 + i % 5}

    def run(self, P, inp, ctx):
        s = inp["seed"]
        g = P.sample_planted(14, 4, s)
        cert = P.auto_certify(g, 5)
        local = P.overlap_curve(g, 5, method="local", seed=s)
        g50 = P.sample_planted(50, 1, s)
        dense = P.densest_subgraph(g50, 10)
        f18 = P.sample_conditioned(18, 0.6, s)
        r18 = P.is_flat(f18, 0.6, 0.2)
        fk = P.sample_conditioned(inp["K_sampled"], 0.6, s)
        rk = P.is_flat(fk, 0.6, 0.2, mode="sampled", samples=10, seed=s)
        return g, cert, local, g50, dense, (f18, r18), (fk, rk)

    def values(self, inp, raw, ctx):
        g, cert, local, g50, dense, *flats = raw
        return {
            "g14": [list(g.planted), adjacency(g)],
            "cert": [cert.holds, cert.zeta1, cert.zeta2, cert.r_n, members(cert.low_witness),
                     members(cert.high_witness), cert.reason,
                     None if cert.violation is None else [cert.violation[0], members(cert.violation[1])]],
            "local": [[z, local.value(z), members(local.results[z].witness)]
                      for z in range(local.z_lo, local.z_hi + 1)],
            "g50": adjacency(g50),
            "dense": [dense.value, members(dense.witness), dense.method],
            "flat": [[adjacency(f), r.is_flat, r.checked, r.edge_count_mismatch,
                      [[ell, list(mem), exc] for ell, mem, exc in r.violations]] for f, r in flats],
        }

    def check(self, inp, out, rng, ctx):
        planted, adj = out["g14"]
        errs = certificate_errors(adj, planted, 5, out["cert"][:6], None)
        best, _ = brute_overlap_curve(adj, planted, 5)
        for z, value, wit in out["local"]:
            if value > best[z] or len(set(planted) & set(wit)) != z or edges_in(adj, wit) != value:
                errs.append(f"local curve z={z}: value {value} witness {wit} vs exact {best[z]}")
        value, wit, _ = out["dense"]
        if len(set(wit)) != 10 or edges_in(out["g50"], wit) != value:
            errs.append(f"densest_subgraph witness {wit} does not carry {value} edges")
        for _, flat, _, mismatch, violations in out["flat"]:
            if mismatch is not None or flat != (not violations):
                errs.append(f"flatness verdict {flat} with mismatch {mismatch}, {len(violations)} violations")
            for ell, mem, exc in violations:
                if len(mem) != ell or exc <= 0:
                    errs.append(f"flatness violation {mem} is not a violation")
        return errs


# --- desk_chain -------------------------------------------------------------------

BETAS = (0.0, 1.0, 2.0, 4.0)
CHAIN_N, CHAIN_K, CHAIN_KBAR = 12, 4, 5


def band_roof(n, kbar, d2=1.0):
    """a1_max of the well partition: ceil(d2 * sqrt(kbar / ln(n/kbar)))."""
    return math.ceil(d2 * math.sqrt(kbar / math.log(n / kbar)))


def trace_values(tr):
    return [tr.hit_time, tr.t_max, list(tr.times), list(tr.overlaps), list(tr.edges),
            list(tr.final_state.members)]


class DeskChain(Workload):
    """One round: a seeded n=12, k=4 instance, hitting_time at beta in
    {0,1,2,4} (each re-enumerates the exact law in conditional_init), then a
    visit-counted run_chain segment of 30000 steps.  Each pass opens with one
    exact_gibbs on C(20,8) with its well ratio and one transition_matrix on
    C(11,4)."""

    name = "desk_chain"
    pass_size = 20

    def inputs(self, seed, i):
        r = random.Random(seed)
        return {"seed": seed, "init": sorted(r.sample(range(CHAIN_N), CHAIN_KBAR))}

    def prologue(self, P, seed):
        g20 = P.sample_planted(20, 4, seed)
        eg = P.exact_gibbs(g20, 8, 1.0)
        ratio = eg.well_log_ratio(P.WellPartition.from_params(20, 4, 8, 0.25, 1.0))
        g11 = P.sample_planted(11, 4, seed)
        tmat, states = P.transition_matrix(g11, 4, 1.0)
        return g20, eg, ratio, g11, tmat, states

    def prologue_values(self, raw):
        g20, eg, ratio, g11, tmat, states = raw
        return {"g20": [list(g20.planted), adjacency(g20)], "log_z": eg.log_z, "ratio": ratio,
                "masks": digest(list(eg.masks)),
                "weights": hashlib.sha256(eg.log_weights.tobytes()).hexdigest(),
                "overlaps": hashlib.sha256(eg.overlaps.tobytes()).hexdigest(),
                "g11": [list(g11.planted), adjacency(g11)], "states": list(states),
                "tmat": hashlib.sha256(tmat.tobytes()).hexdigest(),
                # kept out of the digest: the arrays the checks need
                "_eg": eg, "_tmat": tmat}

    def prologue_check(self, vals):
        errs = []
        eg, tmat = vals["_eg"], vals["_tmat"]
        planted, adj = vals["g20"]
        pmask = sum(1 << v for v in planted)
        if len(eg.masks) != math.comb(20, 8):
            errs.append(f"exact_gibbs enumerated {len(eg.masks)} states")
        probs = [math.exp(w - eg.log_z) for w in eg.log_weights.tolist()]
        if abs(math.fsum(probs) - 1.0) > 1e-9:
            errs.append("exact_gibbs probabilities do not sum to 1")
        rng = random.Random(vals["log_z"])
        for i in rng.sample(range(len(eg.masks)), 64):
            m = eg.masks[i]
            mem = [v for v in range(20) if m >> v & 1]
            if eg.log_weights[i] != 1.0 * edges_in(adj, mem) or eg.overlaps[i] != (m & pmask).bit_count():
                errs.append(f"exact_gibbs state {m:#x} has the wrong weight or overlap")
        a1 = band_roof(20, 8)
        s = math.sqrt(8 / math.log(20 / 8))
        bands = [(0, math.floor(0.25 * s)), (math.ceil(0.25 * s), a1), (4 // 2, 4)]
        mass = [math.fsum(p for p, z in zip(probs, eg.overlaps.tolist()) if lo <= z <= hi)
                for lo, hi in bands]
        ref = math.log(min(mass[0], mass[2])) - math.log(mass[1])
        if not close(vals["ratio"], ref, 1e-9):
            errs.append(f"well ratio {vals['ratio']!r} != {ref!r}")
        planted, adj = vals["g11"]
        states = vals["states"]
        w = [math.exp(edges_in(adj, [v for v in range(11) if m >> v & 1])) for m in states]
        rows = tmat.tolist()
        if len(states) != math.comb(11, 4) or any(abs(math.fsum(r) - 1.0) > 1e-12 for r in rows):
            errs.append("transition matrix rows do not sum to 1")
        for i, j in itertools.combinations(range(len(states)), 2):
            if not close(w[i] * rows[i][j], w[j] * rows[j][i], 1e-12):
                errs.append(f"detailed balance fails between states {i} and {j}")
                break
        return errs

    def run(self, P, inp, ctx):
        s = inp["seed"]
        g = P.sample_planted(CHAIN_N, CHAIN_K, s)
        hits = [P.hitting_time(g, P.MCMCConfig(beta=b, kbar=CHAIN_KBAR, t_max=20_000, seed=s))
                for b in BETAS]
        cfg = P.MCMCConfig(beta=1.0, kbar=CHAIN_KBAR, t_max=30_000, seed=s, stride=1000)
        seg = P.run_chain(g, cfg, P.VertexSubset(tuple(inp["init"])), count_visits=True)
        return g, hits, seg

    def values(self, inp, raw, ctx):
        g, hits, seg = raw
        return {"g": [list(g.planted), adjacency(g)], "hits": [trace_values(t) for t in hits],
                "segment": trace_values(seg), "visits": sorted(seg.visits.items())}

    def check(self, inp, out, rng, ctx):
        errs = []
        planted, adj = out["g"]
        pset = set(planted)
        roof = band_roof(CHAIN_N, CHAIN_KBAR)
        for beta, (hit, t_max, times, ovs, eds, final) in zip(BETAS, out["hits"]):
            ok_hit = hit is None or (1 <= hit <= t_max and ovs[-1] > roof and times[-1] == hit)
            if (not ok_hit or times != list(range(len(times))) or max(ovs[:-1], default=0) > roof
                    or eds[-1] != edges_in(adj, final) or ovs[-1] != len(pset & set(final))):
                errs.append(f"hitting_time trace at beta={beta} is inconsistent")
        hit, t_max, times, ovs, eds, final = out["segment"]
        visits = out["visits"]
        if (sum(c for _, c in visits) != t_max or any(m.bit_count() != CHAIN_KBAR for m, _ in visits)
                or times[-1] != t_max or eds[-1] != edges_in(adj, final)
                or ovs[-1] != len(pset & set(final))):
            errs.append("run_chain segment is inconsistent")
        return errs


# --- cli_pipeline ---------------------------------------------------------------

# The README command list (its test drive is seed 0), then a graph at
# n = 3000 and a chain on it, where file I/O and import dominate.
README_DRIVE = [
    "sample --n 14 --k 4 --seed {seed} --out g.pcg",
    "curve --n 10000000 --k 700 --kbar 700 --kind gamma-tilde --out c.csv",
    "classify --n 10000000 --k 4000 --kbar 6250000",
    "phase --n 1000000 --k-grid 100,2000 --kbar-grid 100,900000 --out ph.csv",
    "dense --predict --n 50 --K 10 --out pred.json",
    "dense --graph g.pcg --K 5 --out dense.json",
    "d-curve --graph g.pcg --kbar 5 --out d.csv",
    "flatness --K 18 --gamma 0.6 --delta 0.2 --mode exhaustive --out flat.json",
    "mcmc --graph g.pcg --kbar 5 --beta 1.0 --t-max 100000 --stride 100 --out tr.csv",
    "hit --graph g.pcg --kbar 5 --beta 1.0 --t-max 100000 --out hit.json",
    "few --graph g.pcg --kbar 5 --beta 1.0 --d2 0.5 --out few.json",
    "ogp --graph g.pcg --kbar 5 --out cert.json",
    "sample --n 3000 --k 40 --seed {seed} --out big.pcg",
    "mcmc --graph big.pcg --kbar 50 --beta 1.0 --t-max 20000 --stride 100 --out bigtr.csv",
]
CLI_ENTRY = "from plandscape.cli import run; run()"
CLI_TIMEOUT_S = 120


def read_pcg(path):
    """(n, k, seed, planted, adjacency) parsed from a pcg v1 file."""
    lines = Path(path).read_text().splitlines()
    _, _, n, k, seed = lines[0].split()
    n = int(n)
    planted = [int(t) for t in lines[1].split()]
    adj = [0] * n
    for i in range(n):
        low = int(lines[2 + i], 16)
        adj[i] |= low
        for j in range(i):
            if low >> j & 1:
                adj[j] |= 1 << i
    return n, int(k), int(seed), planted, adj


def semantic_bytes(name, data):
    """Output bytes with run-dependent fields removed: hit.json embeds wall_ms."""
    if name == "hit.json":
        payload = json.loads(data)
        payload.pop("wall_ms", None)
        return json.dumps(payload, sort_keys=True).encode()
    return data


class CliPipeline(Workload):
    """One op is one CLI command; a pass is the README command list with the
    pass seed for both samples, run as fresh subprocesses (in-process through
    plandscape.cli.main in the traced run)."""

    name = "cli_pipeline"
    pass_size = len(README_DRIVE)

    def pass_inputs(self, run_seed, j):
        seed = op_seed(run_seed, j)
        return [{"seed": seed, "argv": cmd.format(seed=seed).split()} for cmd in README_DRIVE]

    def begin_pass(self, root, j, in_process):
        work = Path(root) / "perfbench" / ".work" / f"cli-{os.getpid()}-{j}-{int(in_process)}"
        work.mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=str(Path(root) / "src"))
        return {"work": work, "env": env, "in_process": in_process}

    def end_pass(self, ctx):
        for f in ctx["work"].iterdir():
            f.unlink()
        ctx["work"].rmdir()

    def run(self, P, inp, ctx):
        if ctx["in_process"]:
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(ctx["work"])
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = P.cli.main(inp["argv"])
            finally:
                os.chdir(cwd)
            return code, out.getvalue()
        proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *inp["argv"]], cwd=ctx["work"],
                              env=ctx["env"], stdin=subprocess.DEVNULL, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout

    def values(self, inp, raw, ctx):
        code, stdout = raw
        argv = inp["argv"]
        files = {}
        raw_sha = {}
        if "--out" in argv:
            name = argv[argv.index("--out") + 1]
            path = ctx["work"] / name
            if path.exists():
                data = path.read_bytes()
                raw_sha[name] = hashlib.sha256(data).hexdigest()
                files[name] = hashlib.sha256(semantic_bytes(name, data)).hexdigest()
        return {"code": code, "stdout": stdout, "files": files, "_raw_sha": raw_sha}

    def check(self, inp, out, rng, ctx):
        argv = inp["argv"]
        cmd = argv[0]
        work = ctx["work"]
        if "adj" not in ctx:
            ctx["adj"] = read_pcg(work / "g.pcg")
        n, k, seed, planted, adj = ctx["adj"]
        want_code = 0
        if cmd == "ogp":
            lo, hi = overlap_window(n, k, 5)
            best, _ = brute_overlap_curve(adj, planted, 5)
            want_code = 0 if has_dip([best[z] for z in range(lo, hi + 1)]) else 3
        if out["code"] != want_code:
            return [f"{cmd}: exit code {out['code']}, expected {want_code}"]
        if cmd == "classify":
            return [] if out["stdout"] == "Increasing\n" else [f"classify printed {out['stdout']!r}"]
        name = argv[argv.index("--out") + 1]
        errs = manifest_errors(work, name, cmd)
        if errs:
            return errs
        path = work / name
        if name == "g.pcg":
            if (n, k, seed) != (14, 4, inp["seed"]) or any(
                    not adj[u] >> v & 1 for u, v in itertools.combinations(planted, 2)):
                errs.append("g.pcg header or planted clique is wrong")
        elif name == "big.pcg":
            head = path.read_text().split("\n", 1)[0]
            if head != f"pcg v1 3000 40 {inp['seed']}":
                errs.append(f"big.pcg header {head!r}")
        elif name == "dense.json":
            rep = json.loads(path.read_text())
            wit = [int(t) for t in rep["witness"].split("-")]
            best = max(edges_in(adj, c) for c in itertools.combinations(range(n), 5))
            if rep["value"] != best or edges_in(adj, wit) != best:
                errs.append(f"dense.json value {rep['value']} != exact {best}")
        elif name == "d.csv":
            lo, hi = overlap_window(n, k, 5)
            best, _ = brute_overlap_curve(adj, planted, 5)
            rows = [r.split(",") for r in path.read_text().splitlines()[2:]]
            want = [[str(z), str(best[z]), "Exhaustive"] for z in range(lo, hi + 1)]
            if [r[:3] for r in rows] != want:
                errs.append("d.csv differs from the exact overlap curve")
            for z, value, _, wit in rows:
                mem = [int(t) for t in wit.split("-")]
                if edges_in(adj, mem) != int(value) or len(set(planted) & set(mem)) != int(z):
                    errs.append(f"d.csv witness at z={z} is wrong")
        elif name == "cert.json":
            rep = json.loads(path.read_text())
            cert = [rep["holds"], rep["zeta1"], rep["zeta2"], rep["r_n"], rep["low_witness"],
                    rep["high_witness"]]
            errs += certificate_errors(adj, planted, 5, cert, out["code"] == 0)
        elif name == "c.csv":
            rows = [r.split(",") for r in path.read_text().splitlines()[2:]]
            if len(rows) != 701 or any(r[2] != "GammaTilde" for r in rows):
                errs.append("c.csv does not hold 701 GammaTilde points")
            for z in (0, rng.randint(0, 700), 700):
                ref = ref_curve_value("gamma-tilde", 10**7, 700, 700, z)
                if not close(float(rows[z][1]), ref):
                    errs.append(f"c.csv z={z}: {rows[z][1]} != {ref!r}")
        elif name == "ph.csv":
            rows = [r.split(",") for r in path.read_text().splitlines()[2:]]
            want = [[str(kk), str(kb), "BelowDiagonal" if kb < kk
                     else PHASE_LABELS[ref_params_label(10**6, kk, kb)]]
                    for kk in (100, 2000) for kb in (100, 900000)]
            if rows != want:
                errs.append(f"ph.csv labels {rows} != {want}")
        elif name in ("tr.csv", "bigtr.csv"):
            t_max, kbar, kk = (100_000, 5, 4) if name == "tr.csv" else (20_000, 50, 40)
            rows = [[int(c) for c in r.split(",")] for r in path.read_text().splitlines()[2:]]
            if ([r[0] for r in rows] != list(range(0, t_max + 1, 100))
                    or any(not 0 <= o <= kk or not 0 <= e <= kbar * (kbar - 1) // 2 for _, o, e in rows)):
                errs.append(f"{name} trace rows are malformed")
        elif name == "hit.json":
            rep = json.loads(path.read_text())
            hit = rep["hit_time"]
            if rep["censored"] != (hit is None) or (hit is not None and not 1 <= hit <= 100_000):
                errs.append(f"hit.json hit_time {hit} censored {rep['censored']}")
        elif name == "flat.json":
            rep = json.loads(path.read_text())
            if rep["K"] != 18 or rep["checked"] != "Exhaustive" or rep["is_flat"] != (not rep["violations"]):
                errs.append("flat.json report is inconsistent")
        elif name == "pred.json":
            rep = json.loads(path.read_text())
            if (rep["n"], rep["K"]) != (50, 10) or not 22.5 <= rep["first_order"] <= 45:
                errs.append(f"pred.json {rep}")
        elif name == "few.json":
            rep = json.loads(path.read_text())
            if (rep["kbar"], rep["beta"]) != (5, 1.0):
                errs.append(f"few.json {rep}")
        return errs


def manifest_errors(work, name, cmd):
    """The manifest must list the output with its true sha256 and size."""
    mpath = work / f"{name}.manifest.json"
    if not mpath.exists():
        return [f"{name}: no manifest"]
    man = json.loads(mpath.read_text())
    data = (work / name).read_bytes()
    entry = man["outputs"][0]
    if (man["subcommand"] != cmd or entry["sha256"] != hashlib.sha256(data).hexdigest()
            or entry["bytes"] != len(data)):
        return [f"{name}: manifest does not match the file"]
    return []


WORKLOADS = {w.name: w for w in (PaperCurves(), DeskExact(), DeskChain(), CliPipeline())}
