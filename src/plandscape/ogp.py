"""Per-instance overlap curves and Overlap Gap Property certificates.

A certificate pins thresholds (zeta1, zeta2) and an edge level r such that
dense-enough kbar-subsets exist at overlap <= zeta1 and >= zeta2, while no
subset with that many edges has overlap strictly between them.  Certificates
are only issued from exhaustively computed curves: the middle condition is a
universal statement, and a heuristic curve can only produce evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CertificationError, ParameterError
from .model import BitGraph, VertexSubset, check_ints
from .numerics import ModelParams, OverlapCurve, overlap_window
from . import landscape


@dataclass(frozen=True)
class DipWitness:
    """Interior overlap whose best value sits below both curve endpoints."""

    z_star: int
    dip_value: float
    lo_value: float  # curve at the left endpoint
    hi_value: float  # curve at the right endpoint


@dataclass(frozen=True)
class OGPCertificate:
    holds: bool
    zeta1: int | None = None
    zeta2: int | None = None
    r_n: float | None = None
    low_witness: VertexSubset | None = None
    high_witness: VertexSubset | None = None
    violation: tuple | None = None  # (z, subset) dense inside the band
    reason: str = ""


def overlap_curve(g: BitGraph, kbar: int, method: str = "exhaustive",
                  budget: int = landscape.NODE_BUDGET, restarts: int = 20,
                  seed: int = 0) -> OverlapCurve:
    """Per-instance curve z -> best edge count at overlap exactly z over the
    default overlap_window(ModelParams(n, k, kbar)), [floor(kbar*k/n), k].

    Exhaustive entries are exact, by branch and bound under a node budget
    per overlap (certificates allowed); local-search entries are lower bounds
    (evidence only)."""
    p = ModelParams(g.n, g.k, kbar)
    window = overlap_window(p)
    if method not in ("exhaustive", "local"):
        raise ParameterError(f"method must be 'exhaustive' or 'local', got {method!r}")
    if method == "local" and seed < 0:  # each z searches on seed ^ z
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if budget < 0:  # the local method never reads it
        raise ParameterError(f"node budget must be >= 0, got {budget}")
    results = {}
    for z in window:
        if method == "exhaustive":
            results[z] = landscape.densest_with_overlap(g, kbar, z, budget=budget)
        else:
            results[z] = landscape.local_search_densest(g, kbar, z=z, restarts=restarts,
                                                        seed=seed ^ z)
    return OverlapCurve(params=p, kind="Empirical", z_lo=window.start,
                        values=tuple(float(res.value) for res in results.values()),
                        exact=(method == "exhaustive"), results=results)


def dip_witness(curve: OverlapCurve) -> DipWitness | None:
    """Deepest interior point strictly below both endpoint values; None when
    the curve is monotone or dip-free.  Ties break to the smallest overlap."""
    vals = curve.values
    if len(vals) < 3:
        return None
    lo, hi = vals[0], vals[-1]
    best = min(range(1, len(vals) - 1), key=vals.__getitem__)
    if not vals[best] < min(lo, hi):
        return None
    return DipWitness(z_star=curve.z_lo + best, dip_value=vals[best],
                      lo_value=lo, hi_value=hi)


def certify_ogp(curve: OverlapCurve, zeta1: int, zeta2: int, r_n: float) -> OGPCertificate:
    """Check the two gap conditions against an exact curve:

      (1) max d(z) over z <= zeta1 and over z >= zeta2 both reach r_n;
      (2) every z strictly between stays below r_n.

    Witness subsets come from the stored per-overlap maximizers."""
    if not curve.exact:
        raise CertificationError("certification requires an exhaustively computed curve")
    check_ints(zeta1=zeta1, zeta2=zeta2)
    if not math.isfinite(r_n):
        raise ParameterError(f"r_n must be finite, got {r_n}")
    if not (curve.z_lo <= zeta1 < zeta2 <= curve.z_hi):
        raise ParameterError(
            f"need z_lo <= zeta1 < zeta2 <= z_hi, got {zeta1}, {zeta2}")

    def region_max(z_from, z_to):  # first z of the largest value
        return max(range(z_from, z_to + 1), key=curve.value)

    low_z = region_max(curve.z_lo, zeta1)
    high_z = region_max(zeta2, curve.z_hi)
    band_z = region_max(zeta1 + 1, zeta2 - 1) if zeta2 - zeta1 > 1 else None

    cond1 = curve.value(low_z) >= r_n and curve.value(high_z) >= r_n
    cond2 = band_z is None or curve.value(band_z) < r_n
    results = curve.results or {}
    if cond1 and cond2:
        return OGPCertificate(
            holds=True, zeta1=zeta1, zeta2=zeta2, r_n=r_n,
            low_witness=results[low_z].witness if low_z in results else None,
            high_witness=results[high_z].witness if high_z in results else None,
            reason="gap certified")
    if not cond2:
        viol = (band_z, results[band_z].witness if band_z in results else None)
        return OGPCertificate(holds=False, zeta1=zeta1, zeta2=zeta2, r_n=r_n,
                              violation=viol,
                              reason=f"dense subset at banned overlap {band_z}")
    return OGPCertificate(holds=False, zeta1=zeta1, zeta2=zeta2, r_n=r_n,
                          reason="no dense subset on one side of the band")


def auto_certify(g: BitGraph, kbar: int, budget: int = landscape.NODE_BUDGET) -> OGPCertificate:
    """Search for a holding certificate on the exact curve.

    From the deepest dip z*, a provisional level halfway between the dip and
    the lower endpoint value carves out the maximal band around z* staying
    below it; the final r_n is the midpoint between that band's maximum and
    the endpoint minimum, which both conditions then meet by construction.
    The threshold choice is data-driven (nothing pins the constants at desk
    scale)."""
    curve = overlap_curve(g, kbar, method="exhaustive", budget=budget)
    wit = dip_witness(curve)
    if wit is None:
        return OGPCertificate(holds=False, reason="curve is monotone or dip-free")
    endpoint_min = min(wit.lo_value, wit.hi_value)
    provisional = 0.5 * (wit.dip_value + endpoint_min)
    zeta1 = max(z for z in range(curve.z_lo, wit.z_star)
                if curve.value(z) >= provisional)
    zeta2 = min(z for z in range(wit.z_star + 1, curve.z_hi + 1)
                if curve.value(z) >= provisional)
    band_max = max(curve.value(z) for z in range(zeta1 + 1, zeta2))
    r_n = 0.5 * (band_max + endpoint_min)
    cert = certify_ogp(curve, zeta1, zeta2, r_n)
    assert cert.holds, "constructed certificate must verify"
    return cert
