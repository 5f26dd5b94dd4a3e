"""Closed-form evaluators for the first moment curve and its classifiers.

Everything here is a pure function of (n, k, kbar, z); no graph is ever
sampled.  All combinatorics run in log space (log-gamma), so evaluation
stays finite at n = 1e7.

Entropy convention: h is the binary entropy with natural logarithm,
h(x) = -x ln x - (1-x) ln(1-x), restricted to the decreasing branch
x in [1/2, 1] with h(1/2) = ln 2 and h(1) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, UndefinedCurveError
from .model import ModelParams, check_overlap

LN2 = math.log(2.0)

INCREASING = "Increasing"
DECREASING = "Decreasing"
NON_MONOTONIC = "NonMonotonic"
INDETERMINATE = "Indeterminate"


# --- entropy toolkit ----------------------------------------------------


def binary_entropy(x: float) -> float:
    """h(x) = -x ln x - (1-x) ln(1-x) on [1/2, 1], h(1) = 0 by continuity."""
    if not 0.5 <= x <= 1.0:
        raise DomainError(f"entropy argument {x} outside [1/2, 1]")
    if x == 1.0:
        return 0.0
    y = 1.0 - x
    return -x * math.log(x) - y * math.log(y)


def binary_entropy_inv(y: float, tol: float = 1e-13) -> float:
    """Inverse of binary_entropy on the branch x >= 1/2.

    Bisection down to a `tol` bracket followed by two Newton polish steps;
    h' vanishes at 1/2, so Newton alone from the wrong side diverges.
    """
    if not -1e-12 <= y <= LN2 + 1e-12:
        raise DomainError(f"entropy value {y} outside [0, ln 2]")
    if y >= LN2:
        return 0.5
    if y <= 0.0:
        return 1.0
    lo, hi = 0.5, 1.0  # h(lo) > y > h(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) > y:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(2):
        if x >= 1.0:  # y below ~4e-15: the root is 1 up to double resolution
            return 1.0
        d = math.log((1.0 - x) / x)  # h'(x), negative on (1/2, 1)
        if d == 0.0:
            break
        x -= (binary_entropy(x) - y) / d
        x = min(max(x, 0.5), 1.0)
    return x


def rate_function(gamma: float) -> float:
    """Large-deviation rate at density gamma: ln 2 - h(gamma)."""
    return LN2 - binary_entropy(gamma)


def entropy_inv_series(eps: float) -> float:
    """Series approximation of binary_entropy_inv(ln 2 - eps).

    1/2 + sqrt(eps/2) - eps^{3/2} / (6 sqrt 2); remainder O(eps^{5/2}).
    Intended for small eps (validity roughly eps <= 0.1).
    """
    if eps < 0:
        raise DomainError(f"eps must be nonnegative, got {eps}")
    s = math.sqrt(eps)
    return 0.5 + s / math.sqrt(2.0) - eps * s / (6.0 * math.sqrt(2.0))


_LGAMMA_MIN_SIDE = 1 << 18


def log_binomial(n: int, k: int) -> float:
    """ln C(n, k), relative error <= 1e-12 for n <= 1e8.

    Log-gamma differences cancel badly when one side of the coefficient is
    small (the three ~n ln n magnitudes swamp a small ln C), so below
    2^18 the short side is summed directly as ln n + ln(n-1) + ...; the
    log-gamma branch only runs where its cancellation is harmless."""
    if k < 0 or n < 0 or k > n:
        raise ParameterError(f"log_binomial needs 0 <= k <= n, got n={n} k={k}")
    side = min(k, n - k)
    if side == 0:
        return 0.0
    if side <= _LGAMMA_MIN_SIDE:
        rising = float(np.log(np.arange(n - side + 1, n + 1, dtype=np.float64)).sum())
        return rising - math.lgamma(side + 1)
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _choose2(m: int) -> int:
    return m * (m - 1) // 2


# --- first moment curve and relatives ------------------------------------


def log_placements(p: ModelParams, z: int) -> float:
    """ln of the number of kbar-subsets with overlap exactly z:
    ln [ C(k, z) * C(n-k, kbar-z) ]."""
    check_overlap(z, p.overlaps)
    return log_binomial(p.k, z) + log_binomial(p.n - p.k, p.kbar - z)


def log_placements_step(p: ModelParams, z: int) -> float:
    """Exact increment log_placements(z+1) - log_placements(z) in closed form:
    ln [ (k-z)(kbar-z) / ((z+1)(n-k-kbar+z+1)) ]."""
    check_overlap(z, p.overlaps)
    check_overlap(z + 1, p.overlaps)
    num = (p.k - z) * (p.kbar - z)
    den = (z + 1) * (p.n - p.k - p.kbar + z + 1)
    return math.log(num) - math.log(den)


def default_window(p: ModelParams) -> range:
    """Default overlap window of a curve: the feasible overlaps from
    floor(kbar*k/n) up."""
    return range(max(p.kbar * p.k // p.n, p.overlaps.start), p.overlaps.stop)


def first_moment_curve(p: ModelParams, z: int) -> float:
    """Union-bound envelope for the overlap-z densest kbar-subgraph value:

        C(z,2) + h^{-1}( ln2 - A(z)/M ) * M,   M = C(kbar,2) - C(z,2),

    with A(z) = log_placements(p, z).  The fully-overlapping degenerate point
    z = k = kbar evaluates to C(k,2).
    """
    check_overlap(z, p.overlaps)
    if z == p.kbar:  # only possible when z = k = kbar
        return float(_choose2(p.k))
    cz = _choose2(z)
    m = _choose2(p.kbar) - cz
    arg = LN2 - log_placements(p, z) / m
    if arg < -1e-12:
        raise UndefinedCurveError(
            f"curve undefined at z={z}: placement count exceeds capacity "
            f"(h^{{-1}} argument {arg:.6g} < 0)"
        )
    return cz + binary_entropy_inv(max(arg, 0.0)) * m


def first_moment_sqrt_approx(p: ModelParams, z: int, use_k_quadratic: bool = False) -> float:
    """Square-root (leading Taylor) approximation of the first moment curve:

        (1/2)(C(kbar,2) + C(z,2)) + sqrt( (C(kbar,2) - C(z,2)) * A(z) / 2 ).

    `use_k_quadratic=True` swaps C(kbar,2) -> C(k,2) in both occurrences,
    reproducing the plotted small-clique variant of the formula.
    """
    check_overlap(z, p.overlaps)
    a = log_placements(p, z)
    if a < 0:
        raise DomainError("negative placement log-count")
    big = _choose2(p.k if use_k_quadratic else p.kbar)
    cz = _choose2(z)
    m = big - cz
    if m < 0:
        raise ParameterError(f"quadratic term negative at z={z}")
    return 0.5 * (big + cz) + math.sqrt(m * a / 2.0)


def sqrt_approx_renormalized(p: ModelParams, z: int) -> float:
    """kbar^{-3/2} * (sqrt-approx(z) - C(kbar,2)/2), computed without the
    cancellation of subtracting two ~1e11 values."""
    check_overlap(z, p.overlaps)
    a = log_placements(p, z)
    cz = _choose2(z)
    m = _choose2(p.kbar) - cz
    return (0.5 * cz + math.sqrt(m * a / 2.0)) / p.kbar**1.5


def first_moment_expansion(p: ModelParams, z: int) -> float:
    """Second-order expansion of the first moment curve:

        (1/2)(C(kbar,2)+C(z,2)) + sqrt(A M / 2) - sqrt(A^3 / M) / (6 sqrt 2),

    M = C(kbar,2) - C(z,2).  Within O(1) of the exact curve once
    kbar >= (ln n)^5.
    """
    check_overlap(z, p.overlaps)
    cz = _choose2(z)
    m = _choose2(p.kbar) - cz
    if m <= 0:
        raise DomainError(f"expansion undefined at z={z}: zero quadratic gap")
    a = log_placements(p, z)
    return (
        0.5 * (_choose2(p.kbar) + cz)
        + math.sqrt(a * m / 2.0)
        - math.sqrt(a**3 / m) / (6.0 * math.sqrt(2.0))
    )


def trend_statistic(p: ModelParams) -> float:
    """Monotonicity trend statistic

        T = s * ln( s * n / (kbar k) ),   s = sqrt( kbar / ln(n/kbar) ).

    The curve over the shrunk overlap window is increasing when T is small
    against kbar*k/n, decreasing when T is large against k, and dips in
    between.
    """
    if p.kbar >= p.n:
        raise ParameterError(f"need kbar < n, got kbar={p.kbar} n={p.n}")
    s = math.sqrt(p.kbar / math.log(p.n / p.kbar))
    return s * math.log(s * p.n / (p.kbar * p.k))


# --- curve containers ----------------------------------------------------


@dataclass(frozen=True)
class CurvePoint:
    z: int
    value: float


@dataclass(frozen=True)
class OverlapCurve:
    """Integer-indexed curve z -> value on [z_lo, z_hi], one point per z.

    `scale` relates stored values to the edge-count scale (renormalized
    curves store value * kbar^{-3/2}, so scale = kbar^{-3/2} there); the
    classifier tolerance follows it.
    """

    params: ModelParams
    kind: str  # Gamma | GammaTilde | Phi | Empirical
    points: tuple[CurvePoint, ...]
    z_lo: int
    z_hi: int
    exact: bool = False
    scale: float = 1.0
    results: dict = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        zs = [pt.z for pt in self.points]
        if zs != list(range(self.z_lo, self.z_hi + 1)):
            raise ParameterError("points must cover every integer z in [z_lo, z_hi]")

    def value(self, z: int) -> float:
        if not self.z_lo <= z <= self.z_hi:
            raise ParameterError(f"z={z} outside curve domain [{self.z_lo}, {self.z_hi}]")
        return self.points[z - self.z_lo].value

    def values(self) -> list[float]:
        return [pt.value for pt in self.points]


_KIND_EVAL = {
    "gamma": first_moment_curve,
    "gamma-tilde": first_moment_sqrt_approx,
    "gamma-tilde-renorm": sqrt_approx_renormalized,
    "phi": first_moment_expansion,
}

_KIND_NAMES = {
    "gamma": "Gamma",
    "gamma-tilde": "GammaTilde",
    "gamma-tilde-renorm": "GammaTilde",
    "phi": "Phi",
}


def curve_grid(p: ModelParams, kind: str, z_lo: int | None = None,
               z_hi: int | None = None) -> OverlapCurve:
    """Evaluate a deterministic curve on every integer z in [z_lo, z_hi]
    (defaults: default_window(p), i.e. [floor(kbar*k/n), k]).  Both ends
    must be feasible overlaps and the window must not be empty."""
    if kind not in _KIND_EVAL:
        raise ParameterError(f"unknown curve kind {kind!r}")
    fn = _KIND_EVAL[kind]
    window = default_window(p)
    lo = window.start if z_lo is None else z_lo
    hi = window[-1] if z_hi is None else z_hi
    check_overlap(lo, p.overlaps)
    check_overlap(hi, p.overlaps)
    if lo > hi:
        raise ParameterError(f"empty overlap window [{lo}, {hi}]")
    pts = tuple(CurvePoint(z, fn(p, z)) for z in range(lo, hi + 1))
    scale = p.kbar**-1.5 if kind == "gamma-tilde-renorm" else 1.0
    return OverlapCurve(params=p, kind=_KIND_NAMES[kind], points=pts, z_lo=lo,
                        z_hi=hi, scale=scale)


# --- monotonicity classification -----------------------------------------


@dataclass(frozen=True)
class ClassifierConfig:
    """Window and slack constants for the curve classifier.

    The constants are calibration knobs: the transition statements fix their
    existence but not their values.
    """

    epsilon: float = 0.1
    c0: float = 8.0
    d1: float = 0.25
    d2: float = 1.0
    e: float = 4.0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if self.c0 <= 0 or self.d1 <= 0 or self.d2 <= 0 or self.e <= 0:
            raise ParameterError("c0, d1, d2, e must be positive")
        if not self.d1 < self.d2:
            raise ParameterError(f"need d1 < d2, got {self.d1}, {self.d2}")


@dataclass(frozen=True)
class MonotonicityClass:
    """Classifier verdict plus dip witnesses when the curve is non-monotonic.

    u1/u2 are the overlap bounds of the region attaining the interior
    minimum; u1_scaled/u2_scaled express them in units of
    sqrt(kbar / ln(n/kbar)) for comparison against well constants.
    depth is how far the interior minimum sits below both window endpoints.
    """

    label: str
    u1: int | None = None
    u2: int | None = None
    u1_scaled: float | None = None
    u2_scaled: float | None = None
    depth: float | None = None


def classify_params(p: ModelParams, margin: float = 1.0) -> MonotonicityClass:
    """Asymptotic monotonicity class of the first moment curve from the
    trend statistic alone (no curve evaluation).

    T <= kbar*k/n -> Increasing, T >= k -> Decreasing, else NonMonotonic.
    `margin` > 1 widens an Indeterminate band around both boundaries; the
    boundary case k^2 = n is always Indeterminate.
    """
    if margin < 1.0:
        raise ParameterError(f"margin must be >= 1, got {margin}")
    if p.k * p.k == p.n:
        return MonotonicityClass(INDETERMINATE)
    t = trend_statistic(p)
    lo_edge = p.kbar * p.k / p.n
    hi_edge = float(p.k)
    if t <= lo_edge / margin:
        return MonotonicityClass(INCREASING)
    if t >= hi_edge * margin:
        return MonotonicityClass(DECREASING)
    if t < lo_edge * margin or t > hi_edge / margin:
        return MonotonicityClass(INDETERMINATE)
    return MonotonicityClass(NON_MONOTONIC)


def classifier_window(p: ModelParams, cfg: ClassifierConfig | None = None) -> range:
    """The overlaps classify_curve reads: [floor(c0*kbar*k/n), (1-epsilon)*k],
    with the lower end falling back to default_window(p) when the c0-shrunk
    window keeps fewer than 3 points."""
    cfg = cfg or ClassifierConfig()
    lo = int(cfg.c0 * p.kbar * p.k / p.n)
    hi = int((1.0 - cfg.epsilon) * p.k)
    if lo > hi - 2:
        lo = default_window(p).start
    return range(lo, hi + 1)


def classify_curve(curve: OverlapCurve, cfg: ClassifierConfig | None = None) -> MonotonicityClass:
    """Classify an evaluated curve by successive-difference signs on the
    shrunk window I = [floor(c0*kbar*k/n), (1-epsilon)*k].

    Sign tests use an absolute tolerance of 1e-6*kbar to absorb float noise.
    When the c0-shrunk window keeps fewer than 3 points (heavy
    overparametrization pushes c0*kbar*k/n past k) the window lower end
    falls back to the trivial floor(kbar*k/n).
    """
    cfg = cfg or ClassifierConfig()
    p = curve.params
    window = classifier_window(p, cfg)
    lo, hi = window.start, window.stop - 1
    if lo < curve.z_lo or hi > curve.z_hi:
        raise ParameterError(
            f"curve domain [{curve.z_lo}, {curve.z_hi}] does not cover window [{lo}, {hi}]"
        )
    vals = [curve.value(z) for z in range(lo, hi + 1)]
    if len(vals) < 3:
        raise ParameterError(f"window [{lo}, {hi}] has fewer than 3 points")

    tol = 1e-6 * p.kbar * curve.scale
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    any_up = any(d > tol for d in diffs)
    any_down = any(d < -tol for d in diffs)
    if any_up and not any_down:
        return MonotonicityClass(INCREASING)
    if any_down and not any_up:
        return MonotonicityClass(DECREASING)
    if not any_up and not any_down:
        return MonotonicityClass(INDETERMINATE)

    vmin = min(vals)
    depth = min(vals[0], vals[-1]) - vmin
    if depth <= tol:
        return MonotonicityClass(INDETERMINATE)
    near = [lo + i for i, v in enumerate(vals) if v <= vmin + tol]
    u1, u2 = near[0], near[-1]
    scale = math.sqrt(p.kbar / math.log(p.n / p.kbar))
    return MonotonicityClass(NON_MONOTONIC, u1=u1, u2=u2,
                             u1_scaled=u1 / scale, u2_scaled=u2 / scale, depth=depth)


# --- phase diagram --------------------------------------------------------

PHASE_OGP = "OGP"
PHASE_UNINFORMATIVE = "Uninformative-NoOGP"
PHASE_INFORMATIVE = "Informative-NoOGP"
PHASE_BELOW = "BelowDiagonal"

_PHASE_OF_LABEL = {
    NON_MONOTONIC: PHASE_OGP,
    DECREASING: PHASE_UNINFORMATIVE,
    INCREASING: PHASE_INFORMATIVE,
    INDETERMINATE: INDETERMINATE,
}


def phase_diagram(n: int, k_grid, kbar_grid, margin: float = 1.0) -> list[tuple[int, int, str]]:
    """Label each (k, kbar) cell of the grid.  Cells with kbar < k fall
    below the overparametrized regime and are tagged BelowDiagonal; the rest
    map through classify_params.  Deterministic row-major order."""
    k_grid = sorted(k_grid)
    kbar_grid = sorted(kbar_grid)
    out = []
    for k in k_grid:
        for kbar in kbar_grid:
            if kbar < k:
                label = PHASE_BELOW
            else:
                label = _PHASE_OF_LABEL[classify_params(ModelParams(n, k, kbar), margin).label]
            out.append((k, kbar, label))
    return out
