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
_BISECT_TOL = 1e-13  # bracket width at which both h^{-1} paths stop bisecting

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


def binary_entropy_inv(y: float) -> float:
    """Inverse of binary_entropy on the branch x >= 1/2.

    Bisection down to a _BISECT_TOL bracket followed by two Newton polish
    steps; h' vanishes at 1/2, so Newton alone from the wrong side diverges.
    """
    if not -1e-12 <= y <= LN2 + 1e-12:
        raise DomainError(f"entropy value {y} outside [0, ln 2]")
    if y >= LN2:
        return 0.5
    if y <= 0.0:
        return 1.0
    lo, hi = 0.5, 1.0  # h(lo) > y > h(hi)
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if binary_entropy(mid) > y:
            lo = mid
        else:
            hi = mid
    return _newton_polish(0.5 * (lo + hi), y)


def _newton_polish(x: float, y: float) -> float:
    """Two Newton steps on h(x) = y from the bisection midpoint x."""
    for _ in range(2):
        if x >= 1.0:  # y below ~4e-15: the root is 1 up to double resolution
            return 1.0
        d = math.log((1.0 - x) / x)  # h'(x), negative on (1/2, 1)
        if d == 0.0:
            break
        x -= (binary_entropy(x) - y) / d
        x = min(max(x, 0.5), 1.0)
    return x


def _entropy_inv_many(ys) -> list[float]:
    """[binary_entropy_inv(y) for y in ys], bit for bit, with the bisection
    run on all lanes in lockstep.

    The brackets are dyadic, so every lane halves the same number of times
    and mid = lo + width/2 is exact, as 0.5*(lo+hi) is.  np.log may differ
    from math.log in the last ulp, which moves h by ~1e-16; a lane whose h
    lies within 1e-14 of y redoes that comparison with math.log, so every
    bracket equals the scalar one.  The Newton polish stays scalar.
    """
    out = [None if 0.0 < y < LN2 else binary_entropy_inv(y) for y in ys]
    idx = [i for i, x in enumerate(out) if x is None]
    y = np.array([ys[i] for i in idx], dtype=np.float64)
    lo = np.full(len(idx), 0.5)
    width = 0.5
    while width > _BISECT_TOL:
        width *= 0.5
        mid = lo + width
        q = 1.0 - mid
        h = -mid * np.log(mid) - q * np.log(q)
        above = h > y
        near = np.flatnonzero(np.abs(h - y) <= 1e-14)
        if near.size:
            above[near] = [binary_entropy(m) > v
                           for m, v in zip(mid[near].tolist(), y[near].tolist())]
        lo = np.where(above, mid, lo)
    for i, x in zip(idx, (lo + 0.5 * width).tolist()):
        out[i] = _newton_polish(x, ys[i])
    return out


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
    """ln C(n, k), relative error <= 1e-12 for n <= 1e8 (see _log_binomials)."""
    if k < 0 or n < 0 or k > n:
        raise ParameterError(f"log_binomial needs 0 <= k <= n, got n={n} k={k}")
    return _log_binomials(n, [k])[0]


def _log_binomials(n: int, ks) -> list[float]:
    """[ln C(n, k) for k in ks], for valid k.  Log-gamma differences cancel
    badly when one side of the coefficient is small (the three ~n ln n
    magnitudes swamp a small ln C), so a short side s <= 2^18 is summed
    directly as ln n + ... + ln(n-s+1), from the last s entries of one table
    ln(n-top+1) .. ln n, top the longest such side.  Those are the elements,
    length and pairwise order of a fresh table for s alone, so a value does
    not depend on the other ks."""
    sides = [min(k, n - k) for k in ks]
    top = max([s for s in sides if s <= _LGAMMA_MIN_SIDE], default=0)
    table = np.log(np.arange(n - top + 1, n + 1, dtype=np.float64))
    return [0.0 if s == 0
            else float(table[top - s:].sum()) - math.lgamma(s + 1) if s <= _LGAMMA_MIN_SIDE
            else math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            for k, s in zip(ks, sides)]


def _choose2(m: int) -> int:
    return m * (m - 1) // 2


# --- first moment curve and relatives ------------------------------------
#
# Each curve kind has one private evaluator that maps overlaps zs and their
# placement log-counts a = [A(z) for z in zs] to curve values.  The public
# per-point functions and curve_grid both call it; only the source of A
# differs (log_placements per point, which checks z, and _window_placements
# per overlap_window), and both take ln C from _log_binomials.


def log_placements(p: ModelParams, z: int) -> float:
    """ln of the number of kbar-subsets with overlap exactly z:
    ln [ C(k, z) * C(n-k, kbar-z) ]."""
    check_overlap(z, p.overlaps)
    return log_binomial(p.k, z) + log_binomial(p.n - p.k, p.kbar - z)


def _window_placements(p: ModelParams, lo: int, hi: int) -> list[float]:
    """[log_placements(p, z) for z in lo..hi], bit for bit, through p's memo
    of one run of overlaps: only the zs the run lacks are computed, and a
    window that neither overlaps nor touches the run starts a new one.
    A(z) depends on (n, k, kbar, z) alone, so every call order gives the
    bits of a fresh computation."""
    start, run = p._placements
    if hi + 1 < start or lo > start + len(run):
        start, run = lo, np.empty(0)
    zs = [*range(lo, start), *range(start + len(run), hi + 1)]
    if zs:
        a = np.add(_log_binomials(p.k, zs),
                   _log_binomials(p.n - p.k, [p.kbar - z for z in zs]))
        cut = max(start - lo, 0)
        run = np.concatenate((a[:cut], run, a[cut:]))
        start = min(lo, start)
        p._placements[:] = start, run
    return run[lo - start:hi + 1 - start].tolist()


def overlap_window(p: ModelParams, z_lo: int | None = None,
                   z_hi: int | None = None) -> range:
    """The overlaps a curve covers: [z_lo, z_hi], each end defaulting to the
    default window [floor(kbar*k/n), min(k, kbar)], which kbar <= n makes
    feasible and never empty.  A given end must be a feasible overlap, and
    z_lo > z_hi is an empty window (ParameterError)."""
    lo = p.kbar * p.k // p.n if z_lo is None else z_lo
    hi = p.overlaps.stop - 1 if z_hi is None else z_hi
    check_overlap(lo, p.overlaps)
    check_overlap(hi, p.overlaps)
    if lo > hi:
        raise ParameterError(f"empty overlap window [{lo}, {hi}]")
    return range(lo, hi + 1)


def first_moment_curve(p: ModelParams, z: int) -> float:
    """Union-bound envelope for the overlap-z densest kbar-subgraph value:

        C(z,2) + h^{-1}( ln2 - A(z)/M ) * M,   M = C(kbar,2) - C(z,2),

    with A(z) = log_placements(p, z).  Where M = 0 (the fully-overlapping
    point z = k = kbar, or kbar = 1) it evaluates to C(z,2).
    """
    return _first_moment(p, [z], [log_placements(p, z)])[0]


def _first_moment(p: ModelParams, zs, a) -> list[float]:
    big = _choose2(p.kbar)
    args = []
    for z, az in zip(zs, a):
        m = big - _choose2(z)
        arg = LN2 - az / m if m else LN2
        if arg < -1e-12:
            raise UndefinedCurveError(
                f"curve undefined at z={z}: placement count exceeds capacity "
                f"(h^{{-1}} argument {arg:.6g} < 0)"
            )
        args.append(max(arg, 0.0))
    # a single point takes the scalar h^{-1}: a lockstep of one lane pays
    # its 43 rounds of numpy calls for nothing
    xs = _entropy_inv_many(args) if len(args) > 1 else [binary_entropy_inv(args[0])]
    return [_choose2(z) + x * (big - _choose2(z)) for z, x in zip(zs, xs)]


def first_moment_sqrt_approx(p: ModelParams, z: int, use_k_quadratic: bool = False) -> float:
    """Square-root (leading Taylor) approximation of the first moment curve:

        (1/2)(C(kbar,2) + C(z,2)) + sqrt( (C(kbar,2) - C(z,2)) * A(z) / 2 ).

    `use_k_quadratic=True` swaps C(kbar,2) -> C(k,2) in both occurrences,
    reproducing the plotted small-clique variant of the formula.
    """
    return _sqrt_approx(p, [z], [log_placements(p, z)], use_k_quadratic)[0]


def _sqrt_approx(p: ModelParams, zs, a, use_k_quadratic: bool = False) -> list[float]:
    big = _choose2(p.k if use_k_quadratic else p.kbar)
    out = []
    for z, az in zip(zs, a):
        if az < 0:
            raise DomainError("negative placement log-count")
        cz = _choose2(z)
        m = big - cz
        if m < 0:
            raise ParameterError(f"quadratic term negative at z={z}")
        out.append(0.5 * (big + cz) + math.sqrt(m * az / 2.0))
    return out


def sqrt_approx_renormalized(p: ModelParams, z: int) -> float:
    """kbar^{-3/2} * (sqrt-approx(z) - C(kbar,2)/2), computed without the
    cancellation of subtracting two ~1e11 values."""
    return _sqrt_renormalized(p, [z], [log_placements(p, z)])[0]


def _sqrt_renormalized(p: ModelParams, zs, a) -> list[float]:
    big = _choose2(p.kbar)
    out = []
    for z, az in zip(zs, a):
        cz = _choose2(z)
        m = big - cz
        out.append((0.5 * cz + math.sqrt(m * az / 2.0)) / p.kbar**1.5)
    return out


def first_moment_expansion(p: ModelParams, z: int) -> float:
    """Second-order expansion of the first moment curve:

        (1/2)(C(kbar,2)+C(z,2)) + sqrt(A M / 2) - sqrt(A^3 / M) / (6 sqrt 2),

    M = C(kbar,2) - C(z,2).  Within O(1) of the exact curve once
    kbar >= (ln n)^5.
    """
    return _expansion(p, [z], [log_placements(p, z)])[0]


def _expansion(p: ModelParams, zs, a) -> list[float]:
    big = _choose2(p.kbar)
    out = []
    for z, az in zip(zs, a):
        cz = _choose2(z)
        m = big - cz
        if m <= 0:
            raise DomainError(f"expansion undefined at z={z}: zero quadratic gap")
        out.append(0.5 * (big + cz)
                   + math.sqrt(az * m / 2.0)
                   - math.sqrt(az**3 / m) / (6.0 * math.sqrt(2.0)))
    return out


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
    """Integer-indexed curve z -> value on [z_lo, z_hi]: values[i] is the
    value at z = z_lo + i.

    `scale` relates stored values to the edge-count scale (renormalized
    curves store value * kbar^{-3/2}, so scale = kbar^{-3/2} there); the
    classifier tolerance follows it.
    """

    params: ModelParams
    kind: str  # Gamma | GammaTilde | Phi | Empirical
    z_lo: int
    values: tuple[float, ...]
    exact: bool = False
    scale: float = 1.0
    results: dict = field(default=None, repr=False, compare=False)

    @property
    def z_hi(self) -> int:
        return self.z_lo + len(self.values) - 1

    @property
    def points(self) -> tuple[CurvePoint, ...]:
        return tuple(CurvePoint(z, v) for z, v in enumerate(self.values, self.z_lo))

    def value(self, z: int) -> float:
        if not self.z_lo <= z <= self.z_hi:
            raise ParameterError(f"z={z} outside curve domain [{self.z_lo}, {self.z_hi}]")
        return self.values[z - self.z_lo]


_KIND_EVAL = {
    "gamma": _first_moment,
    "gamma-tilde": _sqrt_approx,
    "gamma-tilde-renorm": _sqrt_renormalized,
    "phi": _expansion,
}

_KIND_NAMES = {
    "gamma": "Gamma",
    "gamma-tilde": "GammaTilde",
    "gamma-tilde-renorm": "GammaTilde",
    "phi": "Phi",
}


def curve_grid(p: ModelParams, kind: str, z_lo: int | None = None,
               z_hi: int | None = None) -> OverlapCurve:
    """Evaluate a deterministic curve on every integer z of
    overlap_window(p, z_lo, z_hi), by default [floor(kbar*k/n), k].

    The window runs as one batch: A(z) comes from one log table per
    binomial, computed once per p and overlap whatever the kind, and gamma
    inverts h in lockstep, every value bit-identical to the per-point
    function of its kind."""
    if kind not in _KIND_EVAL:
        raise ParameterError(f"unknown curve kind {kind!r}")
    window = overlap_window(p, z_lo, z_hi)
    a = _window_placements(p, window.start, window[-1])
    values = tuple(_KIND_EVAL[kind](p, window, a))
    scale = p.kbar**-1.5 if kind == "gamma-tilde-renorm" else 1.0
    return OverlapCurve(params=p, kind=_KIND_NAMES[kind], z_lo=window.start, values=values,
                        scale=scale)


# --- monotonicity classification -----------------------------------------


@dataclass(frozen=True)
class ClassifierConfig:
    """Window and slack constants for the curve classifier.

    The constants are calibration knobs: the transition statements fix their
    existence but not their values.
    """

    epsilon: float = 0.1
    c0: float = 8.0

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ParameterError(f"epsilon must lie in (0,1), got {self.epsilon}")
        if not 0 < self.c0 < math.inf:
            raise ParameterError(f"c0 must be positive and finite, got {self.c0}")


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
    if not margin >= 1.0:
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
    with the lower end falling back to overlap_window(p) when the c0-shrunk
    window keeps fewer than 3 points; ParameterError if that one does too."""
    cfg = cfg or ClassifierConfig()
    lo = int(cfg.c0 * p.kbar * p.k / p.n)
    hi = int((1.0 - cfg.epsilon) * p.k)
    if lo > hi - 2:
        lo = overlap_window(p).start
    if lo > hi - 2:
        raise ParameterError(f"window [{lo}, {hi}] has fewer than 3 points")
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
    vals = curve.values[lo - curve.z_lo:hi + 1 - curve.z_lo]

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
