import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plandscape import numerics
from plandscape.errors import DomainError, ParameterError, UndefinedCurveError
from plandscape.model import ModelParams
from plandscape.numerics import (
    DECREASING,
    INCREASING,
    INDETERMINATE,
    NON_MONOTONIC,
    PHASE_BELOW,
    PHASE_INFORMATIVE,
    PHASE_OGP,
    PHASE_UNINFORMATIVE,
    ClassifierConfig,
    CurvePoint,
    OverlapCurve,
    binary_entropy,
    binary_entropy_inv,
    classify_curve,
    classifier_window,
    classify_params,
    curve_grid,
    entropy_inv_series,
    first_moment_curve,
    first_moment_expansion,
    first_moment_sqrt_approx,
    log_binomial,
    log_placements,
    overlap_window,
    phase_diagram,
    rate_function,
    sqrt_approx_renormalized,
    trend_statistic,
    _entropy_inv_many,
    _log_binomials,
)

LN2 = math.log(2.0)

# frozen 50-digit mpmath evaluations (independent bisection / loggamma oracle)
H_34 = 0.562335144618808350288
RATE_34 = 0.1308120359411369591292
LNC_1E7_1E6 = 3250821.959900843777909598
GAMMA_18_5_6_2 = 14.85009440440527313171
GAMMA_100_8_10_3 = 44.61423429682165320392
GAMMA_1000_30_40_10 = 637.8037826860315273489
TILDE_30_5_6_2 = 17.06840576452377233626
PHI_30_5_6_2 = 15.80012470451282213899


def synthetic_curve(values, n=1000, k=None, kbar=None, z_lo=0, scale=1.0):
    k = k or (z_lo + len(values) - 1)
    kbar = kbar or k
    return OverlapCurve(params=ModelParams(n, k, kbar), kind="Empirical", z_lo=z_lo,
                        values=tuple(float(v) for v in values), scale=scale)


# --- entropy toolkit -----------------------------------------------------


def test_entropy_endpoints_and_midpoint():
    assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.75) == pytest.approx(H_34, abs=1e-12)


def test_entropy_strictly_decreasing():
    xs = [0.5 + 0.5 * i / 200 for i in range(201)]
    vals = [binary_entropy(x) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_entropy_domain_errors():
    with pytest.raises(DomainError):
        binary_entropy(0.49)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_entropy_inverse_endpoints():
    assert binary_entropy_inv(LN2) == 0.5
    assert binary_entropy_inv(0.0) == 1.0
    x = binary_entropy_inv(0.3)
    assert abs(binary_entropy(x) - 0.3) <= 1e-12


def test_entropy_inverse_roundtrip_grid():
    worst = 0.0
    for i in range(1000):
        y = LN2 * i / 999
        x = binary_entropy_inv(y)
        worst = max(worst, abs(binary_entropy(x) - y))
    assert worst <= 1e-10


def test_entropy_inverse_monotone_decreasing():
    ys = [LN2 * i / 50 for i in range(51)]
    xs = [binary_entropy_inv(y) for y in ys]
    assert all(later <= earlier for earlier, later in zip(xs, xs[1:]))  # decreasing in y


def test_entropy_inverse_domain_errors():
    with pytest.raises(DomainError):
        binary_entropy_inv(-1e-6)
    with pytest.raises(DomainError):
        binary_entropy_inv(LN2 + 1e-6)


def test_rate_function():
    assert rate_function(0.5) == pytest.approx(0.0, abs=1e-15)
    assert rate_function(1.0) == pytest.approx(LN2, abs=1e-15)
    assert rate_function(0.75) == pytest.approx(RATE_34, abs=1e-12)


def test_series_matches_inverse_at_small_eps():
    assert entropy_inv_series(0.0) == 0.5
    err = abs(entropy_inv_series(1e-4) - binary_entropy_inv(LN2 - 1e-4))
    assert err <= 1e-9
    with pytest.raises(DomainError):
        entropy_inv_series(-1e-9)


def test_series_remainder_order_five_halves():
    # halving eps from 1e-3 to 5e-4 must shrink the error by ~2^{5/2}
    e1 = abs(entropy_inv_series(1e-3) - binary_entropy_inv(LN2 - 1e-3))
    e2 = abs(entropy_inv_series(5e-4) - binary_entropy_inv(LN2 - 5e-4))
    ratio = e1 / e2
    assert 2**2.5 * 0.8 <= ratio <= 2**2.5 * 1.25
    # and err / eps^{5/2} stays constant within 25% across the decade
    ratios = []
    for eps in (1e-2, 5e-3, 2.5e-3, 1e-3, 5e-4, 2.5e-4, 1e-4):
        err = abs(entropy_inv_series(eps) - binary_entropy_inv(LN2 - eps))
        ratios.append(err / eps**2.5)
    mid = sorted(ratios)[len(ratios) // 2]
    assert all(abs(r / mid - 1.0) <= 0.25 for r in ratios)


def test_log_binomial():
    assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-13)
    assert log_binomial(17, 0) == 0.0
    assert log_binomial(17, 17) == 0.0
    rel = abs(log_binomial(10**7, 10**6) - LNC_1E7_1E6) / LNC_1E7_1E6
    assert rel <= 1e-9
    with pytest.raises(ParameterError):
        log_binomial(3, 4)


def test_log_binomial_matches_exact_small():
    for n in range(0, 40):
        for k in range(0, n + 1):
            assert log_binomial(n, k) == pytest.approx(math.log(math.comb(n, k)), abs=1e-11)


def test_log_binomial_corner_precision():
    # small short side at huge n is where naive log-gamma differences cancel;
    # the contract is 1e-12 relative up to n = 1e8 (oracle: mpmath loggamma)
    import mpmath as mp

    mp.mp.dps = 40
    cases = [(10**8, 1), (10**8, 7), (10**8, 1000), (10**8, 262144),
             (10**8, 262145), (10**8, 10**6), (10**8, 5 * 10**7), (524288, 262144)]
    for n, k in cases:
        want = float(mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1))
        assert abs(log_binomial(n, k) - want) / abs(want) <= 1e-12, (n, k)


# --- placement counts ----------------------------------------------------


def test_log_placements_values():
    p = ModelParams(30, 5, 6)
    assert log_placements(p, 2) == pytest.approx(math.log(10 * 12650), abs=1e-10)
    assert log_placements(p, 0) == pytest.approx(math.log(math.comb(25, 6)), abs=1e-10)
    q = ModelParams(20, 4, 4)
    assert log_placements(q, 4) == pytest.approx(0.0, abs=1e-12)  # C(4,4)*C(16,0)


def test_log_placements_infeasible():
    with pytest.raises(ParameterError):
        log_placements(ModelParams(10, 3, 9), 0)  # kbar - z > n - k


# --- first moment curve ---------------------------------------------------


def test_curve_degenerate_full_overlap():
    p = ModelParams(20, 4, 4)
    assert first_moment_curve(p, 4) == 6.0


def test_curve_forced_unique_placement_is_midpoint():
    # C(k,z)*C(n-k,kbar-z) = 1 forces h^{-1}(ln 2) = 1/2
    p = ModelParams(8, 3, 8)
    assert first_moment_curve(p, 3) == pytest.approx(3 + (28 - 3) / 2, abs=1e-9)


def test_curve_against_high_precision_oracle():
    assert first_moment_curve(ModelParams(18, 5, 6), 2) == pytest.approx(
        GAMMA_18_5_6_2, abs=1e-9)
    assert first_moment_curve(ModelParams(100, 8, 10), 3) == pytest.approx(
        GAMMA_100_8_10_3, abs=1e-9)
    assert first_moment_curve(ModelParams(1000, 30, 40), 10) == pytest.approx(
        GAMMA_1000_30_40_10, abs=1e-9)


def test_curve_undefined_when_count_exceeds_capacity():
    # at (30, 5, 6, 2) the placement count beats ln2 * capacity: no density
    # level gives a vanishing expectation, so the bound does not exist there
    with pytest.raises(UndefinedCurveError):
        first_moment_curve(ModelParams(30, 5, 6), 2)


def test_curve_bounds_and_density_factor():
    import random

    rnd = random.Random(9)
    checked = 0
    while checked < 120:
        n = rnd.randint(20, 2000)
        k = rnd.randint(2, max(2, int(n**0.45)))
        kbar = rnd.randint(k, min(n - 1, 4 * k))
        p = ModelParams(n, k, kbar)
        for z in range(max(p.kbar * p.k // p.n, p.kbar - (n - k)), min(k, kbar) + 1):
            try:
                val = first_moment_curve(p, z)
            except UndefinedCurveError:
                continue
            cz, ck = math.comb(z, 2), math.comb(kbar, 2)
            m = ck - cz
            assert cz <= val <= ck + 1e-9
            if m > 0:
                dens = (val - cz) / m
                assert 0.5 - 1e-12 <= dens <= 1.0 + 1e-12
            checked += 1


def test_sqrt_approx_values():
    p = ModelParams(30, 5, 6)
    assert first_moment_sqrt_approx(p, 2) == pytest.approx(TILDE_30_5_6_2, abs=1e-9)
    # zero log term: forced unique placement
    q = ModelParams(8, 3, 8)
    assert first_moment_sqrt_approx(q, 3) == pytest.approx(0.5 * (28 + 3), abs=1e-12)


def test_sqrt_approx_literal_variant():
    # swapping the quadratic term to C(k,2) changes the value accordingly
    p = ModelParams(30, 5, 6)
    a = log_placements(p, 2)
    want = 0.5 * (math.comb(5, 2) + 1) + math.sqrt((math.comb(5, 2) - 1) * a / 2)
    got = first_moment_sqrt_approx(p, 2, use_k_quadratic=True)
    assert got == pytest.approx(want, abs=1e-12)


def test_renormalized_consistent_with_direct():
    p = ModelParams(10**7, 700, 700)
    for z in (0, 5, 300, 700):
        direct = (first_moment_sqrt_approx(p, z) - 0.5 * math.comb(700, 2)) / 700**1.5
        assert sqrt_approx_renormalized(p, z) == pytest.approx(direct, rel=1e-9)


def test_expansion_values():
    p = ModelParams(30, 5, 6)
    assert first_moment_expansion(p, 2) == pytest.approx(PHI_30_5_6_2, abs=1e-9)
    # zero log term: expansion collapses to the quadratic average
    q = ModelParams(8, 3, 8)
    assert first_moment_expansion(q, 3) == pytest.approx(0.5 * (28 + 3), abs=1e-12)
    with pytest.raises(DomainError):
        first_moment_expansion(ModelParams(20, 4, 4), 4)  # zero denominator


def test_expansion_tracks_curve_at_scale():
    p = ModelParams(10**5, 300, 400)
    diff = abs(first_moment_expansion(p, 50) - first_moment_curve(p, 50))
    assert diff <= 5.0


def test_trend_statistic_paper_points():
    assert trend_statistic(ModelParams(10**7, 700, 700)) == pytest.approx(
        44.1575780690872203929, rel=1e-12)
    t_dec = trend_statistic(ModelParams(10**7, 700, 980000))
    assert t_dec == pytest.approx(1460.15916487063234516, rel=1e-12)
    assert t_dec > 700
    t_non = trend_statistic(ModelParams(10**7, 700, 700))
    assert 0 < t_non < 700
    with pytest.raises(ParameterError):
        trend_statistic(ModelParams(10, 2, 10))


# --- classifiers -----------------------------------------------------------


def test_classify_params_paper_regimes():
    assert classify_params(ModelParams(10**7, 700, 700)).label == NON_MONOTONIC
    assert classify_params(ModelParams(10**7, 700, 980000)).label == DECREASING
    assert classify_params(ModelParams(10**7, 4000, 6250000)).label == INCREASING
    assert classify_params(ModelParams(10**7, 4000, 4000)).label == NON_MONOTONIC


def test_classify_params_boundary_indeterminate():
    assert classify_params(ModelParams(10**6, 1000, 5000)).label == INDETERMINATE
    # wide margin turns a near-boundary verdict indeterminate
    p = ModelParams(10**7, 700, 700)
    assert classify_params(p, margin=1.0).label == NON_MONOTONIC
    assert classify_params(p, margin=1e6).label == INDETERMINATE


def test_classify_curve_synthetic():
    inc = synthetic_curve([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    assert classify_curve(inc, ClassifierConfig(epsilon=0.05, c0=1.0)).label == INCREASING
    dec = synthetic_curve([11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1])
    assert classify_curve(dec, ClassifierConfig(epsilon=0.05, c0=1.0)).label == DECREASING
    vee = synthetic_curve([5, 4, 1, 2, 4, 4.5, 4.7, 4.8, 4.85, 4.9, 4.95])
    res = classify_curve(vee, ClassifierConfig(epsilon=0.05, c0=1.0))
    assert res.label == NON_MONOTONIC
    assert res.u1 == res.u2 == 2
    # window is [0, floor(0.95 k)] = [0, 9], so the right endpoint is z=9
    assert res.depth == pytest.approx(min(5, 4.9) - 1)
    assert res.u1_scaled is not None and res.u1_scaled > 0


def test_classify_curve_flat_and_peak_are_indeterminate():
    flat = synthetic_curve([3.0] * 11)
    assert classify_curve(flat, ClassifierConfig(epsilon=0.05, c0=1.0)).label == INDETERMINATE
    peak = synthetic_curve([1, 3, 5, 6, 5, 3, 2, 1.5, 1.2, 1.1, 1.0])
    assert classify_curve(peak, ClassifierConfig(epsilon=0.05, c0=1.0)).label == INDETERMINATE


def test_classify_curve_too_short():
    with pytest.raises(ParameterError):
        classify_curve(synthetic_curve([1, 2]), ClassifierConfig(epsilon=0.05, c0=1.0))


def test_classify_gamma_curve_fig2a_regime():
    p = ModelParams(10**7, 4000, 4000)
    curve = curve_grid(p, "gamma")
    res = classify_curve(curve)
    assert res.label == NON_MONOTONIC
    assert res.depth > 0
    assert curve.z_lo < res.u1 <= res.u2 < 0.9 * 4000


def test_classifier_consistency_paper_settings():
    # empirical classification of the exact curve agrees with the
    # trend-statistic classification at all four figure settings
    for k, kbar in ((700, 700), (700, 980000), (4000, 4000), (4000, 6250000)):
        p = ModelParams(10**7, k, kbar)
        emp = classify_curve(curve_grid(p, "gamma")).label
        asym = classify_params(p).label
        assert emp == asym, (k, kbar, emp, asym)


def test_curve_grid_rejects_windows_outside_feasible_overlaps():
    p = ModelParams(1000, 20, 30)  # feasible overlaps 0..20
    with pytest.raises(ParameterError, match="infeasible"):
        curve_grid(p, "gamma", 25)  # the whole window lies past k
    with pytest.raises(ParameterError, match="infeasible"):
        curve_grid(p, "gamma", 5, 21)
    with pytest.raises(ParameterError, match="infeasible"):
        curve_grid(ModelParams(20, 10, 15), "gamma", 4)  # feasible overlaps 5..10
    with pytest.raises(ParameterError, match="empty"):
        curve_grid(p, "gamma", 10, 5)
    assert [pt.z for pt in curve_grid(p, "gamma", 20).points] == [20]


small_triples = st.integers(1, 300).flatmap(
    lambda n: st.integers(1, n).flatmap(
        lambda k: st.tuples(st.just(n), st.just(k), st.integers(k, n))))
paper_triples = st.integers(1, 2000).flatmap(
    lambda k: st.tuples(st.just(10**7), st.just(k), st.integers(k, 10**7)))


@settings(max_examples=150)
@given(st.one_of(small_triples, paper_triples))
@example((1, 1, 1))
@example((300, 1, 300))
@example((10**7, 3000, 10**7 - 1))
@example((10**7, 700, 10**7))
def test_default_overlap_window_is_the_feasible_part_from_the_floor(triple):
    n, k, kbar = triple
    p = ModelParams(n, k, kbar)
    window = overlap_window(p)
    assert window == range(max(kbar * k // n, p.overlaps.start), min(k, kbar) + 1)
    assert len(window) > 0
    # gamma-tilde is defined at every overlap, so any window evaluates
    curve = curve_grid(p, "gamma-tilde")
    assert (curve.z_lo, curve.z_hi) == (window.start, window[-1])


def test_overlap_window_checks_each_given_end():
    p = ModelParams(1000, 20, 30)  # feasible overlaps 0..20, default window 0..20
    assert overlap_window(p, 5) == range(5, 21)
    assert overlap_window(p, z_hi=5) == range(0, 6)
    assert overlap_window(p, 20, 20) == range(20, 21)
    with pytest.raises(ParameterError, match=r"^overlap z=25 infeasible: feasible overlaps are 0\.\.20$"):
        overlap_window(p, 25)
    with pytest.raises(ParameterError, match=r"^overlap z=21 infeasible: feasible overlaps are 0\.\.20$"):
        overlap_window(p, 5, 21)
    with pytest.raises(ParameterError, match=r"^overlap z=-1 infeasible: feasible overlaps are 0\.\.20$"):
        overlap_window(p, z_lo=-1)
    with pytest.raises(ParameterError, match=r"^overlap z=4 infeasible: feasible overlaps are 5\.\.10$"):
        overlap_window(ModelParams(20, 10, 15), 4)
    with pytest.raises(ParameterError, match=r"^empty overlap window \[10, 5\]$"):
        overlap_window(p, 10, 5)
    # feasible overlaps 10..20, default lower end floor(90 * 20 / 100) = 18
    with pytest.raises(ParameterError, match=r"^empty overlap window \[18, 12\]$"):
        overlap_window(ModelParams(100, 20, 90), z_hi=12)


def test_curve_points_and_z_hi_are_derived_from_values():
    p = ModelParams(1000, 20, 30)
    for curve in (curve_grid(p, "gamma"), curve_grid(p, "phi", 5, 9),
                  synthetic_curve([4.0, 1.0, 2.0], z_lo=3)):
        vals = curve.values
        assert curve.points == tuple(CurvePoint(curve.z_lo + i, v) for i, v in enumerate(vals))
        assert curve.z_hi == curve.z_lo + len(vals) - 1
        assert [curve.value(z) for z in range(curve.z_lo, curve.z_hi + 1)] == list(vals)
        for z in (curve.z_lo - 1, curve.z_hi + 1):
            with pytest.raises(ParameterError, match="outside curve domain"):
                curve.value(z)


def test_non_finite_classifier_inputs_raise_parameter_error():
    p = ModelParams(1000, 20, 40)
    for c0 in (math.nan, math.inf):
        with pytest.raises(ParameterError, match="c0 must be positive and finite"):
            ClassifierConfig(c0=c0)
    with pytest.raises(ParameterError, match="margin must be >= 1"):
        classify_params(p, margin=math.nan)


def test_classifier_window_lets_phi_classify_at_k_equal_kbar():
    p = ModelParams(1000, 20, 20)
    window = classifier_window(p)
    assert window == range(int(8.0 * 20 * 20 / 1000), 19)  # ends at (1 - 0.1) k < kbar
    with pytest.raises(DomainError):
        curve_grid(p, "phi")  # the default window reaches z = kbar
    res = classify_curve(curve_grid(p, "phi", window.start, window[-1]))
    assert res.label == NON_MONOTONIC
    # the verdict reads only the window, so a wider curve gives the same one
    q = ModelParams(1000, 20, 30)
    w = classifier_window(q)
    assert classify_curve(curve_grid(q, "phi", w.start, w[-1])) == classify_curve(curve_grid(q, "phi"))


def test_classifier_window_with_fewer_than_3_points_raises():
    # at kbar = n - 1 the feasible floor k - 1 lies past (1 - epsilon) k
    p = ModelParams(10**7, 3000, 10**7 - 1)
    with pytest.raises(ParameterError, match=r"^window \[2999, 2700\] has fewer than 3 points$"):
        classifier_window(p)
    with pytest.raises(ParameterError, match="fewer than 3 points"):
        classify_curve(curve_grid(p, "gamma"))
    # further from n the fallback floor floor(kbar*k/n) still leaves a window
    assert classifier_window(ModelParams(10**7, 3000, 8 * 10**6)) == range(2400, 2701)


def test_classifier_config_validation():
    with pytest.raises(ParameterError):
        ClassifierConfig(epsilon=1.5)


def test_phase_diagram_labels():
    n = 10**6
    table = phase_diagram(n, [100, 2000], [100, 1500, 10**5, 900000])
    d = {(k, kb): lab for k, kb, lab in table}
    assert d[(100, 100)] == PHASE_OGP  # kbar=k, k << sqrt(n)
    assert d[(2000, 100)] == PHASE_BELOW
    assert d[(2000, 900000)] == PHASE_INFORMATIVE  # kbar above n^2/k^2 = 250000
    assert d[(100, 900000)] == PHASE_UNINFORMATIVE
    assert table == phase_diagram(n, [100, 2000], [100, 1500, 10**5, 900000])


def test_phase_diagram_matches_classify():
    n = 10**7
    table = phase_diagram(n, [4000], [4000, 6250000])
    d = {(k, kb): lab for k, kb, lab in table}
    assert d[(4000, 4000)] == PHASE_OGP
    assert d[(4000, 6250000)] == PHASE_INFORMATIVE


def test_entropy_inverse_extreme_boundaries():
    # y within double resolution of the endpoints must not blow up
    for y in (1e-18, 1e-16, 4e-15, 1e-13, LN2 - 1e-16, LN2 - 1e-13):
        x = binary_entropy_inv(y)
        assert 0.5 <= x <= 1.0
        assert abs(binary_entropy(x) - y) <= 1e-12


# --- batch windows: bit for bit against the per-point functions ------------

PER_POINT = {
    "gamma": first_moment_curve,
    "gamma-tilde": first_moment_sqrt_approx,
    "gamma-tilde-renorm": sqrt_approx_renormalized,
    "phi": first_moment_expansion,
}


@st.composite
def curve_windows(draw):
    """(params, z_lo, z_hi) over every log_binomial regime at n = 1e7: short
    sums with k == kbar (window ending at z = kbar), long direct sums,
    windows whose side kbar - z crosses 2^18, the log-gamma branch, plus
    small instances where the curves raise."""
    regime = draw(st.sampled_from(["small", "k=kbar", "long", "cross", "lgamma"]))
    if regime == "small":
        n = draw(st.integers(2, 300))
        k = draw(st.integers(1, n))
        kbar = draw(st.integers(k, n))
    else:
        n = 10**7
        k = draw(st.integers(1, 700))
        kbar = {"k=kbar": k, "long": draw(st.integers(11_000, 14_000)),
                "cross": 2**18 + draw(st.integers(0, k)),
                "lgamma": draw(st.integers(300_000, 1_000_000))}[regime]
    p = ModelParams(n, k, kbar)
    dom = p.overlaps
    if regime == "k=kbar":
        hi = k
    elif regime == "cross":
        hi = min(kbar - 2**18 + draw(st.integers(0, 4)), dom[-1])
    else:
        hi = draw(st.integers(dom.start, dom[-1]))
    lo = max(dom.start, hi - draw(st.integers(0, 7 if regime == "cross" else 15)))
    return p, lo, hi


@settings(max_examples=80)
@given(curve_windows())
@example((ModelParams(30, 5, 6), 0, 5))  # gamma undefined from z = 2
@example((ModelParams(1000, 20, 20), 10, 20))  # phi undefined at z = kbar
@example((ModelParams(10, 1, 1), 0, 1))  # kbar = 1: zero quadratic gap at z = 0
@example((ModelParams(10**7, 600, 2**18 + 300), 296, 303))
def test_curve_grid_window_equals_per_point_functions(case):
    p, lo, hi = case
    for kind, fn in PER_POINT.items():
        want = []
        for z in range(lo, hi + 1):
            try:
                want.append(fn(p, z).hex())
            except (DomainError, UndefinedCurveError) as exc:
                with pytest.raises(type(exc)) as got:
                    curve_grid(p, kind, lo, hi)
                assert str(got.value) == str(exc), kind
                break
        else:
            assert [v.hex() for v in curve_grid(p, kind, lo, hi).values] == want, kind


def test_curve_at_zero_quadratic_gap_is_choose2():
    # kbar = 1 leaves M = C(kbar,2) - C(z,2) = 0 at z = 0 as well as at z = kbar
    p = ModelParams(10, 1, 1)
    assert [first_moment_curve(p, z) for z in (0, 1)] == [0.0, 0.0]
    assert curve_grid(p, "gamma").values == (0.0, 0.0)


def test_log_binomials_match_log_binomial_on_one_table():
    n = 10**7
    ks = [0, 1, 2, 2**18 - 1, 2**18, 2**18 + 1, 12_345, n - 2**18, n - 7, n]
    assert [x.hex() for x in _log_binomials(n, ks)] == [log_binomial(n, k).hex() for k in ks]
    assert _log_binomials(n, [0, n, 2**18 + 1]) == [0.0, 0.0, log_binomial(n, 2**18 + 1)]


def _midpoint_entropies(count, seed=5):
    """h(m) with math.log and with np.log at bisection midpoints m (odd
    multiples of 2^-d, d <= 44, in (1/2, 1)) where the two logs disagree."""
    rng = np.random.default_rng(seed)
    depth = rng.integers(2, 45, count)
    m = 0.5 + (2 * (rng.integers(0, 2**42, count) % 2 ** (depth - 2)) + 1) * 2.0 ** -depth
    q = 1.0 - m
    h_np = -m * np.log(m) - q * np.log(q)
    h_math = np.array([binary_entropy(x) for x in m.tolist()])
    sel = h_np != h_math
    return h_math[sel].tolist() + h_np[sel].tolist()


def test_entropy_inv_many_equals_scalar_on_adversarial_values():
    # y = h(m) computed with math.log, at midpoints where np.log rounds the
    # other way, puts the lockstep comparison on the wrong side unless the
    # near-tie guard redoes it with math.log
    ys = [0.0, 1e-300, 5e-324, 4e-15, LN2 - 1e-17, LN2, LN2 - 1e-16, 0.3, H_34]
    ys += _midpoint_entropies(100_000)
    ys += [binary_entropy(x) for x in np.linspace(0.5, 1.0, 201).tolist()]
    got = _entropy_inv_many(ys)
    assert [x.hex() for x in got] == [binary_entropy_inv(y).hex() for y in ys]
    assert _entropy_inv_many([]) == []


def test_entropy_inv_many_raises_like_scalar():
    for bad in (-1e-6, LN2 + 1e-6, math.nan):
        with pytest.raises(DomainError) as want:
            binary_entropy_inv(bad)
        with pytest.raises(DomainError) as got:
            _entropy_inv_many([0.3, bad])
        assert str(got.value) == str(want.value)


# --- the per-params memo of A(z) -------------------------------------------

# one ModelParams per log_binomial regime at n = 1e7: short direct sums
# (k == kbar), long direct sums just under 2^18, and the log-gamma branch
MEMO_PARAMS = [(10**7, 300, 300), (10**7, 600, 2**18 - 5), (10**7, 500, 600_000)]
KINDS = list(PER_POINT)


def _window(p):
    """The default window, stopped at k - 1 so phi stays defined at k == kbar."""
    return overlap_window(p).start, p.k - 1


def _call_orders(p):
    lo, hi = _window(p)
    mid = (lo + hi) // 2
    return {
        "full-then-sub": [("gamma", lo, hi), ("phi", lo + 3, mid), ("gamma-tilde", mid, hi)],
        "sub-then-full": [("gamma-tilde", lo + 3, mid), ("gamma", lo, hi)],
        "disjoint": [("gamma", mid, hi), ("phi", lo, lo + 10), ("gamma-tilde", lo + 20, mid - 5)],
        "adjacent": [("gamma", lo + 10, mid), ("phi", mid + 1, hi), ("gamma-tilde", lo, lo + 9)],
        "kinds-reversed": [(kind, lo, hi) for kind in reversed(KINDS)],
    }


def _fresh_bits(p, kind, lo, hi):
    return [v.hex() for v in curve_grid(ModelParams(p.n, p.k, p.kbar), kind, lo, hi).values]


@pytest.mark.parametrize("order", ["full-then-sub", "sub-then-full", "disjoint",
                                   "adjacent", "kinds-reversed"])
@pytest.mark.parametrize("triple", MEMO_PARAMS)
def test_curve_grid_memo_equals_fresh_params_in_any_call_order(triple, order):
    p = ModelParams(*triple)
    for kind, lo, hi in _call_orders(p)[order]:
        values = curve_grid(p, kind, lo, hi).values
        assert {type(v) for v in values} == {float}
        assert [v.hex() for v in values] == _fresh_bits(p, kind, lo, hi), (kind, lo, hi)
        assert len(p._placements[1]) <= len(p.overlaps)
    start, run = p._placements
    for i in sorted({*range(0, len(run), 17), len(run) - 1}):
        assert run[i].hex() == log_placements(p, start + i).hex()


def test_curve_grid_memo_computes_only_missing_overlaps(monkeypatch):
    p = ModelParams(10**7, 400, 12_000)
    lo, hi = _window(p)
    asked = []
    real = numerics._log_binomials

    def spy(n, ks):
        if n == p.k:
            asked.append(list(ks))
        return real(n, ks)

    def computed(kind, a, b):
        asked.clear()
        curve_grid(p, kind, a, b)
        assert len(asked) <= 1  # one table per binomial and call
        return asked[0] if asked else []

    monkeypatch.setattr(numerics, "_log_binomials", spy)
    assert computed("gamma", lo + 50, hi - 50) == list(range(lo + 50, hi - 49))
    for kind in KINDS:  # every kind reads the memo
        assert computed(kind, lo + 60, hi - 60) == []
    assert computed("phi", lo + 40, lo + 49) == list(range(lo + 40, lo + 50))  # adjacent below
    assert computed("gamma-tilde", hi - 49, hi - 45) == list(range(hi - 49, hi - 44))  # above
    assert computed("gamma", lo, hi) == [*range(lo, lo + 40), *range(hi - 44, hi + 1)]
    assert len(p._placements[1]) == hi - lo + 1
    assert computed("phi", lo, lo) == []


def test_curve_grid_memo_holds_at_most_one_value_per_overlap():
    p = ModelParams(60, 10, 55)  # feasible overlaps 5..10
    rng = np.random.default_rng(3)
    for _ in range(200):
        lo, hi = sorted(rng.integers(p.overlaps.start, p.overlaps.stop, 2).tolist())
        kind = KINDS[int(rng.integers(0, len(KINDS)))]
        got = [v.hex() for v in curve_grid(p, kind, lo, hi).values]
        assert got == _fresh_bits(p, kind, lo, hi)
        assert len(p._placements[1]) <= len(p.overlaps)


def test_equal_params_objects_give_the_same_bits():
    a, b = ModelParams(10**7, 500, 600_000), ModelParams(10**7, 500, 600_000)
    assert a is not b and a == b and hash(a) == hash(b)
    lo, hi = _window(a)
    curve_grid(a, "phi", lo + 100, hi)  # a answers from its memo, b computes fresh
    for kind in KINDS:
        assert ([v.hex() for v in curve_grid(a, kind, lo, hi).values]
                == [v.hex() for v in curve_grid(b, kind, lo, hi).values]), kind


def test_memo_leaves_params_equality_hash_and_repr_alone():
    p = ModelParams(10**7, 300, 300)
    before = (repr(p), hash(p), dataclasses.astuple(p))
    curve_grid(p, "gamma")
    assert (repr(p), hash(p), dataclasses.astuple(p)) == before
    assert repr(p) == "ModelParams(n=10000000, k=300, kbar=300)"
    assert [f.name for f in dataclasses.fields(p)] == ["n", "k", "kbar"]
    assert p == ModelParams(10**7, 300, 300) and p != ModelParams(10**7, 300, 301)
    assert hash(p) == hash(ModelParams(10**7, 300, 300))
    assert dataclasses.replace(p, kbar=301) == ModelParams(10**7, 300, 301)


# --- accuracy against 40-digit mpmath ---------------------------------------

# worst relative error over every point of these windows, measured on 2-core
# x86-64 with numpy 2: 3.9e-14 (gamma, then gamma-tilde-renorm, where A(z) comes
# from the log-gamma branch or h^{-1} is ill-conditioned near 1/2); 3.5e-16 at
# short sums.  The bound sits 100x under the 1e-11 benchmark oracle.
ACCURACY_REL = 1e-13


def _mp_curve(kind, p, z):
    """One curve point from its documented formula, all in 40-digit mpmath."""
    import mpmath as mp

    with mp.workdps(40):
        def lnc(n, k):
            return mp.loggamma(n + 1) - mp.loggamma(k + 1) - mp.loggamma(n - k + 1)

        a = lnc(p.k, z) + lnc(p.n - p.k, p.kbar - z)
        cz, ck = mp.mpf(z * (z - 1) // 2), mp.mpf(p.kbar * (p.kbar - 1) // 2)
        m = ck - cz
        if kind == "gamma":
            y, lo, hi = mp.log(2) - a / m, mp.mpf(0.5), mp.mpf(1)
            for _ in range(140):  # h(lo) > y >= h(hi); 2^-140 < 1e-42
                mid = (lo + hi) / 2
                if -mid * mp.log(mid) - (1 - mid) * mp.log(1 - mid) > y:
                    lo = mid
                else:
                    hi = mid
            return cz + lo * m
        if kind == "gamma-tilde":
            return (ck + cz) / 2 + mp.sqrt(m * a / 2)
        if kind == "gamma-tilde-renorm":
            return (cz / 2 + mp.sqrt(m * a / 2)) / mp.mpf(p.kbar) ** 1.5
        return (ck + cz) / 2 + mp.sqrt(a * m / 2) - mp.sqrt(a**3 / m) / (6 * mp.sqrt(2))


@pytest.mark.parametrize("triple", MEMO_PARAMS + [(10**7, 600, 2**18 + 300)])
def test_curves_match_40_digit_mpmath(triple):
    # the last triple's window has sides kbar - z on both sides of 2^18
    p = ModelParams(*triple)
    lo, hi = _window(p)
    curve_grid(p, "gamma-tilde", lo, (lo + hi) // 2)  # half the points come from the memo
    for kind in KINDS:
        curve = curve_grid(p, kind, lo, hi)
        for z in sorted({*range(lo, hi + 1, 9), hi}):
            ref = _mp_curve(kind, p, z)
            assert float(abs((curve.value(z) - ref) / ref)) <= ACCURACY_REL, (kind, z)
