import math

import pytest

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
    log_placements_step,
    phase_diagram,
    rate_function,
    sqrt_approx_renormalized,
    trend_statistic,
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
    pts = tuple(CurvePoint(z_lo + i, float(v)) for i, v in enumerate(values))
    return OverlapCurve(params=ModelParams(n, k, kbar), kind="Empirical",
                        points=pts, z_lo=z_lo, z_hi=z_lo + len(values) - 1, scale=scale)


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


def test_log_placements_step_identity():
    # closed-form increment equals the direct difference on random triples
    import random

    rnd = random.Random(4)
    for _ in range(200):
        n = rnd.randint(8, 60)
        k = rnd.randint(1, n // 2)
        kbar = rnd.randint(k, min(n - 1, k + n // 3))
        p = ModelParams(n, k, kbar)
        for z in range(0, min(k, kbar)):
            if kbar - z > n - k or kbar - (z + 1) > n - k:
                continue
            lhs = log_placements_step(p, z)
            rhs = log_placements(p, z + 1) - log_placements(p, z)
            assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)


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


def test_classifier_config_validation():
    with pytest.raises(ParameterError):
        ClassifierConfig(epsilon=1.5)
    with pytest.raises(ParameterError):
        ClassifierConfig(d1=2.0, d2=1.0)


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
