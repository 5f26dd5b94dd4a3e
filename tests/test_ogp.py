import dataclasses
import math
from itertools import combinations
from types import SimpleNamespace

import pytest

from plandscape.errors import CertificationError, ParameterError
from plandscape.model import ModelParams, VertexSubset, edge_count, sample_planted
from plandscape.numerics import CurvePoint, OverlapCurve, overlap_window
from plandscape.ogp import auto_certify, certify_ogp, dip_witness, overlap_curve


def make_curve(values, exact=True, n=100, k=None, kbar=None):
    k = k or len(values) - 1
    kbar = kbar or k
    return OverlapCurve(params=ModelParams(n, k, kbar), kind="Empirical", z_lo=0,
                        values=tuple(float(v) for v in values), exact=exact)


def enumerate_dense_overlaps(g, kbar, r_n):
    """Independent enumerator: overlaps of every kbar-subset with >= r_n edges."""
    planted = set(g.planted)
    seen = set()
    for c in combinations(range(g.n), kbar):
        if edge_count(g, VertexSubset(c)) >= r_n:
            seen.add(len(planted.intersection(c)))
    return seen


def test_overlap_curve_matches_independent_enumerator():
    g = sample_planted(14, 4, 7)
    curve = overlap_curve(g, 5)
    assert curve.exact
    planted = set(g.planted)
    for z in range(curve.z_lo, curve.z_hi + 1):
        best = max(edge_count(g, VertexSubset(c))
                   for c in combinations(range(14), 5)
                   if len(planted.intersection(c)) == z)
        assert curve.value(z) == best


def test_overlap_curve_covers_the_default_window():
    g = sample_planted(14, 4, 7)
    for kbar in (4, 5, 7, 12):  # default lower ends 1, 1, 2, 3
        window = overlap_window(ModelParams(14, 4, kbar))
        for curve in (overlap_curve(g, kbar), overlap_curve(g, kbar, method="local", restarts=2)):
            assert range(curve.z_lo, curve.z_hi + 1) == window
            assert list(curve.results) == list(window)


def test_overlap_curve_full_overlap_entry():
    g = sample_planted(14, 4, 3)
    curve = overlap_curve(g, 4)
    assert curve.value(4) == 6  # the planted clique itself


def test_local_curve_below_exact_curve():
    g = sample_planted(14, 4, 9)
    exact = overlap_curve(g, 5)
    local = overlap_curve(g, 5, method="local", restarts=3, seed=2)
    assert not local.exact
    for z in range(exact.z_lo, exact.z_hi + 1):
        assert local.value(z) <= exact.value(z)


def test_dip_witness_monotone_none():
    assert dip_witness(make_curve([1, 2, 3, 4, 5])) is None
    assert dip_witness(make_curve([5, 4, 3, 2, 1])) is None
    assert dip_witness(make_curve([1, 2])) is None


def test_dip_witness_vee():
    wit = dip_witness(make_curve([5, 1, 4]))
    assert wit.z_star == 1 and wit.dip_value == 1
    assert (wit.lo_value, wit.hi_value) == (5, 4)
    # deepest dip wins; ties go to the smallest overlap
    wit = dip_witness(make_curve([5, 2, 1, 1, 4]))
    assert wit.z_star == 2


def test_certify_requires_exact_curve():
    g = sample_planted(14, 4, 7)
    heuristic = overlap_curve(g, 5, method="local", restarts=2, seed=0)
    with pytest.raises(CertificationError):
        certify_ogp(heuristic, 1, 3, 5.0)


def test_certify_threshold_zero_never_holds():
    # every subset has >= 0 edges, so the band is never empty of witnesses
    g = sample_planted(14, 4, 7)
    curve = overlap_curve(g, 5)
    cert = certify_ogp(curve, curve.z_lo, curve.z_hi, 0.0)
    assert not cert.holds
    assert cert.violation is not None


def test_certify_threshold_above_capacity_never_holds():
    g = sample_planted(14, 4, 7)
    curve = overlap_curve(g, 5)
    cert = certify_ogp(curve, 1, 3, math.comb(5, 2) + 1.0)
    assert not cert.holds
    assert "no dense subset" in cert.reason


def test_auto_certify_dip_instance():
    g = sample_planted(12, 4, 30)  # exact d-curve [6, 6, 6, 5, 6]
    cert = auto_certify(g, 4)
    assert cert.holds
    assert cert.zeta1 < cert.zeta2
    assert cert.low_witness is not None and cert.high_witness is not None
    assert edge_count(g, cert.low_witness) >= cert.r_n
    assert edge_count(g, cert.high_witness) >= cert.r_n
    planted = set(g.planted)
    assert len(planted & set(cert.low_witness.members)) <= cert.zeta1
    assert len(planted & set(cert.high_witness.members)) >= cert.zeta2
    # independent re-verification: no dense subset in the open band
    dense = enumerate_dense_overlaps(g, 4, cert.r_n)
    assert all(z <= cert.zeta1 or z >= cert.zeta2 for z in dense)


def test_auto_certify_monotone_instance_refuses():
    # find an instance whose d-curve has no dip
    for seed in range(100):
        g = sample_planted(12, 4, seed)
        curve = overlap_curve(g, 4)
        if dip_witness(curve) is None:
            cert = auto_certify(g, 4)
            assert not cert.holds
            assert "monotone or dip-free" in cert.reason
            return
    pytest.fail("no dip-free instance found in the scan")


def test_auto_certify_agrees_with_certify():
    g = sample_planted(12, 4, 30)
    cert = auto_certify(g, 4)
    curve = overlap_curve(g, 4)
    again = certify_ogp(curve, cert.zeta1, cert.zeta2, cert.r_n)
    assert again.holds


def test_certificates_sound_on_seeded_batch():
    holding = 0
    for seed in range(40):
        g = sample_planted(12, 4, seed)
        cert = auto_certify(g, 4)
        if cert.holds:
            holding += 1
            dense = enumerate_dense_overlaps(g, 4, cert.r_n)
            assert all(z <= cert.zeta1 or z >= cert.zeta2 for z in dense), seed
            assert any(z <= cert.zeta1 for z in dense)
            assert any(z >= cert.zeta2 for z in dense)
        else:
            # refusals must come with a dip-free curve
            assert dip_witness(overlap_curve(g, 4)) is None
    assert holding >= 1


def test_certify_parameter_validation():
    g = sample_planted(12, 4, 30)
    curve = overlap_curve(g, 4)
    with pytest.raises(ParameterError):
        certify_ogp(curve, 3, 1, 5.0)
    with pytest.raises(ParameterError):
        overlap_curve(g, 0)


def test_monotone_exact_curve_never_certifies():
    curve = make_curve([1, 2, 3, 4, 5, 6], exact=True)
    for zeta1 in range(0, 4):
        for zeta2 in range(zeta1 + 2, 6):
            for r in (0.0, 1.5, 3.0, 4.5, 6.0):
                assert not certify_ogp(curve, zeta1, zeta2, r).holds


def test_curve_points_and_z_hi_are_derived_from_values():
    g = sample_planted(14, 4, 7)
    for curve in (overlap_curve(g, 5), overlap_curve(g, 5, method="local", seed=3),
                  make_curve([3, 1, 2, 5])):
        vals = curve.values
        assert curve.points == tuple(CurvePoint(curve.z_lo + i, v) for i, v in enumerate(vals))
        assert curve.z_hi == curve.z_lo + len(vals) - 1
        assert [curve.value(z) for z in range(curve.z_lo, curve.z_hi + 1)] == list(vals)
        for z in (curve.z_lo - 1, curve.z_hi + 1):
            with pytest.raises(ParameterError, match="outside curve domain"):
                curve.value(z)


def test_certify_ogp_breaks_ties_to_the_smallest_overlap():
    curve = dataclasses.replace(make_curve([5, 5, 4, 4, 5, 5]),
                                results={z: SimpleNamespace(witness=z) for z in range(6)})
    held = certify_ogp(curve, 1, 4, 4.5)
    assert held.holds and (held.low_witness, held.high_witness) == (0, 4)
    refuted = certify_ogp(curve, 1, 4, 3.0)
    assert not refuted.holds and refuted.violation == (2, 2)


def test_certify_ogp_rejects_a_non_finite_level():
    g = sample_planted(14, 4, 7)
    curve = overlap_curve(g, 5)
    for r_n in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParameterError, match="r_n must be finite"):
            certify_ogp(curve, curve.z_lo, curve.z_hi, r_n)


def test_overlap_curve_rejects_kbar_below_k_before_enumerating():
    g = sample_planted(12, 4, 0)
    with pytest.raises(ParameterError):  # a BudgetError would mean it enumerated
        overlap_curve(g, 3, budget=1)
