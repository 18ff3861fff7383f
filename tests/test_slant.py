"""Contact angles, slant constants, and the phi T decomposition."""
import dataclasses
import logging

import numpy as np
import pytest

from sspaceform import synth
from sspaceform.curve import CurveTrace, fd_derivative, frenet_apparatus
from sspaceform.findings import (SPAN_TOL, nabla_phiT_check,
                                 phiT_aligned_curve, v_frame)
from sspaceform.manifold import ModelParams, frame_to_coords
from sspaceform.slant import contact_angles, phiT_decomposition


def slant_field_V(profile, y):
    """Coordinate components of V = sum cos(theta_alpha) xi_alpha."""
    return frame_to_coords(profile.params, v_frame(profile), y)


def test_catenary_is_legendre(catenary):
    prof = contact_angles(catenary)
    assert prof.is_slant
    assert np.allclose(prof.thetas, np.pi / 2, atol=1e-12)
    assert abs(prof.a) < 1e-12 and abs(prof.b) < 1e-12


def test_geodesic_integral_curve_angles(geodesic):
    # integral curve of xi_1: theta = (0, pi/2), a = 1
    prof = contact_angles(geodesic)
    assert prof.thetas[0] == pytest.approx(0.0, abs=1e-8)
    assert prof.thetas[1] == pytest.approx(np.pi / 2, abs=1e-12)
    assert prof.a == pytest.approx(1.0, abs=1e-12)


def test_case2_angles(case2_curve, case2_profile):
    prof = case2_profile
    assert prof.is_slant and prof.constancy_deviation < 1e-10
    assert np.allclose(prof.thetas, [np.pi / 3, 2 * np.pi / 3], atol=1e-12)
    assert prof.a == pytest.approx(0.5, abs=1e-12)
    assert abs(prof.b) < 1e-12


def test_r6_steered_angles(r6_steered):
    prof = contact_angles(r6_steered)
    assert prof.is_slant
    assert np.allclose(prof.thetas, [np.pi / 2, np.pi / 3], atol=1e-12)
    assert prof.a == pytest.approx(0.25, abs=1e-12)
    assert prof.b == pytest.approx(0.5, abs=1e-12)


def test_non_slant_flagged(params22):
    # order-4 truncated run of the r6 data drifts off slant and must be
    # flagged at the default analytic tolerance
    cfg = synth.R6ExampleConfig()
    trace, _ = synth.integrate_frenet_system(
        cfg.synthesis_spec(window=(-1.5, 1.5), step=2e-3))
    prof = contact_angles(trace, tolerance=1e-5)
    assert not prof.is_slant
    assert prof.constancy_deviation > 1e-4


def test_slant_field_V(params22, case2_profile, r6_steered):
    p = np.array([0.4, -1.3])   # V has no x, y part, so y must not matter
    # all angles pi/2 -> zero field
    legendre = contact_angles(synth.legendre_catenary(params22, n=1001))
    assert np.allclose(slant_field_V(legendre, p), 0.0, atol=1e-12)
    # r6 profile -> (1/2) xi_2, i.e. coordinate components (0,...,0, 0, 1)
    prof = contact_angles(r6_steered)
    out = slant_field_V(prof, p)
    assert np.allclose(out, [0, 0, 0, 0, 0, 1.0], atol=1e-10)
    # slant curve with a common angle: V = cos(theta) sum xi_alpha
    tr = synth.steered_slant_curve(params22, (np.pi / 3, np.pi / 3),
                                   lambda t: 0.3, p2=0.0, c2=2.0,
                                   window=(-0.5, 0.5), step=1e-3)
    prof_common = contact_angles(tr)
    out = slant_field_V(prof_common, p)
    expect = np.zeros(6)
    expect[4:] = 2.0 * np.cos(np.pi / 3)
    assert np.allclose(out, expect, atol=1e-10)


def test_nabla_phiT_identity_case2(case2_curve, case2_fd, case2_profile):
    rep = nabla_phiT_check(case2_curve, case2_fd, case2_profile)
    assert not rep["geodesic"]
    assert rep["max_residual"] < 1e-4


def test_nabla_phiT_identity_r6(r6_steered, r6_steered_fd):
    prof = contact_angles(r6_steered)
    rep = nabla_phiT_check(r6_steered, r6_steered_fd, prof)
    assert rep["max_residual"] < 1e-4


def test_nabla_phiT_legendre_sasakian_slice():
    # Legendre curve in the s = 1 model: identity reduces to
    # nabla_T phiT = sum xi_alpha + k1 phi V2 (a = b = 0)
    params = ModelParams(m=2, s=1)
    tr = synth.legendre_catenary(params, window=(-1.5, 1.5), n=3001)
    fd = frenet_apparatus(tr)
    prof = contact_angles(tr)
    assert abs(prof.a) < 1e-12 and abs(prof.b) < 1e-12
    rep = nabla_phiT_check(tr, fd, prof)
    assert rep["max_residual"] < 1e-6


def test_nabla_phiT_geodesic_flagged(geodesic):
    fd = frenet_apparatus(geodesic)
    prof = contact_angles(geodesic)
    rep = nabla_phiT_check(geodesic, fd, prof)
    assert rep["geodesic"]
    assert rep["max_residual"] < 1e-10  # both sides vanish for a = 1


@pytest.mark.parametrize("delta, slant", [(1.15e-3, True), (4.6e-3, False)])
def test_sampled_slant_tolerance_boundary(catenary, delta, slant):
    # z1 += delta sin t adds delta cos(t)/2 to eta_1(T), whose deviation
    # from its mean over -2:2 is 0.435 delta: 5e-4 and 2e-3, on either side
    # of the 1e-3 a sampled trace may have
    points = catenary.points.copy()
    points[:, 4] += delta * np.sin(catenary.ts)
    prof = contact_angles(CurveTrace.from_positions(catenary.params,
                                                    catenary.ts, points))
    assert prof.constancy_deviation == pytest.approx(0.4353 * delta, rel=1e-3)
    assert prof.is_slant == slant


def test_phiT_decomposition_case2(case2_curve, case2_fd, case2_profile):
    dec = phiT_decomposition(case2_curve, case2_fd, case2_profile)
    assert np.all(np.isfinite(dec.beta))         # a < 1: not degenerate
    assert np.max(np.abs(dec.p2)) < 1e-8          # case II: phiT perp V2
    # here phiT lies entirely outside span{V2, V3} (p2 = 0 makes that
    # admissible); the span-norm identity is conditional and must not fire
    in_span = dec.p2 ** 2 + dec.p3 ** 2 + dec.p4 ** 2
    assert (np.max(np.abs(dec.phiT_norm2 - in_span))
            > SPAN_TOL * max(1.0, 1 - case2_profile.a))
    # so the norm defect in_span - (1-a) is -(1-a): in_span vanishes
    assert np.max(np.abs(in_span)) < 1e-6
    # the derivative identity d/dt g(phiT, V2) = k2 g(phiT, V3)
    dp2 = fd_derivative(dec.p2, case2_curve.step)
    assert np.max(np.abs(dp2 - case2_fd.padded_curvatures[1] * dec.p3)) < 1e-4


def test_phiT_decomposition_r6(r6_steered, r6_steered_fd):
    prof = contact_angles(r6_steered)
    dec = phiT_decomposition(r6_steered, r6_steered_fd, prof)
    # g(phiT, V2) = sqrt(3)/2 cos(beta) with cos(beta) = -sqrt(2)/6, constant
    expect = np.sqrt(3) / 2 * (-np.sqrt(2) / 6)
    assert np.max(np.abs(dec.p2 - expect)) < 1e-6
    cosb = dec.p2 / np.sqrt(1 - 0.25)
    assert np.max(np.abs(cosb + np.sqrt(2) / 6)) < 1e-6
    assert np.max(np.abs(dec.p3)) < 1e-5          # constant beta: p3 = 0
    dp2 = fd_derivative(dec.p2, r6_steered.step)  # d/dt p2 = k2 p3
    k2 = r6_steered_fd.padded_curvatures[1]
    assert np.max(np.abs(dp2 - k2 * dec.p3)) < 1e-4


def test_phiT_decomposition_case3_alignment(params22):
    # phiT parallel V2: g(phiT, V2) = eps sqrt(1-a), beta in {0, pi}
    tr = phiT_aligned_curve(params22, (np.pi / 3, np.pi / 2),
                            lambda t: 0.25 + 0.05 * np.sin(t),
                            epsilon=+1, window=(-1.5, 1.5))
    fd = frenet_apparatus(tr)
    prof = contact_angles(tr)
    assert prof.is_slant
    dec = phiT_decomposition(tr, fd, prof)
    sq = np.sqrt(1 - prof.a)
    assert np.max(np.abs(np.abs(dec.p2) - sq)) < 1e-6
    assert np.max(np.abs(np.minimum(dec.beta, np.pi - dec.beta))) < 1e-3
    # phiT = eps sqrt(1-a) V2 exactly: in span, norm identity holds
    in_span = dec.p2 ** 2 + dec.p3 ** 2 + dec.p4 ** 2
    assert (np.max(np.abs(dec.phiT_norm2 - in_span))
            <= SPAN_TOL * max(1.0, 1 - prof.a))
    assert np.max(np.abs(in_span - (1 - prof.a))) < 1e-8


def test_phiT_decomposition_degenerate(geodesic):
    fd = frenet_apparatus(geodesic)
    prof = contact_angles(geodesic)
    with pytest.raises(ValueError):
        phiT_decomposition(geodesic, fd, prof)   # order 1: no V2


def test_eta_V2_vanishes_on_slant(case2_curve, case2_fd):
    # eta_alpha(V2) = 0 along any slant curve
    etas = case2_fd.frames[1][:, 2 * case2_curve.params.m:]
    assert np.max(np.abs(etas)) < 1e-6


def test_forced_eta_V3_identity(r6_steered, r6_steered_fd):
    # eta_alpha(V3) = (p2 + k1 cos theta_alpha)/k2, the relation that
    # makes the r6 window bound unavoidable
    trace, fd = r6_steered, r6_steered_fd
    prof = contact_angles(trace)
    dec = phiT_decomposition(trace, fd, prof)
    etas = fd.frames[2][:, 4:]
    k1, k2 = fd.curvatures[0], fd.curvatures[1]
    sl = slice(20, -20)
    for alpha in range(2):
        expect = (dec.p2 + k1 * np.cos(prof.thetas[alpha])) / k2
        assert np.max(np.abs(etas[sl, alpha] - expect[sl])) < 1e-5


def test_phiT_norm_identity_on_slant_traces(case2_curve, r6_steered):
    # ||phiT||^2 + a = 1 pointwise on every slant trace
    from sspaceform.manifold import phi_frame
    for tr in (case2_curve, r6_steered):
        prof = contact_angles(tr)
        phiT = phi_frame(tr.params, tr.tangent_frame())
        norms = np.einsum("dn,dn->n", phiT, phiT)
        assert np.max(np.abs(norms + prof.a - 1.0)) < 1e-8


def test_clipped_arccos_arguments_are_logged(geodesic, r6_steered,
                                             r6_steered_fd, caplog):
    caplog.set_level(logging.WARNING, logger="sspaceform")
    # speed 1.5 along xi_1: the mean eta_1(T) = 1.5 is clipped to theta = 0
    fast = CurveTrace(geodesic.params, geodesic.ts, 1.5 * geodesic.points,
                      [1.5 * d for d in geodesic.derivs])
    assert contact_angles(fast).thetas[0] == 0.0
    (record,) = caplog.records
    assert record.name == "sspaceform.slant"
    assert record.levelno == logging.WARNING
    assert "contact angles" in record.getMessage()
    assert "clipped 1 of 2" in record.getMessage()
    assert "largest excess |x| - 1 = 5.000e-01" in record.getMessage()

    # with a = 0.97, |g(phiT, V2)| = 0.204 exceeds sqrt(1-a) = 0.173
    caplog.clear()
    prof = dataclasses.replace(contact_angles(r6_steered), a=0.97)
    dec = phiT_decomposition(r6_steered, r6_steered_fd, prof)
    assert np.all(dec.beta == np.pi)
    (record,) = caplog.records
    assert "beta" in record.getMessage()
    excess = np.max(np.abs(dec.p2)) / np.sqrt(0.03) - 1.0
    assert f"= {excess:.3e}" in record.getMessage()


def test_unclipped_angles_log_nothing(case2_curve, case2_fd, case2_profile,
                                      r6_steered, r6_steered_fd, caplog):
    caplog.set_level(logging.DEBUG, logger="sspaceform")
    phiT_decomposition(case2_curve, case2_fd, contact_angles(case2_curve))
    phiT_decomposition(r6_steered, r6_steered_fd, contact_angles(r6_steered))
    assert caplog.records == []
