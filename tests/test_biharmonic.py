"""Tension fields, master equations, verdicts, and the case analysis."""
import dataclasses

import numpy as np
import pytest

from sspaceform import biharmonic, findings, odesol, synth
from sspaceform.biharmonic import (CASE_TOL, EQUATIONS, WeightFunction,
                                   check_conditions, classify_case,
                                   mainprop_residuals, tau3)
from sspaceform.curve import (CurveTrace, covariant_chain, fd_derivative,
                              frenet_apparatus)
from sspaceform.findings import (case1_case2_checker, case3_obstruction,
                                 case4_checker, case4_mu, span_angle)
from sspaceform.manifold import ModelParams, curvature_frame, frame_to_coords
from sspaceform.slant import (PhiTDecomposition, SlantProfile, contact_angles,
                              phiT_decomposition)

from conftest import (k1_case2, k1_catenary, rowmajor_covariant_chain,
                      rowmajor_curvature_frame, rowmajor_tau2, rowmajor_tau3,
                      same_bits, sampled_weight)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

def test_weight_validation():
    ts = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        WeightFunction(ts, -np.ones(11), np.zeros(11), np.zeros(11))
    w = WeightFunction.constant(ts, 3.0)
    assert w.is_constant and w.variation == 0.0


def test_weight_from_samples():
    ts = np.linspace(-1, 1, 401)
    f = sampled_weight(ts, np.exp(ts))
    assert np.max(np.abs(f.fp - np.exp(ts))[5:-5]) < 1e-8
    assert not f.is_constant


def test_weight_refuses_non_finite_samples(catenary):
    # one nan weight sample used to give verdict "none" with nan residuals
    f = (1.0 + catenary.ts ** 2) ** 1.5
    f[2000] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite f in row 2000"):
        sampled_weight(catenary.ts, f)
    ts = np.linspace(0, 1, 11)
    fpp = np.zeros(11)
    fpp[7] = np.inf
    with pytest.raises(FloatingPointError, match="non-finite fpp in row 7"):
        WeightFunction(ts, np.ones(11), np.zeros(11), fpp)


# ---------------------------------------------------------------------------
# tension fields
# ---------------------------------------------------------------------------

def test_tau2_geodesic_vanishes(geodesic):
    fd = frenet_apparatus(geodesic)
    out = tau3(fd, WeightFunction.constant(geodesic.ts))
    assert np.max(np.linalg.norm(out.field, axis=0)) < 1e-12
    rep = check_conditions(geodesic, fd, contact_angles(geodesic),
                           WeightFunction.constant(geodesic.ts))
    assert rep.residuals["tau3_norm"] < 1e-12


def test_tau2_circle_closed_form(circle):
    # flat-slice circle: the curvature term R(T, nabla_T T)T vanishes and
    # tau2 = -k1^3 V2 exactly
    fd = frenet_apparatus(circle)
    out = tau3(fd, WeightFunction.constant(circle.ts))
    k1 = fd.curvatures[0][:, None]
    expect = -k1 ** 3 * fd.frames[1]
    assert np.max(np.linalg.norm(out.field.T - expect, axis=1)) < 1e-10
    rep = check_conditions(circle, fd, contact_angles(circle),
                           WeightFunction.constant(circle.ts))
    assert np.max(list(rep.details["identity_gaps"].values())) < 1e-3


def test_depth3_trace_has_no_tau2(catenary):
    # tau2 reads nabla_T^3 T, which needs gamma^(4): tau3 refuses a
    # depth-3 trace, and so does check_conditions, which always runs it
    trace = CurveTrace(catenary.params, catenary.ts, catenary.points,
                       catenary.derivs[:3])
    fd = frenet_apparatus(trace)
    f = odesol.f_from_k1(trace.ts, *k1_catenary(trace.ts), c1=1.0)
    with pytest.raises(ValueError, match="depth"):
        tau3(fd, f)
    with pytest.raises(ValueError, match="depth"):
        check_conditions(trace, fd, contact_angles(trace), f)


def test_tau3_constant_f_equals_tau2(case2_curve, case2_fd, case2_profile):
    f = WeightFunction.constant(case2_curve.ts, 2.5)
    t2 = rowmajor_tau2(case2_fd, rowmajor_covariant_chain(case2_curve))
    t3 = tau3(case2_fd, f)
    diff = np.linalg.norm(t3.field.T - t2["field"], axis=1)
    assert np.max(diff) < 1e-10


def test_tau3_vanishes_on_case2_curve(case2_curve, case2_fd, case2_profile):
    f = odesol.f_from_k1(case2_curve.ts, *k1_case2(case2_curve.ts), c1=1.0)
    t3 = tau3(case2_fd, f)
    sl = slice(20, -20)
    assert np.max(t3.norm[sl]) < 1e-3
    rep = check_conditions(case2_curve, case2_fd, case2_profile, f)
    assert np.max(list(rep.details["identity_gaps"].values())) < 1e-3


def test_tau3_vanishes_on_catenary(catenary, catenary_fd):
    prof = contact_angles(catenary)
    f = odesol.f_from_k1(catenary.ts, *k1_catenary(catenary.ts), c1=1.0)
    t3 = tau3(catenary_fd, f)
    assert np.max(t3.norm[5:-5]) < 1e-6


def test_tau3_geodesic_any_f(geodesic):
    fd = frenet_apparatus(geodesic)
    prof = contact_angles(geodesic)
    f = sampled_weight(geodesic.ts, 2.0 + np.sin(geodesic.ts))
    t3 = tau3(fd, f)
    assert np.max(t3.norm) < 1e-12


@pytest.mark.parametrize("name", ["catenary", "circle", "geodesic", "case2-order3",
                                  "r6-example", "r6-steered", "csv:case2-order3",
                                  "csv:r6-steered", "catenary-16001"])
def test_chain_and_tension_match_rowmajor_oracles_bitwise(name, request, tmp_path,
                                                          params22, monkeypatch):
    # the component-major chain, curvature term and tau3, at a constant
    # and a varying f, against the row-major forms they replaced, down to
    # the sign of every zero; the tension fields run in blocks of 1000
    # samples, the last one short, and the bench's largest verify in blocks
    # of the production size
    source = name.removeprefix("csv:")
    if source == "r6-example":
        trace, _ = synth.integrate_frenet_system(
            synth.R6ExampleConfig().synthesis_spec(window=(-0.5, 0.5)))
    elif source == "catenary-16001":
        trace = synth.legendre_catenary(params22, window=(-8.0, 8.0), n=16001)
    else:
        trace = request.getfixturevalue(
            {"case2-order3": "case2_curve", "r6-steered": "r6_steered"}.get(source, source))
    if name.startswith("csv:"):
        trace.to_csv(tmp_path / "trace.csv")
        trace = CurveTrace.from_csv(params22, tmp_path / "trace.csv")
    chain, want = covariant_chain(trace), rowmajor_covariant_chain(trace)
    assert len(chain) == len(want) == trace.depth
    for level, ref in zip(chain, want):
        assert same_bits(level.T, ref)
    assert same_bits(curvature_frame(params22, chain[0], chain[1], chain[0]).T,
                     rowmajor_curvature_frame(params22, want[0], want[1], want[0]))
    if name != "catenary-16001":
        monkeypatch.setattr(biharmonic, "TAU_BLOCK", 1000)
    assert trace.n > biharmonic.TAU_BLOCK
    fd = frenet_apparatus(trace)
    f = sampled_weight(trace.ts, 2.0 + np.sin(trace.ts))
    const = WeightFunction.constant(trace.ts, 2.5)
    t2, t3 = tau3(fd, const), tau3(fd, f)
    ref2, ref3 = rowmajor_tau3(fd, const, want), rowmajor_tau3(fd, f, want)
    for got, ref in ((t2, ref2), (t3, ref3)):
        assert same_bits(got.field.T, ref["field"])
        assert same_bits(got.norm, ref["norm"])


@pytest.mark.parametrize("where", ["first-interior", "last-interior",
                                   "first-band", "last-band"])
def test_identity_gaps_keep_a_nan_of_the_interior_only(where, catenary,
                                                       catenary_fd):
    # the gaps are maxed over trace.interior: a nan k1 at its first or last
    # row makes all five nan, one in the edge band it drops leaves them
    # finite
    sl = catenary.interior
    row = {"first-interior": sl.start, "last-interior": sl.stop - 1,
           "first-band": 0, "last-band": catenary.n - 1}[where]
    k = catenary_fd.curvatures.copy()
    k[0, row] = np.nan
    fd = dataclasses.replace(catenary_fd, curvatures=k)
    f = odesol.f_from_k1(catenary.ts, *k1_catenary(catenary.ts), c1=1.0)
    rep = check_conditions(catenary, fd, contact_angles(catenary), f)
    finite = np.isfinite(list(rep.details["identity_gaps"].values()))
    assert finite.tolist() == [where.endswith("band")] * 5, (row, finite)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_check_conditions_case2_proper(case2_curve, case2_fd, case2_profile):
    f = odesol.f_from_k1(case2_curve.ts, *k1_case2(case2_curve.ts), c1=1.0)
    rep = check_conditions(case2_curve, case2_fd, case2_profile, f)
    assert rep.verdict == "proper-f-biharmonic"
    assert rep.case == "II"
    for key in ("eq1", "eq2", "eq3", "eq4", "gphiT"):
        assert rep.residuals[key] < 1e-3, (key, rep.residuals)


def test_check_conditions_catenary_proper(catenary, catenary_fd):
    prof = contact_angles(catenary)
    f = odesol.f_from_k1(catenary.ts, *k1_catenary(catenary.ts), c1=1.0)
    rep = check_conditions(catenary, catenary_fd, prof, f)
    assert rep.verdict == "proper-f-biharmonic"
    assert rep.case == "II"


def test_check_conditions_wrong_f_fails(case2_curve, case2_fd, case2_profile):
    f = WeightFunction.constant(case2_curve.ts, 1.0)
    rep = check_conditions(case2_curve, case2_fd, case2_profile, f)
    assert rep.verdict == "none"
    assert rep.residuals["eq1"] > 1e-2


def test_check_conditions_constant_weight_is_biharmonic(circle):
    # every residual of the flat-slice circle (0, 1, 0, 0, 0) is below a
    # loose eq_tol: a constant weight makes it biharmonic, a varying one
    # proper f-biharmonic
    fd = frenet_apparatus(circle)
    prof = contact_angles(circle)
    rep = check_conditions(circle, fd, prof,
                           WeightFunction.constant(circle.ts, 1.0), eq_tol=1e3)
    assert rep.verdict == "biharmonic"
    assert [rep.residuals[k] for k in EQUATIONS] == pytest.approx(
        [0.0, 1.0, 0.0, 0.0, 0.0], abs=1e-9)
    ts = circle.ts
    varying = WeightFunction(ts=ts, f=2.0 + np.sin(ts), fp=np.cos(ts),
                             fpp=-np.sin(ts))
    rep = check_conditions(circle, fd, prof, varying, eq_tol=1e3)
    assert rep.verdict == "proper-f-biharmonic"


@pytest.mark.parametrize("variation, verdict", [(1e-9, "biharmonic"),
                                                (1e-7, "proper-f-biharmonic")])
def test_proper_f_variation_boundary(circle, variation, verdict):
    # a weight counts as varying above a relative variation of 1e-8
    fd = frenet_apparatus(circle)
    prof = contact_angles(circle)
    ts = circle.ts
    span = ts[-1] - ts[0]
    f = WeightFunction(ts=ts, f=1.0 + variation * (ts - ts[0]) / span,
                       fp=np.full_like(ts, variation / span),
                       fpp=np.zeros_like(ts))
    assert f.variation == pytest.approx(variation, rel=1e-6)
    assert check_conditions(circle, fd, prof, f,
                            eq_tol=1e3).verdict == verdict


def test_check_conditions_geodesic(geodesic):
    fd = frenet_apparatus(geodesic)
    prof = contact_angles(geodesic)
    rep = check_conditions(geodesic, fd, prof,
                           WeightFunction.constant(geodesic.ts, 1.0))
    assert rep.verdict == "harmonic/geodesic"
    assert "identity_gaps" not in rep.details   # no identity on a geodesic


def test_check_conditions_non_slant_is_none(r6_config):
    # the order-4 truncated run drifts off slant: verdict must be 'none'
    trace, _ = synth.integrate_frenet_system(
        r6_config.synthesis_spec(window=(-1.5, 1.5), step=2e-3))
    fd = frenet_apparatus(trace)
    prof = contact_angles(trace, tolerance=1e-5)
    f = odesol.f_from_k1(trace.ts, *k1_case2(trace.ts), c1=1.0)
    rep = check_conditions(trace, fd, prof, f)
    assert rep.verdict == "none"
    assert rep.details["reason"] == "not a slant curve"


def test_nonpositive_k1_is_nan_at_its_own_sample(catenary, catenary_fd):
    # eq1-eq3 and gphiT divide by k1, so a zero k1 makes them NaN at that
    # sample; the derivatives are differenced from the unmasked k1, so no
    # NaN reaches the neighbours
    i = catenary.n // 2
    k = catenary_fd.curvatures.copy()
    k[0, i] = 0.0
    fd = dataclasses.replace(catenary_fd, curvatures=k)
    # the jet follows the replaced curvatures
    assert fd.curvature_jet[0][i + 1] != catenary_fd.curvature_jet[0][i + 1]
    f = odesol.f_from_k1(catenary.ts, *k1_catenary(catenary.ts), c1=1.0)
    rep = check_conditions(catenary, fd, contact_angles(catenary), f)
    for key in ("eq1", "eq2", "eq3", "gphiT"):
        assert np.flatnonzero(np.isnan(rep.per_sample[key])).tolist() == [i], key
    assert not np.any(np.isnan(rep.per_sample["eq4"]))


def test_mainprop_hypothetical_case1_helix_biharmonic():
    # case I (c = s, unreachable in the model): constant-curvature helix
    # with k1^2 + k2^2 = b^2 + s(1-a) and constant f satisfies everything
    ts = np.linspace(0, 1, 201)
    c, s = 1.0, 1
    a, b = 0.5, np.sqrt(2) / 2
    k0 = np.sqrt((b * b + s * (1 - a)) / 2.0)   # c2 = 1
    k1 = np.full_like(ts, k0)
    zeros = np.zeros_like(ts)
    f = WeightFunction.constant(ts, 1.0)
    res = mainprop_residuals(c, s, k1, k1, zeros, zeros, zeros, zeros,
                             f, a, b, k1p=zeros, k1pp=zeros, k2p=zeros)
    for key, arr in res.items():
        assert np.max(np.abs(arr)) < 1e-12, key
    assert f.is_constant   # biharmonic, not proper


# ---------------------------------------------------------------------------
# case classification
# ---------------------------------------------------------------------------

def test_model_never_case_I():
    # c = -3s equals s only for s = 0, which the model forbids
    for s in range(1, 6):
        assert ModelParams(m=2, s=s).c != s


def test_classify_case_II(case2_curve, case2_fd, case2_profile):
    dec = phiT_decomposition(case2_curve, case2_fd, case2_profile)
    label, detail = classify_case(dec, case2_profile, case2_curve.params.c,
                                  case2_curve.params.s)
    assert label == "II"


def test_classify_case_III(params22):
    tr = findings.phiT_aligned_curve(params22, (np.pi / 3, np.pi / 2),
                                     lambda t: 0.3 + 0.05 * np.sin(t),
                                     window=(-1, 1))
    fd = frenet_apparatus(tr)
    prof = contact_angles(tr)
    label, detail = classify_case(phiT_decomposition(tr, fd, prof), prof,
                                  params22.c, params22.s)
    assert label == "III"


def test_classify_case_IV(r6_steered, r6_steered_fd):
    prof = contact_angles(r6_steered)
    dec = phiT_decomposition(r6_steered, r6_steered_fd, prof)
    label, detail = classify_case(dec, prof, r6_steered.params.c,
                                  r6_steered.params.s)
    assert label == "IV" and "ambiguous" not in detail
    # |p2| just above the case II threshold 1e-6 sqrt(1-a) but within 10x
    # of it: still IV, with II named as the near candidate
    scale = np.sqrt(1.0 - prof.a)
    near = dataclasses.replace(
        dec, p2=dec.p2 * (5e-6 * scale / np.max(np.abs(dec.p2))))
    label, detail = classify_case(near, prof, r6_steered.params.c,
                                  r6_steered.params.s)
    assert (label, detail["ambiguous"]) == ("IV", ["II", "IV"])


@pytest.mark.parametrize("factor, ambiguous", [(5.0, ["II", "IV"]),
                                               (50.0, None)])
def test_classify_case_ambiguity_band_boundary(params22, factor, ambiguous):
    # |p2| at 5x and 50x the case II threshold CASE_TOL sqrt(1-a), with phiT
    # far from +-V2: II is named as a near candidate within 10x only
    prof = SlantProfile(params=params22, thetas=np.array([np.pi / 3, np.pi / 2]),
                        a=0.25, b=0.5, constancy_deviation=0.0, is_slant=True)
    scale = np.sqrt(1.0 - prof.a)
    p2 = np.full(11, factor * CASE_TOL * scale)
    dec = PhiTDecomposition(p2=p2, p3=np.zeros(11), p4=np.zeros(11),
                            beta=np.arccos(p2 / scale),
                            phiT_norm2=np.full(11, 1.0 - prof.a))
    label, detail = classify_case(dec, prof, params22.c, params22.s)
    assert (label, detail.get("ambiguous")) == ("IV", ambiguous)


def test_classify_case_I_hypothetical(case2_curve, case2_fd, case2_profile):
    dec = phiT_decomposition(case2_curve, case2_fd, case2_profile)
    label, _ = classify_case(dec, case2_profile, 2.0, 2)
    assert label == "I"


def test_classify_sign_flip_invariance(r6_steered, r6_steered_fd):
    prof = contact_angles(r6_steered)
    flipped = dataclasses.replace(r6_steered_fd, frames=-r6_steered_fd.frames)
    a = classify_case(phiT_decomposition(r6_steered, r6_steered_fd, prof),
                      prof, r6_steered.params.c, r6_steered.params.s)[0]
    b = classify_case(phiT_decomposition(r6_steered, flipped, prof),
                      prof, r6_steered.params.c, r6_steered.params.s)[0]
    assert a == b


# ---------------------------------------------------------------------------
# case I / II checker
# ---------------------------------------------------------------------------

def test_case2_checker_on_case2_curve(case2_curve, case2_fd, case2_profile):
    f = odesol.f_from_k1(case2_curve.ts, *k1_case2(case2_curve.ts), c1=1.0)
    k1, k2, _ = case2_fd.padded_curvatures
    k1p, k1pp, _ = case2_fd.curvature_jet
    rep = case1_case2_checker(case2_profile.a, case2_profile.b,
                              case2_curve.params, k1, k1p, k1pp, k2, f,
                              trace=case2_curve, fd=case2_fd)
    assert rep["case"] == "II"
    assert rep["epsilon"] == 0                       # bracket b^2 = 0
    assert abs(rep["c1"] - 1.0) < 1e-8
    assert rep["c1_deviation"] < 1e-6
    assert abs(rep["c2"] - 1.0) < 1e-6
    assert rep["ode_residual"] < 1e-5
    assert rep["proper_possible"]
    # 7 vectors in 6 dimensions: the independence side-condition CANNOT
    # hold here, although the curve itself is honestly proper f-biharmonic
    assert not rep["independence"]["independent"]


def test_case1_checker_hypothetical():
    # c = s = 1, constant k2/k1, f = c1 k1^(-3/2), lambda1 = 1
    ts = np.linspace(-1, 1, 801)

    def k1(ts):
        u = 2.0 + ts ** 2
        return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 4.0) / u ** 3

    f = odesol.f_from_k1(ts, *k1(ts), c1=2.0)
    k1v, k1p, k1pp = k1(ts)
    rep = case1_case2_checker(0.5, np.sqrt(2) / 2, (1.0, 1), k1v, k1p,
                              k1pp, 2.0 * k1v, f)
    assert rep["case"] == "I"
    assert rep["lambda"] == pytest.approx(1.0)
    assert rep["epsilon"] == 1
    assert abs(rep["c1"] - 2.0) < 1e-10
    assert abs(rep["c2"] - 2.0) < 1e-10
    # this k1 solves the eps = 0 equation, not the eps = +1 one: the ODE
    # residual must expose that
    assert rep["ode_residual"] > 1e-3


def test_case2_checker_constant_k2_means_not_proper():
    ts = np.linspace(0, 1, 201)
    k0 = 0.7
    k1 = np.full_like(ts, k0)
    f = WeightFunction.constant(ts, 1.0)
    h = ts[1] - ts[0]
    k1p = fd_derivative(k1, h)
    rep = case1_case2_checker(0.25, 0.5, ModelParams(2, 2), k1, k1p,
                              fd_derivative(k1p, h), 0.5 * k1, f)
    assert not rep["proper_possible"]


def test_case2_checker_r2_subcase(catenary, catenary_fd):
    prof = contact_angles(catenary)
    f = odesol.f_from_k1(catenary.ts, *k1_catenary(catenary.ts), c1=1.0)
    k1p, k1pp, _ = catenary_fd.curvature_jet
    rep = case1_case2_checker(prof.a, prof.b, catenary.params,
                              catenary_fd.curvatures[0], k1p, k1pp,
                              np.zeros(catenary.n), f)
    assert rep["sub_case"] == "r=2 (c2 = 0)"
    assert rep["ode_residual"] < 1e-8   # differenced-k1 roundoff floor


def test_case_checker_k1_zero_guard():
    ts = np.linspace(0, 1, 101)
    f = WeightFunction.constant(ts, 1.0)
    with pytest.raises(ValueError, match="zeros"):
        case1_case2_checker(0.25, 0.5, ModelParams(2, 2), np.zeros(101),
                            np.zeros(101), np.zeros(101), np.zeros(101), f)


# ---------------------------------------------------------------------------
# case III obstruction
# ---------------------------------------------------------------------------

def test_case3_obstruction_reference_cell():
    rep = case3_obstruction(0.25, 0.5, ModelParams(2, 2), c2=1.0)
    assert rep["branch"] == "constant-k1"
    A, B, C = rep["coefficients"][1.0]
    assert C == pytest.approx(0.25 * 2 - 0.25 - 2)   # as - b^2 - s < 0
    assert rep["constant_k1_roots"][1.0]             # roots exist and are constant


def test_case3_obstruction_geodesic_branch():
    rep = case3_obstruction(1.0, 0.0, ModelParams(2, 2))
    assert rep["branch"] == "geodesic"


def test_case3_obstruction_epsilon_guard():
    with pytest.raises(ValueError):
        case3_obstruction(0.25, 0.5, ModelParams(2, 2), epsilon=0)


def test_case3_grid_scan_all_obstructed():
    scan = findings.case3_grid_scan(ModelParams(2, 2))
    assert scan["all_obstructed"]
    assert scan["grid_shape"] == (10, 10, 2)


def test_case3_structural_k2_identity(params22):
    # the identity behind the obstruction: for phiT parallel V2 curves,
    # k2 = sqrt(a d^2 - a s + b^2 + 2 eps b d + s) with d = k1/sqrt(1-a)
    thetas = (np.pi / 3, np.pi / 2)
    eps = +1
    tr = findings.phiT_aligned_curve(params22, thetas,
                                     lambda t: 0.3 + 0.1 * np.sin(t),
                                     epsilon=eps, window=(-1.5, 1.5))
    fd = frenet_apparatus(tr)
    prof = contact_angles(tr)
    a, b, s = prof.a, prof.b, params22.s
    d = fd.curvatures[0] / np.sqrt(1 - a)
    k2_pred = np.sqrt(a * d ** 2 - a * s + b ** 2 + 2 * eps * b * d + s)
    sl = slice(20, -20)
    assert np.max(np.abs(fd.curvatures[1] - k2_pred)[sl]) < 1e-6


# ---------------------------------------------------------------------------
# case IV checker
# ---------------------------------------------------------------------------

def test_case4_checker_r6_steered(r6_steered, r6_steered_fd):
    # the best-possible realization of the r6 data: beta constant, c2 = 1
    # and the case ODE hold, but the k2 k3 product misses its target --
    # the measured content of the realizability obstruction
    prof = contact_angles(r6_steered)
    f = odesol.f_from_k1(r6_steered.ts, *k1_case2(r6_steered.ts), c1=1.0)
    dec = phiT_decomposition(r6_steered, r6_steered_fd, prof)
    rep = case4_checker(r6_steered, r6_steered_fd, prof, dec, f)
    assert rep["beta_constant"]
    assert abs(rep["c2"] - 1.0) < 1e-5
    # the measured bracket is zero up to beta-measurement noise
    assert rep["epsilon"] * rep["lambda"] ** 2 == pytest.approx(0.0, abs=1e-5)
    assert rep["ode_residual"] < 1e-5
    assert rep["k2k3_target_abs"] == pytest.approx(np.sqrt(17) / 4, abs=1e-6)
    assert rep["k2k3_abs_residual"] > 0.5          # the honest mismatch
    # constant beta forces cos(w) = -+ beta'/k2 = 0: measured w is +-pi/2
    w = span_angle(dec, prof.a)[20:-20]
    assert np.max(np.abs(np.cos(w[np.isfinite(w)]))) < 1e-3


def test_case4_checker_trims_the_stencil_edge(r6_steered, r6_steered_fd):
    # a synthesized trace is differenced with stride 5, so its one-sided
    # stencil rows reach 2 + 3 * 5 = 17 samples in; a fixed 6-row trim let
    # them set c2_deviation (1.2e-5) and ode_residual (3.6e-6)
    assert r6_steered.fd_stride == 5
    prof = contact_angles(r6_steered)
    f = WeightFunction.constant(r6_steered.ts, 1.0)
    dec = phiT_decomposition(r6_steered, r6_steered_fd, prof)
    rep = case4_checker(r6_steered, r6_steered_fd, prof, dec, f)
    assert rep["c2_deviation"] < 1e-6
    assert rep["ode_residual"] < 1e-7


def test_case4_checker_rejects_case2_input(case2_curve, case2_fd, case2_profile):
    f = odesol.f_from_k1(case2_curve.ts, *k1_case2(case2_curve.ts), c1=1.0)
    with pytest.raises(ValueError, match="case II"):
        case4_checker(case2_curve, case2_fd, case2_profile,
                      phiT_decomposition(case2_curve, case2_fd, case2_profile),
                      f)


def test_case4_nonconstant_beta_branch(params22):
    # slant curve with prescribed non-constant p2(t): the checker must take
    # the mu branch and the structural relation cos(w) = -+ beta'/k2 holds
    k1 = lambda t: 0.5 / (1.0 + 0.1 * t * t)
    trace = _varying_beta_curve(params22, k1)
    fd = frenet_apparatus(trace)
    prof = contact_angles(trace)
    f = WeightFunction.constant(trace.ts, 1.0)
    dec = phiT_decomposition(trace, fd, prof)
    rep = case4_checker(trace, fd, prof, dec, f, beta_const_tol=1e-4)
    assert not rep["beta_constant"]
    # the mu-branch diagnostics must all be produced and finite
    assert np.isfinite(rep["bb1_residual"])
    assert np.isfinite(rep["mu_ode_residual"])
    assert np.isfinite(rep["cos_w_relation_residual"])
    # the structural derivative identity d/dt p2 = k2 p3 (the in-span
    # cos(w) relation only binds f-biharmonic curves, which this is not)
    dp2 = fd_derivative(dec.p2, trace.step)
    assert np.max(np.abs(dp2 - fd.padded_curvatures[1] * dec.p3)) < 1e-4


def _varying_beta_curve(params, k1, window=(-1.0, 1.0), step=1e-3):
    """Slant curve with theta = (pi/2, pi/3) and slowly varying p2(t).

    Same construction as the steering curve but with p2 prescribed as a
    function and the steering angle frozen, so beta genuinely varies.
    """
    m, s = params.m, params.s
    sv = np.cos(np.array([np.pi / 2, np.pi / 3]))
    a = float(np.sum(sv ** 2))
    b = float(np.sum(sv))
    P = 1.0 - a

    def p2(t):
        return np.sqrt(P) * np.cos(1.6 + 0.25 * np.sin(t))

    def rhs(t, st):
        zeta = st[0:2] + 1j * st[2:4]
        nu = st[4:6] + 1j * st[6:8]
        k = k1(t)
        q = 2.0 * b + p2(t) * k / P
        wmag = k * np.sqrt(max(P - p2(t) ** 2, 0.0)) / P
        dzeta = q * 1j * zeta + wmag * nu
        dnu = -wmag * zeta
        y = st[8 + m:8 + 2 * m]
        Av, Bv = zeta.real, zeta.imag
        dg = np.zeros(params.dim)
        dg[0:2] = 2 * Bv
        dg[m:m + 2] = 2 * Av
        dg[2 * m:] = 2 * sv + 2 * np.dot(Bv, y[:2])
        out = np.empty(8 + params.dim)
        out[0:2] = dzeta.real
        out[2:4] = dzeta.imag
        out[4:6] = dnu.real
        out[6:8] = dnu.imag
        out[8:] = dg
        return out

    st0 = np.zeros(8 + params.dim)
    st0[0] = np.sqrt(P)
    st0[5] = np.sqrt(P)

    ts, recs = synth._rk4_march(rhs, st0, window, step, np.ndarray.tolist)
    zeta = recs[:, 0:2] + 1j * recs[:, 2:4]
    points = recs[:, 8:]
    vf = np.zeros((len(ts), params.dim))
    vf[:, 0:2] = zeta.real
    vf[:, m:m + 2] = zeta.imag
    vf[:, 2 * m:] = sv
    vels = frame_to_coords(params, vf.T, points[:, m:2 * m].T).T
    return CurveTrace.from_velocity(params, ts, points, vels, step, 4)


def test_case4_mu_quadrature_solves_linear_ode():
    # with k2^2 = -(3(c-s)/4)(1-a) cos^2(beta) + mu k1^2 and mu from the
    # quadrature, v = k2^2 solves v' - 2(k1'/k1) v = (3(c-s)/2)(1-a)
    # beta' cos(beta) sin(beta): finite differences as the oracle
    params = ModelParams(2, 2)
    c, s = params.c, params.s
    a = 0.25
    ts = np.linspace(-1, 1, 2001)
    h = ts[1] - ts[0]
    beta = 1.3 + 0.2 * np.sin(2 * ts)
    k1 = 0.5 + 0.1 * np.cos(ts)
    k1p = fd_derivative(k1, h)
    mu = case4_mu(ts, beta, k1, k1p, params, a) + 5.0   # arbitrary constant
    v = -(3 * (c - s) / 4) * (1 - a) * np.cos(beta) ** 2 + mu * k1 ** 2
    vp = fd_derivative(v, h)
    betap = fd_derivative(beta, h)
    rhs = (3 * (c - s) / 4) * (1 - a) * 2 * betap * np.cos(beta) * np.sin(beta)
    res = vp - 2 * (k1p / k1) * v - rhs
    assert np.max(np.abs(res[10:-10])) < 1e-6


def test_curvature_term_slant_specialization(r6_steered, r6_steered_fd,
                                             case2_curve, case2_fd,
                                             case2_profile):
    # on a slant curve the general curvature tensor specializes to
    # R(T, nabla_T T)T = -k1 [b^2 + ((c+3s)/4)(1-a)] V2
    #                    - 3 k1 ((c-s)/4) g(phiT,V2) phiT
    from sspaceform.manifold import phi_frame
    from sspaceform.slant import contact_angles, phiT_decomposition

    for trace, fd, prof in (
            (r6_steered, r6_steered_fd, contact_angles(r6_steered)),
            (case2_curve, case2_fd, case2_profile)):
        params = trace.params
        c, s = params.c, params.s
        chain = covariant_chain(trace)
        R_general = curvature_frame(params, chain[0], chain[1], chain[0]).T
        dec = phiT_decomposition(trace, fd, prof)
        k1 = fd.curvatures[0][:, None]
        phiT = phi_frame(params, trace.tangent_frame()).T
        bracket = prof.b ** 2 + ((c + 3 * s) / 4.0) * (1 - prof.a)
        R_slant = (-k1 * bracket * fd.frames[1]
                   - 3 * k1 * ((c - s) / 4.0) * dec.p2[:, None] * phiT)
        err = np.max(np.linalg.norm(R_general - R_slant, axis=1)[10:-10])
        assert err < 1e-7, err
