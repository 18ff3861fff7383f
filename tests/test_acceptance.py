"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for the per-criterion
lines.  Criterion 7 is implemented exactly as stated and is expected to
fail: the bundled R^6(-6) worked-example data is not realizable by any
actual curve (see the strict-xfail reason on the test and the README).
"""
import dataclasses
import json
import time

import numpy as np
import pytest
import sympy as sp

from sspaceform import cli, findings, odesol, synth
from sspaceform.biharmonic import WeightFunction, check_conditions, tau3
from sspaceform.curve import fd_derivative, frenet_apparatus
from sspaceform.manifold import ModelParams, curvature_frame, phi_frame
from sspaceform.oracles import exact_model, nabla, structure_identities
from sspaceform.slant import contact_angles

from conftest import (curvature_evaluator, frame_gamma, is_zero, k1_case2,
                      rowmajor_covariant_chain, rowmajor_tau2, sampled_weight)


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_01_structure_suite():
    """Every framed-structure identity of the exact model expands to 0, < 1 s."""
    t0 = time.time()
    ids = structure_identities(exact_model(ModelParams(2, 2)))
    nonzero = sorted(k for k, v in ids.items() if not is_zero(v))
    elapsed = time.time() - t0
    report(1, len(ids) == 7 and not nonzero and elapsed < 1.0,
           f"{len(ids)} identities, nonzero: {nonzero or 'none'}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_02_connection_suite():
    """Metric compatibility, torsion, nabla xi = -phi, (nabla phi) formula:
    exactly 0 for the connection derived from g; the frame layer's
    connection within 1e-12 relative of it on 50 random points."""
    t0 = time.time()
    params = ModelParams(2, 2)
    M = exact_model(params)
    G, g, x, phi = M.gamma, M.g, M.coords, M.phi
    X, Y = (sp.Matrix(sp.symbols(f"{c}0:6", real=True)) for c in "XY")
    gphi = ((phi * X).T * g * (phi * Y))[0]
    exact_checks = {
        "torsion": G - sp.permutedims(G, (0, 2, 1)),
        "metric": sp.Array([[[g[b, c].diff(x[a]) - sum(
            G[d, a, b] * g[d, c] + G[d, a, c] * g[b, d] for d in range(6))
            for c in range(6)] for b in range(6)] for a in range(6)]),
        "nabla_xi": sp.Matrix.hstack(*(nabla(M, X, xi) + phi * X for xi in M.xi)),
        "nabla_phi": nabla(M, X, phi * Y) - phi * nabla(M, X, Y) - sum(
            (gphi * xi + (eta * Y)[0] * phi * phi * X for eta, xi in zip(M.eta, M.xi)),
            sp.zeros(6, 1)),
    }
    nonzero = sorted(k for k, v in exact_checks.items() if not is_zero(v))
    gamma = M.numeric("gamma")
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(50):
        p = rng.uniform(-1, 1, 6)
        exact_gamma = gamma(p)
        worst = max(worst, np.max(np.abs(frame_gamma(params, p) - exact_gamma))
                    / np.max(np.abs(exact_gamma)))
    elapsed = time.time() - t0
    report(2, not nonzero and worst < 1e-12 and elapsed < 5.0,
           f"exact nonzero: {nonzero or 'none'}, frame layer rel {worst:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_03_curvature_oracle():
    """curvature_frame vs the curvature derived from g, rel < 1e-12 on 50
    tuples; phi-sectional curvature of 20 random phi-sections = -3s within
    1e-12 on both."""
    t0 = time.time()
    params = ModelParams(2, 2)
    exact_curvature = curvature_evaluator(exact_model(params))
    rng = np.random.default_rng(3)
    worst_rel = 0.0
    for _ in range(50):
        p = rng.uniform(-1, 1, 6)
        X, Y, Z = rng.uniform(-1, 1, (3, 6))
        rm = exact_curvature(p, X, Y, Z)
        rf = curvature_frame(params, X, Y, Z)
        worst_rel = max(worst_rel, np.max(np.abs(rf - rm)) / np.max(np.abs(rm)))
    worst_sec = 0.0
    for _ in range(20):
        p = rng.uniform(-1, 1, 6)
        X = rng.uniform(-1, 1, 6)
        X[4:] = 0.0                                  # eta_alpha(X) = 0
        X /= np.linalg.norm(X)
        pX = phi_frame(params, X)
        for R in (exact_curvature(p, X, pX, pX),
                  curvature_frame(params, X, pX, pX)):
            worst_sec = max(worst_sec, abs(R @ X - params.c))
    elapsed = time.time() - t0
    report(3, worst_rel < 1e-12 and worst_sec < 1e-12 and elapsed < 10.0,
           f"worst rel {worst_rel:.2e}, phi-sectional defect {worst_sec:.2e}, "
           f"runtime {elapsed:.2f}s")


def test_criterion_04_ode_case_iii():
    """Case (iii) residual < 1e-10 on the 27-point grid away from poles;
    (c2,c3,c4) = (1,4,0) reproduces 1/(2+t^2) to < 1e-12 pointwise."""
    ts = np.linspace(-2, 2, 2001)
    worst = 0.0
    for c2 in (0.0, 1.0, 2.0):
        for c3 in (1.0, 4.0, 10.0):
            for c4 in (-1.0, 0.0, 1.0):
                spec = odesol.OdeSolutionSpec(0, 0.0, c2, c3, c4)
                y, yp, ypp = odesol.case_iii_profile(spec, ts)
                _, ok = odesol.k1_closed_form(spec, ts)
                res = odesol.ode_residual(y[ok], spec, yp=yp[ok], ypp=ypp[ok])
                worst = max(worst, res["max_residual"])
    spec0 = odesol.OdeSolutionSpec(0, 0.0, 1.0, 4.0, 0.0)
    y, ok = odesol.k1_closed_form(spec0, ts)
    dev = np.max(np.abs(y - 1.0 / (2.0 + ts ** 2)))
    report(4, worst < 1e-10 and ok.all() and dev < 1e-12,
           f"grid residual {worst:.2e}, reference deviation {dev:.2e}")


def test_criterion_05_ode_cases_i_ii_and_oracle():
    """Literal (i)/(ii) formulas evaluated with real-domain status; RK4
    oracle 4th-order convergent (ratio 16 +- 3) and reproduces the
    constant solution for eps = +1 to < 1e-8."""
    rep_i = findings.real_domain_report(
        odesol.OdeSolutionSpec(1, 1.0, 1.0, 1.0, 0.0), window=(-2, 2), n=4001)
    rep_ii = findings.real_domain_report(
        odesol.OdeSolutionSpec(-1, 1.0, 1.0, 2.0, 0.0), window=(-2, 2), n=4001)
    domains_reported = rep_i["nowhere_real"] and rep_ii["real_fraction"] < 1e-3

    spec = odesol.OdeSolutionSpec(0, 0.0, 1.0, 4.0, 0.0)

    def max_err(step):
        sol = odesol.numeric_solution_oracle(spec, 0.5, 0.0, window=(0, 2),
                                             step=step)
        return np.max(np.abs(sol.y - 1.0 / (2.0 + sol.ts ** 2)))

    ratio = max_err(2e-2) / max_err(1e-2)
    spec1 = odesol.OdeSolutionSpec(1, 2.0, 1.0, 1.0, 0.0)
    y0 = spec1.lam / np.sqrt(1 + spec1.c2 ** 2)
    sol = odesol.numeric_solution_oracle(spec1, y0, 0.0, window=(-2, 2),
                                         step=1e-3)
    const_dev = np.max(np.abs(sol.y - y0))
    report(5, domains_reported and 13.0 <= ratio <= 19.0 and const_dev < 1e-8,
           f"(i) nowhere real: {rep_i['nowhere_real']}, (ii) real fraction "
           f"{rep_ii['real_fraction']:.1e}, convergence ratio {ratio:.1f}, "
           f"constant-solution deviation {const_dev:.1e}")


def test_criterion_06_example_constants():
    """Exact arithmetic of the worked-example constants, tolerance 1e-12."""
    s = findings.r6_constants_summary()
    ts = np.linspace(-2, 2, 401)
    f_dev = np.max(np.abs(findings.r6_f(ts) - (2 + ts ** 2) ** 1.5))
    checks = {
        "a": abs(s["a"] - 0.25),
        "b": abs(s["b"] - 0.5),
        "bracket": abs(s["bracket"]),
        "k2k3": abs(s["k2k3"] - np.sqrt(17) / 4),
        "f": f_dev,
    }
    worst = max(checks.values())
    report(6, worst < 1e-12,
           "  ".join(f"{k}={v:.1e}" for k, v in checks.items()))


R6_WINDOW_ANALYSIS = (
    "the worked-example scalar data is not realizable by any curve on "
    "[-2, 2]: slant + order >= 3 force eta_1(V3) = g(phiT,V2)/k2 = "
    "(sqrt(6)/12)(2+t^2), which exceeds the Cauchy-Schwarz bound 1 for "
    "|t| > 1.70; the constrained construction is real only for |t| <= 1.54, "
    "and inside that window the measured k3 differs from the configured "
    "target pointwise, so the order-4 synthesis prescribed here drifts off "
    "slant (deviation ~7.5e-2 >> 1e-5) and the master-equation residuals "
    "are O(1)"
)


@pytest.mark.xfail(strict=True, reason=R6_WINDOW_ANALYSIS)
def test_criterion_07_example_end_to_end():
    """Synthesized worked-example trace on t in [-2,2], step 1e-3: slant
    constancy < 1e-5, re-measured k1 rel err < 1e-3, all five master
    residuals < 1e-3, verdict proper-f-biharmonic, < 60 s."""
    t0 = time.time()
    cfg = synth.R6ExampleConfig()
    spec = cfg.synthesis_spec(window=(-2.0, 2.0), step=1e-3)
    trace, _ = synth.integrate_frenet_system(spec)
    fd = frenet_apparatus(dataclasses.replace(trace, derivs=trace.derivs[:4]))
    prof = contact_angles(trace, tolerance=1e-5)
    etas = trace.tangent_frame()[4:].T
    eta1 = float(np.max(np.abs(etas[:, 0])))
    eta2 = float(np.max(np.abs(etas[:, 1] - 0.5)))
    k1 = fd.curvatures[0]
    k1_rel = float(np.max(np.abs(k1 - cfg.k1(trace.ts)) / cfg.k1(trace.ts)))
    f = odesol.f_from_k1(trace.ts, *k1_case2(trace.ts), c1=1.0)
    rep = check_conditions(trace, fd, prof, f, eq_tol=1e-3)
    elapsed = time.time() - t0
    worst_eq = max(rep.residuals[k] for k in ("eq1", "eq2", "eq3", "eq4",
                                              "gphiT"))
    report(7, eta1 < 1e-5 and eta2 < 1e-5 and k1_rel < 1e-3
           and worst_eq < 1e-3 and rep.verdict == "proper-f-biharmonic"
           and elapsed < 60.0,
           f"|eta1|={eta1:.2e} |eta2-1/2|={eta2:.2e} k1 rel={k1_rel:.2e} "
           f"worst eq residual={worst_eq:.2e} verdict={rep.verdict} "
           f"runtime={elapsed:.1f}s")


def test_criterion_07_feasible_window_counterpart():
    """Companion measurement (not a spec criterion): the same pipeline on a
    genuinely realizable proper f-biharmonic curve passes every bound the
    worked example was meant to demonstrate."""
    t0 = time.time()
    trace = synth.case2_order3_curve(window=(-2.0, 2.0), step=1e-3)
    fd = frenet_apparatus(trace)
    prof = contact_angles(trace, tolerance=1e-5)
    k1 = fd.curvatures[0]
    expect = 1.0 / (2.0 + trace.ts ** 2)
    k1_rel = float(np.max(np.abs(k1 - expect) / expect))
    f = odesol.f_from_k1(trace.ts, *k1_case2(trace.ts), c1=1.0)
    rep = check_conditions(trace, fd, prof, f, eq_tol=1e-3)
    worst_eq = max(rep.residuals[k] for k in ("eq1", "eq2", "eq3", "eq4",
                                              "gphiT"))
    elapsed = time.time() - t0
    report("7-companion",
           prof.constancy_deviation < 1e-5 and k1_rel < 1e-3
           and worst_eq < 1e-3 and rep.verdict == "proper-f-biharmonic"
           and elapsed < 60.0,
           f"slant dev={prof.constancy_deviation:.2e} k1 rel={k1_rel:.2e} "
           f"worst eq={worst_eq:.2e} verdict={rep.verdict} "
           f"runtime={elapsed:.1f}s")


def test_criterion_08_case3_nonexistence_grid():
    """10 x 10 grid of (a, b) with 0 < a < 1, both eps signs: every cell
    returns a contradiction branch."""
    scan = findings.case3_grid_scan(ModelParams(2, 2))
    branches = {c["branch"] for c in scan["cells"]}
    report(8, scan["all_obstructed"] and scan["grid_shape"] == (10, 10, 2),
           f"cells={len(scan['cells'])}, branches seen={sorted(branches)}")


def test_criterion_09_degeneration_properties(case2_curve, case2_fd,
                                              case2_profile, geodesic):
    """Constant f: ||tau3 - tau2|| < 1e-10; geodesic: tau3 = 0; f_from_k1
    satisfies eq (1) < 1e-8 for 10 random positive profiles."""
    f_const = WeightFunction.constant(case2_curve.ts, 2.0)
    t2 = rowmajor_tau2(case2_fd, rowmajor_covariant_chain(case2_curve))
    t3 = tau3(case2_fd, f_const)
    const_dev = float(np.max(np.linalg.norm(
        t3.field.T - t2["field"], axis=1)))

    gfd = frenet_apparatus(geodesic)
    t3g = tau3(gfd, sampled_weight(geodesic.ts, 2.0 + np.sin(geodesic.ts)))
    geo_norm = float(np.max(t3g.norm))

    rng = np.random.default_rng(9)
    ts = np.linspace(-1, 1, 501)
    worst_eq1 = 0.0
    for _ in range(10):
        a, b, c = rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5)
        k1v = np.exp(a * np.sin(b * ts + c))
        k1p = a * b * np.cos(b * ts + c) * k1v
        k1pp = (a * b) ** 2 * (-np.sin(b * ts + c)
                               + a * np.cos(b * ts + c) ** 2) * k1v
        f = odesol.f_from_k1(ts, k1v, k1p, k1pp, c1=rng.uniform(0.5, 2.0))
        worst_eq1 = max(worst_eq1,
                        float(np.max(np.abs(3 * k1p / k1v + 2 * f.fp / f.f))))
    report(9, const_dev < 1e-10 and geo_norm < 1e-10 and worst_eq1 < 1e-8,
           f"|tau3-tau2|={const_dev:.1e} geodesic tau3={geo_norm:.1e} "
           f"eq1 residual={worst_eq1:.1e}")


def test_criterion_10_cli_determinism(tmp_path):
    """cmd_verify twice on the builtin example: byte-identical reports;
    exit codes match the documented table on example configs."""
    cfg = tmp_path / "r6.ini"
    cfg.write_text("""
[manifold]
m = 2
s = 2

[curve]
source = builtin:r6-example
window = -1:1
step = 2e-3

[weight]
c1 = 1.0
""")
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    c1 = cli.main(["verify", "--config", str(cfg), "--report", str(r1)])
    c2 = cli.main(["verify", "--config", str(cfg), "--report", str(r2)])
    identical = r1.read_bytes() == r2.read_bytes()

    # documented exit-code table on the example configs
    codes = {}
    codes["verify_ok"] = c1
    bad = tmp_path / "bad.ini"
    bad.write_text("[manifold]\nm = 0\ns = 2\n\n[curve]\nsource = builtin:catenary\n")
    codes["verify_config_error"] = cli.main(["verify", "--config", str(bad)])
    codes["verify_mismatch"] = cli.main(
        ["verify", "--config", str(cfg), "--expect", "proper-f-biharmonic"])
    codes["synth_ok"] = cli.main(
        ["synth", "--builtin", "catenary", "--out", str(tmp_path / "c.csv")])
    codes["synth_numerical"] = cli.main(
        ["synth", "--builtin", "r6-example", "--out", str(tmp_path / "x.csv"),
         "--step", "0.5"])
    codes["ode_ok"] = cli.main(
        ["ode", "--case", "iii", "--c2", "1", "--c3", "4", "--c4", "0",
         "--range", "-2:2:0.01"])
    codes["ode_degenerate"] = cli.main(
        ["ode", "--case", "iii", "--c3", "0", "--range", "-2:2:0.01"])
    codes["ode_nowhere_real"] = cli.main(
        ["ode", "--case", "i", "--c3", "1", "--lambda", "1",
         "--range", "-2:2:0.01"])
    expected = {
        "verify_ok": 0, "verify_config_error": 2, "verify_mismatch": 1,
        "synth_ok": 0, "synth_numerical": 3, "ode_ok": 0,
        "ode_degenerate": 3, "ode_nowhere_real": 3,
    }
    table_ok = codes == expected
    report(10, identical and table_ok,
           f"byte-identical={identical}, exit codes={codes}")
