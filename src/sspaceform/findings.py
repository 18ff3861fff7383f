"""The paper's findings, computed: analyses that only tests and demos run.

Only tests and demos import this module; `import sspaceform` and the CLI
never do, so a cold CLI process does not compile it.  The pipeline it
reads from (synthesis, Frenet apparatus, slant diagnostics, master
equations) is the one the CLI runs.

- `r6_example_realizability`, with `r6_constants_summary`, `r6_bracket` and
  `r6_f`: the classical R^6(-6) worked example satisfies the constant-beta
  algebra exactly, but no curve realizes it (README finding 1);
- the case theorem's checkers, which test each case's characterization
  on top of the master equations: `case1_case2_checker`, `case4_checker`
  with `case4_mu` and `span_angle` (the angle w of phi T in span{V3, V4}),
  and the brackets `lambda_constants`;
- `case3_obstruction` and `case3_grid_scan`: the case III obstruction, for
  one (a, b) and over a grid;
- `phiT_aligned_curve`: the case III configuration phiT parallel V2;
- `nabla_phiT_check`, with `v_frame`: the identity for nabla_T(phi T);
- `real_domain_report`: where a printed closed form of the governing ODE
  is real.
"""
from __future__ import annotations

import numpy as np

from .biharmonic import WeightFunction, check_conditions
from .curve import (ORDER_THRESHOLD, CurveTrace, FrenetData, _frame_jet,
                    fd_derivative, frenet_apparatus)
from .manifold import ModelParams, connection_term, frame_to_coords, phi_frame
from .odesol import OdeSolutionSpec, f_from_k1, k1_closed_form, ode_residual
from .slant import PhiTDecomposition, SlantProfile, contact_angles
from .synth import R6ExampleConfig, SynthesisError, _rk4_march

__all__ = [
    "r6_f",
    "r6_bracket",
    "r6_constants_summary",
    "r6_example_realizability",
    "lambda_constants",
    "case1_case2_checker",
    "case4_mu",
    "span_angle",
    "case4_checker",
    "case3_obstruction",
    "case3_grid_scan",
    "phiT_aligned_curve",
    "v_frame",
    "nabla_phiT_check",
    "real_domain_report",
]


def _c_s(params) -> tuple:
    """(c, s) of a ModelParams or of a hypothetical (c, s) pair: the
    analyses here take either, so that they also reach case I (c = s)."""
    return (params.c, params.s) if hasattr(params, "c") else tuple(params)


# ---------------------------------------------------------------------------
# the R^6(-6) worked example
# ---------------------------------------------------------------------------

def r6_f(t):
    """The worked example's weight f = c1 k1^(-3/2) = c1 (2 + t^2)^(3/2)."""
    return R6ExampleConfig.c1 * R6ExampleConfig().k1(t) ** -1.5


def r6_bracket() -> float:
    """The constant-beta bracket b^2 + ((c+3s+3(c-s)cos^2 beta)/4)(1-a),
    which vanishes for the worked example (the eps = 0 family)."""
    cfg = R6ExampleConfig()
    c, s = cfg.params.c, cfg.params.s
    return float(cfg.b ** 2
                 + ((c + 3 * s + 3 * (c - s) * cfg.cos_beta ** 2) / 4.0)
                 * (1.0 - cfg.a))


def r6_constants_summary() -> dict:
    """The worked example's scalar data: a, b, cos(beta), the bracket,
    k2 k3, f(0) and k1(0)."""
    cfg = R6ExampleConfig()
    return {
        "a": cfg.a,
        "b": cfg.b,
        "one_minus_a": 1.0 - cfg.a,
        "cos_beta": cfg.cos_beta,
        "cos2_beta": cfg.cos_beta ** 2,
        "bracket": r6_bracket(),
        "k2k3": cfg.k2k3_target,
        "f_at_0": float(r6_f(0.0)),
        "k1_at_0": float(cfg.k1(0.0)),
    }


def r6_example_realizability(step: float = 1e-3) -> dict:
    """Measured realizability analysis of the worked-example data.

    Constructs the best-possible curves (both steering branches) on the
    maximal window and reports: the feasible |t| bound, the measured k3
    against the configured target, the g(phiT,V4) drift, and the slant
    drift of the order-4 truncated Frenet run on [-2, 2].  The configured
    scalar data is *not* the Frenet data of any actual curve: eta_1(V3) =
    g(phiT,V2)/k2 exceeds the Cauchy-Schwarz bound for |t| > ~1.70, the
    steering radicand is negative for |t| > ~1.54, and inside the window
    the measured k3 disagrees with the target pointwise.
    """
    cfg = R6ExampleConfig()
    out = {"feasible_abs_t": cfg.feasible_abs_t(),
           "k3_target_at_0": float(cfg.k3(0.0))}
    # Cauchy-Schwarz bound: |eta_1(V3)| = |p2|/k2(t) <= 1  =>  k1 >= |p2|/c2
    kbound = abs(cfg.p2) / cfg.c2
    val = 4 * cfg.c3 / kbound - 16 * cfg.c2 ** 2 - 16.0
    out["cauchy_schwarz_abs_t"] = float(np.sqrt(max(val, 0.0)) / cfg.c3)
    branches = {}
    for branch in (+1, -1):
        trace = cfg.steering_trace(step=step, branch=branch)
        fd = frenet_apparatus(trace)
        prof = contact_angles(trace)
        k1, k2, k3 = fd.padded_curvatures
        sl = slice(10, trace.n - 10)
        tgt = cfg.k3(trace.ts)
        k1_cfg = cfg.k1(trace.ts)       # the weight verify builds for it
        k1p = fd_derivative(k1_cfg, trace.step)
        f = f_from_k1(trace.ts, k1_cfg, k1p, fd_derivative(k1p, trace.step),
                      c1=cfg.c1)
        rep = check_conditions(trace, fd, prof, f)
        branches[branch] = {
            "k3_measured_at_0": float(k3[trace.n // 2]),
            "k3_target_at_0": float(cfg.k3(0.0)),
            "k3_max_relative_mismatch": float(np.max(np.abs(k3[sl] - tgt[sl]) / tgt[sl])),
            "k2_over_k1_deviation": float(np.max(np.abs(k2[sl] / k1[sl] - cfg.c2))),
            "slant_deviation": prof.constancy_deviation,
            "eq4_residual": rep.residuals["eq4"],
            "verdict": rep.verdict,
        }
    out["steering_branches"] = branches
    out["conclusion"] = (
        "no curve realizes the configured scalar data; the configuration "
        "satisfies the constant-beta algebra but fails realizability")
    return out


# ---------------------------------------------------------------------------
# the case theorem: cases I, II and IV
# ---------------------------------------------------------------------------

def lambda_constants(a: float, b: float, params, case: str,
                     beta: float | None = None) -> tuple[float, int]:
    """(lambda, epsilon) of the case bracket.

    case 'I'  : b^2 + s (1-a)                       (requires c = s)
    case 'II' : b^2 + ((c+3s)/4)(1-a)
    case 'IV' : b^2 + ((c+3s+3(c-s)cos^2 beta)/4)(1-a)

    params may be a ModelParams (c = -3s) or a (c, s) pair for
    hypothetical configurations such as case I, which the coordinate model
    cannot reach.
    """
    a, b = float(a), float(b)
    c, s = _c_s(params)
    case = case.upper().strip()
    one_minus_a = 1.0 - a
    if case == "I":
        bracket = b * b + s * one_minus_a
    elif case == "II":
        bracket = b * b + ((c + 3 * s) / 4.0) * one_minus_a
    elif case == "IV":
        if beta is None:
            raise ValueError("case IV requires beta")
        bracket = b * b + ((c + 3 * s + 3 * (c - s) * np.cos(beta) ** 2) / 4.0) * one_minus_a
    else:
        raise ValueError(f"unknown case label {case!r} (expected I, II or IV)")
    # measured inputs carry O(1e-7) noise in cos^2(beta) etc.; a bracket
    # below 1e-9 is numerically indistinguishable from the eps = 0 family
    eps = int(np.sign(bracket)) if abs(bracket) > 1e-9 else 0
    return float(np.sqrt(abs(bracket))), eps


def _fit_constant(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Least-deviation constant ratio num/den and its max deviation."""
    ratio = num / den
    cst = float(np.median(ratio))
    return cst, float(np.max(np.abs(ratio - cst)))


def _case_ode(k1, k1p, k1pp, c2: float, a: float, b: float, params,
              case: str, beta: float | None = None) -> dict:
    """lambda, epsilon and the max residual of the case ODE on k1, with
    the fitted c2 = k2/k1 (clipped at 0)."""
    lam, eps = lambda_constants(a, b, params, case, beta=beta)
    spec = OdeSolutionSpec(epsilon=eps, lam=lam, c2=max(c2, 0.0), c3=1.0, c4=0.0)
    return {"lambda": lam, "epsilon": eps,
            "ode_residual": ode_residual(k1, spec, yp=k1p, ypp=k1pp)["max_residual"]}


def case1_case2_checker(a: float, b: float, params, k1, k1p, k1pp, k2,
                        f: WeightFunction, trace: CurveTrace | None = None,
                        fd: FrenetData | None = None) -> dict:
    """Verify the case I / case II characterization on given data.

    Checks: f = c1 k1^(-3/2) (fits c1, reports deviation), k2/k1 = c2
    constant, and that k1 solves the case ODE with
    eps lam^2 = b^2 + s(1-a) (case I, requires c = s via a (c,s) params
    pair) or b^2 + ((c+3s)/4)(1-a) (case II).  When a trace and FrenetData
    of order 3 are supplied, also checks linear independence of
    {T, V2, V3, phiT, nabla_T phiT, xi_1..xi_s} via the Gram determinant.

    k1, its derivatives k1p, k1pp and k2 are arrays on f's grid (on a
    measured trace: fd.padded_curvatures and fd.curvature_jet).  k1 must
    be strictly positive on the window.
    """
    c, s = _c_s(params)
    case = "I" if abs(c - s) < 1e-14 else "II"
    k1, k1p, k1pp, k2 = (np.asarray(v, dtype=float) for v in (k1, k1p, k1pp, k2))
    if np.any(k1 <= 0):
        raise ValueError("k1 has zeros on the window")

    c1_fit, c1_dev = _fit_constant(f.f, k1 ** -1.5)
    c2_fit, c2_dev = _fit_constant(k2, k1)
    report = {
        "case": case,
        **_case_ode(k1, k1p, k1pp, c2_fit, a, b, (c, s), case),
        "c1": c1_fit,
        "c1_deviation": c1_dev,
        "c2": c2_fit,
        "c2_deviation": c2_dev,
        "proper_possible": not f.is_constant,
    }
    if abs(c2_fit) < 1e-12:
        report["sub_case"] = "r=2 (c2 = 0)"
    if trace is not None and fd is not None and fd.order >= 3:
        report["independence"] = _independence_gram(trace, fd)
    return report


def _independence_gram(trace: CurveTrace, fd: FrenetData) -> dict:
    """Gram-determinant check of {T, V2, V3, phiT, nabla_T phiT, xi_alpha}."""
    params = trace.params
    tf, phiT, nabla_phiT = _nabla_phiT(trace)
    n = trace.n
    mids = [n // 4, n // 2, 3 * n // 4]
    dets = []
    for i in mids:
        vecs = [tf[i], fd.frames[1][i], fd.frames[2][i], phiT[i],
                nabla_phiT[i]]
        for alpha in range(params.s):
            xi = np.zeros(params.dim)
            xi[2 * params.m + alpha] = 1.0
            vecs.append(xi)
        V = np.array(vecs)
        gram = V @ V.T
        dets.append(float(np.linalg.det(gram)))
    return {
        "gram_determinants": dets,
        "independent": bool(min(abs(d) for d in dets) > 1e-10),
        "vector_count": 5 + params.s,
        "dim": params.dim,
    }


def case4_mu(ts, beta, k1, k1p, params, a: float) -> np.ndarray:
    """Antiderivative factor mu(t) of the non-constant-beta branch.

    mu(t) = -(3(c-s)/2)(1-a) * integral of cos^2(beta) k1'/k1^3 dt by
    composite Simpson on the grid, with the free constant set to zero
    (callers shift it to match the k2^2 relation at a reference sample).
    """
    # imported here: scipy.integrate is most of the package's import time
    from scipy.integrate import cumulative_simpson

    c, s = _c_s(params)
    ts = np.asarray(ts, dtype=float)
    integrand = np.cos(np.asarray(beta)) ** 2 * np.asarray(k1p) / np.asarray(k1) ** 3
    prim = cumulative_simpson(integrand, x=ts, initial=0.0)
    return -(3.0 * (c - s) / 2.0) * (1.0 - a) * prim


# relative size below which a phi T projection counts as zero
SPAN_TOL = 1e-6


def span_angle(dec: PhiTDecomposition, a: float) -> np.ndarray:
    """The angle w of phi T's projection onto span{V3, V4}, measured from
    V3; nan where that projection is below SPAN_TOL sqrt(1-a)."""
    plane = np.hypot(dec.p3, dec.p4)
    return np.where(plane > SPAN_TOL * np.sqrt(1.0 - a),
                    np.arctan2(dec.p4, dec.p3), np.nan)


def case4_checker(trace: CurveTrace, fd: FrenetData, profile: SlantProfile,
                  dec: PhiTDecomposition, f: WeightFunction,
                  beta_const_tol: float = 1e-5) -> dict:
    """Verify the case IV characterization on a measured trace.

    dec is the trace's `phiT_decomposition` (the one `check_conditions`
    reports), and k1', k1'' are fd.curvature_jet.

    beta constant branch: k2/k1 = c2, the case ODE with bracket
    b^2 + ((c+3s+3(c-s)cos^2 beta)/4)(1-a), and
    |k2 k3| = |3(c-s) sin(2 beta)/8| (1-a); the +- sign is not pinned to an
    orientation of V4, so magnitudes and measured signs are reported
    separately.  Non-constant beta branch: mu(t) by composite-Simpson
    quadrature of -(3(c-s)/2)(1-a) cos^2(beta) k1'/k1^3, integration
    constant fixed by matching k2^2 = -(3(c-s)/4)(1-a)cos^2 beta + mu k1^2
    at the window midpoint, then that relation, the mu-modified ODE and the
    k2 k3 relation with sin(w), cos(w) = -+ beta'/k2, are all checked.
    Rows are trimmed at both ends as in `check_conditions`.
    """
    if fd.order < 3:
        raise ValueError("case IV analysis needs osculating order >= 3")
    params = trace.params
    c, s = params.c, params.s
    one_minus_a = 1.0 - profile.a
    sl = trace.interior
    ts = trace.ts[sl]
    k1, k2, k3 = (arr[sl] for arr in fd.padded_curvatures)
    k1p, k1pp, _ = (arr[sl] for arr in fd.curvature_jet)
    if np.min(np.abs(np.cos(dec.beta[sl]))) < 1e-12 or np.max(np.abs(dec.p2[sl])) < 1e-12:
        raise ValueError("g(phiT,V2) = 0 on the window: this is case II, not IV")
    beta = dec.beta[sl]
    beta_p = fd_derivative(dec.beta, trace.step)[sl]
    beta_variation = float(np.max(beta) - np.min(beta))
    beta_is_const = beta_variation <= beta_const_tol
    cf38 = 3.0 * (c - s) / 8.0
    report = {"beta_constant": beta_is_const, "beta_variation": beta_variation}

    c2_fit, c2_dev = _fit_constant(k2, k1)
    report["c2"] = c2_fit
    report["c2_deviation"] = c2_dev

    if beta_is_const:
        beta0 = float(np.mean(beta))
        report.update(_case_ode(k1, k1p, k1pp, c2_fit, profile.a, profile.b,
                                params, "IV", beta=beta0))
        target = abs(cf38 * np.sin(2 * beta0)) * one_minus_a
        report["k2k3_measured_max_abs"] = float(np.max(np.abs(k2 * k3)))
        report["k2k3_target_abs"] = float(target)
        report["k2k3_abs_residual"] = float(np.max(np.abs(np.abs(k2 * k3) - target)))
        report["k2k3_measured_sign"] = float(np.sign(np.median(k2 * k3)))
        return report

    # non-constant beta branch
    mu_raw = case4_mu(ts, beta, k1, k1p, params, profile.a)
    mid = len(ts) // 2
    # integration constant from (bb1) at the midpoint
    target_mid = (k2[mid] ** 2 + (3.0 * (c - s) / 4.0) * one_minus_a
                  * np.cos(beta[mid]) ** 2) / k1[mid] ** 2
    mu = mu_raw + (target_mid - mu_raw[mid])
    bb1 = k2 ** 2 - (-(3.0 * (c - s) / 4.0) * one_minus_a * np.cos(beta) ** 2
                     + mu * k1 ** 2)
    report["bb1_residual"] = float(np.max(np.abs(bb1)))
    bracket = (profile.b ** 2
               + ((c + 3 * s + 3 * (c - s) * np.cos(beta) ** 2) / 4.0) * one_minus_a)
    ode = (3 * k1p ** 2 - 2 * k1 * k1pp
           - 4 * k1 ** 2 * ((1 + mu) * k1 ** 2 - bracket))
    report["mu_ode_residual"] = float(np.max(np.abs(ode)))
    # cos w = -+ beta'/k2 where defined
    w = span_angle(dec, profile.a)[sl]
    usable = k2 > 10 * ORDER_THRESHOLD
    if np.any(usable & (np.abs(np.sin(beta)) > 1e-8)):
        cosw = np.cos(w)
        mask = usable & np.isfinite(cosw)
        resid = np.minimum(np.abs(cosw[mask] - beta_p[mask] / k2[mask]),
                           np.abs(cosw[mask] + beta_p[mask] / k2[mask]))
        report["cos_w_relation_residual"] = float(np.max(resid)) if np.any(mask) else np.nan
    sinw = np.sin(w)
    target = np.abs(cf38 * np.sin(2 * beta) * sinw) * one_minus_a
    mask = np.isfinite(target)
    report["k2k3_sinw_abs_residual"] = float(
        np.max(np.abs(np.abs(k2 * k3)[mask] - target[mask]))) if np.any(mask) else np.nan
    return report


# ---------------------------------------------------------------------------
# case III: phiT parallel V2
# ---------------------------------------------------------------------------

def case3_obstruction(a: float, b: float, params, c2: float | None = None,
                      epsilon: int = 1) -> dict:
    """Reproduce the case III contradiction chain for given (a, b).

    With phiT = eps sqrt(1-a) V2 and k2/k1 = c2, the structural identity
    k2 = sqrt(a d^2 - a s + b^2 + 2 eps b d + s), d = k1/sqrt(1-a), turns
    k2 = c2 k1 into the polynomial

        (c2^2 + a/(a-1)) k1^2 + (2 eps b/(a-1)) k1 + (a s - b^2 - s) = 0.

    If any coefficient is nonzero the polynomial pins k1 to a constant root
    ('constant-k1' branch: not proper f-biharmonic); all three vanish only
    for b = 0 and then a = 1, the geodesic terminal case.  Returns the
    branch that fired, the coefficients, and the candidate constant roots.
    """
    s = _c_s(params)[1]
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +-1 (sign of g(phiT, V2))")
    if abs(a - 1.0) < 1e-14:
        if abs(b) < 1e-14:
            return {"branch": "geodesic", "a": a, "b": b,
                    "note": "a = 1 forces T = V: integral curve of V, geodesic"}
        return {"branch": "inconsistent-input", "a": a, "b": b,
                "note": "a = 1 with b != 0 is not a slant configuration"}
    coeffs = {}
    c2_vals = [c2] if c2 is not None else [0.5, 1.0, 2.0]
    roots_by_c2 = {}
    for cc in c2_vals:
        A = cc ** 2 + a / (a - 1.0)
        B = 2.0 * epsilon * b / (a - 1.0)
        C = a * s - b * b - s
        coeffs[cc] = (A, B, C)
        roots = np.roots([A, B, C]) if abs(A) > 1e-14 else (
            np.array([-C / B]) if abs(B) > 1e-14 else np.array([]))
        roots_by_c2[cc] = [float(r.real) for r in np.atleast_1d(roots)
                           if abs(r.imag) < 1e-12]
    # C = s(a-1) - b^2 < 0 strictly for 0 < a < 1: some coefficient is
    # always nonzero, so k1 is a root of a nontrivial polynomial.
    return {
        "branch": "constant-k1",
        "a": a,
        "b": b,
        "epsilon": epsilon,
        "coefficients": coeffs,
        "constant_k1_roots": roots_by_c2,
        "note": "nontrivial polynomial in k1: k1 constant, f constant, not proper",
    }


def case3_grid_scan(params, a_grid=None, b_grid=None) -> dict:
    """Obstruction scan over an (a, b) grid for both epsilon signs."""
    s = _c_s(params)[1]
    if a_grid is None:
        a_grid = np.linspace(0.05, 0.95, 10)
    if b_grid is None:
        b_grid = np.linspace(-0.9 * s, 0.9 * s, 10)
    cells = []
    all_obstructed = True
    for a in a_grid:
        for b in b_grid:
            for eps in (-1, 1):
                rep = case3_obstruction(float(a), float(b), params, epsilon=eps)
                obstructed = rep["branch"] in ("constant-k1", "geodesic")
                all_obstructed &= obstructed
                cells.append({"a": float(a), "b": float(b), "epsilon": eps,
                              "branch": rep["branch"]})
    return {"cells": cells, "all_obstructed": all_obstructed,
            "grid_shape": (len(a_grid), len(b_grid), 2)}


def phiT_aligned_curve(params: ModelParams, thetas, k1, epsilon: int = +1,
                       window=(-2.0, 2.0), step: float = 1e-3,
                       p0=None) -> CurveTrace:
    """Slant curve with phiT parallel V2 (the case III configuration).

    Here the steering space degenerates: zeta' = q i zeta with
    q = 2b + epsilon k1/sqrt(1-a), a pure phase rotation.  The second
    curvature of the result obeys the structural identity
    k2 = sqrt(a d^2 - a s + b^2 + 2 epsilon b d + s), d = k1/sqrt(1-a).
    """
    m, s = params.m, params.s
    sv = np.cos(np.asarray(thetas, dtype=float))
    if len(sv) != s:
        raise ValueError(f"need {s} contact angles")
    a = float(np.sum(sv ** 2))
    b = float(np.sum(sv))
    P = 1.0 - a
    if P < 1e-12:
        raise SynthesisError("a = 1 is the geodesic case")
    if epsilon not in (-1, 1):
        raise ValueError("epsilon must be +-1")
    if p0 is None:
        p0 = np.zeros(params.dim)
    p0 = np.asarray(p0, dtype=float)

    def rotation(times):
        # q i per stage time; k1 is called on Python floats, as in
        # `synth.steered_slant_curve`
        k = np.array([k1(t) for t in times.tolist()], dtype=float)
        return (2.0 * b + epsilon * k / np.sqrt(P)) * 1j

    two_sv = 2 * sv

    def rhs(qi, st):
        dz = qi * (st[0] + 1j * st[1])
        out = np.zeros(2 + params.dim)
        out[0], out[1] = dz.real, dz.imag
        out[2] = 2 * st[1]                  # x_1' = 2 B_1
        out[2 + m] = 2 * st[0]              # y_1' = 2 A_1
        out[2 + 2 * m:] = two_sv + 2 * st[1] * st[2 + m]
        return out

    st0 = np.zeros(2 + params.dim)
    st0[0] = np.sqrt(P)
    st0[2:] = p0

    ts, recs = _rk4_march(rhs, st0, window, step, rotation)
    points = recs[:, 2:]
    vel_frame = np.zeros((len(ts), params.dim))
    vel_frame[:, 0] = recs[:, 0]
    vel_frame[:, params.m] = recs[:, 1]
    vel_frame[:, 2 * params.m:] = sv
    vels = frame_to_coords(params, vel_frame.T,
                           points[:, params.m:2 * params.m].T).T
    return CurveTrace.from_velocity(params, ts, points, vels, step, 4)


# ---------------------------------------------------------------------------
# the nabla_T(phi T) identity
# ---------------------------------------------------------------------------

def _nabla_phiT(trace: CurveTrace):
    """(T, phi T, nabla_T(phi T)) in frame components, exactly.

    phi is constant-coefficient on frames, so d/dt of phi T's components
    is phi of T's and nabla_T(phi T) = phi(T') + Phi(T, phi T), from the
    jet of T's frame components.  The three come one sample per row.
    """
    params = trace.params
    tjet = _frame_jet(trace)
    tf = tjet[0]
    phiT = phi_frame(params, tf)
    return (tf.T, phiT.T,
            (phi_frame(params, tjet[1]) + connection_term(params, tf, phiT)).T)


def v_frame(profile: SlantProfile) -> np.ndarray:
    """Frame components of V (xi_alpha slots carry cos theta_alpha)."""
    params = profile.params
    out = np.zeros(params.dim)
    out[2 * params.m:] = np.cos(profile.thetas)
    return out


def nabla_phiT_check(trace: CurveTrace, fd: FrenetData,
                     profile: SlantProfile) -> dict:
    """Residual of nabla_T(phi T) = (1-a) sum xi + b(-T + V) + k1 phi V2.

    The left side is computed exactly from the trace derivatives (phi T in
    frame components is algebraic in T, so its jet follows from T's jet);
    the right side uses the measured k1 and V2.  A geodesic input is valid
    (both sides reduce to the xi/V terms with k1 = 0) but is flagged.
    """
    params = trace.params
    m = params.m
    if trace.depth < 2:
        raise ValueError("need gamma'' to differentiate phi T")
    tf, _, lhs = _nabla_phiT(trace)

    a, b = profile.a, profile.b
    xibar = np.zeros(params.dim)
    xibar[2 * m:] = 1.0
    Vf = v_frame(profile)
    geodesic = fd.order < 2
    k1 = fd.padded_curvatures[0]
    phiV2 = np.zeros_like(tf) if geodesic else phi_frame(params, fd.frames[1].T).T
    rhs = (1 - a) * xibar + b * (-tf + Vf) + k1[:, None] * phiV2
    res = np.linalg.norm(lhs - rhs, axis=-1)
    return {
        "max_residual": float(np.max(res)),
        "per_sample": res,
        "geodesic": geodesic,
    }


# ---------------------------------------------------------------------------
# the governing ODE
# ---------------------------------------------------------------------------

def real_domain_report(spec: OdeSolutionSpec, window=(-2.0, 2.0), n: int = 2001) -> dict:
    """Where, if anywhere, the literal formula is real on the window."""
    ts = np.linspace(window[0], window[1], n)
    _, ok = k1_closed_form(spec, ts)
    frac = float(np.mean(ok))
    report = {
        "case": spec.case,
        "window": (float(window[0]), float(window[1])),
        "real_fraction": frac,
        "nowhere_real": bool(frac == 0.0),
        "samples": n,
    }
    if frac > 0:
        good = np.where(ok)[0]
        report["first_real_t"] = float(ts[good[0]])
        report["last_real_t"] = float(ts[good[-1]])
    return report
