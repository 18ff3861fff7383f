"""The paper's findings, computed: analyses that only tests and demos run.

Only tests and demos import this module; `import sspaceform` and the CLI
never do, so a cold CLI process does not compile it.  The pipeline it
reads from (synthesis, Frenet apparatus, slant diagnostics, master
equations) is the one the CLI runs.

- `r6_example_realizability`, with `r6_constants_summary`, `r6_bracket` and
  `r6_f`: the classical R^6(-6) worked example satisfies the constant-beta
  algebra exactly, but no curve realizes it (README finding 1);
- `case3_grid_scan`: the case III obstruction over an (a, b) grid;
- `phiT_aligned_curve`: the case III configuration phiT parallel V2;
- `nabla_phiT_check`, with `v_frame`: the identity for nabla_T(phi T);
- `real_domain_report`: where a printed closed form of the governing ODE
  is real.
"""
from __future__ import annotations

import numpy as np

from .biharmonic import WeightFunction, case3_obstruction, check_conditions
from .curve import CurveTrace, FrenetData, frenet_apparatus
from .manifold import ModelParams, frame_to_coords, phi_frame
from .odesol import OdeSolutionSpec, _c_s, k1_closed_form
from .slant import SlantProfile, _nabla_phiT, contact_angles
from .synth import R6ExampleConfig, SynthesisError, _rk4_march

__all__ = [
    "r6_f",
    "r6_bracket",
    "r6_constants_summary",
    "r6_example_realizability",
    "case3_grid_scan",
    "phiT_aligned_curve",
    "v_frame",
    "nabla_phiT_check",
    "real_domain_report",
]


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
        fd = frenet_apparatus(trace, max_order=5)
        prof = contact_angles(trace)
        k1, k2, k3 = fd.padded_curvatures
        sl = slice(10, trace.n - 10)
        tgt = cfg.k3(trace.ts)
        f = WeightFunction(ts=trace.ts, f=r6_f(trace.ts),
                           fp=np.gradient(r6_f(trace.ts), trace.ts),
                           fpp=np.gradient(np.gradient(r6_f(trace.ts), trace.ts), trace.ts),
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
# case III: phiT parallel V2
# ---------------------------------------------------------------------------

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
                rep = case3_obstruction((float(a), float(b)), params, epsilon=eps)
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

    ts, recs = _rk4_march(rhs, st0, 0.0, window, step, table=rotation)
    points = recs[:, 2:]
    vel_frame = np.zeros((len(ts), params.dim))
    vel_frame[:, 0] = recs[:, 0]
    vel_frame[:, params.m] = recs[:, 1]
    vel_frame[:, 2 * params.m:] = sv
    vels = frame_to_coords(params, vel_frame, points[:, params.m:2 * params.m])
    return CurveTrace.from_velocity(params, ts, points, vels, step, 4)


# ---------------------------------------------------------------------------
# the nabla_T(phi T) identity
# ---------------------------------------------------------------------------

def v_frame(profile: SlantProfile) -> np.ndarray:
    """Frame components of V (xi_alpha slots carry cos theta_alpha)."""
    params = profile.params
    out = np.zeros(params.dim)
    out[2 * params.m:] = profile.cos_thetas
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
    phiV2 = np.zeros_like(tf) if geodesic else phi_frame(params, fd.frames[1])
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
