"""Bitension and f-bitension fields, the master equations, and the
four-case classification of proper f-biharmonicity for slant curves.

For a unit-speed slant curve of osculating order r with weight f > 0,

    tau2 = nabla_T^3 T - R(T, nabla_T T) T,
    tau3 = tau2 + 2 (f'/f) nabla_T^2 T + (f''/f) nabla_T T,

and tau3 = 0 is equivalent to the five scalar conditions

    (1) 3 k1'/k1 + 2 f'/f = 0
    (2) k1^2 + k2^2 = k1''/k1 + f''/f + 2 (f'/f)(k1'/k1)
                      + b^2 + ((c+3s)/4)(1-a) + (3(c-s)/4) g(phiT,V2)^2
    (3) k2' + 2 k2 k1'/k1 + 2 k2 f'/f + (3(c-s)/4) g(phiT,V2) g(phiT,V3) = 0
    (4) k2 k3 + (3(c-s)/4) g(phiT,V2) g(phiT,V4) = 0
    (5) g(tau3, phiT) = 0.

tau2 is computed two ways: the direct covariant route (exact chain +
closed-form curvature tensor, in frame components) and the
Frenet-expansion route from measured scalars; the cross residual is part
of every report.  The measured scalars k1, k2, k3 and their jet k1',
k1'', k2' come from FrenetData, which differences them once per trace.
The scalar core `mainprop_residuals` also runs standalone on
hypothetical data (e.g. case I, c = s, which the coordinate model cannot
realize since c = -3s).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import odesol
from .odesol import _c_s
from .curve import CurveTrace, FrenetData, fd_derivative, uniform_step
from .manifold import ModelParams, curvature_frame
from .slant import (PhiTDecomposition, SlantProfile, _nabla_phiT,
                    phiT_decomposition)

__all__ = [
    "WeightFunction",
    "BiharmonicReport",
    "mainprop_residuals",
    "tau2",
    "tau3",
    "check_conditions",
    "classify_case",
    "case1_case2_checker",
    "case3_obstruction",
    "case4_mu",
    "case4_checker",
]

PROPER_F_VARIATION = 1e-8   # f counts as non-constant above this rel. variation
TAU2_CHAIN_LEVELS = 4       # tau2 reads nabla_T^3 T: derivatives to gamma^(4)


def _a_b(profile_or_ab) -> tuple:
    """(a, b) of a SlantProfile or of an (a, b) pair."""
    if hasattr(profile_or_ab, "a"):
        return profile_or_ab.a, profile_or_ab.b
    return tuple(profile_or_ab)


@dataclass
class WeightFunction:
    """Positive weight f on the trace grid, with derivative samples.

    Closed-form weights f = c1 k1^(-3/2) carry c1; sampled weights carry
    c1 = None.  f must be positive on the window; a non-finite f, f' or f''
    raises FloatingPointError naming its row.
    """

    ts: np.ndarray
    f: np.ndarray
    fp: np.ndarray
    fpp: np.ndarray
    c1: float | None = None

    def __post_init__(self):
        self.ts = np.asarray(self.ts, dtype=float)
        self.f = np.asarray(self.f, dtype=float)
        self.fp = np.asarray(self.fp, dtype=float)
        self.fpp = np.asarray(self.fpp, dtype=float)
        for name in ("f", "fp", "fpp"):
            bad = np.flatnonzero(~np.isfinite(getattr(self, name)))
            if len(bad):
                raise FloatingPointError(
                    f"non-finite {name} in row {bad[0]} of the weight")
        if np.any(self.f <= 0):
            raise ValueError("f must be positive on the whole window")
        if self.c1 is not None and self.c1 <= 0:
            raise ValueError("c1 must be positive")

    @classmethod
    def constant(cls, ts, value: float = 1.0) -> "WeightFunction":
        ts = np.asarray(ts, dtype=float)
        z = np.zeros_like(ts)
        return cls(ts=ts, f=np.full_like(ts, float(value)), fp=z, fpp=z.copy())

    @classmethod
    def from_samples(cls, ts, f) -> "WeightFunction":
        """Sampled weight; derivatives by 4th-order differencing.

        The grid must be uniform (FD stencils assume constant step).
        """
        ts = np.asarray(ts, dtype=float)
        f = np.asarray(f, dtype=float)
        h = uniform_step(ts, "WeightFunction.from_samples")
        fp = fd_derivative(f, h)
        return cls(ts=ts, f=f, fp=fp, fpp=fd_derivative(fp, h))

    @property
    def variation(self) -> float:
        mean = float(np.mean(self.f))
        return float((np.max(self.f) - np.min(self.f)) / mean)

    @property
    def is_constant(self) -> bool:
        return self.variation <= PROPER_F_VARIATION


# ---------------------------------------------------------------------------
# scalar core: the five master equations
# ---------------------------------------------------------------------------

def mainprop_residuals(params, k1, k2, k3, p2, p3, p4, f: WeightFunction,
                       a: float, b: float, k1p, k1pp, k2p,
                       extra_gphiT=None) -> dict:
    """Residual arrays of the five proper-f-biharmonicity conditions.

    params may be a ModelParams or a (c, s) pair (hypothetical mode).
    The curvature derivatives k1', k1'', k2' are the caller's: on a
    measured trace, `FrenetData.curvature_jet`.  A NaN in k1 (the
    verify pass masks k1 <= 0) makes eq1-eq3 and gphiT NaN at that
    sample only.
    extra_gphiT, when given, is |phiT|^2 - (p2^2+p3^2+p4^2) per sample
    (the part of phiT outside span{V2,V3,V4}), needed for condition (5)
    on traces of order > 4; scalar mode assumes phiT lies in the span.
    """
    c, s = _c_s(params)
    k1, k2, k3, p2, p3, p4 = (np.asarray(v, dtype=float)
                              for v in (k1, k2, k3, p2, p3, p4))
    cf = 3.0 * (c - s) / 4.0
    bracket = b * b + ((c + 3 * s) / 4.0) * (1.0 - a)
    eq1 = 3.0 * k1p / k1 + 2.0 * f.fp / f.f
    eq2 = (k1 ** 2 + k2 ** 2
           - (k1pp / k1 + f.fpp / f.f + 2.0 * (f.fp / f.f) * (k1p / k1)
              + bracket + cf * p2 ** 2))
    eq3 = k2p + 2.0 * k2 * k1p / k1 + 2.0 * k2 * f.fp / f.f + cf * p2 * p3
    eq4 = k2 * k3 + cf * p2 * p4
    # (5): g(tau3, phiT) via the Frenet expansion of tau3; the T-component
    # of tau3 never contributes because g(phiT, T) = 0
    v2_coef = (k1pp - k1 ** 3 - k1 * k2 ** 2 + k1 * bracket
               + 2.0 * (f.fp / f.f) * k1p + (f.fpp / f.f) * k1)
    v3_coef = 2.0 * k1p * k2 + k1 * k2p + 2.0 * (f.fp / f.f) * k1 * k2
    v4_coef = k1 * k2 * k3
    out_of_span = np.zeros_like(k1) if extra_gphiT is None else np.asarray(extra_gphiT)
    gphiT = (v2_coef * p2 + v3_coef * p3 + v4_coef * p4
             + cf * k1 * p2 * (p2 ** 2 + p3 ** 2 + p4 ** 2 + out_of_span))
    return {"eq1": eq1, "eq2": eq2, "eq3": eq3, "eq4": eq4, "gphiT": gphiT}


# ---------------------------------------------------------------------------
# tension fields
# ---------------------------------------------------------------------------

def tau2(fd: FrenetData) -> dict:
    """Bitension field per sample, computed two ways.

    direct: nabla_T^3 T - R(T, nabla_T T) T from the exact chain fd.chain
    and the closed-form curvature tensor (frame components).
    frenet: (-3 k1 k1') T + (k1'' - k1^3 - k1 k2^2) V2
            + (2 k1' k2 + k1 k2') V3 + k1 k2 k3 V4 - R-term,
    where the R-term uses the same closed form and the scalars are
    fd.padded_curvatures and fd.curvature_jet.  Returns both fields and
    their cross residual.  A chain shorter than TAU2_CHAIN_LEVELS raises
    ValueError.
    """
    chain = fd.chain
    if len(chain) < TAU2_CHAIN_LEVELS:
        raise ValueError(f"tau2 needs nabla_T^3 T, i.e. derivative depth >= "
                         f"{TAU2_CHAIN_LEVELS}; the trace has {len(chain)}")
    params = fd.params
    tf = chain[0]
    R_term = curvature_frame(params, tf, chain[1], tf)
    direct = chain[3] - R_term

    k1, k2, k3 = fd.padded_curvatures
    k1p, k1pp, k2p = fd.curvature_jet
    n, dim = len(fd.ts), params.dim
    frames = np.zeros((4, n, dim))
    frames[0] = tf
    for j in range(1, min(4, fd.order)):
        frames[j] = fd.frames[j]
    frenet = ((-3 * k1 * k1p)[:, None] * frames[0]
              + (k1pp - k1 ** 3 - k1 * k2 ** 2)[:, None] * frames[1]
              + (2 * k1p * k2 + k1 * k2p)[:, None] * frames[2]
              + (k1 * k2 * k3)[:, None] * frames[3]
              - R_term)
    cross = float(np.max(np.linalg.norm(direct - frenet, axis=-1)))
    return {"direct": direct, "frenet": frenet, "cross_residual": cross}


def tau3(fd: FrenetData, f: WeightFunction) -> dict:
    """f-bitension field tau3 = tau2 + 2(f'/f) nabla^2 T + (f''/f) nabla T,
    by the direct route; the cross residual is tau2's."""
    t2 = tau2(fd)
    chain = fd.chain
    w1 = (f.fp / f.f)[:, None]
    w2 = (f.fpp / f.f)[:, None]
    direct = t2["direct"] + 2.0 * w1 * chain[2] + w2 * chain[1]
    norm = np.linalg.norm(direct, axis=-1)
    return {
        "direct": direct,
        "cross_residual": t2["cross_residual"],
        "norm": norm,
        "max_norm": float(np.max(norm)),
    }


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass
class BiharmonicReport:
    """Residuals of the master equations plus the derived verdict."""

    residuals: dict                  # max |.| per equation
    case: str                        # I/II/III/IV (or 'degenerate')
    verdict: str                     # proper-f-biharmonic | f-biharmonic |
                                     # biharmonic | harmonic/geodesic | none
    tolerances: dict
    f_variation: float
    details: dict = field(default_factory=dict)
    # arrays behind the maxima, left out of as_dict(): eq1..eq4, gphiT
    # (eq1-eq3 and gphiT NaN at exactly the samples where k1 <= 0) and
    # tau3_norm (NaN when tau3 is not computed)
    per_sample: dict = field(default_factory=dict, repr=False)
    decomposition: PhiTDecomposition | None = field(default=None, repr=False)

    def as_dict(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "case": self.case,
            "verdict": self.verdict,
            "tolerances": dict(self.tolerances),
            "f_variation": float(self.f_variation),
            "details": self.details,
        }


GEODESIC_K1 = 1e-9
EQUATIONS = ("eq1", "eq2", "eq3", "eq4", "gphiT")   # the five master equations


def check_conditions(trace: CurveTrace, fd: FrenetData, profile: SlantProfile,
                     f: WeightFunction, eq_tol: float = 1e-3) -> BiharmonicReport:
    """Evaluate the five master-equation residuals and classify the verdict.

    Verdict logic: all five residuals below eq_tol makes the curve
    f-biharmonic for this f; 'proper-f-biharmonic' additionally requires f
    non-constant (relative variation > 1e-8), constant f gives 'biharmonic'.
    A geodesic (k1 below threshold everywhere) is 'harmonic/geodesic'.
    Residuals are maxed over `trace.interior`, which drops the
    finite-difference edge band of the measured curvatures at each end
    (`CurveTrace.interior`).  tau3_norm is reported only when the chain
    reaches TAU2_CHAIN_LEVELS.
    """
    params = trace.params
    n = trace.n
    k1, k2, k3 = fd.padded_curvatures
    dec = phiT_decomposition(trace, fd, profile) if fd.order >= 2 else None
    zeros = np.zeros(n)
    p2, p3, p4 = (dec.p2, dec.p3, dec.p4) if dec else (zeros, zeros, zeros)
    out_of_span = dec.phiT_norm2 - (p2 ** 2 + p3 ** 2 + p4 ** 2) if dec else None
    per_sample = mainprop_residuals(params, np.where(k1 > 0, k1, np.nan), k2, k3,
                                    p2, p3, p4, f, profile.a, profile.b,
                                    *fd.curvature_jet, extra_gphiT=out_of_span)
    t3 = tau3(fd, f) if len(fd.chain) >= TAU2_CHAIN_LEVELS else None
    per_sample["tau3_norm"] = np.full(n, np.nan) if t3 is None else t3["norm"]

    if fd.order == 1 or np.max(k1) < GEODESIC_K1:
        residuals = dict.fromkeys(EQUATIONS, 0.0)
        if t3 is not None:
            residuals["tau3_norm"] = t3["max_norm"]
        return BiharmonicReport(residuals=residuals, case="degenerate",
                                verdict="harmonic/geodesic",
                                tolerances={"eq_tol": eq_tol},
                                f_variation=f.variation,
                                details={"reason": "k1 below geodesic threshold"},
                                per_sample=per_sample, decomposition=dec)

    sl = trace.interior
    residuals = {k: float(np.max(np.abs(per_sample[k][sl]))) for k in EQUATIONS}
    case = classify_case(dec, profile, params)
    details = {"case_detail": case[1], "slant": profile.is_slant,
               "order": fd.order}
    if t3 is not None:
        residuals["tau3_norm"] = float(np.max(t3["norm"][sl]))
        details["tau2_cross_residual"] = t3["cross_residual"]

    ok = all(residuals[k] < eq_tol for k in EQUATIONS)
    if not profile.is_slant:
        verdict = "none"
        details["reason"] = "not a slant curve"
    elif ok and not f.is_constant:
        verdict = "proper-f-biharmonic"
    elif ok and f.is_constant:
        verdict = "biharmonic"
    else:
        verdict = "none"
    return BiharmonicReport(residuals=residuals, case=case[0], verdict=verdict,
                            tolerances={"eq_tol": eq_tol,
                                        "proper_f_variation": PROPER_F_VARIATION,
                                        "geodesic_k1": GEODESIC_K1},
                            f_variation=f.variation, details=details,
                            per_sample=per_sample, decomposition=dec)


def classify_case(dec: PhiTDecomposition, profile: SlantProfile,
                  params: ModelParams | tuple, tol: float = 1e-6) -> tuple[str, dict]:
    """Case label per the classification of g(tau3, phiT) = 0.

    I   : c = s (unreachable in the coordinate model, where c = -3s);
    II  : c != s and g(phiT, V2) = 0;
    III : c != s and phiT parallel V2;
    IV  : otherwise.
    Returns (label, detail); near-threshold configurations report both
    candidates in detail['ambiguous'].  Thresholds are scale-relative:
    |g(phiT,V2)| < tol*sqrt(1-a) for II, span alignment within tol for III.
    Invariant under frame sign flips (only |p2| and norms of the phiT
    decomposition `dec` are used).
    """
    c, s = _c_s(params)
    if abs(c - s) < 1e-14:
        return "I", {"c": c, "s": s}
    one_minus_a = 1.0 - profile.a
    if one_minus_a < 1e-12:
        return "degenerate", {"reason": "a = 1, phiT = 0 (geodesic direction)"}
    scale = np.sqrt(one_minus_a)
    p2max = float(np.max(np.abs(dec.p2)))
    # alignment with +-V2: || |phiT| - |p2| || relative to scale
    align = float(np.max(np.abs(np.sqrt(dec.phiT_norm2) - np.abs(dec.p2))))
    detail = {"max_abs_p2": p2max, "align_defect": align, "scale": scale}
    is_II = p2max < tol * scale
    is_III = align < tol * scale
    if is_II and is_III:
        detail["ambiguous"] = ["II", "III"]
        return "II", detail
    if is_II:
        return "II", detail
    if is_III:
        return "III", detail
    # ambiguity reporting near thresholds
    near = []
    if p2max < 10 * tol * scale:
        near.append("II")
    if align < 10 * tol * scale:
        near.append("III")
    if near:
        detail["ambiguous"] = near + ["IV"]
    return "IV", detail


# ---------------------------------------------------------------------------
# case checkers
# ---------------------------------------------------------------------------

def _fit_constant(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Least-deviation constant ratio num/den and its max deviation."""
    ratio = num / den
    cst = float(np.median(ratio))
    return cst, float(np.max(np.abs(ratio - cst)))


def case1_case2_checker(profile_or_ab, params, k1, k1p, k1pp, k2,
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
    a, b = _a_b(profile_or_ab)
    c, s = _c_s(params)
    case = "I" if abs(c - s) < 1e-14 else "II"
    lam, eps = odesol.lambda_constants(a, b, (c, s), case)
    k1, k1p, k1pp, k2 = (np.asarray(v, dtype=float) for v in (k1, k1p, k1pp, k2))
    if np.any(k1 <= 0):
        raise ValueError("k1 has zeros on the window")

    c1_fit, c1_dev = _fit_constant(f.f, k1 ** -1.5)
    c2_fit, c2_dev = _fit_constant(k2, k1)
    spec = odesol.OdeSolutionSpec(epsilon=eps, lam=lam, c2=max(c2_fit, 0.0),
                                  c3=1.0, c4=0.0)
    ode_res = odesol.ode_residual(k1, spec, yp=k1p, ypp=k1pp)
    report = {
        "case": case,
        "lambda": lam,
        "epsilon": eps,
        "c1": c1_fit,
        "c1_deviation": c1_dev,
        "c2": c2_fit,
        "c2_deviation": c2_dev,
        "ode_residual": ode_res["max_residual"],
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


def case3_obstruction(profile_or_ab, params, c2: float | None = None,
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
    a, b = _a_b(profile_or_ab)
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
        lam, eps = odesol.lambda_constants(profile.a, profile.b, params, "IV",
                                           beta=beta0)
        spec = odesol.OdeSolutionSpec(epsilon=eps, lam=lam, c2=max(c2_fit, 0.0),
                                      c3=1.0, c4=0.0)
        report["lambda"] = lam
        report["epsilon"] = eps
        report["ode_residual"] = odesol.ode_residual(
            k1, spec, yp=k1p, ypp=k1pp)["max_residual"]
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
    usable = k2 > max(1e-8, 10 * fd.threshold)
    if np.any(usable & (np.abs(np.sin(beta)) > 1e-8)):
        cosw = np.cos(dec.w[sl])
        mask = usable & np.isfinite(cosw)
        resid = np.minimum(np.abs(cosw[mask] - beta_p[mask] / k2[mask]),
                           np.abs(cosw[mask] + beta_p[mask] / k2[mask]))
        report["cos_w_relation_residual"] = float(np.max(resid)) if np.any(mask) else np.nan
    sinw = np.sin(dec.w[sl])
    target = np.abs(cf38 * np.sin(2 * beta) * sinw) * one_minus_a
    mask = np.isfinite(target)
    report["k2k3_sinw_abs_residual"] = float(
        np.max(np.abs(np.abs(k2 * k3)[mask] - target[mask]))) if np.any(mask) else np.nan
    return report
