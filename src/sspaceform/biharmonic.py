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

The verdict comes from these five residuals; `classify_case` labels the
case I-IV.  The checkers of each case's characterization are analyses
on top of them, in `sspaceform.findings`.

tau3 comes from the direct covariant route (exact chain + closed-form
curvature tensor, in frame components); a constant f gives tau2.  On a
slant curve the master equations are tau3's components along T, V2, V3,
V4, phiT; `check_conditions` reports how far each identity is from
holding.  The measured scalars k1, k2, k3 and their jet k1', k1'', k2' come from
FrenetData, which differences them once per trace.
The scalar core `mainprop_residuals` and `classify_case` take the
constants c and s as floats, so they also run on hypothetical data
(e.g. case I, c = s, which the coordinate model cannot realize since
c = -3s).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve import CurveTrace, FrenetData
from .manifold import component_sum, curvature_frame, phi_frame
from .slant import PhiTDecomposition, SlantProfile, phiT_decomposition

__all__ = [
    "WeightFunction",
    "BiharmonicReport",
    "mainprop_residuals",
    "Tension",
    "tau3",
    "check_conditions",
    "classify_case",
]

PROPER_F_VARIATION = 1e-8   # f counts as non-constant above this rel. variation
TAU3_CHAIN_LEVELS = 4       # tau3 reads nabla_T^3 T: derivatives to gamma^(4)
TAU_BLOCK = 4096            # samples per block of the tau3 field


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

def mainprop_residuals(c: float, s: float, k1, k2, k3, p2, p3, p4,
                       f: WeightFunction, a: float, b: float, k1p, k1pp, k2p,
                       extra_gphiT=None) -> dict:
    """Residual arrays of the five proper-f-biharmonicity conditions in a
    space form of constants (c, s).

    The curvature derivatives k1', k1'', k2' are the caller's: on a
    measured trace, `FrenetData.curvature_jet`.  A NaN in k1 (the
    verify pass masks k1 <= 0) makes eq1-eq3 and gphiT NaN at that
    sample only.
    extra_gphiT, when given, is |phiT|^2 - (p2^2+p3^2+p4^2) per sample
    (the part of phiT outside span{V2,V3,V4}), needed for condition (5)
    on traces of order > 4; scalar mode assumes phiT lies in the span.
    """
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

@dataclass(frozen=True)
class Tension:
    """A tension field, component-major like the chain, and its norm per
    sample."""

    field: np.ndarray
    norm: np.ndarray


def tau3(fd: FrenetData, f: WeightFunction) -> Tension:
    """f-bitension field tau3 = tau2 + 2(f'/f) nabla^2 T + (f''/f) nabla T,
    where tau2 = nabla_T^3 T - R(T, nabla_T T) T, from the exact chain and
    the closed-form curvature tensor; a constant f gives tau2.

    TAU_BLOCK samples at a time: only the field and its norm span the
    trace, the curvature term is a block's.  A chain shorter than
    TAU3_CHAIN_LEVELS raises ValueError."""
    chain = fd.chain
    if len(chain) < TAU3_CHAIN_LEVELS:
        raise ValueError(f"tau3 needs nabla_T^3 T, i.e. derivative depth >= "
                         f"{TAU3_CHAIN_LEVELS}; the trace has {len(chain)}")
    params = fd.params
    n = len(fd.ts)
    field = norm = None
    for lo in range(0, n, TAU_BLOCK):
        b = slice(lo, lo + TAU_BLOCK)
        tf = chain[0][:, b]
        R_term = curvature_frame(params, tf, chain[1][:, b], tf)
        if field is None:   # after the first curvature term's temporaries
            field, norm = np.empty(chain[0].shape), np.empty(n)
        d = np.subtract(chain[3][:, b], R_term, out=field[:, b])
        d += 2.0 * (f.fp[b] / f.f[b]) * chain[2][:, b]
        d += (f.fpp[b] / f.f[b]) * chain[1][:, b]
        np.sqrt(component_sum(d * d), out=norm[b])
    return Tension(field, norm)


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
    # tau3_norm
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
    (`CurveTrace.interior`).  Every report carries tau3_norm (`tau3`
    refuses a trace without gamma^(4)) and, unless the verdict is
    'harmonic/geodesic', details['identity_gaps'], the maxima over the
    same rows of |g(tau3,T) + k1^2 eq1|, |g(tau3,V2) + k1 eq2|, |g(tau3,V3)
    - k1 eq3|, |g(tau3,V4) - k1 eq4| and |g(tau3,phiT) - gphiT| (0 if slant).
    """
    params = trace.params
    k1, k2, k3 = fd.padded_curvatures
    dec = phiT_decomposition(trace, fd, profile) if fd.order >= 2 else None
    zeros = np.zeros(trace.n)
    p2, p3, p4 = (dec.p2, dec.p3, dec.p4) if dec else (zeros, zeros, zeros)
    out_of_span = dec.phiT_norm2 - (p2 ** 2 + p3 ** 2 + p4 ** 2) if dec else None
    per_sample = mainprop_residuals(params.c, params.s, np.where(k1 > 0, k1, np.nan),
                                    k2, k3, p2, p3, p4, f, profile.a, profile.b,
                                    *fd.curvature_jet, extra_gphiT=out_of_span)
    t3 = tau3(fd, f)
    per_sample["tau3_norm"] = t3.norm

    if np.max(k1) < GEODESIC_K1:
        residuals = dict.fromkeys(EQUATIONS, 0.0)
        residuals["tau3_norm"] = float(np.max(t3.norm))
        return BiharmonicReport(residuals=residuals, case="degenerate",
                                verdict="harmonic/geodesic",
                                tolerances={"eq_tol": eq_tol},
                                f_variation=f.variation,
                                details={"reason": "k1 below geodesic threshold"},
                                per_sample=per_sample, decomposition=dec)

    sl = trace.interior
    residuals = {k: float(np.max(np.abs(per_sample[k][sl]))) for k in EQUATIONS}
    case = classify_case(dec, profile, params.c, params.s)
    details = {"case_detail": case[1], "slant": profile.is_slant,
               "order": fd.order}
    residuals["tau3_norm"] = float(np.max(t3.norm[sl]))
    # the master equations are tau3's components; frames past r are zero
    def largest(U, term):   # of |g(tau3, U) + term| over the interior
        gap = component_sum(t3.field * U) + term
        return float(np.max(np.abs(gap[sl])))

    T = fd.chain[0]
    V2, V3, V4 = (fd.frames[j].T if j < fd.order else 0.0 for j in (1, 2, 3))
    details["identity_gaps"] = {
        "T": largest(T, k1 ** 2 * per_sample["eq1"]),
        "V2": largest(V2, k1 * per_sample["eq2"]),
        "V3": largest(V3, -k1 * per_sample["eq3"]),
        "V4": largest(V4, -k1 * per_sample["eq4"]),
        "phiT": largest(phi_frame(params, T), -per_sample["gphiT"])}

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


CASE_TOL = 1e-6    # scale-relative threshold of the case II and III tests


def classify_case(dec: PhiTDecomposition, profile: SlantProfile,
                  c: float, s: float) -> tuple[str, dict]:
    """Case label per the classification of g(tau3, phiT) = 0 in a space
    form of constants (c, s).

    I   : c = s (unreachable in the coordinate model, where c = -3s);
    II  : c != s and g(phiT, V2) = 0;
    III : c != s and phiT parallel V2;
    IV  : otherwise.
    Returns (label, detail); near-threshold configurations report both
    candidates in detail['ambiguous'].  Thresholds are scale-relative:
    |g(phiT,V2)| < CASE_TOL sqrt(1-a) for II, span alignment within
    CASE_TOL for III.
    Invariant under frame sign flips (only |p2| and norms of the phiT
    decomposition `dec` are used).
    """
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
    is_II = p2max < CASE_TOL * scale
    is_III = align < CASE_TOL * scale
    if is_II and is_III:
        detail["ambiguous"] = ["II", "III"]
        return "II", detail
    if is_II:
        return "II", detail
    if is_III:
        return "III", detail
    # ambiguity reporting near thresholds
    near = []
    if p2max < 10 * CASE_TOL * scale:
        near.append("II")
    if align < 10 * CASE_TOL * scale:
        near.append("III")
    if near:
        detail["ambiguous"] = near + ["IV"]
    return "IV", detail
