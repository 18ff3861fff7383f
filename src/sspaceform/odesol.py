"""Closed-form candidates and numerical oracle for the autonomous ODE

    3 (y')^2 - 2 y y'' = 4 y^2 [ (1 + c2^2) y^2 - eps lam^2 ],

which governs the first curvature in every classification case.  The
closed forms are treated as CANDIDATES: every evaluation is paired with a
residual check (`ode_residual` is the ground truth), because the printed
case (i)/(ii) formulas have empty real interior domain:

  case (i):  N = lam^2 sec^2(u) [-(1+c2^2+c3^2) sec^2(u) + (1+c2^2-c3^2)]
             <= -2 c3^2 lam^2 sec^2(u) for all real u, so N < 0 whenever
             c3 != 0, and N <= 0 with only isolated zeros when c3 = 0
             (where the denominator D vanishes as well);
  case (ii): N = lam^2 sech^2(u) (1+c2^2+c3^2)(sech^2(u) - 1) <= 0 with the
             only zero at u = 0.

`sspaceform.findings` reports the real domain per parameter set; the
fixed-step RK4 oracle (`numeric_solution_oracle`) and the first integral
C = [(y')^2 + 4(1+c2^2) y^4 + 4 eps lam^2 y^2]/y^3 are authoritative there.
Case (iii) is an exact solution family (residual at rounding level).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biharmonic import WeightFunction
from .curve import MAX_SAMPLES

__all__ = [
    "OdeSolutionSpec",
    "OracleSolution",
    "k1_closed_form",
    "case_iii_profile",
    "ode_residual",
    "f_from_k1",
    "numeric_solution_oracle",
    "first_integral",
]

POLE_GUARD = 1e-3   # closeness to a root of D or of cos(u) counted as a pole


@dataclass(frozen=True)
class OdeSolutionSpec:
    """Parameters (eps, lam, c2, c3, c4) of a closed-form candidate."""

    epsilon: int            # -1, 0, +1
    lam: float              # lambda >= 0
    c2: float               # >= 0
    c3: float
    c4: float

    def __post_init__(self):
        if self.epsilon not in (-1, 0, 1):
            raise ValueError("epsilon must be -1, 0 or +1")
        if self.lam < 0 or self.c2 < 0:
            raise ValueError("lambda and c2 must be nonnegative")
        if self.epsilon == 0 and self.lam != 0:
            # eps lam^2 = 0 either way; normalize so eps=0 <=> bracket vanishes
            object.__setattr__(self, "lam", 0.0)
        if self.epsilon != 0 and self.lam == 0:
            raise ValueError("epsilon = +-1 requires lambda > 0")

    @property
    def case(self) -> str:
        if self.epsilon == 1:
            return "i"
        if self.epsilon == -1:
            return "ii"
        return "iii"


def _case_NMD(spec: OdeSolutionSpec, t: np.ndarray):
    """The literal N, M, D of the solution formula y = (+-sqrt(N) + M)/D,
    whose + branch `k1_closed_form` evaluates."""
    c2, c3, c4, lam = spec.c2, spec.c3, spec.c4, spec.lam
    u = 2.0 * lam * t + c4
    if spec.epsilon == 1:
        with np.errstate(divide="ignore", over="ignore"):
            sec2 = 1.0 / np.cos(u) ** 2
        N = lam ** 2 * sec2 * (-(1 + c2 ** 2 + c3 ** 2) * sec2 + (1 + c2 ** 2 - c3 ** 2))
        M = lam * c3 * sec2
        D = (1 + c2 ** 2) * sec2 - (1 + c2 ** 2 - c3 ** 2)
        pole = np.abs(np.cos(u)) < POLE_GUARD
    elif spec.epsilon == -1:
        sech2 = 1.0 / np.cosh(u) ** 2
        N = lam ** 2 * sech2 * (1 + c2 ** 2 + c3 ** 2) * (sech2 - 1.0)
        M = lam * c3 * sech2
        D = (1 + c2 ** 2) * sech2 - (1 + c2 ** 2 + c3 ** 2)
        pole = np.zeros_like(np.asarray(t, dtype=float), dtype=bool)
    else:
        x = np.asarray(t, dtype=float)
        N = np.zeros_like(x)
        M = 4.0 * c3 * np.ones_like(x)
        D = (c3 ** 2 * x ** 2 + 2 * c3 ** 2 * c4 * x
             + c3 ** 2 * c4 ** 2 + 16 * c2 ** 2 + 16.0)
        pole = np.zeros_like(x, dtype=bool)
    pole = pole | (np.abs(D) < POLE_GUARD)
    return N, M, D, pole


def k1_closed_form(spec: OdeSolutionSpec, t):
    """Evaluate the literal case formula; returns (y, domain_ok).

    domain_ok is False where N < 0 (complex branch), near a pole of D, or
    near a sec singularity; y is nan there.  t is an array of samples.
    """
    tt = np.atleast_1d(np.asarray(t, dtype=float))
    N, M, D, pole = _case_NMD(spec, tt)
    ok = (N >= 0.0) & ~pole & np.isfinite(N) & np.isfinite(M) & np.isfinite(D)
    y = np.full_like(tt, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        y[ok] = (np.sqrt(N[ok]) + M[ok]) / D[ok]
    return y, ok


def case_iii_profile(spec: OdeSolutionSpec, t):
    """Case (iii) value with analytic first and second derivatives.

    y = M/D with constant M and quadratic D, so
        y' = -M D'/D^2,  y'' = M (2 D'^2 - D D'')/D^3.
    """
    if spec.case != "iii":
        raise ValueError("analytic derivatives implemented for case (iii) only")
    tt = np.asarray(t, dtype=float)
    c2, c3, c4 = spec.c2, spec.c3, spec.c4
    M = 4.0 * c3
    D = c3 ** 2 * tt ** 2 + 2 * c3 ** 2 * c4 * tt + c3 ** 2 * c4 ** 2 + 16 * c2 ** 2 + 16.0
    Dp = 2 * c3 ** 2 * tt + 2 * c3 ** 2 * c4
    Dpp = 2 * c3 ** 2
    y = M / D
    yp = -M * Dp / D ** 2
    ypp = M * (2 * Dp ** 2 - D * Dpp) / D ** 3
    return y, yp, ypp


def ode_residual(y, spec: OdeSolutionSpec, yp, ypp) -> dict:
    """|3 y'^2 - 2 y y'' - 4 y^2 ((1+c2^2) y^2 - eps lam^2)| per sample.

    Ground truth for every closed-form claim, on arrays y, y', y''.
    Reports the max absolute residual (windows containing y = 0 make the
    relative residual meaningless, so absolute is reported).
    """
    y, yp, ypp = (np.asarray(v, dtype=float) for v in (y, yp, ypp))
    lhs = 3.0 * yp ** 2 - 2.0 * y * ypp
    rhs = 4.0 * y ** 2 * ((1 + spec.c2 ** 2) * y ** 2 - spec.epsilon * spec.lam ** 2)
    res = np.abs(lhs - rhs)
    finite = np.isfinite(res)
    return {
        "max_residual": float(np.max(res[finite])) if np.any(finite) else np.nan,
        "per_sample": res,
    }


def f_from_k1(ts, k1, k1p, k1pp, c1: float = 1.0):
    """WeightFunction f = c1 k1^(-3/2) with chain-rule derivatives from
    the arrays k1, k1', k1'' on ts (exact or differenced, as the caller
    chooses).  Requires k1 > 0 on the window and c1 > 0.
    """
    ts = np.asarray(ts, dtype=float)
    k1, k1p, k1pp = (np.asarray(v, dtype=float) for v in (k1, k1p, k1pp))
    if c1 <= 0:
        raise ValueError("c1 must be positive")
    if np.any(k1 <= 0):
        raise ValueError("k1 must be positive on the whole window")
    f = c1 * k1 ** -1.5
    fp = -1.5 * c1 * k1 ** -2.5 * k1p
    fpp = c1 * (3.75 * k1 ** -3.5 * k1p ** 2 - 1.5 * k1 ** -2.5 * k1pp)
    return WeightFunction(ts=ts, f=f, fp=fp, fpp=fpp, c1=c1)


@dataclass
class OracleSolution:
    """Fixed-step RK4 trajectory of the second-order ODE."""

    ts: np.ndarray
    y: np.ndarray
    yp: np.ndarray
    truncated: bool
    blowup_t: float | None


def numeric_solution_oracle(spec: OdeSolutionSpec, y0: float, y0prime: float,
                            window=(-2.0, 2.0), step: float = 1e-3,
                            t0: float = 0.0, blowup: float = 1e6,
                            floor: float = 1e-12) -> OracleSolution:
    """Integrate the ODE with classical fixed-step RK4 from (t0, y0, y0').

    Fixed step keeps the 4th-order convergence measurable by step halving;
    pass a smaller step for refinement.  Trajectories are truncated (not
    errored) on finite-time blowup |y| > blowup or on approaching the
    singular line y <= floor, and the truncation point is reported.  A
    step is refused, and the march truncated at its end time, when any of
    its stages would evaluate y'' at y <= floor; a y0 that is not above
    the floor, where the first stage would, is refused with ValueError,
    and so is a grid of more than MAX_SAMPLES points, before the march.
    """
    if not (math.isfinite(step) and step > 0):
        raise ValueError("step must be positive and finite")
    if not (math.isfinite(y0) and math.isfinite(y0prime)):
        raise ValueError("initial data must be finite")
    if y0 <= 0:
        raise ValueError("initial data must have y0 > 0")
    if y0 <= floor:
        raise ValueError(f"y0 = {y0!r} is not above the floor {floor!r}")
    t_lo, t_hi = window
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError("window must be finite")
    if not t_lo <= t0 <= t_hi:
        raise ValueError("t0 must lie inside the window")
    # steps forward and backward; the first test also refuses an inf, which
    # round cannot take
    steps = [abs(t_end - t0) / step for t_end in (t_hi, t_lo)]
    if not sum(steps) < MAX_SAMPLES or sum(map(round, steps)) >= MAX_SAMPLES:
        raise ValueError(f"step {step:g} over the window ({t_lo:g}, {t_hi:g}) "
                         f"asks for more than the {MAX_SAMPLES} samples a grid "
                         "may have")
    # imported here: the CLI never runs the oracle
    from array import array

    q = 1 + spec.c2 ** 2
    el = spec.epsilon * spec.lam ** 2

    def march(direction, n):
        h = direction * step
        half, sixth = h / 2, h / 6
        # packed doubles, not lists of float objects: 8 bytes a value
        ts = array("d", [t0])
        ys = array("d", [y0])
        yps = array("d", [y0prime])
        t, y, yp = t0, y0, y0prime
        # own scalar loop on Python floats: on two floats about 13x faster
        # than synth._rk4_march, whose stages are NumPy arrays.  Each stage
        # evaluates y'' solved from the ODE,
        #   y'' = [3 y'^2 - 4 y^2((1+c2^2) y^2 - eps lam^2)]/(2y),
        # inline; a stage whose y is not above the floor truncates the
        # march at that step, before y'' is evaluated there.
        for _ in range(n):
            t = t + h
            k1a, k1b = yp, (3.0 * yp * yp - 4.0 * y * y * (q * y * y - el)) / (2.0 * y)
            y2, k2a = y + half * k1a, yp + half * k1b
            if not y2 > floor:
                return ts, ys, yps, t
            k2b = (3.0 * k2a * k2a - 4.0 * y2 * y2 * (q * y2 * y2 - el)) / (2.0 * y2)
            y3, k3a = y + half * k2a, yp + half * k2b
            if not y3 > floor:
                return ts, ys, yps, t
            k3b = (3.0 * k3a * k3a - 4.0 * y3 * y3 * (q * y3 * y3 - el)) / (2.0 * y3)
            y4, k4a = y + h * k3a, yp + h * k3b
            if not y4 > floor:
                return ts, ys, yps, t
            k4b = (3.0 * k4a * k4a - 4.0 * y4 * y4 * (q * y4 * y4 - el)) / (2.0 * y4)
            y = y + sixth * (k1a + 2 * k2a + 2 * k3a + k4a)
            yp = yp + sixth * (k1b + 2 * k2b + 2 * k3b + k4b)
            if not math.isfinite(y) or abs(y) > blowup or y <= floor:
                return ts, ys, yps, t
            ts.append(t)
            ys.append(y)
            yps.append(yp)
        return ts, ys, yps, None

    *fwd, stop_f = march(+1.0, round(steps[0]))
    *back, stop_b = march(-1.0, round(steps[1]))
    # the backward half reversed, without its copy of t0, then the forward
    ts, y, yp = (np.concatenate((np.frombuffer(b)[:0:-1], np.frombuffer(f)))
                 for b, f in zip(back, fwd))
    truncated = stop_f is not None or stop_b is not None
    blowup_t = stop_f if stop_f is not None else stop_b
    return OracleSolution(ts=ts, y=y, yp=yp, truncated=truncated,
                          blowup_t=blowup_t)


def first_integral(y, yp, spec: OdeSolutionSpec) -> np.ndarray:
    """C = [(y')^2 + 4(1+c2^2) y^4 + 4 eps lam^2 y^2] / y^3.

    Constant along every solution (first integral of the autonomous ODE);
    its drift is an independent quality metric for oracle trajectories.
    """
    y = np.asarray(y, dtype=float)
    yp = np.asarray(yp, dtype=float)
    # (yp**2 + 4(1+c2^2) y**4 + 4 eps lam^2 y**2) / y**3 in two buffers,
    # with the ufuncs of that expression in its order
    out = np.square(yp)
    term = np.power(y, 4)
    term *= 4 * (1 + spec.c2 ** 2)
    out += term
    np.square(y, out=term)
    term *= 4 * spec.epsilon * spec.lam ** 2
    out += term
    out /= np.power(y, 3, out=term)
    return out
