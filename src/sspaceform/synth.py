"""Curve synthesis in R^(2m+s)(-3s).

Two constructions are provided.

* `integrate_frenet_system`: prescribe curvature functions k_1..k_{r-1} and
  an admissible orthonormal initial frame, then integrate gamma' = V_1 and
  the Frenet equations with the exact frame-component connection (RK4,
  modified Gram-Schmidt re-orthonormalization every step).  Any prescribed
  data yields a curve with exactly those curvatures; whether derived
  quantities (contact angles, g(phiT, V_i)) stay constant depends on the
  data being self-consistent, which the caller must check downstream.

* `steered_slant_curve`: the constrained construction for slant curves with
  prescribed contact angles, prescribed k1(t), constant p2 = g(phiT, V2)
  and k2 = c2 k1 enforced exactly.  Writing the horizontal part of T as
  zeta in C^m restricted to a C^2 subspace (needs m >= 2), the constraints
  reduce to one steering angle psi(t) with

      psi' = b - p2 k1/P  +-  sqrt(R(k1) / (P W0^2)),
      R(k1) = (c2^2 + a/(a-1)) k1^2 - (2 b p2/P) k1 - p2^2 (b^2 + sP)/P,

  P = 1 - a, W0^2 = (P - p2^2)/P^2.  The construction exists exactly where
  R >= 0; `SlantSteeringError` reports the feasible window otherwise.
  Everything downstream of the imposed constraints (k3, g(phiT, V4), ...)
  is measured, not prescribed.

Builtins: a geodesic, a flat-slice circle, the f-biharmonic Legendre
catenary, an order-3 proper f-biharmonic curve, and the classical R^6(-6)
worked-example configuration (`R6ExampleConfig`), whose realizability
analysis is in `sspaceform.findings`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .curve import CurveTrace, frenet_apparatus, grid_samples
from .manifold import (ModelParams, connection_rows, frame_row_to_coords,
                       frame_to_coords)

__all__ = [
    "SynthesisSpec",
    "SynthesisError",
    "SlantSteeringError",
    "integrate_frenet_system",
    "steered_slant_curve",
    "geodesic_trace",
    "flat_circle_trace",
    "legendre_catenary",
    "case2_order3_k1",
    "case2_order3_curve",
    "R6ExampleConfig",
]


class SynthesisError(RuntimeError):
    pass


class SlantSteeringError(SynthesisError):
    """The steering radicand is negative somewhere on the requested window."""

    def __init__(self, message, feasible_abs_t):
        super().__init__(message)
        self.feasible_abs_t = feasible_abs_t


# ---------------------------------------------------------------------------
# prescribed-curvature Frenet integration
# ---------------------------------------------------------------------------

# largest orthonormality defect one RK4 step may leave in the frame before
# the step size is declared too large
FRAME_DRIFT_TOL = 1e-6


@dataclass
class SynthesisSpec:
    """Prescription for `integrate_frenet_system`.

    curvatures[i] is the callable k_{i+1}(t); the osculating order of the
    synthesized curve is len(curvatures) + 1.  Each curvature is called on
    arrays of stage times (once per half march) and must return an array
    of the same shape or a constant, which is broadcast (`lambda t: 1.0`
    is fine).  frame0 holds orthonormal frame components of V_1..V_r at
    t = 0, p0 the initial point; the window must contain 0.  Curvature
    functions must be positive on the window.
    """

    params: ModelParams
    p0: np.ndarray
    frame0: np.ndarray
    curvatures: list
    window: tuple[float, float] = (-2.0, 2.0)
    step: float = 1e-3

    def __post_init__(self):
        self.p0 = np.asarray(self.p0, dtype=float)
        self.frame0 = np.asarray(self.frame0, dtype=float)
        r = len(self.curvatures) + 1
        if self.frame0.shape != (r, self.params.dim):
            raise ValueError(
                f"frame0 must be ({r}, {self.params.dim}) for order {r}")
        gram = self.frame0 @ self.frame0.T
        if np.max(np.abs(gram - np.eye(r))) > 1e-12:
            raise ValueError("initial frame is not orthonormal to 1e-12")
        lo, hi = self.window
        if not lo <= 0.0 <= hi:
            raise ValueError("the window must contain t = 0, where frame0 sits")

    @property
    def order(self) -> int:
        return len(self.curvatures) + 1


def _stage_times(n_steps: int, h: float) -> np.ndarray:
    """The distinct stage times of an n-step RK4 march from t_0 = 0 with
    step h, in march order: t_0, t_0 + h/2, t_1, ..., t_n (2n + 1 values).

    t_{k+1} = t_k + h is accumulated as a per-stage step loop would
    (`np.cumsum` adds in order), so a stage time here is the float that
    loop would pass to its right-hand side.
    """
    times = np.empty(2 * n_steps + 1)
    times[0::2] = np.concatenate(([0.0], np.cumsum(np.full(n_steps, h))))
    times[1::2] = times[0:-1:2] + h / 2
    return times


def _rk4_march(rhs, y0, window, step, table, after=None):
    """Classical fixed-step RK4 for y' = rhs(row, y) from (0, y0) to both
    ends of `window`.

    Step k of a half march evaluates rhs at the stage times t_k,
    t_k + h/2 (twice) and t_{k+1} (see `_stage_times`).  `table` maps the
    array of a half march's distinct stage times to one row per time, and
    rhs receives the row of its stage time.  Both tables are built before
    the first step, so a table that raises refuses the march before any
    rhs call.  `after(y)`, if given, corrects the state after every step
    (and may raise to refuse the march).

    Returns the grid step * k, k = -n_bwd..n_fwd, and the states on it
    stacked along axis 0.
    """
    lo, hi = window
    if not lo <= 0.0 <= hi:
        raise ValueError("the window must contain t = 0, where the march starts")
    grid_samples(hi - lo, step)
    n_fwd = int(round(hi / step))
    n_bwd = int(round(-lo / step))

    def march(rows, h):
        half, sixth = h / 2, h / 6
        y = np.array(y0, dtype=float)
        states = [y]
        for k in range(0, len(rows) - 1, 2):
            mid = rows[k + 1]
            a1 = rhs(rows[k], y)
            a2 = rhs(mid, y + half * a1)
            a3 = rhs(mid, y + half * a2)
            a4 = rhs(rows[k + 2], y + h * a3)
            y = y + sixth * (a1 + 2 * a2 + 2 * a3 + a4)
            if after is not None:
                y = after(y)
            states.append(y)
        return states

    bwd = list(table(_stage_times(n_bwd, -step)))
    fwd = list(table(_stage_times(n_fwd, step)))
    states = march(bwd, -step)[::-1][:-1] + march(fwd, step)
    return step * np.arange(-n_bwd, n_fwd + 1), np.array(states)


def _orthonormalize(frame: np.ndarray) -> None:
    """Modified Gram-Schmidt on the rows of `frame`, in place."""
    for j, v in enumerate(frame):
        for i in range(j):
            v = v - v.dot(frame[i]) * frame[i]
        frame[j] = v / math.sqrt(v.dot(v))


def integrate_frenet_system(spec: SynthesisSpec) -> tuple[CurveTrace, np.ndarray]:
    """Integrate the prescribed-curvature Frenet system with RK4.

    The state is one (order + 1, dim) block: the frame rows V_1..V_r and
    the position.  The curvatures are tabulated on the stage times before
    the first step, and a curvature that is not positive and finite there
    refuses the march.  The frame is re-orthonormalized after every step;
    if a single step's drift exceeds FRAME_DRIFT_TOL (or is NaN) the step
    size is declared too large and a SynthesisError is raised.  Returns the
    sampled trace (`CurveTrace.from_velocity` of the exact velocity, to
    depth 5 for the downstream Frenet machinery) and the integrated frames
    V_1..V_r as an (order, n, dim) array of frame components.  What the
    trace measures is left to `frenet_apparatus`.
    """
    params = spec.params
    r, m = spec.order, params.m

    def curvature_table(times):
        kmat = np.empty((len(times), r - 1))
        for i, k in enumerate(spec.curvatures):
            kmat[:, i] = k(times)
            if not np.all(np.isfinite(kmat[:, i]) & (kmat[:, i] > 0)):
                raise SynthesisError(
                    f"prescribed curvature k_{i+1} hits zero or below, or is "
                    "not finite, on the window")
        return kmat.tolist()

    zero = [0.0] * params.dim

    def rhs(ks, S):
        """Frenet equations V_j' = -k_{j-1} V_{j-1} + k_j V_{j+1} minus the
        connection Phi(T, V_j) along T = V_1, and gamma' = T in coordinates.

        Runs on Python floats with the operations of the NumPy form, in its
        order: per entry 0.0 - k_{j-1} V_{j-1}, then + k_j V_{j+1}, then
        - Phi(T, V_j) from `connection_rows`; the position row is
        `frame_row_to_coords(T, y)`.  The ends are padded with k_0 = k_r = 0
        and zero rows, which leaves their bits alone: 0.0 - 0.0 * 0.0 is
        0.0, and x + 0.0 * 0.0 is x because x = 0.0 - (...) is never -0.0.
        So the result is bit-identical to the NumPy form, as those two
        kernels are, for every m and s.
        """
        *frame, pos = S.tolist()
        T = frame[0]
        kk = [0.0, *ks, 0.0]
        rows = [zero, *frame, zero]
        out = [[0.0 - kp * p + kn * q - c for p, q, c in zip(prev, nxt, conn)]
               for kp, kn, prev, nxt, conn in zip(
                   kk, kk[1:], rows, rows[2:], connection_rows(params, T, frame))]
        out.append(frame_row_to_coords(params, T, pos[m:2 * m]))
        return np.array(out)

    eye = np.eye(r)

    def reorthonormalize(S):
        frame = S[:r]
        drift = float(np.abs(frame @ frame.T - eye).max())
        if not drift <= FRAME_DRIFT_TOL:
            raise SynthesisError(
                f"frame drift {drift:.3e} exceeds {FRAME_DRIFT_TOL:g} in a "
                f"single step: step {spec.step:g} too large")
        _orthonormalize(frame)
        return S

    ts, states = _rk4_march(rhs, np.vstack([spec.frame0, spec.p0]), spec.window,
                            spec.step, curvature_table, after=reorthonormalize)
    frames, points = states[:, :r], states[:, r]
    vels = frame_to_coords(params, frames[:, 0].T, points[:, m:2 * m].T).T

    trace = CurveTrace.from_velocity(params, ts, points, vels, spec.step, 5)
    return trace, frames.transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# steering construction for slant curves
# ---------------------------------------------------------------------------

def _radicand_coefficients(a: float, b: float, s: int, p2: float,
                           c2: float) -> tuple[float, float, float]:
    """(A2, B1, C0) of the steering radicand A2 k^2 + B1 k + C0, k = k1."""
    P = 1.0 - a
    return (c2 * c2 + a / (a - 1.0), -2.0 * b * p2 / P,
            -p2 * p2 * (b * b + s * P) / P)


def steered_slant_curve(params: ModelParams, thetas, k1, p2: float,
                        c2: float, window=(-1.0, 1.0), step: float = 1e-3,
                        branch: int = +1, p0=None) -> CurveTrace:
    """Slant curve with exact contact angles, prescribed k1, k2 = c2 k1 and
    constant g(phiT, V2) = p2.

    `branch` selects the sign of the steering square root (the only
    remaining freedom besides isometries).  Requires m >= 2 and a < 1.
    Raises SlantSteeringError when the requested window leaves the region
    where the steering radicand is nonnegative.
    """
    m, s = params.m, params.s
    if m < 2:
        raise SynthesisError("steering construction needs m >= 2")
    sv = np.cos(np.asarray(thetas, dtype=float))
    if len(sv) != s:
        raise ValueError(f"need {s} contact angles")
    a = float(np.sum(sv ** 2))
    b = float(np.sum(sv))
    P = 1.0 - a
    if P < 1e-12:
        raise SynthesisError("a = 1: T = V, geodesic; nothing to steer")
    if p2 ** 2 > P:
        raise ValueError("|p2| cannot exceed sqrt(1-a)")
    W0sq = (P - p2 * p2) / (P * P)
    if W0sq < 1e-14:
        raise SynthesisError(
            "phiT parallel V2 (|p2| = sqrt(1-a)): degenerate steering; "
            "use the closed-form zeta' = q i zeta construction instead")
    W0 = np.sqrt(W0sq)
    A2, B1, C0 = _radicand_coefficients(a, b, s, p2, c2)

    def coefficients(times):
        # per stage time: q i, k1 W0 and psi'.  k1 is called once per
        # time on a Python float, since a Python-float formula can round
        # differently on arrays (`**` is not np.square); the rest is array
        # arithmetic with the per-time operations in the same order.  The
        # radicand is checked on every stage time before the first step.
        k = np.array([k1(t) for t in times.tolist()], dtype=float)
        R = A2 * k * k + B1 * k + C0
        if np.any(R < -1e-13):
            good = np.abs(times[R >= -1e-13])
            feas = float(np.max(good)) if len(good) else 0.0
            lo, hi = window
            raise SlantSteeringError(
                f"steering radicand negative on part of [{lo}, {hi}]; the slant "
                f"configuration (a={a:.4g}, b={b:.4g}, p2={p2:.4g}, c2={c2:.4g}) "
                f"with this k1 is realizable only for |t| <~ {feas:.4g}", feas)
        psi_dot = b - p2 * k / P
        # an identically vanishing radicand (c2^2 = a/(1-a), b p2 = 0,
        # p2 = 0) is rounding noise, whose sqrt would randomly kick the
        # steering: the root term of that degenerate family is dropped
        if not float(np.max(np.abs(R))) < 1e-12:
            R = np.where(R < 0.0, 0.0, R)   # max(R, 0.0): NaN, -0.0 kept
            psi_dot = psi_dot + branch * np.sqrt(R / (P * W0sq))
        q = 2.0 * b + p2 * k / P
        return zip((q * 1j).tolist(), (k * W0).tolist(), psi_dot.tolist())

    if p0 is None:
        p0 = np.zeros(params.dim)
    p0 = np.asarray(p0, dtype=float)
    # the curve lives in the C^2 span of the first two horizontal pairs:
    # state = zeta in C^2 (4 floats), nu in C^2 (4), psi (1), gamma (dim)
    nst = 9 + params.dim
    two_sv = (2 * sv).tolist()
    pad = [0.0] * (m - 2)

    def rhs(row, st):
        # e_psi = cos(psi) nu + sin(psi) (i nu), zeta' = q i zeta + k1 W0 e_psi
        # and nu' = -k1 W0 e^{-i psi} zeta on Python complex numbers; every
        # operation must round as its NumPy form on pairs does (the tests
        # compare the two bit for bit)
        qi, kW0, psi_dot = row
        ar1, ar2, ai1, ai2, nr1, nr2, ni1, ni2, psi = st[:9].tolist()
        z1, z2 = ar1 + 1j * ai1, ar2 + 1j * ai2
        n1, n2 = nr1 + 1j * ni1, nr2 + 1j * ni2
        cos_psi, sin_psi = math.cos(psi), math.sin(psi)
        dz1 = qi * z1 + kW0 * (cos_psi * n1 + sin_psi * (1j * n1))
        dz2 = qi * z2 + kW0 * (cos_psi * n2 + sin_psi * (1j * n2))
        # nu' stays a NumPy product: NumPy's complex multiply may fuse
        # multiply-adds, and Python's complex product rounds differently
        rot = -kW0 * cmath.exp(-1j * psi)
        dn1, dn2 = (rot * np.array((z1, z2))).tolist()
        B1, B2 = z1.imag, z2.imag
        # np.dot, not B1 x1 + B2 x2, which can round differently
        z_rate = 2 * float(np.dot((B1, B2), st[9 + m:11 + m]))
        return np.array([dz1.real, dz2.real, dz1.imag, dz2.imag,
                         dn1.real, dn2.real, dn1.imag, dn2.imag, psi_dot,
                         2 * B1, 2 * B2, *pad, 2 * z1.real, 2 * z2.real, *pad,
                         *(v + z_rate for v in two_sv)])

    st0 = np.zeros(nst)
    st0[0] = np.sqrt(P)      # zeta(0) on the first complex axis
    st0[5] = np.sqrt(P)      # nu(0) on the second
    st0[9:] = p0

    ts, recs = _rk4_march(rhs, st0, window, step, coefficients)
    zeta = recs[:, 0:2] + 1j * recs[:, 2:4]
    points = recs[:, 9:]
    vel_frame = np.zeros((len(ts), params.dim))
    vel_frame[:, 0:2] = zeta.real
    vel_frame[:, m:m + 2] = zeta.imag
    vel_frame[:, 2 * m:] = sv
    vels = frame_to_coords(params, vel_frame.T, points[:, m:2 * m].T).T
    return CurveTrace.from_velocity(params, ts, points, vels, step, 5)


# ---------------------------------------------------------------------------
# builtin traces
# ---------------------------------------------------------------------------

def geodesic_trace(params: ModelParams, thetas=None, window=(-2.0, 2.0),
                   n: int = 1001) -> CurveTrace:
    """Integral curve of V = sum cos(theta_alpha) xi_alpha with a = 1.

    Defaults to the integral curve of xi_1 (theta = (0, pi/2, ..)).
    """
    s = params.s
    if thetas is None:
        thetas = [0.0] + [np.pi / 2] * (s - 1)
    sv = np.cos(np.asarray(thetas, dtype=float))
    if abs(np.sum(sv ** 2) - 1.0) > 1e-12:
        raise ValueError("geodesic integral curve of V needs a = 1")
    ts = np.linspace(window[0], window[1], n)
    points = np.zeros((n, params.dim))
    points[:, 2 * params.m:] = 2.0 * ts[:, None] * sv
    vel = np.zeros_like(points)
    vel[:, 2 * params.m:] = 2.0 * sv
    zeros = np.zeros_like(points)
    return CurveTrace(params, ts, points, [vel] + [zeros.copy() for _ in range(3)])


def flat_circle_trace(params: ModelParams, radius: float = 2.0,
                      window=None, n: int = 2001) -> CurveTrace:
    """Circle in the flat (y_1, y_2) slice (x = z = 0); needs m >= 2.

    Unit speed gives y(t) = R (cos(2t/R), sin(2t/R)); k1 = 2/R, closing
    period 2 pi/k1 = pi R.
    """
    if params.m < 2:
        raise ValueError("flat circle needs m >= 2")
    R = radius
    if window is None:
        window = (0.0, np.pi * R)
    ts = np.linspace(window[0], window[1], n)
    w = 2.0 / R
    points = np.zeros((len(ts), params.dim))
    points[:, params.m] = R * np.cos(w * ts)
    points[:, params.m + 1] = R * np.sin(w * ts)
    derivs = []
    for order in range(1, 5):
        d = np.zeros_like(points)
        ph = order * np.pi / 2.0
        d[:, params.m] = R * w ** order * np.cos(w * ts + ph)
        d[:, params.m + 1] = R * w ** order * np.sin(w * ts + ph)
        derivs.append(d)
    return CurveTrace(params, ts, points, derivs)


def legendre_catenary(params: ModelParams, window=(-2.0, 2.0),
                      n: int = 4001) -> CurveTrace:
    """The f-biharmonic Legendre catenary in the flat y-plane.

    y_1 = 2 asinh(t), y_2 = 2 sqrt(1+t^2), all other coordinates zero:
    a Frenet curve of order 2 with k1 = 1/(1+t^2), Legendre (all contact
    angles pi/2), and proper f-biharmonic for f = c1 (1+t^2)^(3/2).
    Analytic derivatives to depth 4.
    """
    if params.m < 2:
        raise ValueError("catenary embedding needs m >= 2")
    ts = np.linspace(window[0], window[1], n)
    u = 1.0 + ts ** 2
    points = np.zeros((len(ts), params.dim))
    points[:, params.m] = 2.0 * np.arcsinh(ts)
    points[:, params.m + 1] = 2.0 * np.sqrt(u)
    d1 = np.zeros_like(points)
    d1[:, params.m] = 2.0 * u ** -0.5
    d1[:, params.m + 1] = 2.0 * ts * u ** -0.5
    d2 = np.zeros_like(points)
    d2[:, params.m] = -2.0 * ts * u ** -1.5
    d2[:, params.m + 1] = 2.0 * u ** -1.5
    d3 = np.zeros_like(points)
    d3[:, params.m] = -2.0 * u ** -1.5 + 6.0 * ts ** 2 * u ** -2.5
    d3[:, params.m + 1] = -6.0 * ts * u ** -2.5
    d4 = np.zeros_like(points)
    d4[:, params.m] = 18.0 * ts * u ** -2.5 - 30.0 * ts ** 3 * u ** -3.5
    d4[:, params.m + 1] = -6.0 * u ** -2.5 + 30.0 * ts ** 2 * u ** -3.5
    return CurveTrace(params, ts, points, [d1, d2, d3, d4])


def case2_order3_k1(t):
    """k1 of `case2_order3_curve`: 4 c3/(c3^2 t^2 + 16 c2^2 + 16) from the
    eps = 0 closed-form family at c2 = 1, c3 = 4, i.e. 1/(2+t^2)."""
    return 16.0 / (16.0 * t ** 2 + 32.0)


def case2_order3_curve(window=(-2.0, 2.0), step: float = 1e-3) -> CurveTrace:
    """Order-3 proper f-biharmonic slant curve in R^6(-6), global in t.

    Contact angles (pi/3, 2pi/3) give a = 1/2, b = 0; with c2 = 1 =
    sqrt(a/(1-a)) and p2 = 0 the steering radicand and the third curvature
    vanish identically, so the master equations hold with f = c1 k1^(-3/2)
    for any k1 in the eps = 0 closed-form family, here `case2_order3_k1`.
    """
    params = ModelParams(m=2, s=2)
    return steered_slant_curve(params, (np.pi / 3, 2 * np.pi / 3), case2_order3_k1,
                               p2=0.0, c2=1.0, window=window, step=step)


# ---------------------------------------------------------------------------
# the classical R^6(-6) worked-example configuration
# ---------------------------------------------------------------------------

class R6ExampleConfig:
    """The classical R^6(-6) configuration: m = s = 2, theta = (pi/2, pi/3),
    k1 = k2 = 4 c3/(c3^2 t^2 + 16 c2^2 + 16) from the eps = 0 closed-form
    family, k3 fixed by the constant product k2 k3, g(phiT, V2) =
    sqrt(1-a) cos(beta) with cos^2(beta) = 1/18, weight f = c1 k1^(-3/2).

    The scalar data satisfies the constant-beta characterization exactly,
    but is not realizable by an actual curve: `sspaceform.findings`
    measures both.  cos(beta) is pinned to the negative branch, the only
    one whose steering construction is real anywhere.
    """

    c1 = 1.0
    c2 = 1.0
    c3 = 4.0
    params = ModelParams(m=2, s=2)
    thetas = (np.pi / 2, np.pi / 3)
    a = float(np.sum(np.cos(thetas) ** 2))
    b = float(np.sum(np.cos(thetas)))
    cos_beta = -np.sqrt(2.0) / 6.0
    p2 = float(np.sqrt(1.0 - a) * cos_beta)
    # |3(c-s)/8 sin(2 beta)| (1-a), with sin(2 beta) = 2 cos(beta) sin(beta)
    k2k3_target = float(abs(3.0 * (params.c - params.s)
                            * (2.0 * cos_beta * np.sqrt(1.0 - cos_beta ** 2)) / 8.0)
                        * (1.0 - a))

    def k1(self, t):
        c2, c3 = self.c2, self.c3
        return 4.0 * c3 / (c3 ** 2 * np.asarray(t) ** 2 + 16 * c2 ** 2 + 16.0)

    def k2(self, t):
        return self.c2 * self.k1(t)

    def k3(self, t):
        return self.k2k3_target / self.k2(t)

    def feasible_abs_t(self) -> float:
        """Largest |t| where the steering radicand stays nonnegative."""
        A2, B1, C0 = _radicand_coefficients(self.a, self.b, self.params.s,
                                            self.p2, self.c2)
        # radicand is A2 k^2 + B1 k + C0 with k = k1(t) decreasing in |t|
        disc = B1 ** 2 - 4 * A2 * C0
        kmin = (-B1 + np.sqrt(disc)) / (2 * A2)
        # invert k1(t) = kmin
        val = 4 * self.c3 / kmin - 16 * self.c2 ** 2 - 16.0
        return float(np.sqrt(max(val, 0.0)) / self.c3)

    def steering_trace(self, window=None, step: float = 1e-3,
                       branch: int = +1) -> CurveTrace:
        """Best-possible realization: slant, k1, k2 = c2 k1, p2 all exact."""
        if window is None:
            tmax = 0.95 * self.feasible_abs_t()
            window = (-tmax, tmax)
        return steered_slant_curve(self.params, self.thetas, self.k1,
                                   p2=self.p2, c2=self.c2, window=window,
                                   step=step, branch=branch)

    def synthesis_spec(self, window=(-2.0, 2.0), step: float = 1e-3) -> SynthesisSpec:
        """Order-4 prescription (k1, k2, k3 as configured) with the
        admissible initial frame extracted from the steering construction
        at t = 0 (eta^1(V1)=0, eta^2(V1)=1/2, eta_alpha(V2)=0,
        g(phiT,V2)=p2, g(phiT,V3)=0, g(phiT,V4)=-sqrt((1-a)(1-cos^2 beta))
        all hold there)."""
        frame0, p0 = self.initial_frame()
        return SynthesisSpec(params=self.params, p0=p0, frame0=frame0,
                             curvatures=[self.k1, self.k2, self.k3],
                             window=window, step=step)

    def initial_frame(self) -> tuple[np.ndarray, np.ndarray]:
        """V_1..V_4 frame components at t = 0 from the steering chain."""
        small = steered_slant_curve(self.params, self.thetas, self.k1,
                                    p2=self.p2, c2=self.c2,
                                    window=(-0.02, 0.02), step=1e-4)
        fd = frenet_apparatus(small)
        i0 = small.n // 2
        frame = np.array([fd.frames[j][i0] for j in range(4)])
        _orthonormalize(frame)
        return frame, small.points[i0]

