"""Closed-form candidates, residual ground truth, and the RK4 oracle."""
import math
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from sspaceform import odesol
from sspaceform.findings import lambda_constants, real_domain_report
from sspaceform.manifold import ModelParams
from sspaceform.odesol import (OdeSolutionSpec, case_iii_profile,
                               f_from_k1, first_integral, k1_closed_form,
                               numeric_solution_oracle, ode_residual)


def spec_iii(c2, c3, c4):
    return OdeSolutionSpec(epsilon=0, lam=0.0, c2=c2, c3=c3, c4=c4)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        OdeSolutionSpec(epsilon=2, lam=1.0, c2=0.0, c3=1.0, c4=0.0)
    with pytest.raises(ValueError):
        OdeSolutionSpec(epsilon=1, lam=0.0, c2=0.0, c3=1.0, c4=0.0)
    with pytest.raises(ValueError):
        OdeSolutionSpec(epsilon=0, lam=0.0, c2=-1.0, c3=1.0, c4=0.0)
    s = OdeSolutionSpec(epsilon=0, lam=3.0, c2=0.0, c3=1.0, c4=0.0)
    assert s.lam == 0.0  # eps = 0 normalizes lambda


# ---------------------------------------------------------------------------
# case (iii): exact family
# ---------------------------------------------------------------------------

def test_case_iii_reference_instance():
    # (c2, c3, c4) = (1, 4, 0) is y = 1/(2 + t^2)
    ts = np.linspace(-2, 2, 4001)
    y, ok = k1_closed_form(spec_iii(1.0, 4.0, 0.0), ts)
    assert ok.all()
    assert np.max(np.abs(y - 1.0 / (2.0 + ts ** 2))) < 1e-12


def test_case_iii_residual_exact():
    # LHS = RHS = 8/(2+t^2)^4 for the reference instance
    spec = spec_iii(1.0, 4.0, 0.0)
    ts = np.linspace(-2, 2, 2001)
    y, yp, ypp = case_iii_profile(spec, ts)
    res = ode_residual(y, spec, yp=yp, ypp=ypp)
    assert res["max_residual"] < 1e-10
    lhs = 3 * yp ** 2 - 2 * y * ypp
    assert np.max(np.abs(lhs - 8.0 / (2.0 + ts ** 2) ** 4)) < 1e-12


def test_case_iii_parameter_grid():
    # default validation grid, away from poles
    ts = np.linspace(-2, 2, 801)
    for c2 in (0.0, 1.0, 2.0):
        for c3 in (1.0, 4.0, 10.0):
            for c4 in (-1.0, 0.0, 1.0):
                spec = spec_iii(c2, c3, c4)
                y, yp, ypp = case_iii_profile(spec, ts)
                _, ok = k1_closed_form(spec, ts)
                res = ode_residual(y[ok], spec, yp=yp[ok], ypp=ypp[ok])
                assert res["max_residual"] < 1e-10, (c2, c3, c4)


def test_case_iii_degenerate_c3_zero():
    y, ok = k1_closed_form(spec_iii(1.0, 0.0, 0.0), np.linspace(-1, 1, 101))
    assert ok.all()
    assert np.allclose(y, 0.0)   # M = 0: y vanishes identically


def test_constant_solution_residual():
    # y = lam/sqrt(1+c2^2) solves the eps = +1 equation exactly
    spec = OdeSolutionSpec(epsilon=1, lam=1.3, c2=0.7, c3=1.0, c4=0.0)
    y0 = spec.lam / np.sqrt(1 + spec.c2 ** 2)
    n = 101
    y = np.full(n, y0)
    res = ode_residual(y, spec, yp=np.zeros(n), ypp=np.zeros(n))
    assert res["max_residual"] < 1e-14


def test_negative_control_residual():
    # y = t with eps = 0, c2 = 0: LHS = 3, RHS = 4 t^4
    spec = spec_iii(0.0, 1.0, 0.0)
    ts = np.linspace(0.1, 1.5, 57)
    res = ode_residual(ts.copy(), spec, yp=np.ones_like(ts),
                       ypp=np.zeros_like(ts))
    assert np.max(np.abs(res["per_sample"] - np.abs(3 - 4 * ts ** 4))) < 1e-12


# ---------------------------------------------------------------------------
# cases (i) / (ii): literal formulas have empty real interior domain
# ---------------------------------------------------------------------------

def test_case_i_nowhere_real():
    for c3 in (0.5, 1.0, 3.0):
        spec = OdeSolutionSpec(epsilon=1, lam=1.0, c2=1.0, c3=c3, c4=0.0)
        rep = real_domain_report(spec, window=(-2, 2), n=4001)
        assert rep["nowhere_real"], rep


def test_case_i_N_nonpositive_everywhere():
    # N <= -2 c3^2 lam^2 sec^2(u): verify the bound numerically
    lam, c2, c3 = 1.0, 1.0, 0.8
    u = np.linspace(-1.5, 1.5, 10001)
    sec2 = 1.0 / np.cos(u) ** 2
    N = lam ** 2 * sec2 * (-(1 + c2 ** 2 + c3 ** 2) * sec2 + (1 + c2 ** 2 - c3 ** 2))
    assert np.all(N <= -2 * c3 ** 2 * lam ** 2 * sec2 + 1e-12)


def test_case_ii_real_only_on_measure_zero():
    spec = OdeSolutionSpec(epsilon=-1, lam=1.0, c2=1.0, c3=2.0, c4=0.0)
    rep = real_domain_report(spec, window=(-2, 2), n=4001)
    # only the isolated point u = 0 can be real
    assert rep["real_fraction"] < 1e-3


def test_case_i_c3_zero_isolated_points():
    # c3 = 0: N = 0 only where cos^2 u = 1, where D = 0 as well; the
    # evaluation must flag a domain error (0/0), not fabricate a value
    spec = OdeSolutionSpec(epsilon=1, lam=1.0, c2=1.0, c3=0.0, c4=0.0)
    y, ok = k1_closed_form(spec, np.array([0.0]))
    assert not ok[0]
    assert np.isnan(y[0])


# ---------------------------------------------------------------------------
# the RK4 oracle
# ---------------------------------------------------------------------------

def test_oracle_matches_case_iii():
    spec = spec_iii(1.0, 4.0, 0.0)
    sol = numeric_solution_oracle(spec, y0=0.5, y0prime=0.0,
                                  window=(-2, 2), step=1e-3)
    assert not sol.truncated
    expect = 1.0 / (2.0 + sol.ts ** 2)
    assert np.max(np.abs(sol.y - expect)) < 1e-6


def test_oracle_constant_solution():
    spec = OdeSolutionSpec(epsilon=1, lam=2.0, c2=1.0, c3=1.0, c4=0.0)
    y0 = spec.lam / np.sqrt(1 + spec.c2 ** 2)
    sol = numeric_solution_oracle(spec, y0=y0, y0prime=0.0,
                                  window=(-2, 2), step=1e-3)
    assert np.max(np.abs(sol.y - y0)) < 1e-8


def test_oracle_fourth_order_convergence():
    spec = spec_iii(1.0, 4.0, 0.0)

    def max_err(step):
        sol = numeric_solution_oracle(spec, y0=0.5, y0prime=0.0,
                                      window=(0, 2), step=step)
        return np.max(np.abs(sol.y - 1.0 / (2.0 + sol.ts ** 2)))

    ratio = max_err(2e-2) / max_err(1e-2)
    assert 13.0 <= ratio <= 19.0, f"convergence ratio {ratio}"


def test_oracle_first_integral_conserved():
    spec = OdeSolutionSpec(epsilon=1, lam=1.0, c2=0.5, c3=1.0, c4=0.0)
    sol = numeric_solution_oracle(spec, y0=0.9, y0prime=0.1,
                                  window=(-1, 1), step=5e-4)
    C = first_integral(sol.y, sol.yp, spec)
    assert np.max(np.abs(C - C[len(C) // 2])) < 1e-9


def test_solutions_bounded_by_first_integral():
    # genuine solutions never blow up: (y')^2 = C y^3 - 4(1+c2^2) y^4
    # - 4 eps lam^2 y^2 bounds y above by C/(4(1+c2^2)) when eps >= 0
    spec = spec_iii(0.0, 1.0, 0.0)
    sol = numeric_solution_oracle(spec, y0=2.0, y0prime=30.0,
                                  window=(-2, 2), step=2e-4, blowup=1e6)
    assert not sol.truncated
    C = first_integral(np.array([2.0]), np.array([30.0]), spec)[0]
    assert np.max(sol.y) <= C / 4.0 + 1e-6


def test_oracle_truncates_degenerate_trajectories():
    # a slope steep enough to cross y = 0 within one step hits the
    # singular line y'' ~ 1/(2y); the guard truncates and reports where
    spec = spec_iii(0.0, 1.0, 0.0)
    sol = numeric_solution_oracle(spec, y0=1.0, y0prime=-1e4,
                                  window=(0, 2), step=1e-3)
    assert sol.truncated
    assert sol.blowup_t is not None and sol.blowup_t < 0.1


@pytest.mark.parametrize("c2, y0prime, window, blowup_t", [
    # the first step's second stage evaluates y'' at y = 1 - 5 = -4: its
    # end value (4554.2) is not a solution value and must not be kept
    (0.0, -1e4, (0, 2), 0.001),
    # only the third stage (y = -0.74) or only the fourth (y = -0.39)
    # crosses; the step would land on y = 0.49 or 0.54
    (2000.0, 400.0, (0, 2), 0.001),
    (0.0, -1500.0, (0, 2), 0.001),
    # a stage exactly on y = 0, where y'' divides by zero
    (0.0, -2000.0, (0, 2), 0.001),
    (0.0, 2000.0, (-2, 0), -0.001),
])
def test_oracle_truncates_at_a_step_whose_stage_crosses_the_floor(
        c2, y0prime, window, blowup_t):
    spec = OdeSolutionSpec(0, 0.0, c2, 1.0, 0.0)
    sol = numeric_solution_oracle(spec, y0=1.0, y0prime=y0prime, window=window)
    assert sol.y.tolist() == [1.0]
    assert sol.truncated
    assert sol.blowup_t == blowup_t


def test_oracle_input_guards():
    spec = spec_iii(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        numeric_solution_oracle(spec, y0=-1.0, y0prime=0.0)
    # a y0 in (0, floor] would evaluate the first stage's y'' there
    for y0, floor in ((1e-13, 1e-12), (1e-12, 1e-12), (0.2, 0.2)):
        with pytest.raises(ValueError, match="floor"):
            numeric_solution_oracle(spec, y0=y0, y0prime=1.0, floor=floor)
    with pytest.raises(ValueError):
        numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, window=(1, 2),
                                t0=0.0)
    # a step that is not positive and finite, non-finite initial data and
    # a non-finite window are refused, not marched to a one-point answer
    for step in (-1e-3, 0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="step"):
            numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, step=step)
    for y0, y0prime in ((np.nan, 0.0), (np.inf, 0.0), (1.0, np.nan),
                        (1.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            numeric_solution_oracle(spec, y0=y0, y0prime=y0prime)
    for window in ((-2.0, np.inf), (-np.inf, 2.0), (np.nan, 2.0)):
        with pytest.raises(ValueError, match="window must be finite"):
            numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, window=window)


# the per-stage loop the oracle replaced: each stage calls rhs, which
# calls _ypp with the spec; kept as the bit-for-bit reference
def _oracle_ypp(y, yp, spec):
    return (3.0 * yp * yp
            - 4.0 * y * y * ((1 + spec.c2 ** 2) * y * y
                             - spec.epsilon * spec.lam ** 2)) / (2.0 * y)


def oracle_numeric_solution(spec, y0, y0prime, window=(-2.0, 2.0),
                            step=1e-3, t0=0.0, blowup=1e6, floor=1e-12):
    t_lo, t_hi = window

    def rhs(yv, ypv):
        return ypv, _oracle_ypp(yv, ypv, spec)

    def march(direction, t_end):
        n = int(round(abs(t_end - t0) / step))
        h = direction * step
        ts, ys, yps = [t0], [y0], [y0prime]
        t, y, yp = t0, y0, y0prime
        for _ in range(n):
            k1a, k1b = rhs(y, yp)
            k2a, k2b = rhs(y + h / 2 * k1a, yp + h / 2 * k1b)
            k3a, k3b = rhs(y + h / 2 * k2a, yp + h / 2 * k2b)
            k4a, k4b = rhs(y + h * k3a, yp + h * k3b)
            y = y + h / 6 * (k1a + 2 * k2a + 2 * k3a + k4a)
            yp = yp + h / 6 * (k1b + 2 * k2b + 2 * k3b + k4b)
            t = t + h
            if not np.isfinite(y) or abs(y) > blowup or y <= floor:
                return ts, ys, yps, t
            ts.append(t)
            ys.append(y)
            yps.append(yp)
        return ts, ys, yps, None

    ts_f, ys_f, yps_f, stop_f = march(+1.0, t_hi)
    ts_b, ys_b, yps_b, stop_b = march(-1.0, t_lo)
    return (np.array(ts_b[::-1][:-1] + ts_f), np.array(ys_b[::-1][:-1] + ys_f),
            np.array(yps_b[::-1][:-1] + yps_f),
            stop_f is not None or stop_b is not None,
            stop_f if stop_f is not None else stop_b)


@pytest.mark.parametrize("spec, kwargs", [
    # case (i), (ii) and (iii) trajectories over the whole window
    (OdeSolutionSpec(epsilon=1, lam=1.0, c2=0.5, c3=1.0, c4=0.0),
     dict(y0=0.9, y0prime=0.1, window=(-1, 1), step=5e-4)),
    (OdeSolutionSpec(epsilon=-1, lam=1.3, c2=0.7, c3=2.0, c4=0.0),
     dict(y0=0.6, y0prime=-0.3, window=(-1.5, 1), step=1e-3)),
    (spec_iii(1.0, 4.0, 0.0),
     dict(y0=0.45, y0prime=0.2, window=(-2, 2), step=1e-3, t0=0.3)),
    # forward blow-up truncation (|y| > blowup)
    (spec_iii(0.0, 1.0, 0.0),
     dict(y0=0.5, y0prime=3.0, window=(-2, 2), step=1e-3, blowup=0.6)),
    # floor truncation in the backward half (y <= floor)
    (spec_iii(0.0, 1.0, 0.0),
     dict(y0=0.5, y0prime=3.0, window=(-1, 0.5), step=1e-3, floor=0.2)),
])
def test_oracle_matches_per_stage_loop_bitwise(spec, kwargs):
    sol = numeric_solution_oracle(spec, **kwargs)
    ts, y, yp, truncated, blowup_t = oracle_numeric_solution(spec, **kwargs)
    assert sol.ts.tobytes() == ts.tobytes()
    assert sol.y.tobytes() == y.tobytes()
    assert sol.yp.tobytes() == yp.tobytes()
    assert sol.truncated is truncated
    assert sol.blowup_t == blowup_t


# the march on lists of Python floats that the packed trajectory replaced,
# with its stage-floor checks: the bit-for-bit reference of the oracle
def list_march_oracle(spec, y0, y0prime, window=(-2.0, 2.0), step=1e-3,
                      t0=0.0, blowup=1e6, floor=1e-12):
    t_lo, t_hi = window
    q = 1 + spec.c2 ** 2
    el = spec.epsilon * spec.lam ** 2

    def march(direction, t_end):
        n = int(round(abs(t_end - t0) / step))
        h = direction * step
        half, sixth = h / 2, h / 6
        ts, ys, yps = [t0], [y0], [y0prime]
        t, y, yp = t0, y0, y0prime
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

    ts_f, ys_f, yps_f, stop_f = march(+1.0, t_hi)
    ts_b, ys_b, yps_b, stop_b = march(-1.0, t_lo)
    return (np.array(ts_b[::-1][:-1] + ts_f), np.array(ys_b[::-1][:-1] + ys_f),
            np.array(yps_b[::-1][:-1] + yps_f),
            stop_f is not None or stop_b is not None,
            stop_f if stop_f is not None else stop_b)


def expression_first_integral(y, yp, spec):
    """The first integral as one expression, before it ran in place."""
    return (yp ** 2 + 4 * (1 + spec.c2 ** 2) * y ** 4
            + 4 * spec.epsilon * spec.lam ** 2 * y ** 2) / y ** 3


# the bench's case (iii) oracle requests: c2 = 1, (c3, c4), from the exact
# profile's value and slope at t = 0, 160,001 points at step 2.5e-5
BENCH_C3_C4 = [(1.0, 0.0), (2.0, 0.5), (4.0, -0.5), (0.5, 1.0)]


def bench_oracle_request(c3, c4):
    spec = spec_iii(1.0, c3, c4)
    y0, yp0, _ = case_iii_profile(spec, [0.0])
    return spec, dict(y0=float(y0[0]), y0prime=float(yp0[0]),
                      window=(-2.0, 2.0), step=2.5e-5)


@pytest.mark.parametrize("spec, kwargs", [
    *(bench_oracle_request(c3, c4) for c3, c4 in BENCH_C3_C4),
    # blow-up truncation in the forward half
    (spec_iii(0.0, 1.0, 0.0),
     dict(y0=0.5, y0prime=3.0, window=(-2, 2), step=1e-3, blowup=0.6)),
    # a stage below the floor truncates the backward half at its first step
    (spec_iii(0.0, 1.0, 0.0),
     dict(y0=1.0, y0prime=2000.0, window=(-2, 0))),
], ids=[*(f"bench-c3={c3}-c4={c4}" for c3, c4 in BENCH_C3_C4),
        "blowup", "floor-stage"])
def test_packed_oracle_matches_list_march_bitwise(spec, kwargs):
    sol = numeric_solution_oracle(spec, **kwargs)
    ts, y, yp, truncated, blowup_t = list_march_oracle(spec, **kwargs)
    assert sol.ts.tobytes() == ts.tobytes()
    assert sol.y.tobytes() == y.tobytes()
    assert sol.yp.tobytes() == yp.tobytes()
    assert (first_integral(sol.y, sol.yp, spec).tobytes()
            == expression_first_integral(y, yp, spec).tobytes())
    assert sol.truncated is truncated
    assert sol.blowup_t == blowup_t
    assert type(sol.blowup_t) is type(blowup_t)


def test_first_integral_matches_its_expression_bitwise():
    # signed zeros, y < 0, y = 0, inf and nan, and cases (i) and (ii)
    rng = np.random.default_rng(3)
    y = np.concatenate([rng.normal(size=2000), rng.lognormal(0, 20, 2000),
                        [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]])
    yp = np.concatenate([rng.normal(size=2000), rng.normal(0, 1e9, 2000),
                         [0.0, 1.0, -0.0, np.nan, 1.0, 0.0, 2.0]])
    with np.errstate(all="ignore"):
        for spec in (spec_iii(1.0, 1.0, 0.0),
                     OdeSolutionSpec(epsilon=1, lam=1.3, c2=0.5, c3=1.0, c4=0.0),
                     OdeSolutionSpec(epsilon=-1, lam=0.7, c2=0.0, c3=1.0, c4=0.0)):
            assert (first_integral(y, yp, spec).tobytes()
                    == expression_first_integral(y, yp, spec).tobytes())


def traced_peak(call):
    """Peak bytes that `call()` allocates, under tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_keeps_a_packed_trajectory():
    # 160,001 points are 3.84 MB of float64 results; a trajectory in lists
    # of Python floats held about 20.9 MB
    spec, kwargs = bench_oracle_request(1.0, 0.0)
    out = []
    peak = traced_peak(lambda: out.append(numeric_solution_oracle(spec, **kwargs)))
    assert len(out[0].ts) == 160001
    assert peak <= 8e6, peak
    # two result-sized buffers; the expression would allocate five without
    # NumPy's temporary elision
    sol = out[0]
    assert traced_peak(lambda: first_integral(sol.y, sol.yp, spec)) <= 4e6


@pytest.mark.parametrize("step", [1e-8, 5e-324])
def test_oracle_refuses_a_grid_past_the_cap_before_marching(step):
    # 4 x 10^8 steps would run until memory runs out; the smallest double
    # asks for an infinite number of steps
    spec = spec_iii(0.0, 1.0, 0.0)

    def call():
        with pytest.raises(ValueError, match="1000000 samples a grid may have"):
            numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, step=step)

    assert traced_peak(call) < 1e6


def test_oracle_sample_cap_boundary(monkeypatch):
    # points = round((t_hi - t0)/h) + round((t0 - t_lo)/h) + 1
    monkeypatch.setattr(odesol, "MAX_SAMPLES", 101)
    spec = spec_iii(0.0, 1.0, 0.0)
    sol = numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, window=(-1, 1),
                                  step=0.02)
    assert len(sol.ts) == 101
    # 1/0.0199 rounds to 50 on each side: 101 points
    sol = numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, window=(-1, 1),
                                  step=0.0199)
    assert len(sol.ts) == 101
    # 102 points: one more step forward; or all 101 steps on one side
    for window, step in (((-1, 1.02), 0.02), ((0, 2.02), 0.02),
                         ((-1, 1), 0.0196)):
        with pytest.raises(ValueError, match="101 samples a grid may have"):
            numeric_solution_oracle(spec, y0=1.0, y0prime=0.0, window=window,
                                    step=step)


# ---------------------------------------------------------------------------
# lambda constants and the weight builder
# ---------------------------------------------------------------------------

def test_lambda_constants_r6_bracket_vanishes():
    lam, eps = lambda_constants(0.25, 0.5, ModelParams(2, 2), "IV",
                                beta=np.arccos(-np.sqrt(2) / 6))
    assert eps == 0
    assert lam < 1e-7


def test_lambda_constants_case_I():
    lam, eps = lambda_constants(0.5, np.sqrt(2) / 2, (1.0, 1), "I")
    assert eps == 1
    assert lam == pytest.approx(1.0, abs=1e-14)


def test_lambda_constants_degenerate_geodesic_params():
    s = 2
    lam, eps = lambda_constants(1.0, float(s), (float(s), s), "I")
    assert lam == pytest.approx(s, abs=1e-14)
    assert eps == 1
    with pytest.raises(ValueError):
        lambda_constants(0.5, 0.5, (1.0, 1), "IV")   # beta missing
    with pytest.raises(ValueError):
        lambda_constants(0.5, 0.5, (1.0, 1), "V")


def test_f_from_k1_reference():
    ts = np.linspace(-2, 2, 801)

    def k1(ts):
        u = 2.0 + ts ** 2
        return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 4.0) / u ** 3

    f = f_from_k1(ts, *k1(ts), c1=1.0)
    assert np.max(np.abs(f.f - (2.0 + ts ** 2) ** 1.5)) < 1e-12
    assert not f.is_constant
    # eq (1): 3 k1'/k1 + 2 f'/f = 0 exactly with analytic derivatives
    k1v, k1p, _ = k1(ts)
    assert np.max(np.abs(3 * k1p / k1v + 2 * f.fp / f.f)) < 1e-12


def test_f_from_k1_constant_flagged():
    ts = np.linspace(0, 1, 101)
    f = f_from_k1(ts, np.full(101, 0.5), np.zeros(101), np.zeros(101), c1=2.0)
    assert f.is_constant


def test_f_from_k1_random_profiles_satisfy_eq1():
    # reconstructed f always satisfies eq (1) below 1e-8 (a1 identities)
    rng = np.random.default_rng(21)
    ts = np.linspace(-1, 1, 501)
    for _ in range(10):
        a, b, c = rng.uniform(0.2, 1.0), rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5)
        k1v = np.exp(a * np.sin(b * ts + c))
        k1p = a * b * np.cos(b * ts + c) * k1v
        k1pp = (a * b) ** 2 * (-np.sin(b * ts + c) + a * np.cos(b * ts + c) ** 2) * k1v
        f = f_from_k1(ts, k1v, k1p, k1pp, c1=rng.uniform(0.5, 2.0))
        eq1 = 3 * k1p / k1v + 2 * f.fp / f.f
        assert np.max(np.abs(eq1)) < 1e-8
        # a1 second identity: f''/f = (15/4)(k1'/k1)^2 - (3/2) k1''/k1
        ident = f.fpp / f.f - (15 / 4 * (k1p / k1v) ** 2 - 1.5 * k1pp / k1v)
        assert np.max(np.abs(ident)) < 1e-8


def test_f_from_k1_guards():
    ts = np.linspace(0, 1, 101)
    with pytest.raises(ValueError):
        f_from_k1(ts, np.full(101, -0.5), np.zeros(101), np.zeros(101))
    with pytest.raises(ValueError):
        f_from_k1(ts, np.full(101, 0.5), np.zeros(101), np.zeros(101), c1=0.0)


def test_closed_form_and_oracle_agree_where_both_defined():
    # wherever the closed form is real with tiny residual, the oracle
    # launched from its values reproduces it
    spec = spec_iii(2.0, 10.0, -1.0)
    y0, yp0, _ = (float(v) for v in case_iii_profile(spec, 0.0))
    sol = numeric_solution_oracle(spec, y0=y0, y0prime=yp0,
                                  window=(-1.5, 1.5), step=5e-4)
    expect, _, _ = case_iii_profile(spec, sol.ts)
    assert np.max(np.abs(sol.y - expect)) < 1e-8


# ---------------------------------------------------------------------------
# exact checks (sympy): the formulas are typed here and tied to the code
# ---------------------------------------------------------------------------

T, C2, C3, C4, LAM, EPS, U, W, Y, YP = sp.symbols(
    "t c2 c3 c4 lam eps u w y yp", real=True)


def test_case_iii_family_solves_the_ode_exactly():
    # 3 y'^2 - 2 y y'' = 4 y^2 (1 + c2^2) y^2 identically in t, c2, c3, c4
    A = 1 + C2 ** 2
    y = 4 * C3 / (C3 ** 2 * (T + C4) ** 2 + 16 * A)
    yp, ypp = y.diff(T), y.diff(T, 2)
    assert sp.simplify(3 * yp ** 2 - 2 * y * ypp - 4 * y ** 2 * (A * y ** 2)) == 0
    exact = sp.lambdify((T, C2, C3, C4), [y, yp, ypp])
    ts = np.linspace(-2, 2, 101)
    for c2, c3, c4 in ((0.0, 1.0, -1.0), (1.0, 4.0, 0.0), (2.0, 10.0, 1.0)):
        got = case_iii_profile(spec_iii(c2, c3, c4), ts)
        for g, e in zip(got, exact(ts, c2, c3, c4)):
            assert np.max(np.abs(g - e)) <= 1e-12 * np.max(np.abs(e))


def test_first_integral_is_exactly_conserved():
    # dC/dt = C_y y' + C_y' y'' = 0 with y'' from the ODE
    A = 1 + C2 ** 2
    ypp = (3 * YP ** 2 - 4 * Y ** 2 * (A * Y ** 2 - EPS * LAM ** 2)) / (2 * Y)
    C = (YP ** 2 + 4 * A * Y ** 4 + 4 * EPS * LAM ** 2 * Y ** 2) / Y ** 3
    assert sp.simplify(C.diff(Y) * YP + C.diff(YP) * ypp) == 0
    # the typed y'' zeroes ode_residual and the typed C is first_integral
    rng = np.random.default_rng(3)
    yv, ypv = rng.uniform(0.2, 2.0, 20), rng.uniform(-1, 1, 20)
    for eps, lam in ((1, 0.7), (-1, 1.3), (0, 0.0)):
        spec = OdeSolutionSpec(epsilon=eps, lam=lam, c2=0.5, c3=1.0, c4=0.0)
        at = {C2: 0.5, EPS: eps, LAM: lam}
        yppv = sp.lambdify((Y, YP), ypp.subs(at))(yv, ypv)
        assert ode_residual(yv, spec, ypv, yppv)["max_residual"] < 1e-12
        Cv = sp.lambdify((Y, YP), C.subs(at))(yv, ypv)
        assert np.max(np.abs(first_integral(yv, ypv, spec) - Cv)) <= 1e-12 * np.max(np.abs(Cv))


def test_cases_i_ii_N_nonpositive_for_every_real_u():
    # case (i): with w = tan(u), sec^2(u) = 1 + w^2 and
    #   N = -lam^2 (1 + w^2) (2 c3^2 + (1 + c2^2 + c3^2) w^2)
    # case (ii): N = -lam^2 (1 + c2^2 + c3^2) tanh^2(u) sech^2(u)
    k = 1 + C2 ** 2 + C3 ** 2
    sec2 = 1 + W ** 2
    N_i = LAM ** 2 * sec2 * (-k * sec2 + (1 + C2 ** 2 - C3 ** 2))
    minus_i = LAM ** 2 * sec2 * (2 * C3 ** 2 + k * W ** 2)
    sech2 = 1 / sp.cosh(U) ** 2
    N_ii = LAM ** 2 * sech2 * k * (sech2 - 1)
    minus_ii = LAM ** 2 * k * sp.tanh(U) ** 2 * sech2
    assert sp.expand(N_i + minus_i) == 0 and minus_i.is_nonnegative
    assert sp.simplify(N_ii + minus_ii) == 0 and minus_ii.is_nonnegative
    # the typed N are the ones k1_closed_form evaluates (u = 2 lam t + c4)
    ts = np.linspace(-0.7, 0.7, 41)
    for eps, N in ((1, N_i.subs(W, sp.tan(U))), (-1, N_ii)):
        spec = OdeSolutionSpec(epsilon=eps, lam=0.6, c2=1.0, c3=0.8, c4=0.1)
        code_N = odesol._case_NMD(spec, ts)[0]
        typed = sp.lambdify(U, N.subs({LAM: 0.6, C2: 1.0, C3: 0.8}))(1.2 * ts + 0.1)
        assert np.max(np.abs(code_N - typed)) <= 1e-12 * np.max(np.abs(typed))
