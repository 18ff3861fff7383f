"""Curve traces, covariant chains and the Frenet apparatus."""
import dataclasses
import decimal
import fractions
import math
import pathlib
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sspaceform import csvformat, curve, synth
from sspaceform.curve import (CurveTrace, fd_derivative,
                              frenet_apparatus, unit_speed_check,
                              covariant_chain, write_csv)
from sspaceform.manifold import ModelParams, connection_term

from conftest import csv_writer_bytes


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_derivative_exact_on_quartics():
    ts = np.linspace(-1, 1, 201)
    h = ts[1] - ts[0]
    vals = 3 * ts ** 4 - 2 * ts ** 3 + ts - 5
    expect = 12 * ts ** 3 - 6 * ts ** 2 + 1
    assert np.max(np.abs(fd_derivative(vals, h) - expect)) < 1e-10
    # strided version is exact on polynomials of degree <= 4 as well
    assert np.max(np.abs(fd_derivative(vals, h, stride=3) - expect)) < 1e-9


def test_fd_derivative_order():
    def err(n):
        ts = np.linspace(-1, 1, n)
        h = ts[1] - ts[0]
        d = fd_derivative(np.sin(3 * ts), h)
        return np.max(np.abs(d - 3 * np.cos(3 * ts)))

    assert err(801) < err(401) / 12   # ~16x for a 4th-order scheme


def test_fd_derivative_guards():
    with pytest.raises(ValueError):
        fd_derivative(np.zeros(4), 0.1)
    with pytest.raises(ValueError):
        fd_derivative(np.zeros(10), 0.1, stride=3)


# ---------------------------------------------------------------------------
# trace container
# ---------------------------------------------------------------------------

def test_trace_validation(params22):
    ts = np.array([0.0, 0.1, 0.05])
    with pytest.raises(ValueError):
        CurveTrace(params22, ts, np.zeros((3, 6)), [np.zeros((3, 6))])
    with pytest.raises(ValueError):
        CurveTrace(params22, np.linspace(0, 1, 3), np.zeros((3, 5)),
                   [np.zeros((3, 5))])
    # every stencil downstream assumes one step: a strictly increasing but
    # non-uniform grid used to be accepted and differenced with h = t1 - t0
    ts = np.linspace(-1, 1, 401) ** 3
    with pytest.raises(ValueError, match="uniform"):
        CurveTrace(params22, ts, np.zeros((401, 6)), [np.zeros((401, 6))])
    with pytest.raises(ValueError, match="two"):
        CurveTrace(params22, [0.0], np.zeros((1, 6)), [np.zeros((1, 6))])


def test_trace_owns_step_stride_and_tangent_frame(catenary, catenary_fd,
                                                  case2_curve):
    assert catenary.step == catenary.ts[1] - catenary.ts[0]
    with pytest.raises(AttributeError):
        catenary.step = 0.5
    # synthesized traces difference at an effective step near 0.005
    assert (catenary.fd_stride, case2_curve.fd_stride) == (1, 5)
    tf = catenary.tangent_frame()
    assert catenary.tangent_frame() is tf and not tf.flags.writeable
    # the covariant chain starts from the cached frame, not a second build
    assert catenary_fd.chain[0] is tf

    # from_velocity picks the stride and differences the velocity with it
    params = catenary.params
    for step, stride in ((1e-3, 5), (2e-3, 2), (5e-3, 1), (1e-2, 1)):
        ts = step * np.arange(101)
        vel = np.sin(ts)[:, None] * np.arange(1.0, 7.0)
        tr = CurveTrace.from_velocity(params, ts, np.zeros((101, 6)), vel,
                                      step, 3)
        assert (tr.fd_stride, tr.depth) == (stride, 3)
        assert np.array_equal(tr.velocity, vel)
        d2 = fd_derivative(vel, step, stride=stride)
        assert np.array_equal(tr.derivs[1], d2)
        assert np.array_equal(tr.derivs[2], fd_derivative(d2, step,
                                                          stride=stride))
        trim = 2 + 3 * stride
        assert tr.interior == slice(trim, 101 - trim)

    # the residual band is the whole grid once it would leave no row
    for n, interior in ((34, slice(None)), (35, slice(17, 18))):
        ts = 1e-3 * np.arange(n)
        tr = CurveTrace.from_velocity(params, ts, np.zeros((n, 6)),
                                      np.ones((n, 6)), 1e-3, 2)
        assert tr.interior == interior


def test_package_reads_no_untyped_grid():
    # the grid step and the differencing stride are typed fields of
    # CurveTrace; no module re-derives the step or carries a meta dict
    pattern = re.compile(r"ts\[1\] - |\.ts\[1\]|\bmeta\b")
    src = pathlib.Path(curve.__file__).resolve().parent
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(src.glob("*.py"))
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_only_curve_reads_curvature_rows():
    # the zero-padded k1, k2, k3 have one definition,
    # FrenetData.padded_curvatures; no other module pads them again
    src = pathlib.Path(curve.__file__).resolve().parent
    hits = [f"{path.name}:{no}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != "curve.py"
            for no, line in enumerate(path.read_text().splitlines(), 1)
            if ".curvatures[" in line]
    assert hits == []


def test_trace_rejects_nan_velocity(catenary):
    # a nan velocity used to pass unit_speed_check (nan > tol is False)
    # and come out as a Frenet curve of order 2
    vel = catenary.velocity.copy()
    vel[50, 2] = np.nan
    with pytest.raises(FloatingPointError, match="row 50"):
        CurveTrace(catenary.params, catenary.ts, catenary.points,
                   [vel] + catenary.derivs[1:])


def test_unit_speed_geodesic(geodesic):
    assert unit_speed_check(geodesic) < 1e-12


def test_unit_speed_negative_control(geodesic):
    doubled = CurveTrace(geodesic.params, geodesic.ts, geodesic.points,
                         [2.0 * geodesic.derivs[0]] + geodesic.derivs[1:])
    dev = unit_speed_check(doubled)
    assert dev == pytest.approx(3.0, abs=1e-12)


def test_csv_round_trip(catenary, tmp_path):
    path = tmp_path / "catenary.csv"
    catenary.to_csv(path)
    loaded = CurveTrace.from_csv(catenary.params, path)
    assert np.max(np.abs(loaded.points - catenary.points)) < 1e-14
    fd = frenet_apparatus(loaded)
    k1 = fd.curvatures[0]
    expect = 1.0 / (1.0 + loaded.ts ** 2)
    assert np.max(np.abs(k1 - expect)[5:-5]) < 1e-5


def test_sampled_trace_cap(catenary, tmp_path, monkeypatch):
    # a trace from positions may have MAX_SAMPLES rows, not one more, and
    # from_csv reads no row past MAX_SAMPLES + 1: the unparsable last line
    # of this file is never reached
    monkeypatch.setattr(curve, "MAX_SAMPLES", 400)
    params = catenary.params
    assert CurveTrace.from_positions(params, catenary.ts[:400],
                                     catenary.points[:400]).n == 400
    with pytest.raises(ValueError, match="more than the 400 samples"):
        CurveTrace.from_positions(params, catenary.ts[:401],
                                  catenary.points[:401])
    path = tmp_path / "catenary.csv"
    catenary.to_csv(path)
    with open(path, "a") as fh:
        fh.write("not,a,number,,,,\n")
    with pytest.raises(ValueError, match="more than the 400 samples"):
        CurveTrace.from_csv(params, path)


# ---------------------------------------------------------------------------
# covariant chain cross-check
# ---------------------------------------------------------------------------

def test_chain_levels_match_finite_differences(catenary):
    # nabla_T^2 T from the exact Leibniz chain equals the covariant
    # derivative of the nabla_T T level computed by differencing
    chain = covariant_chain(catenary)
    h = catenary.ts[1] - catenary.ts[0]
    tf = chain[0]
    lvl1_dot = fd_derivative(chain[1].T, h).T
    recomputed = lvl1_dot + connection_term(catenary.params, tf, chain[1])
    assert np.max(np.abs(recomputed - chain[2])[:, 5:-5]) < 1e-8


# ---------------------------------------------------------------------------
# Frenet apparatus on known curves
# ---------------------------------------------------------------------------

def test_frenet_keeps_read_only_chain(catenary, catenary_fd):
    chain = covariant_chain(catenary)
    assert len(catenary_fd.chain) == len(chain) == catenary.depth
    for mine, fresh in zip(catenary_fd.chain, chain):
        assert not mine.flags.writeable
        assert np.array_equal(mine, fresh)
    with pytest.raises(ValueError):
        catenary_fd.chain[1][0, 0] = 1.0


def test_frenet_frames_hold_exactly_the_kept_levels(catenary, r6_steered):
    # order 2 of 5 chain levels, and order 5 of 5: no view of a larger
    # buffer keeps the dropped levels alive
    for trace, order in ((catenary, 2), (r6_steered, 5)):
        fd = frenet_apparatus(trace)
        assert fd.order == order
        assert fd.frames.shape == (order, trace.n, trace.params.dim)
        assert fd.frames.base is None


def test_geodesic_order(geodesic):
    fd = frenet_apparatus(geodesic)
    assert fd.order == 1
    assert fd.curvatures.shape[0] == 0


def test_circle_order_and_curvature(circle):
    fd = frenet_apparatus(circle)
    assert fd.order == 2
    assert np.max(np.abs(fd.curvatures[0] - 1.0)) < 1e-12  # k1 = 2/R, R = 2


def test_circle_closes_after_period(params22):
    # closing period 2 pi / k1 = pi R
    R = 1.5
    tr = synth.flat_circle_trace(params22, radius=R, window=(0.0, np.pi * R),
                                 n=3001)
    assert np.max(np.abs(tr.points[0] - tr.points[-1])) < 1e-10


def test_catenary_frenet(catenary, catenary_fd):
    assert catenary_fd.order == 2
    expect = 1.0 / (1.0 + catenary.ts ** 2)
    assert np.max(np.abs(catenary_fd.curvatures[0] - expect)) < 1e-12


def test_frenet_orthonormality(case2_curve, case2_fd):
    fd = case2_fd
    for i in range(fd.order):
        for j in range(i, fd.order):
            dots = np.einsum("nd,nd->n", fd.frames[i], fd.frames[j])
            assert np.max(np.abs(dots - (i == j))) < 1e-8


def test_frenet_equations_residual(case2_curve, case2_fd):
    # ||nabla_T V_j + k_{j-1} V_{j-1} - k_j V_{j+1}|| < 1e-4 on the window
    trace, fd = case2_curve, case2_fd
    h = trace.ts[1] - trace.ts[0]
    stride = trace.fd_stride
    tf = trace.tangent_frame()
    sl = slice(4 * stride, trace.n - 4 * stride)
    for j in range(fd.order):
        vdot = fd_derivative(fd.frames[j], h, stride=stride)
        dv = vdot + connection_term(trace.params, tf, fd.frames[j].T).T
        expect = np.zeros_like(dv)
        if j > 0:
            expect -= fd.curvatures[j - 1][:, None] * fd.frames[j - 1]
        if j < fd.order - 1:
            expect += fd.curvatures[j][:, None] * fd.frames[j + 1]
        res = np.linalg.norm(dv - expect, axis=1)[sl]
        assert np.max(res) < 1e-4, f"Frenet residual for V_{j+1}"


def test_curvature_positivity(case2_fd):
    interior = slice(20, -20)
    for i in range(case2_fd.order - 1):
        assert np.all(case2_fd.curvatures[i][interior] > 0)


def test_reparametrization_stability(params22):
    # halving the sampling step improves differenced k1 at 4th order
    def k1_error(n):
        tr_full = synth.legendre_catenary(params22, window=(-1, 1), n=n)
        tr = CurveTrace.from_positions(params22, tr_full.ts, tr_full.points)
        fd = frenet_apparatus(tr)
        expect = 1.0 / (1.0 + tr.ts ** 2)
        return np.max(np.abs(fd.curvatures[0] - expect)[10:-10])

    coarse, fine = k1_error(401), k1_error(801)
    assert fine < coarse / 8


def test_unit_speed_rejection(params22):
    ts = np.linspace(0, 1, 11)
    points = np.zeros((11, 6))
    vel = np.ones((11, 6))
    tr = CurveTrace(params22, ts, points, [vel])
    with pytest.raises(ValueError, match="unit speed"):
        frenet_apparatus(tr)


def test_degeneracy_detection(params22):
    # prescribe an r=2 curve whose k1 dies smoothly mid-window
    def k1(t):
        return 1e-12 + 0.4 / (1.0 + np.exp(12.0 * t))

    frame0 = np.zeros((2, 6))
    frame0[0, 4] = 1.0          # T = xi_1 direction (frame components)
    frame0[1, 2] = 1.0          # V2 = X_1
    spec = synth.SynthesisSpec(params=params22, p0=np.zeros(6), frame0=frame0,
                               curvatures=[k1], window=(-1.5, 1.5), step=1e-3)
    trace, _ = synth.integrate_frenet_system(spec)
    # down to gamma'', so that the order is at most 2: past the crossing the
    # measured k2 = r_2 / k1 is roundoff over a vanishing k1
    trace = dataclasses.replace(trace, derivs=trace.derivs[:2])
    fd = frenet_apparatus(trace)
    assert fd.order == 2
    # k1 crosses the threshold on the interior and is kept: above it only on
    # the left
    trim = curve.ORDER_EDGE_TRIM
    ts, k = trace.ts[trim:-trim], fd.curvatures[0][trim:-trim]
    above = ts[k >= curve.ORDER_THRESHOLD]
    assert np.min(k) < curve.ORDER_THRESHOLD
    assert above[0] <= -1.0 and above[-1] < 1.2
    assert np.all(np.diff(above) < 1.5 * trace.step)   # one window


def test_frenet_equations_on_analytic_catenary(catenary, catenary_fd):
    # analytic trace: residuals well under the 1e-4 budget
    trace, fd = catenary, catenary_fd
    h = trace.ts[1] - trace.ts[0]
    tf = trace.tangent_frame()
    for j in range(fd.order):
        vdot = fd_derivative(fd.frames[j], h)
        dv = vdot + connection_term(trace.params, tf, fd.frames[j].T).T
        expect = np.zeros_like(dv)
        if j > 0:
            expect -= fd.curvatures[j - 1][:, None] * fd.frames[j - 1]
        if j < fd.order - 1:
            expect += fd.curvatures[j][:, None] * fd.frames[j + 1]
        res = np.linalg.norm(dv - expect, axis=1)[5:-5]
        assert np.max(res) < 1e-6, f"V_{j+1}"


def test_from_csv_malformed(params22, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,x1\n0.0,1.0\n")
    with pytest.raises(ValueError, match="columns"):
        CurveTrace.from_csv(params22, bad)
    nonuniform = tmp_path / "nonuniform.csv"
    rows = ["t,x1,x2,y1,y2,z1,z2"]
    for t in [0.0, 0.1, 0.25, 0.3, 0.55, 0.6]:
        rows.append(",".join([str(t)] + ["0.0"] * 6))
    nonuniform.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError, match="uniform"):
        CurveTrace.from_csv(params22, nonuniform)


# ---------------------------------------------------------------------------
# batched Frenet apparatus against the per-sample reference
# ---------------------------------------------------------------------------

def _frenet_oracle(trace, edge_trim=4):
    """Per-sample Gram-Schmidt and sequential sign pass (the reference).

    At most min(depth, 2m+s) levels; the order is that of the first
    curvature below the threshold on the whole interior, and one that
    crosses it is kept.  Returns (frames, raw_k, order, flips), raw_k
    holding every measured curvature.
    """
    threshold = curve.ORDER_THRESHOLD
    chain = covariant_chain(trace)
    levels = min(trace.depth, trace.params.dim)
    n, dim = trace.n, trace.params.dim
    frames = np.zeros((levels, n, dim))
    resid = np.zeros((levels - 1, n)) if levels > 1 else np.zeros((0, n))
    for idx in range(n):
        basis = []
        for j in range(levels):
            v = chain[j][:, idx].copy()
            for b in basis:
                v -= np.dot(v, b) * b
            nv = float(np.linalg.norm(v))
            if j >= 1:
                resid[j - 1, idx] = nv
            if nv < 1e-13:
                break
            basis.append(v / nv)
        for j, b in enumerate(basis):
            frames[j, idx] = b
    raw_k = np.zeros_like(resid)
    prod = np.ones(n)
    for j in range(levels - 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            raw_k[j] = np.where(prod > 0, resid[j] / prod, 0.0)
        prod = prod * raw_k[j]
    interior = slice(edge_trim, n - edge_trim)
    order = levels
    for j in range(levels - 1):
        if np.max(raw_k[j][interior]) < threshold:
            order = j + 1
            break
    flips = 0
    for j in range(1, order):
        for idx in range(1, n):
            if np.dot(frames[j, idx], frames[j, idx - 1]) < 0:
                frames[j, idx] = -frames[j, idx]
                flips += 1
    return frames[:order], raw_k, order, flips


def _spliced_case2(cs, geodesic_rows):
    """Rows of case2-order3 `cs` run forward, reversed, geodesic, reversed.

    Reversing the traversal negates the odd derivatives, so V_3 flips at
    the first junction; the geodesic rows have zero V_2, V_3, after which
    the sign pass restarts unflipped.
    """
    rev = [-d if k % 2 == 0 else d for k, d in enumerate(cs.derivs[:4])]
    blocks = [(cs.points, cs.derivs[:4]), (cs.points, rev),
              (geodesic_rows.points, geodesic_rows.derivs), (cs.points, rev)]
    cut = [0, 1000, 2000, 3000, cs.n]
    points = np.concatenate([blk[0][cut[i]:cut[i + 1]]
                             for i, blk in enumerate(blocks)])
    derivs = [np.concatenate([blk[1][k][cut[i]:cut[i + 1]]
                              for i, blk in enumerate(blocks)])
              for k in range(4)]
    return CurveTrace(cs.params, cs.ts, points, derivs)


@pytest.mark.parametrize("name", ["geodesic", "circle", "catenary",
                                  "case2-order3", "csv:case2-order3",
                                  "case2-order3 depth 2", "sign-flip",
                                  "r6-steered"])
def test_frenet_matches_per_sample_oracle(name, request, tmp_path, params22):
    if name == "csv:case2-order3":
        path = tmp_path / "case2.csv"
        request.getfixturevalue("case2_curve").to_csv(path)
        trace = CurveTrace.from_csv(params22, path)
    elif name == "case2-order3 depth 2":
        case2 = request.getfixturevalue("case2_curve")
        trace = dataclasses.replace(case2, derivs=case2.derivs[:2])
    elif name == "sign-flip":
        trace = _spliced_case2(
            request.getfixturevalue("case2_curve"),
            synth.geodesic_trace(params22, window=(-2.0, 2.0), n=4001))
    else:
        trace = request.getfixturevalue(
            {"case2-order3": "case2_curve",
             "r6-steered": "r6_steered"}.get(name, name))
    frames, raw_k, order, flips = _frenet_oracle(trace)
    fd = frenet_apparatus(trace)
    assert fd.order == order
    assert np.array_equal(fd.frames, frames)
    assert np.array_equal(fd.curvatures, raw_k[:order - 1])
    if name == "geodesic":
        assert order == 1 and np.all(raw_k[0] < 1e-13)
    if name in ("csv:case2-order3", "sign-flip"):
        # a kept curvature crosses the threshold on the interior
        kept = raw_k[:order - 1, 4:-4]
        assert np.any((kept.min(axis=1) < curve.ORDER_THRESHOLD)
                      & (kept.max(axis=1) >= curve.ORDER_THRESHOLD))
        assert flips > 0
    if name == "r6-steered":
        # the order is the trace's level count: no level is left over
        assert order == min(trace.depth, trace.params.dim)
    if name == "sign-flip":
        # the second block is flipped, the last one is not
        assert order == 3 and flips == 1000


def _prescribed(curvatures, order):
    """Trace of the prescribed curvatures on -1:1 at step 1e-3, from the
    first `order` rows of the r6 example's admissible frame, down to
    gamma^(order), so that its Frenet order is at most `order`."""
    cfg = synth.R6ExampleConfig()
    frame0, p0 = cfg.initial_frame()
    spec = synth.SynthesisSpec(params=cfg.params, p0=p0,
                               frame0=frame0[:order], curvatures=curvatures,
                               window=(-1.0, 1.0), step=1e-3)
    trace = synth.integrate_frenet_system(spec)[0]
    return dataclasses.replace(trace, derivs=trace.derivs[:order])


def test_kept_crossing_curvature_does_not_end_the_order():
    # k1 = t^2 + 5e-7 dips under the threshold at t = 0 and is kept; k2 and
    # k3 stay near 1, so the order is still 4 and their frames are measured
    trace = _prescribed([lambda t: t ** 2 + 5e-7, lambda t: 1.0,
                         lambda t: 1.0], 4)
    fd = frenet_apparatus(trace)
    assert fd.order == 4 and fd.frames.shape[0] == 4
    interior = slice(curve.ORDER_EDGE_TRIM, -curve.ORDER_EDGE_TRIM)
    k1 = fd.curvatures[0][interior]
    assert np.min(k1) < curve.ORDER_THRESHOLD <= np.max(k1)
    assert np.min(fd.curvatures[1][interior]) > 0.99


def test_small_constant_curvature_is_kept():
    # a measured k2 of 2.7e-6..4.2e-6 (prescribed 3e-6) is above the zero
    # threshold of the order rule, so the order is 3
    trace = _prescribed([lambda t: 0.5, lambda t: 3e-6], 3)
    fd = frenet_apparatus(trace)
    assert fd.order == 3
    interior = slice(curve.ORDER_EDGE_TRIM, -curve.ORDER_EDGE_TRIM)
    assert np.max(fd.curvatures[1][interior]) < 1e-5


# ---------------------------------------------------------------------------
# CSV bytes
# ---------------------------------------------------------------------------

def test_write_csv_matches_csv_writer(tmp_path):
    data = np.array([[0.0, -0.0, np.nan, 1.0],
                     [np.inf, -np.inf, 5e-324, 0.0],
                     [1.7976931348623157e308, -1.0 / 3.0, 2.0 ** -1074, 1.0]])
    write_csv(tmp_path / "new.csv", ["a", "b", "c", "d"], data.T)
    old = csv_writer_bytes(tmp_path / "old.csv", ["a", "b", "c", "d"],
                            [[f"{v:.16e}" for v in row] for row in data])
    assert (tmp_path / "new.csv").read_bytes() == old
    # a bool column: the ode writer's domain flag
    write_csv(tmp_path / "flag.csv", ["a", "b", "c", "d"],
              [*data[:, :3].T, data[:, 3] == 1.0])
    old = csv_writer_bytes(tmp_path / "old.csv", ["a", "b", "c", "d"],
                            [[f"{v:.16e}" for v in row[:3]] + [int(row[3])]
                             for row in data])
    assert (tmp_path / "flag.csv").read_bytes() == old


def block_rows(cols):
    """Rows the writer formats per block of a table of `cols` columns."""
    return max(1, csvformat._CSV_BLOCK_CELLS // cols)


@pytest.mark.parametrize("n_rows", [0, 1, 1023, 1024, 1025, 2500])
def test_write_csv_blocks_match_csv_writer(tmp_path, n_rows):
    """Row counts at, around and past the formatting block size."""
    assert block_rows(4) == 1024
    rng = np.random.default_rng(n_rows)
    data = rng.standard_normal((n_rows, 4)) * 10.0 ** rng.integers(
        -300, 300, size=(n_rows, 4))
    write_csv(tmp_path / "new.csv", list("abcd"), data.T)
    old = csv_writer_bytes(tmp_path / "old.csv", list("abcd"),
                            [[f"{v:.16e}" for v in row] for row in data])
    assert (tmp_path / "new.csv").read_bytes() == old


def test_to_csv_bytes_match_csv_writer(case2_curve, tmp_path):
    points = case2_curve.points[:50].copy()
    points[::2, 0] = -0.0
    trace = CurveTrace(case2_curve.params, case2_curve.ts[:50], points,
                       [d[:50] for d in case2_curve.derivs])
    trace.to_csv(tmp_path / "new.csv")
    header = (tmp_path / "new.csv").read_text().splitlines()[0].split(",")
    assert header == ["t", "x1", "x2", "y1", "y2", "z1", "z2"]
    rows = [[f"{trace.ts[i]:.16e}"] + [f"{v:.16e}" for v in trace.points[i]]
            for i in range(trace.n)]
    assert (tmp_path / "new.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "old.csv", header, rows)
    assert b"-0.0000000000000000e+00" in (tmp_path / "new.csv").read_bytes()


def assert_python_bytes(path, data):
    """write_csv of `data` equals csv.writer rows of Python's "%.16e"."""
    header = [f"c{i}" for i in range(data.shape[1])]
    write_csv(path / "new.csv", header, data.T)
    rows = [[f"{v:.16e}" for v in row] for row in data.tolist()]
    assert (path / "new.csv").read_bytes() == csv_writer_bytes(
        path / "old.csv", header, rows)


def bits(*patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(cols=st.integers(1, 37), blocks=st.integers(1, 2),
       extra=st.integers(-1, 1), seed=st.integers(0, 2 ** 32 - 1),
       patterns=st.lists(st.integers(0, 2 ** 64 - 1), max_size=37))
def test_write_csv_raw_bit_patterns_match_python(tmp_path_factory, cols,
                                                 blocks, extra, seed,
                                                 patterns):
    """Any float64 bits, row counts at and around the formatting block."""
    rows = blocks * block_rows(cols) + extra
    data = np.random.default_rng(seed).integers(
        0, 2 ** 64, size=rows * cols, dtype=np.uint64).view(np.float64)
    data[:len(patterns)] = bits(*patterns)
    assert_python_bytes(tmp_path_factory.mktemp("csv"),
                        data.reshape(rows, cols))


def test_write_csv_powers_of_ten_neighbours_match_python(tmp_path):
    # a k = floor(log10|x|) off by one must not misprint the digits
    cells = []
    for p in range(-323, 309):
        v = float(f"1e{p}")
        for direction in (-np.inf, np.inf):
            w = v
            for _ in range(3):
                w = np.nextafter(w, direction)
                cells.append(w)
        cells.append(v)
    cells = np.array(cells)
    assert_python_bytes(tmp_path,
                        np.concatenate([cells, -cells]).reshape(-1, 14))


def exact_ties():
    """x = m 2^-j with m 5^j an 18-digit odd number is an exact tie at the
    17th significant digit: Python rounds it half to even."""
    ties = []
    for j in range(1, 26):
        lo = -(-10 ** 17 // 5 ** j) | 1
        for m in range(lo, min(lo + 40, 2 ** 53), 2):
            x = m / 2.0 ** j
            digits = decimal.Decimal(x).as_tuple().digits
            if len(digits) == 18 and digits[-1] == 5:
                ties += [x, -x]
    return ties


def test_write_csv_exact_ties_match_python(tmp_path):
    ties = exact_ties()
    assert len(ties) > 400
    assert_python_bytes(tmp_path,
                        np.array(ties[:len(ties) // 8 * 8]).reshape(-1, 8))


def long_double_misrounds():
    """Values whose digits rint(|x| 10^(16-k)) in long double gets wrong."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-300, 300, 100_000)
    k = np.floor(np.log10(np.abs(x))).astype(int)
    p10 = np.array([f"1e{p}" for p in range(-300, 341)], dtype=np.longdouble)
    naive = np.rint(np.abs(x).astype(np.longdouble)
                    * p10[16 - k + 300]).astype(np.int64)
    python = np.array([int(f"{v:.16e}".lstrip("-")[:18].replace(".", ""))
                       for v in x.tolist()], dtype=np.int64)
    return x[(naive != python) & (python > 10 ** 16)]


def test_write_csv_near_ties_that_long_double_misrounds(tmp_path):
    """Values whose digits long double gets wrong, and there are some, are
    Python's bytes too: the double-double kernel decides them."""
    wrong = long_double_misrounds()
    assert len(wrong) > 50
    assert_python_bytes(tmp_path, wrong[:len(wrong) // 4 * 4].reshape(-1, 4))


def test_write_csv_special_values_match_python(tmp_path):
    special = np.concatenate([
        [0.0, -0.0, np.inf, -np.inf, 9.9999999999999992e+22, 1e22, 1e23,
         np.finfo(float).max, np.finfo(float).tiny],
        # NaN with the sign bit, with a payload, signalling; Python prints
        # every one of them "nan"
        bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
             0xFFF00000DEADBEEF, 0x7FFFFFFFFFFFFFFF),
        # subnormals, the smallest and largest included
        bits(1, 2, 3, 0x000FFFFFFFFFFFFF, 0x8000000000000001,
             0x0000123456789ABC),
    ])
    assert_python_bytes(tmp_path, np.tile(special, (3, 1)))
    assert b"-nan" not in (tmp_path / "new.csv").read_bytes()


def test_power_of_ten_table_is_correctly_rounded():
    """Each 10^p = (ten + rest) 2^E: ten in [1, 2) is the float64 nearest
    10^p 2^-E, ten + rest is within 2^-106 of it, and the Veltkamp halves
    of ten sum to it in at most 26 and 27 significant bits."""
    ten, ten_hi, ten_lo, rest, exp = csvformat._format_tables()["p10"]
    powers = range(csvformat._P10_MIN, 16 - csvformat._EXP_MIN + 1)
    assert len(ten) == len(powers)
    frac = fractions.Fraction
    for i, p in enumerate(powers):
        assert exp[i] == int(exp[i])
        exact = frac(10) ** p / frac(2) ** int(exp[i])
        assert 1 <= ten[i] < 2, p
        err = abs(frac(ten[i]) - exact)
        for nb in (np.nextafter(ten[i], 2.0), np.nextafter(ten[i], 1.0)):
            assert err <= abs(frac(nb) - exact), p
        assert abs(frac(ten[i]) + frac(rest[i]) - exact) <= frac(1, 2 ** 106), p
        assert ten_hi[i] + ten_lo[i] == ten[i], p
        for half, width in ((ten_hi[i], 26), (ten_lo[i], 27)):
            assert (math.frexp(half)[0] * 2 ** width).is_integer(), p


def test_power_of_ten_table_matches_its_two_division_construction():
    # the rows once came from 10^|p| computed afresh and two big-integer
    # divisions each; the running powers and one divmod give the same bits
    rows = []
    for p in range(csvformat._P10_MIN, 16 - csvformat._EXP_MIN + 1):
        q = 10 ** abs(p)
        e = q.bit_length() - 1 if p >= 0 else -q.bit_length()
        num, den = (q, 1 << e) if p >= 0 else (1 << -e, q)
        ten = num / den
        rows.append((ten, (num * 2 ** 52 - int(ten * 2 ** 52) * den)
                     / (den << 52), e))
    ten, rest, exp = np.array(rows).T
    c = ten * csvformat._SPLIT
    ten_hi = c - (c - ten)
    want = np.array([ten, ten_hi, ten - ten_hi, rest, exp])
    assert csvformat._format_tables()["p10"].tobytes() == want.tobytes()


def test_write_csv_mixed_columns_match_python(tmp_path):
    # NaN rows, -0.0, a constant column and a bool column in one table
    rng = np.random.default_rng(3)
    data = rng.standard_normal((700, 5)) * 10.0 ** rng.integers(-300, 300,
                                                                (700, 5))
    data[::9, 1] = np.nan
    data[::11, 2] = -0.0
    data[:, 3] = np.pi / 2      # a constant column, formatted once
    data[:, 4] = rng.integers(0, 2, 700)
    # the bool column inside the row, then last
    flag = data[:, 4] == 1.0
    write_csv(tmp_path / "new.csv", list("abcdef"),
              [*data[:, :2].T, flag, *data[:, 2:4].T, flag])
    assert (tmp_path / "new.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "old.csv", list("abcdef"),
        [[f"{v:.16e}" for v in row[:2]] + [int(row[4])]
         + [f"{v:.16e}" for v in row[2:4]] + [int(row[4])]
         for row in data.tolist()])


def test_write_csv_million_raw_bit_patterns_match_python(tmp_path):
    """A million float64 bit patterns, in ten tables of 100,000 cells."""
    rng = np.random.default_rng(21)
    for _ in range(10):
        assert_python_bytes(tmp_path, rng.integers(
            0, 2 ** 64, size=(10_000, 10), dtype=np.uint64).view(np.float64))


def catenary_verify_csv_columns(tmp_path):
    """The columns of the verify CSV of the catenary on -8:8 (16001 rows),
    the bench's largest request."""
    from sspaceform import cli

    cfg = tmp_path / "catenary.ini"
    cfg.write_text("[manifold]\nm = 2\ns = 2\n[curve]\n"
                   "source = builtin:catenary\nwindow = -8:8\nstep = 1e-3\n")
    out = tmp_path / "verify.csv"
    assert cli.main(["verify", "--config", str(cfg), "--csv", str(out),
                     "--report", str(tmp_path / "r.json")]) == cli.EXIT_OK
    data = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape[0] == 16001
    return data


@pytest.mark.parametrize("table", ["normal-16001x16", "catenary-verify"])
def test_write_csv_python_formats_under_a_thousandth_of_cells(tmp_path,
                                                               monkeypatch,
                                                               table):
    """The digit kernel decides all but true ties and neighbours of powers
    of ten; Python's % formats fewer than 0.1% of the "%.16e" cells."""
    if table == "catenary-verify":
        data = catenary_verify_csv_columns(tmp_path)
    else:
        data = np.random.default_rng(8).standard_normal((16001, 16))
    seen = []
    real = csvformat._python_cells

    def spy(values):
        values = list(values)
        seen.extend(values)
        return real(values)

    monkeypatch.setattr(csvformat, "_python_cells", spy)
    assert_python_bytes(tmp_path, data)
    assert len(seen) < 1e-3 * data.size, len(seen) / data.size


def test_write_csv_raises_no_warning(tmp_path):
    data = np.column_stack([
        bits(0x7FF0000000000001, 0xFFF8000000000000, 1, 0),
        [np.inf, -np.inf, -0.0, 1e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(tmp_path / "w.csv", ["a", "b", "c"],
                  [*data.T, np.array([True, False, True, False])])


def test_write_csv_memory_is_bounded_by_the_block(tmp_path):
    data = np.random.default_rng(0).standard_normal((16001, 16))
    # a catenary-like verify table: k2 ... beta and eq3 ... g_tau3_phiT,
    # 11 of the 16 columns, hold one value each
    catenary = data.copy()
    catenary[:, 2:9] = catenary[:, 13:] = 0.0
    catenary[:, 9] = np.pi / 2
    for table in (data, catenary):
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", [f"c{i}" for i in range(16)],
                      table.T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


# ---------------------------------------------------------------------------
# constant columns: formatted once, broadcast into every block
# ---------------------------------------------------------------------------

CONSTANT_BITS = {
    "zero": 0, "negative-zero": 0x8000000000000000,
    "inf": 0x7FF0000000000000, "negative-inf": 0xFFF0000000000000,
    "smallest-subnormal": 1, "negative-largest-subnormal": 0x800FFFFFFFFFFFFF,
    "nan": 0x7FF8000000000000, "negative-nan-with-payload": 0xFFF00000DEADBEEF,
}


@pytest.mark.parametrize("pattern", CONSTANT_BITS.values(), ids=CONSTANT_BITS)
def test_write_csv_constant_columns_match_python(tmp_path, pattern):
    """A column of one bit pattern first, inside and last (the "\\r\\n"
    tail) among varying columns, over two blocks and part of a third."""
    rows = 2 * block_rows(5) + 7
    data = np.random.default_rng(5).standard_normal((rows, 5))
    data.view(np.uint64)[:, [0, 2, 4]] = pattern
    assert_python_bytes(tmp_path, data)


def test_write_csv_nan_columns_match_python(tmp_path):
    """NaN of one payload is a constant column; NaN of mixed payloads and
    signs varies.  Python prints every one of them "nan"."""
    rows = block_rows(3) + 3
    data = np.zeros((rows, 3))
    raw = data.view(np.uint64)
    raw[:, 0] = 0x7FF8000000000000
    raw[:, 1] = 0x7FF8000000000000 + np.arange(rows, dtype=np.uint64) % 3
    raw[::2, 1] |= np.uint64(1 << 63)
    raw[:, 2] = 0xFFF0000000000001
    assert_python_bytes(tmp_path, data)
    assert b"-nan" not in (tmp_path / "new.csv").read_bytes()


@pytest.mark.parametrize("kind", ["exact-tie", "long-double-misrounds"])
def test_write_csv_constant_column_the_kernel_cannot_decide(tmp_path,
                                                            monkeypatch, kind):
    """The broadcast cell of an exact tie takes Python's route, once; a
    value that long double misrounds is the kernel's.  Either ends its row
    where the column is last."""
    value = exact_ties()[0] if kind == "exact-tie" else long_double_misrounds()[0]
    seen = []
    real = csvformat._python_cells

    def spy(values):
        seen.extend(values)
        return real(values)

    monkeypatch.setattr(csvformat, "_python_cells", spy)
    rows = 2 * block_rows(4) + 1
    data = np.random.default_rng(6).standard_normal((rows, 4))
    data[:, 1] = value
    data[:, 3] = -value
    assert_python_bytes(tmp_path, data)
    expected = 1 if kind == "exact-tie" else 0
    assert seen.count(value) == expected and seen.count(-value) == expected


@pytest.mark.parametrize("rows", [0, 1, 2 * block_rows(6) + 1])
def test_write_csv_every_column_constant(tmp_path, rows):
    """One row makes every column constant; 0 rows write the header only."""
    row = bits(0, 0x8000000000000000, 0x7FF8000000000001, 0xFFF0000000000000,
               0x3FF921FB54442D18, 1)
    data = np.tile(row, (rows, 1))
    if rows == 1:
        data = np.random.default_rng(1).standard_normal((1, 6))
    assert_python_bytes(tmp_path, data)
    # the ode writer's bool domain flag, constant too
    write_csv(tmp_path / "flag.csv", list("abc"),
              [np.full(rows, -0.0), np.full(rows, 0.1), np.ones(rows, bool)])
    assert (tmp_path / "flag.csv").read_bytes() == csv_writer_bytes(
        tmp_path / "old.csv", list("abc"),
        [["-0.0000000000000000e+00", f"{0.1:.16e}", 1]] * rows)


@pytest.mark.parametrize("row", ["last-of-first-block", "last-of-table"])
def test_write_csv_column_constant_but_one_cell(tmp_path, row):
    """A cell that breaks a column's one bit pattern, -0.0 in a column of
    0.0 included, makes the column vary in every block."""
    step = block_rows(4)
    rows = 2 * step + 5
    data = np.full((rows, 4), 0.25)
    data[:, 0] = np.arange(rows)
    data[:, 1] = 0.0
    at = step - 1 if row == "last-of-first-block" else rows - 1
    data[at, 1:] = [-0.0, -0.25, 1.5]
    assert_python_bytes(tmp_path, data)


def test_write_csv_formats_a_constant_column_once(tmp_path, monkeypatch):
    seen = []
    real = csvformat._e_cells

    def spy(x, last):
        seen.append(x.copy())
        return real(x, last)

    monkeypatch.setattr(csvformat, "_e_cells", spy)
    rows = 3 * block_rows(6) + 2
    data = np.random.default_rng(7).standard_normal((rows, 6))
    data[:, 2] = np.pi / 2
    data[:, 5] = 0.0
    assert_python_bytes(tmp_path, data)
    # one call for the constants, then one per block with the varying cells
    assert len(seen) == 1 + 4
    cells = np.concatenate(seen)
    assert len(cells) == 2 + 4 * rows
    assert np.count_nonzero(cells == np.pi / 2) == 1
    assert np.count_nonzero(cells == 0.0) == 1
