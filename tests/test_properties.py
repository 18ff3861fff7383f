"""Property-based checks (hypothesis) of invariants the pipeline must keep.

* x and z translations are isometries of R^(2m+s)(-3s) (the metric depends
  on y only), so they change no curvature, angle, residual or verdict;
* `classify_case` reads only |g(phiT, V2)| and norms, so flipping the sign
  of any Frenet frame vector, at any sample, leaves the label unchanged;
* the 4th-order stencil of `fd_derivative` differentiates quartics exactly
  (up to rounding) in the interior;
* `connection_term(T, .)` is skew: metric compatibility in the orthonormal
  frame.

Examples are derandomized so that the suite is deterministic.
"""
import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sspaceform import findings, synth
from sspaceform.biharmonic import check_conditions, classify_case
from sspaceform.curve import CurveTrace, fd_derivative, frenet_apparatus
from sspaceform.manifold import ModelParams, connection_term
from sspaceform.odesol import f_from_k1
from sspaceform.slant import contact_angles, phiT_decomposition

from conftest import k1_case2, k1_catenary

PROPERTY = settings(max_examples=12, deadline=None, derandomize=True)
offsets = st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False)


def pipeline(trace, k1):
    """Everything `verify` derives from a trace, as comparable arrays."""
    fd = frenet_apparatus(trace)
    prof = contact_angles(trace)
    rep = check_conditions(trace, fd, prof, f_from_k1(trace.ts, *k1(trace.ts)))
    return {
        "order": fd.order,
        "curvatures": fd.curvatures,
        "frames": fd.frames,
        "thetas": prof.thetas,
        "constancy": prof.constancy_deviation,
        "residuals": np.array([rep.residuals[k] for k in sorted(rep.residuals)]),
        "per_sample": np.array([rep.per_sample[k] for k in sorted(rep.per_sample)]),
        "verdict": rep.verdict,
        "case": rep.case,
    }


def assert_same_pipeline(got, want):
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(got[key], value, err_msg=key)
        else:
            assert got[key] == value, key


def translate(params, dx, dz):
    shift = np.zeros(params.dim)
    shift[:params.m] = dx
    shift[2 * params.m:] = dz
    return shift


@functools.lru_cache(maxsize=None)
def catenary_1001():
    return synth.legendre_catenary(ModelParams(2, 2), window=(-1.0, 1.0), n=1001)


@functools.lru_cache(maxsize=None)
def case2_reference():
    return pipeline(synth.case2_order3_curve(window=(-0.5, 0.5)), k1_case2)


@PROPERTY
@given(dx=st.tuples(offsets, offsets), dz=st.tuples(offsets, offsets))
def test_xz_translation_of_a_trace_changes_nothing(dx, dz):
    trace = catenary_1001()
    moved = CurveTrace(trace.params, trace.ts,
                       trace.points + translate(trace.params, dx, dz),
                       trace.derivs)
    assert_same_pipeline(pipeline(moved, k1_catenary),
                         pipeline(trace, k1_catenary))


@PROPERTY
@given(dx=st.tuples(offsets, offsets), dz=st.tuples(offsets, offsets))
def test_xz_translated_start_point_synthesizes_the_same_curve(dx, dz):
    # the steering march reads y only: moving p0 in x and z moves the
    # points and leaves every derivative, hence every measurement, alone
    params = ModelParams(2, 2)
    shift = translate(params, dx, dz)
    c3 = 4.0
    trace = synth.steered_slant_curve(
        params, (np.pi / 3, 2 * np.pi / 3),
        lambda t: 4.0 * c3 / (c3 ** 2 * t ** 2 + 32.0), p2=0.0, c2=1.0,
        window=(-0.5, 0.5), p0=shift)
    assert_same_pipeline(pipeline(trace, k1_case2), case2_reference())
    # each step rounds the moved coordinates at their larger magnitude
    base = synth.case2_order3_curve(window=(-0.5, 0.5))
    np.testing.assert_allclose(trace.points - shift, base.points,
                               rtol=0, atol=1e-10)


@pytest.fixture(scope="module")
def classified(catenary, catenary_fd, case2_curve, case2_fd, r6_steered,
               r6_steered_fd, params22):
    aligned = findings.phiT_aligned_curve(params22, (np.pi / 3, np.pi / 2),
                                          lambda t: 0.3 + 0.05 * np.sin(t),
                                          window=(-1, 1))
    cases = [(catenary, catenary_fd), (case2_curve, case2_fd),
             (r6_steered, r6_steered_fd), (aligned, frenet_apparatus(aligned))]
    out = []
    for trace, fd in cases:
        prof = contact_angles(trace)
        label = classify_case(phiT_decomposition(trace, fd, prof), prof,
                              trace.params.c, trace.params.s)
        out.append((trace, fd, prof, label))
    assert sorted(c[3][0] for c in out) == ["II", "II", "III", "IV"]
    return out


@PROPERTY
@given(which=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       per_sample=st.booleans())
def test_classify_case_ignores_frame_signs(classified, which, seed, per_sample):
    trace, fd, prof, (label, detail) = classified[which]
    rng = np.random.default_rng(seed)
    shape = (fd.order - 1, trace.n if per_sample else 1, 1)
    signs = rng.choice([-1.0, 1.0], size=shape)
    frames = fd.frames.copy()
    frames[1:] *= signs                      # V_2..V_r; T = V_1 stays
    flipped = dataclasses.replace(fd, frames=frames)
    got = classify_case(phiT_decomposition(trace, flipped, prof), prof,
                        trace.params.c, trace.params.s)
    assert got == (label, detail)


@PROPERTY
@given(coef=arrays(float, 5, elements=st.floats(-10, 10)),
       t0=st.floats(-2, 2), h=st.floats(1e-3, 0.1),
       n=st.integers(60, 200), stride=st.sampled_from([1, 2, 3, 5]))
def test_fd_derivative_is_exact_on_quartics(coef, t0, h, n, stride):
    ts = t0 + h * np.arange(n)
    vals = np.polynomial.polynomial.polyval(ts, coef)
    exact = np.polynomial.polynomial.polyval(
        ts, np.polynomial.polynomial.polyder(coef))
    got = fd_derivative(vals, h, stride=stride)
    inner = slice(2 * stride, n - 2 * stride)
    # rounding only: the samples carry ~eps * sum |c_i t^i|, and the
    # stencil divides differences of them by 12 * stride * h
    scale = np.polynomial.polynomial.polyval(np.abs(ts), np.abs(coef))
    tol = 64 * np.finfo(float).eps * np.max(scale) / (stride * h)
    assert np.max(np.abs(got[inner] - exact[inner])) <= tol


def frame_vectors(dim):
    return arrays(float, dim, elements=st.floats(-10, 10))


@PROPERTY
@given(data=st.data(), m=st.integers(1, 3), s=st.integers(1, 3))
def test_connection_term_is_skew(data, m, s):
    params = ModelParams(m, s)
    T, W1, W2 = (data.draw(frame_vectors(params.dim)) for _ in range(3))
    lhs = connection_term(params, T, W1) @ W2
    rhs = W1 @ connection_term(params, T, W2)
    size = 1.0 + np.abs(T).sum() * np.abs(W1).sum() * np.abs(W2).sum()
    assert abs(lhs + rhs) <= 64 * np.finfo(float).eps * size
