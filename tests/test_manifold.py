"""The frame layer of `manifold` against the exact model of `oracles`.

The exact model types g, eta, xi, phi and the frame fields E from the
coordinate formulas and derives the Christoffel symbols and the curvature
from g.  Symbolic identities must expand to exactly 0; frame-layer values
must agree with the exact model within 1e-12 relative.
"""
import dataclasses

import numpy as np
import pytest
import sympy as sp

from sspaceform import manifold as mf
from sspaceform.manifold import ModelParams
from sspaceform.oracles import nabla, structure_identities

from conftest import (exact, exact_curvature, exact_numeric, frame_gamma, is_zero,
                      rowmajor_connection_term, rowmajor_coords_to_frame,
                      rowmajor_curvature_frame, rowmajor_phi_frame, same_bits)

REL = 1e-12
DIMS = [(1, 1), (2, 2), (1, 3)]
IDENTITIES = ("phi_square", "eta_phi", "eta_xi", "phi_xi", "metric_compat",
              "eta_is_g_xi", "deta")


def assert_rel(got, want, rel=REL):
    err = np.max(np.abs(got - want))
    assert err <= rel * np.max(np.abs(want)), (err, np.max(np.abs(want)))


def const_vector(name, n):
    """A generic vector with symbolic constant coefficients."""
    return sp.Matrix(sp.symbols(f"{name}0:{n}", real=True))


def frame_phi2(params, w):
    return mf.phi_frame(params, mf.phi_frame(params, w))


# ---------------------------------------------------------------------------
# model parameters and the exact model
# ---------------------------------------------------------------------------

def test_model_params():
    params = ModelParams(m=2, s=2)
    assert params.dim == 6
    assert params.c == -6.0
    with pytest.raises(ValueError):
        ModelParams(m=0, s=1)
    with pytest.raises(ValueError):
        ModelParams(m=1, s=0)


@pytest.mark.parametrize("m,s", DIMS)
def test_structure_identities_exact(m, s):
    M = exact(m, s)
    ids = structure_identities(M)
    assert set(ids) == set(IDENTITIES)
    assert all(is_zero(expr) for expr in ids.values()), ids
    assert is_zero(M.frame.T * M.g * M.frame - sp.eye(M.params.dim))


@pytest.mark.parametrize("m,s", DIMS)
def test_frame_components_match_exact_model(m, s):
    # coords_to_frame = E^-1, frame_to_coords = E, phi_frame = E^-1 phi E
    params = ModelParams(m, s)
    M, n = exact(m, s), params.dim
    phi_in_frame = sp.simplify(M.frame.inv() * M.phi * M.frame)
    assert not phi_in_frame.free_symbols
    # component-major: column j of the result is phi of the frame vector e_j
    assert np.array_equal(mf.phi_frame(params, np.eye(n)),
                          np.array(phi_in_frame, dtype=float))
    rng = np.random.default_rng(20)
    for _ in range(10):
        p = rng.uniform(-1, 1, n)
        y = p[m:2 * m]
        E = exact_numeric(m, s, "frame")(p)
        v, w = rng.uniform(-1, 1, (2, n))
        assert_rel(mf.frame_to_coords(params, w, y), E @ w)
        assert_rel(mf.coords_to_frame(params, v, y), np.linalg.solve(E, v))


@pytest.mark.parametrize("m,s", DIMS)
def test_connection_term_matches_exact_model(m, s):
    # nabla_(E_i) E_j has constant frame components C[i, j]; Phi is bilinear
    params = ModelParams(m, s)
    n = params.dim
    C = exact(m, s).frame_connection
    assert not C.free_symbols
    C = np.array(C.tolist(), dtype=float)
    # component-major: T[:, i, j] = e_i and W[:, i, j] = e_j
    eye = np.eye(n)
    assert np.array_equal(mf.connection_term(params, eye[:, :, None], np.broadcast_to(
        eye[:, None, :], (n, n, n)).copy()), np.moveaxis(C, -1, 0))
    rng = np.random.default_rng(21)
    T, W = rng.uniform(-1, 1, (2, 50, n))
    assert_rel(mf.connection_term(params, T.T, W.T),
               np.einsum("ijk,ni,nj->kn", C, T, W))


@pytest.mark.parametrize("m", range(1, 10))
def test_float_kernels_match_numpy_forms_bitwise(m):
    # connection_rows and frame_row_to_coords against connection_term and
    # frame_to_coords down to the bit, for m, s <= 9: both sum components
    # sequentially at every size; states with signed zeros pin the sign of
    # every zero result
    rng = np.random.default_rng(40 + m)
    for s in range(1, 10):
        params = ModelParams(m, s)
        n = params.dim
        for i in range(40):
            T, y = (rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, k)
                    for k in (n, m))
            W = rng.standard_normal((5, n)) * 10.0 ** rng.integers(-3, 4, (5, n))
            if i % 2:
                for v in (T, y, W):
                    zeros = rng.random(v.shape) < 0.6
                    v[zeros] = rng.choice([0.0, -0.0], zeros.sum())
            got = mf.connection_rows(params, T.tolist(), W.tolist())
            assert (np.array(got).tobytes()
                    == mf.connection_term(params, T[:, None], W.T).T.tobytes())
            got = mf.frame_row_to_coords(params, T.tolist(), y.tolist())
            assert (np.array(got).tobytes()
                    == mf.frame_to_coords(params, T, y).tobytes())


@pytest.mark.parametrize("m,s", [(1, 1), (2, 2), (1, 3), (2, 3), (3, 1), (1, 5)])
def test_kernels_match_rowmajor_oracles_bitwise(m, s):
    # the component-major kernels against the row-major forms they
    # replaced, down to the bit, where every sum has fewer than 8 terms
    # (curvature_frame sums over all 2m + s components): there
    # np.add.reduce sums sequentially from 0.0.  Fields mostly +0.0 and -0.0
    # pin the sign of every zero: a sum over components started at its
    # first term instead of at 0.0 + c_0 fails here.
    params = ModelParams(m, s)
    rng = np.random.default_rng(50 + 10 * m + s)
    for i in range(20):
        X, Y, Z, W = rng.standard_normal((4, 300, params.dim)) * 10.0 ** rng.integers(
            -3, 4, (4, 300, params.dim))
        y = rng.standard_normal((300, m))
        for v in (X, Y, Z, W, y) if i % 2 else ():
            zeros = rng.random(v.shape) < 0.6
            v[zeros] = rng.choice([0.0, -0.0], zeros.sum())
        assert same_bits(mf.connection_term(params, X.T, W.T).T,
                         rowmajor_connection_term(params, X, W))
        assert same_bits(mf.curvature_frame(params, X.T, Y.T, Z.T).T,
                         rowmajor_curvature_frame(params, X, Y, Z))
        assert same_bits(mf.coords_to_frame(params, W.T, y.T).T,
                         rowmajor_coords_to_frame(params, W, y))
        assert same_bits(mf.phi_frame(params, W.T).T, rowmajor_phi_frame(params, W))


@pytest.mark.parametrize("m,s", DIMS)
def test_curvature_frame_matches_exact_model(m, s):
    params = ModelParams(m, s)
    rng = np.random.default_rng(22)
    for _ in range(20):
        p = rng.uniform(-1, 1, params.dim)
        X, Y, Z = rng.uniform(-1, 1, (3, params.dim))
        assert_rel(mf.curvature_frame(params, X, Y, Z),
                   exact_curvature(m, s)(p, X, Y, Z))


# ---------------------------------------------------------------------------
# phi, eta, metric
# ---------------------------------------------------------------------------

def test_phi_kills_xi(params22):
    M = exact(2, 2)
    for xi in M.xi:
        assert is_zero(M.phi * xi)
    for alpha in (4, 5):
        assert np.all(mf.phi_frame(params22, np.eye(6)[alpha]) == 0.0)


def test_phi_maps_frame_fields(params22):
    # X_i = 2 d/dy_i must map to X_{m+i} = 2(d/dx_i + y_i sum d/dz)
    M = exact(2, 2)
    for i in range(2):
        assert is_zero(M.phi * M.frame[:, i] - M.frame[:, 2 + i])
        assert np.array_equal(mf.phi_frame(params22, np.eye(6)[i]), np.eye(6)[2 + i])


def test_phi_square_identity(params22):
    assert is_zero(structure_identities(exact(2, 2))["phi_square"])
    # the frame layer's phi^2 is the exact phi^2 at random points
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = rng.uniform(-1, 1, 6)
        v = rng.uniform(-1, 1, 6)
        y = p[2:4]
        phi = exact_numeric(2, 2, "phi")(p)
        got = mf.frame_to_coords(params22, frame_phi2(
            params22, mf.coords_to_frame(params22, v, y)), y)
        assert_rel(got, phi @ phi @ v)


def test_eta_on_xi_and_phi(params22):
    ids = structure_identities(exact(2, 2))
    assert is_zero(ids["eta_xi"]) and is_zero(ids["eta_phi"])
    rng = np.random.default_rng(1)
    p = rng.uniform(-1, 1, 6)
    for beta in (0, 1):
        xi = np.zeros(6)
        xi[4 + beta] = 2.0
        assert np.array_equal(mf.coords_to_frame(params22, xi, p[2:4])[4:],
                              np.eye(2)[beta])
    w = rng.uniform(-1, 1, 6)
    assert np.all(mf.phi_frame(params22, w)[4:] == 0.0)


def test_eta_z_component_at_origin(params22):
    # dz_1-component 2, all x, y zero -> eta_1 = 1
    M = exact(2, 2)
    v = sp.Matrix([0, 0, 0, 0, 2, 0])
    origin = dict.fromkeys(M.coords, 0)
    assert (M.eta[0] * v)[0].subs(origin) == 1
    assert mf.coords_to_frame(params22, np.array([0, 0, 0, 0, 2.0, 0]),
                              np.zeros(2))[4] == 1.0
    # eta_alpha(v) is the C_alpha slot at any point
    rng = np.random.default_rng(2)
    p, u = rng.uniform(-1, 1, (2, 6))
    eta = sp.lambdify(M.coords, [(e * sp.Matrix(u))[0] for e in M.eta])
    assert_rel(mf.coords_to_frame(params22, u, p[2:4])[4:], np.array(eta(*p)))


def test_metric_orthonormal_frame(params22):
    # the frame X_i, X_{m+i} = phi X_i, xi_alpha is g-orthonormal everywhere
    M = exact(2, 2)
    assert is_zero(M.frame.T * M.g * M.frame - sp.eye(6))


def test_metric_compatibility_identity(params22):
    assert is_zero(structure_identities(exact(2, 2))["metric_compat"])
    # g is the dot product of frame components
    rng = np.random.default_rng(4)
    for _ in range(20):
        p, u, v = rng.uniform(-1, 1, (3, 6))
        y = p[2:4]
        g = exact_numeric(2, 2, "g")(p)
        uf, vf = (mf.coords_to_frame(params22, w, y) for w in (u, v))
        # relative to the Cauchy-Schwarz bound |u| |v| of |g(u, v)|
        scale = np.sqrt((u @ g @ u) * (v @ g @ v))
        assert abs(np.dot(uf, vf) - u @ g @ v) <= REL * scale


# ---------------------------------------------------------------------------
# structure identities
# ---------------------------------------------------------------------------

def test_verify_structure_r6():
    ids = structure_identities(exact(2, 2))
    assert set(ids) == set(IDENTITIES)
    assert all(is_zero(expr) for expr in ids.values()), ids


def test_verify_structure_sasakian():
    ids = structure_identities(exact(1, 1))
    assert set(ids) == set(IDENTITIES)
    assert all(is_zero(expr) for expr in ids.values()), ids


def test_verify_structure_negative_control():
    # g + eps I is no longer compatible with phi and eta
    M = exact(2, 2)
    bent = dataclasses.replace(M, g=M.g + sp.Rational(1, 1000) * sp.eye(6))
    compat = structure_identities(bent)["metric_compat"]
    assert not is_zero(compat)
    rng = np.random.default_rng(0)
    u, v = rng.uniform(-1, 1, (2, 6))
    sample = {**dict(zip(sp.symbols("u0:6", real=True), u)),
              **dict(zip(sp.symbols("v0:6", real=True), v)),
              **dict(zip(M.coords, rng.uniform(-1, 1, 6)))}
    assert abs(float(compat[0].subs(sample))) > 1e-5


# ---------------------------------------------------------------------------
# Christoffel symbols and the connection
# ---------------------------------------------------------------------------

def test_christoffel_analytic_vs_fd(params22):
    # Gamma derived from g equals the Gamma the frame layer implies
    rng = np.random.default_rng(6)
    for _ in range(10):
        p = rng.uniform(-1, 1, 6)
        assert_rel(frame_gamma(params22, p), exact_numeric(2, 2, "gamma")(p))


def test_christoffel_torsion_free(params22):
    G = exact(2, 2).gamma
    assert is_zero(G - sp.permutedims(G, (0, 2, 1)))
    rng = np.random.default_rng(7)
    for _ in range(5):
        Gf = frame_gamma(params22, rng.uniform(-1, 1, 6))
        assert np.max(np.abs(Gf - Gf.transpose(0, 2, 1))) <= REL * np.max(np.abs(Gf))


def test_nabla_xi_is_minus_phi(params22):
    # nabla_v xi_alpha = -phi v for every v
    M = exact(2, 2)
    v = const_vector("v", 6)
    for xi in M.xi:
        assert is_zero(nabla(M, v, xi) + M.phi * v)
    # xi_alpha has constant frame components, so nabla_T xi = Phi(T, xi)
    rng = np.random.default_rng(8)
    T = rng.uniform(-1, 1, (20, 6)).T
    for alpha in (4, 5):
        xi = np.broadcast_to(np.eye(6)[alpha][:, None], T.shape).copy()
        assert_rel(mf.connection_term(params22, T, xi), -mf.phi_frame(params22, T))


def test_connection_table_frame_fields(params22):
    # nabla_{X_i} X_{m+j} = delta_ij sum_alpha xi_alpha
    M = exact(2, 2)
    xibar = sp.Matrix([0, 0, 0, 0, 1, 1])
    eye = np.eye(6)
    for i in range(2):
        for j in range(2):
            want = int(i == j) * xibar
            got = M.frame.inv() * nabla(M, M.frame[:, i], M.frame[:, 2 + j])
            assert is_zero(got - want), (i, j)
            assert np.array_equal(mf.connection_term(params22, eye[i], eye[2 + j]),
                                  np.array(want, dtype=float).ravel())


def test_nabla_phi_formula(params22):
    # (nabla_X phi)Y = sum_alpha { g(phiX, phiY) xi_alpha + eta_alpha(Y) phi^2 X }
    M = exact(2, 2)
    X, Y = const_vector("X", 6), const_vector("Y", 6)
    lhs = nabla(M, X, M.phi * Y) - M.phi * nabla(M, X, Y)
    gphi = ((M.phi * X).T * M.g * (M.phi * Y))[0]
    rhs = sum((gphi * xi + (eta * Y)[0] * M.phi * M.phi * X
               for eta, xi in zip(M.eta, M.xi)), sp.zeros(6, 1))
    assert is_zero(lhs - rhs)
    # phi has constant frame components: (nabla_T phi)W = Phi(T, phiW) - phi Phi(T, W)
    rng = np.random.default_rng(9)
    T, W = (a.T for a in rng.uniform(-1, 1, (2, 20, 6)))
    got = (mf.connection_term(params22, T, mf.phi_frame(params22, W))
           - mf.phi_frame(params22, mf.connection_term(params22, T, W)))
    phT, phW = mf.phi_frame(params22, T), mf.phi_frame(params22, W)
    want = frame_phi2(params22, T) * W[4:].sum(axis=0)
    want[4:] += np.einsum("dn,dn->n", phT, phW)
    assert_rel(got, want)


def test_metric_compatibility_along_curves(params22):
    # nabla g = 0: d_a g_bc = g(nabla_a d_b, d_c) + g(d_b, nabla_a d_c)
    M = exact(2, 2)
    G, g, x = M.gamma, M.g, M.coords
    for a in range(6):
        for b in range(6):
            for c in range(6):
                assert sp.expand(g[b, c].diff(x[a]) - sum(
                    G[d, a, b] * g[d, c] + G[d, a, c] * g[b, d]
                    for d in range(6))) == 0
    # in frame components: d/dt <V, W> = <Phi(T,V), W> + <V, Phi(T,W)> + ...
    # holds because Phi(T, .) is skew
    rng = np.random.default_rng(10)
    T, V, W = (a.T for a in rng.uniform(-1, 1, (3, 20, 6)))
    skew = (np.einsum("dn,dn->n", mf.connection_term(params22, T, V), W)
            + np.einsum("dn,dn->n", V, mf.connection_term(params22, T, W)))
    assert np.max(np.abs(skew)) < 1e-14


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_antisymmetry(params22):
    R = exact(2, 2).riemann
    assert is_zero(R + sp.permutedims(R, (0, 1, 3, 2)))
    rng = np.random.default_rng(11)
    X, Z = rng.uniform(-1, 1, (2, 6))
    assert np.max(np.abs(mf.curvature_frame(params22, X, X, Z))) < 1e-14


def test_phi_sectional_curvature(params22):
    # g(R(X, phiX) phiX, X) = c = -3s for unit X orthogonal to all xi:
    # exactly, for X = E a with a generic a = (a_1..a_2m, 0, 0) of norm |a|
    M = exact(2, 2)
    R, a = M.riemann, sp.symbols("a0:4", real=True)
    X = M.frame * sp.Matrix(list(a) + [0, 0])
    PX = M.phi * X
    RX = sp.Matrix([sum(R[d, c, i, j] * X[i] * PX[j] * PX[c] for i in range(6)
                        for j in range(6) for c in range(6)) for d in range(6)])
    sec = (RX.T * M.g * X)[0]
    assert sp.expand(sec - params22.c * sum(ai ** 2 for ai in a) ** 2) == 0
    rng = np.random.default_rng(12)
    for _ in range(20):
        p = rng.uniform(-1, 1, 6)
        X = rng.uniform(-1, 1, 6)
        X[4:] = 0.0                        # eta_alpha(X) = 0 in frame components
        X /= np.linalg.norm(X)
        phX = mf.phi_frame(params22, X)
        exact_sec = exact_curvature(2, 2)(p, X, phX, phX) @ X
        frame_sec = mf.curvature_frame(params22, X, phX, phX) @ X
        assert abs(exact_sec - params22.c) < 1e-12
        assert abs(frame_sec - params22.c) < 1e-12


def test_curvature_model_vs_numeric(params22):
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = rng.uniform(-1, 1, 6)
        X, Y, Z = rng.uniform(-1, 1, (3, 6))
        assert_rel(mf.curvature_frame(params22, X, Y, Z),
                   exact_curvature(2, 2)(p, X, Y, Z))


def second_derivative_curvature(M, X, Y, Z):
    """nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z, exactly."""
    x = M.coords
    jac = lambda F: F.jacobian(sp.Matrix(x))
    bracket = jac(Y) * X - jac(X) * Y
    return (nabla(M, X, nabla(M, Y, Z)) - nabla(M, Y, nabla(M, X, Z))
            - nabla(M, bracket, Z))


def test_curvature_numeric_varying_fields(params22):
    # R is tensorial: the second-covariant-derivative definition on varying
    # fields equals curvature_frame on their values at the point
    M = exact(2, 2)
    q = M.coords
    X = sp.Matrix([sp.sin(q[1]), q[2], 1, q[0] * q[3], sp.Rational(1, 2), q[1] ** 2])
    Y = sp.Matrix([q[3], 1, sp.cos(q[0]), sp.Rational(1, 5), q[4] / 10, 1])
    Z = sp.Matrix([1, q[5], q[1], sp.sin(q[2]), sp.Rational(3, 10), sp.Rational(1, 10)])
    R = second_derivative_curvature(M, X, Y, Z)
    p = np.random.default_rng(14).uniform(-0.5, 0.5, 6)
    at = dict(zip(q, p))
    value = lambda F: np.array(F.subs(at).evalf(30), dtype=float).ravel()
    y = p[2:4]
    Xf, Yf, Zf = (mf.coords_to_frame(params22, value(F), y) for F in (X, Y, Z))
    got = mf.frame_to_coords(params22, mf.curvature_frame(params22, Xf, Yf, Zf), y)
    assert_rel(got, value(R))


def test_curvature_numeric_xy_equal_vanishes(params22):
    M = exact(2, 2)
    X, Z = const_vector("X", 6), const_vector("Z", 6)
    assert is_zero(second_derivative_curvature(M, X, X, Z))


def test_curvature_numeric_z_directions_sasakian(params11):
    # z-heavy directions in the m = 1, s = 1 model reproduce the formula
    rng = np.random.default_rng(16)
    p = rng.uniform(-1, 1, 3)
    y = p[1:2]
    X, Y, Z = (mf.coords_to_frame(params11, np.array(v), y)
               for v in ([0.1, 0.0, 1.0], [0.0, 0.2, 1.0], [0.0, 0.0, 1.0]))
    assert_rel(mf.curvature_frame(params11, X, Y, Z),
               exact_curvature(1, 1)(p, X, Y, Z))


def test_covariant_derivative_sample_form(params22):
    # nabla_T W at a curve sample (point, velocity): frame layer
    # d/dt(frame components) + Phi(T, W) against dW/dt + Gamma(T, W)
    rng = np.random.default_rng(17)
    c0, c1, c2, a0, a1 = rng.uniform(-1, 1, (5, 6))
    t0 = 0.4
    p, vel = c0 + c1 * t0 + c2 * t0 ** 2, c1 + 2 * c2 * t0
    W, Wdot = a0 + a1 * np.sin(t0), a1 * np.cos(t0)
    want = Wdot + np.einsum("cab,a,b->c", exact_numeric(2, 2, "gamma")(p), vel, W)
    y, ydot = p[2:4], vel[2:4]
    # coords_to_frame is affine in y, so a unit step in y along ydot is exact
    wdot = (mf.coords_to_frame(params22, Wdot, y)
            + mf.coords_to_frame(params22, W, y + ydot)
            - mf.coords_to_frame(params22, W, y))
    got = mf.frame_to_coords(params22, wdot + mf.connection_term(
        params22, mf.coords_to_frame(params22, vel, y),
        mf.coords_to_frame(params22, W, y)), y)
    assert_rel(got, want)
