import csv
import dataclasses
import functools
from math import comb

import numpy as np
import pytest
import sympy as sp

from sspaceform import manifold as mf
from sspaceform import synth
from sspaceform.biharmonic import WeightFunction
from sspaceform.curve import fd_derivative, frenet_apparatus, uniform_step
from sspaceform.manifold import ModelParams
from sspaceform.slant import contact_angles


@pytest.fixture(scope="session")
def params22():
    return ModelParams(m=2, s=2)


@pytest.fixture(scope="session")
def params11():
    return ModelParams(m=1, s=1)


@pytest.fixture(scope="session")
def catenary(params22):
    return synth.legendre_catenary(params22, window=(-2.0, 2.0), n=4001)


@pytest.fixture(scope="session")
def catenary_fd(catenary):
    return frenet_apparatus(catenary)


@pytest.fixture(scope="session")
def circle(params22):
    return synth.flat_circle_trace(params22, radius=2.0)


@pytest.fixture(scope="session")
def geodesic(params22):
    return synth.geodesic_trace(params22)


@pytest.fixture(scope="session")
def case2_curve():
    return synth.case2_order3_curve(window=(-2.0, 2.0), step=1e-3)


@pytest.fixture(scope="session")
def case2_fd(case2_curve):
    return frenet_apparatus(case2_curve)


@pytest.fixture(scope="session")
def case2_profile(case2_curve):
    return contact_angles(case2_curve)


@pytest.fixture(scope="session")
def r6_config():
    return synth.R6ExampleConfig()


@pytest.fixture(scope="session")
def r6_steered(r6_config):
    return r6_config.steering_trace(step=1e-3, branch=+1)


@pytest.fixture(scope="session")
def r6_steered_fd(r6_steered):
    return frenet_apparatus(dataclasses.replace(r6_steered,
                                                derivs=r6_steered.derivs[:4]))


def k1_case2(ts):
    """k1 = 1/(2+t^2) with analytic derivatives."""
    ts = np.asarray(ts, dtype=float)
    u = 2.0 + ts ** 2
    return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 4.0) / u ** 3


def k1_catenary(ts):
    """k1 = 1/(1+t^2) with analytic derivatives."""
    ts = np.asarray(ts, dtype=float)
    u = 1.0 + ts ** 2
    return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 2.0) / u ** 3


def sampled_weight(ts, f) -> WeightFunction:
    """Weight of samples f on a uniform grid ts; f' and f'' by 4th-order
    differencing."""
    ts = np.asarray(ts, dtype=float)
    f = np.asarray(f, dtype=float)
    h = uniform_step(ts, "sampled_weight")
    fp = fd_derivative(f, h)
    return WeightFunction(ts=ts, f=f, fp=fp, fpp=fd_derivative(fp, h))


def csv_writer_bytes(path, header, rows) -> bytes:
    """Bytes of csv.writer rows, the reference for the row-format writer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


# ---------------------------------------------------------------------------
# the exact model (sympy, built from g) and the frame layer it checks
# ---------------------------------------------------------------------------

def is_zero(expr) -> bool:
    """Every entry of a sympy Matrix or Array expands to exactly 0."""
    return all(sp.expand(e) == 0 for e in sp.flatten(expr.tolist()))


@functools.lru_cache(maxsize=None)
def exact(m, s):
    from sspaceform.oracles import exact_model
    return exact_model(ModelParams(m, s))


@functools.lru_cache(maxsize=None)
def exact_numeric(m, s, name):
    """Float evaluator p -> array of an exact tensor ('g', 'frame', ...)."""
    return exact(m, s).numeric(name)


def curvature_evaluator(model):
    """(p, X, Y, Z) -> E^-1 R(EX, EY) EZ at coordinates p, R derived from g."""
    frame, riemann = model.numeric("frame"), model.numeric("riemann")

    def at(p, X, Y, Z):
        E, R = frame(p), riemann(p)
        return np.linalg.solve(E, np.einsum("dcab,a,b,c->d", R, E @ X, E @ Y, E @ Z))
    return at


@functools.lru_cache(maxsize=None)
def exact_curvature(m, s):
    return curvature_evaluator(exact(m, s))


def frame_gamma(params, p):
    """Christoffel symbols [c, a, b] implied by the frame layer at p.

    nabla_(d_a) d_b = E (d_a w_b + Phi(w_a, w_b)) with w_b = E^-1 d_b the
    frame components of the coordinate fields; they depend on y only, and
    affinely, so a unit difference in y_a is their exact derivative.
    """
    m, n = params.m, params.dim
    y = np.asarray(p, dtype=float)[m:2 * m, None]
    eye = np.eye(n)
    w = mf.coords_to_frame(params, eye, y)              # column b = w_b
    dw = np.zeros((n, n, n))                            # [component, a, b]
    for a in range(m, 2 * m):
        dw[:, a] = mf.coords_to_frame(params, eye, y + eye[a, m:2 * m, None]) - w
    T = np.broadcast_to(w[:, :, None], (n, n, n))
    W = np.broadcast_to(w[:, None, :], (n, n, n))
    out = dw + mf.connection_term(params, T, W)
    return mf.frame_to_coords(params, out, y[:, :, None])


# ---------------------------------------------------------------------------
# row-major oracles: the frame layer, the covariant chain and tau2/tau3 as
# they were before the kernels went component-major, with the sample on
# axis 0 and every sum over components taken by np.add.reduce/np.sum.  The
# component-major kernels must reproduce them bit for bit wherever every
# such sum has fewer than 8 terms.
# ---------------------------------------------------------------------------

def rowmajor_coords_to_frame(params, v, y):
    m = params.m
    out = np.empty_like(v)
    out[..., :m] = v[..., m:2 * m] / 2.0
    out[..., m:2 * m] = v[..., :m] / 2.0
    out[..., 2 * m:] = (v[..., 2 * m:] - np.sum(y * v[..., :m], axis=-1, keepdims=True)) / 2.0
    return out


def rowmajor_phi_frame(params, w):
    m = params.m
    out = np.empty_like(w)
    out[..., :m] = -w[..., m:2 * m]
    out[..., m:2 * m] = w[..., :m]
    out[..., 2 * m:] = 0.0
    return out


def rowmajor_connection_term(params, t_frame, w):
    m = params.m
    tau, sig, sv = t_frame[..., :m], t_frame[..., m:2 * m], t_frame[..., 2 * m:]
    A, B, C = w[..., :m], w[..., m:2 * m], w[..., 2 * m:]
    S = np.add.reduce(sv, axis=-1, keepdims=True)
    Ctot = np.add.reduce(C, axis=-1, keepdims=True)
    out = np.empty_like(w)
    out[..., :m] = S * B + Ctot * sig
    out[..., m:2 * m] = -S * A - Ctot * tau
    out[..., 2 * m:] = np.add.reduce(B * tau - A * sig, axis=-1, keepdims=True)
    return out


def rowmajor_curvature_frame(params, X, Y, Z):
    m, s = params.m, params.s
    c = params.c
    ebar = lambda W: np.sum(W[..., 2 * m:], axis=-1, keepdims=True)
    phX, phY, phZ = (rowmajor_phi_frame(params, W) for W in (X, Y, Z))
    dot = lambda U, V: np.sum(U * V, axis=-1, keepdims=True)

    def phi2(W):
        out = -W.copy()
        out[..., 2 * m:] = 0.0
        return out

    xibar = np.zeros(X.shape[:-1] + (params.dim,))
    xibar[..., 2 * m:] = 1.0
    eX, eY, eZ = ebar(X), ebar(Y), ebar(Z)
    out = (eX * eZ) * phi2(Y) - (eY * eZ) * phi2(X)
    out += (-dot(phX, phZ) * eY + dot(phY, phZ) * eX) * xibar
    coef2 = (c - s) / 4.0
    out += coef2 * (dot(X, phZ) * phY - dot(Y, phZ) * phX + 2.0 * dot(X, phY) * phZ)
    return out


def rowmajor_frame_jet(trace):
    params = trace.params
    m = params.m
    g = [trace.points] + trace.derivs
    jets = [rowmajor_coords_to_frame(params, trace.velocity, trace.y)]
    for j in range(1, trace.depth):
        W = np.empty_like(trace.points)
        W[:, :m] = g[j + 1][:, m:2 * m] / 2.0
        W[:, m:2 * m] = g[j + 1][:, :m] / 2.0
        acc = np.zeros(len(trace.ts))
        for i in range(j + 1):
            acc += comb(j, i) * np.sum(g[i][:, m:2 * m] * g[j + 1 - i][:, :m], axis=-1)
        W[:, 2 * m:] = (g[j + 1][:, 2 * m:] - acc[:, None]) / 2.0
        jets.append(W)
    return jets


def rowmajor_covariant_chain(trace):
    params = trace.params
    tjet = rowmajor_frame_jet(trace)
    levels = [list(tjet)]
    for _ in range(1, len(tjet)):
        prev = levels[-1]
        cur = []
        for j in range(len(prev) - 1):
            W = prev[j + 1].copy()
            for i in range(j + 1):
                W += comb(j, i) * rowmajor_connection_term(params, tjet[i], prev[j - i])
            cur.append(W)
        levels.append(cur)
    return tuple(lv[0] for lv in levels)


def rowmajor_tau2(fd, chain):
    """tau2 of FrenetData `fd` from the row-major `chain` of its trace."""
    tf = chain[0]
    direct = chain[3] - rowmajor_curvature_frame(fd.params, tf, chain[1], tf)
    return {"field": direct, "norm": np.linalg.norm(direct, axis=-1)}


def rowmajor_tau3(fd, f, chain):
    t2 = rowmajor_tau2(fd, chain)
    w1 = (f.fp / f.f)[:, None]
    w2 = (f.fpp / f.f)[:, None]
    field = t2["field"] + 2.0 * w1 * chain[2] + w2 * chain[1]
    return {"field": field, "norm": np.linalg.norm(field, axis=-1)}


def same_bits(got, want) -> bool:
    """Equal down to the bit, the sign of every zero included."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64),
                                                      want.view(np.int64))
