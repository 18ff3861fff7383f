import csv
import functools

import numpy as np
import pytest
import sympy as sp

from sspaceform import manifold as mf
from sspaceform import synth
from sspaceform.curve import frenet_apparatus
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
    return frenet_apparatus(r6_steered, max_order=4)


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
    y = np.asarray(p, dtype=float)[m:2 * m]
    eye = np.eye(n)
    w = mf.coords_to_frame(params, eye, y)              # row b = w_b
    dw = np.zeros((n, n, n))
    for a in range(m, 2 * m):
        dw[a] = mf.coords_to_frame(params, eye, y + eye[a, m:2 * m]) - w
    T = np.broadcast_to(w[:, None, :], (n, n, n))
    W = np.broadcast_to(w[None, :, :], (n, n, n))
    out = dw + mf.connection_term(params, T, W)
    return np.moveaxis(mf.frame_to_coords(params, out, y), -1, 0)
