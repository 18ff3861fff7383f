"""Exact ground truth for the coordinate model R^(2m+s)(-3s), in sympy.

Only tests and demos import this module; the pipeline never does, so
`import sspaceform` does not load sympy.  The structure tensors g, eta_alpha,
xi_alpha and phi, and the frame fields E = (X_1..X_m, phi X_1..phi X_m,
xi_1..xi_s), are typed from the coordinate formulas in the `manifold`
docstring and are never derived from the frame layer they check.  From g
alone the Levi-Civita formula gives the Christoffel symbols, and they give
the curvature tensor, so the frame layer (`coords_to_frame`,
`frame_to_coords`, `phi_frame`, `connection_term`, `curvature_frame`) is
compared with truth derived from the metric.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import sympy as sp

from .manifold import ModelParams

__all__ = ["ExactModel", "exact_model", "structure_identities", "nabla"]


@dataclass(frozen=True)
class ExactModel:
    """The coordinate model with exact tensors on the symbols `coords`.

    `g`, `phi` and `frame` are n x n matrices in the d/dx, d/dy, d/dz
    basis (`frame` holds E_k as column k); `eta[a]` is the 1 x n row of
    eta^(a+1) and `xi[a]` the n x 1 column of xi_(a+1).
    """

    params: ModelParams
    coords: tuple
    g: sp.Matrix
    eta: tuple
    xi: tuple
    phi: sp.Matrix
    frame: sp.Matrix

    @cached_property
    def gamma(self) -> sp.Array:
        """Gamma[c, a, b] = (1/2) g^cd (d_a g_bd + d_b g_ad - d_d g_ab)."""
        n, x, g = len(self.coords), self.coords, self.g
        gi = g.inv()
        return sp.Array([[[sp.expand(sum(
            gi[c, d] * (g[b, d].diff(x[a]) + g[a, d].diff(x[b])
                        - g[a, b].diff(x[d])) for d in range(n)) / 2)
            for b in range(n)] for a in range(n)] for c in range(n)])

    @cached_property
    def riemann(self) -> sp.Array:
        """R[d, c, a, b] = (R(d_a, d_b) d_c)^d for
        R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z."""
        n, x, G = len(self.coords), self.coords, self.gamma
        return sp.Array([[[[sp.expand(
            G[d, b, c].diff(x[a]) - G[d, a, c].diff(x[b])
            + sum(G[d, a, e] * G[e, b, c] - G[d, b, e] * G[e, a, c]
                  for e in range(n)))
            for b in range(n)] for a in range(n)] for c in range(n)]
            for d in range(n)])

    @cached_property
    def frame_connection(self) -> sp.Array:
        """C[i, j] = frame components of nabla_(E_i) E_j (constants)."""
        E, n = self.frame, len(self.coords)
        Ei = E.inv()
        return sp.Array([[list(sp.expand(Ei * nabla(self, E[:, i], E[:, j])))
                          for j in range(n)] for i in range(n)])

    def numeric(self, name: str):
        """Callable p -> float ndarray of the named tensor at coordinates p."""
        f = sp.lambdify(self.coords, getattr(self, name).tolist(), "numpy")
        return lambda p: np.asarray(f(*p), dtype=float)


def exact_model(params: ModelParams) -> ExactModel:
    """Type g, eta, xi, phi and the frame fields from the coordinate formulas."""
    m, s, n = params.m, params.s, params.dim
    coords = sp.symbols(f"x1:{m + 1} y1:{m + 1} z1:{s + 1}", real=True)
    y = sp.Matrix(coords[m:2 * m])
    eye = sp.eye(n)
    dx, dy, dz = eye[:m, :], eye[m:2 * m, :], eye[2 * m:, :]  # rows: coordinate 1-forms
    eta = tuple((dz[a, :] - y.T * dx) / 2 for a in range(s))
    xi = tuple(2 * dz[a, :].T for a in range(s))
    g = sum((e.T * e for e in eta), (dx.T * dx + dy.T * dy) / 4)
    # phi X = (Y, -X, <Y, y> on every z)
    phi = dx.T * dy - dy.T * dx + dz.T * sp.ones(s, 1) * y.T * dy
    # X_i = 2 d/dy_i, X_(m+i) = 2 (d/dx_i + y_i sum_alpha d/dz_alpha), xi_alpha
    frame = 2 * sp.Matrix.hstack(dy.T, dx.T + dz.T * sp.ones(s, 1) * y.T, dz.T)
    return ExactModel(params, coords, g, eta, xi, phi, frame)


def nabla(model: ExactModel, X, W) -> sp.Matrix:
    """nabla_X W for coordinate column fields X, W (functions of coords)."""
    x, G, n = model.coords, model.gamma, len(model.coords)
    return sp.Matrix([sum(X[a] * (W[c].diff(x[a])
                                  + sum(G[c, a, b] * W[b] for b in range(n)))
                          for a in range(n)) for c in range(n)])


def structure_identities(model: ExactModel) -> dict:
    """The framed-metric-structure identities as expanded exact matrices;
    every entry is 0 in the model.

    u, v are generic vectors with symbolic constant coefficients, so
    [u, v] = 0 and d eta(u, v) = (u(eta(v)) - v(eta(u)))/2 (half-normalized).
    """
    n, x, s, phi = len(model.coords), model.coords, model.params.s, model.phi
    u, v = (sp.Matrix(sp.symbols(f"{c}0:{n}", real=True)) for c in "uv")
    eta = lambda a, w: (model.eta[a] * w)[0]
    g = lambda p, q: (p.T * model.g * q)[0]
    per_alpha = lambda f: sp.Matrix([f(a) for a in range(s)])
    deta = lambda a: sum((model.eta[a][b].diff(x[c]) - model.eta[a][c].diff(x[b]))
                         * u[c] * v[b] for b in range(n) for c in range(n)) / 2
    out = {
        "phi_square": phi * phi * v + v - sum((eta(a, v) * model.xi[a] for a in range(s)),
                                              sp.zeros(n, 1)),
        "eta_phi": per_alpha(lambda a: eta(a, phi * v)),
        "eta_xi": sp.Matrix(s, s, lambda a, b: eta(a, model.xi[b])) - sp.eye(s),
        "phi_xi": sp.Matrix.hstack(*(phi * xi for xi in model.xi)),
        "metric_compat": sp.Matrix([g(u, v) - g(phi * u, phi * v)
                                    - sum(eta(a, u) * eta(a, v) for a in range(s))]),
        "eta_is_g_xi": per_alpha(lambda a: eta(a, v) - g(v, model.xi[a])),
        "deta": per_alpha(lambda a: deta(a) - g(u, phi * v)),
    }
    return {k: sp.expand(val) for k, val in out.items()}
