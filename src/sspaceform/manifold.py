"""The coordinate model S-space form R^(2m+s)(-3s).

Coordinates are ordered (x_1..x_m, y_1..y_m, z_1..z_s).  The structure
tensors are

    xi_alpha = 2 d/dz_alpha
    eta^alpha = (dz_alpha - sum_i y_i dx_i) / 2
    phi X = sum_i Y_i d/dx_i - sum_i X_i d/dy_i
            + (sum_i Y_i y_i) (sum_alpha d/dz_alpha)
    g = sum_alpha eta^alpha (x) eta^alpha
        + (1/4) sum_i (dx_i (x) dx_i + dy_i (x) dy_i)

where X_i, Y_i, Z_alpha are the d/dx_i, d/dy_i, d/dz_alpha components of a
tangent vector.  The phi-sectional curvature is the constant c = -3s.

Two representations of tangent data are used throughout the package:

* coordinate components, length 2m+s, in the d/dx, d/dy, d/dz basis;
* frame components, length 2m+s, in the global g-orthonormal basis
      E = (X_1..X_m, X_{m+1}..X_{2m}, xi_1..xi_s),
  with X_i = 2 d/dy_i and X_{m+i} = phi X_i = 2(d/dx_i + y_i sum d/dz).

In frame components the metric is the Euclidean dot product and the
Levi-Civita connection along a curve is exact and Christoffel-free
(`connection_term`), because the connection coefficients of the frame
fields are constants.  This module holds only that frame layer; the
coordinate model itself (g, eta, xi, phi, and the Christoffel symbols and
curvature derived from g) lives in `sspaceform.oracles`, in sympy, as the
exact ground truth the frame layer is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

__all__ = [
    "ModelParams",
    "component_sum",
    "coords_to_frame",
    "frame_to_coords",
    "phi_frame",
    "connection_term",
    "connection_rows",
    "frame_row_to_coords",
    "curvature_frame",
]


@dataclass(frozen=True)
class ModelParams:
    """Dimensions of the model space; the curvature c = -3s is derived."""

    m: int
    s: int

    def __post_init__(self):
        if self.m < 1 or self.s < 1:
            raise ValueError(f"need m >= 1 and s >= 1, got m={self.m}, s={self.s}")

    @property
    def dim(self) -> int:
        return 2 * self.m + self.s

    @property
    def c(self) -> float:
        return -3.0 * self.s


# ---------------------------------------------------------------------------
# frame components and the exact connection along curves
#
# The NumPy maps are component-major: an array of shape (2m+s, ...) holds
# one row per component, and a caller with (n, 2m+s) samples passes `.T`.
# ---------------------------------------------------------------------------

def component_sum(rows):
    """0.0 + rows[0] + rows[1] + ..., in that order: every sum over
    components of the frame layer.  It is what `np.add.reduce` computes on
    fewer than 8 elements, signed zeros included (on more it sums
    pairwise)."""
    total = 0.0 + rows[0]
    for row in rows[1:]:
        total += row
    return total


def coords_to_frame(params: ModelParams, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinate components -> frame components (A | B | C) at y-coords y.

    A_i = v_{y_i}/2 (on X_i), B_i = v_{x_i}/2 (on X_{m+i}),
    C_alpha = eta_alpha(v) (on xi_alpha).  Vectorized over trailing axes.
    """
    m = params.m
    out = np.empty(v.shape)
    out[:m] = v[m:2 * m] / 2.0
    out[m:2 * m] = v[:m] / 2.0
    out[2 * m:] = (v[2 * m:] - component_sum(y * v[:m])) / 2.0
    return out


def frame_to_coords(params: ModelParams, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frame components (A | B | C) -> coordinate components at y-coords y."""
    m = params.m
    A, B, C = w[:m], w[m:2 * m], w[2 * m:]
    out = np.empty(w.shape)
    out[:m] = 2.0 * B
    out[m:2 * m] = 2.0 * A
    out[2 * m:] = 2.0 * C + 2.0 * component_sum(B * y)
    return out


def phi_frame(params: ModelParams, w: np.ndarray) -> np.ndarray:
    """phi in frame components: (A, B, C) -> (-B, A, 0)."""
    m = params.m
    out = np.empty(w.shape)
    out[:m] = -w[m:2 * m]
    out[m:2 * m] = w[:m]
    out[2 * m:] = 0.0
    return out


def connection_term(params: ModelParams, t_frame: np.ndarray, w: np.ndarray,
                    t_sum=None) -> np.ndarray:
    """Bilinear connection part Phi(T, W) of nabla_T W in frame components.

    nabla_T W = dW/dt + Phi(T, W) along any curve with tangent T, where

        Phi_A = S B + Ctot sigma
        Phi_B = -S A - Ctot tau
        Phi_C = <B, tau> - <A, sigma>       (same value for every alpha)

    with T = (tau | sigma | s), S = sum s_alpha, Ctot = sum C_alpha.  A
    caller that pairs one T with many W passes S once as `t_sum`.
    """
    m = params.m
    tau, sig = t_frame[:m], t_frame[m:2 * m]
    A, B = w[:m], w[m:2 * m]
    S = component_sum(t_frame[2 * m:]) if t_sum is None else t_sum
    Ctot = component_sum(w[2 * m:])
    out = np.empty(w.shape)
    out[:m] = S * B + Ctot * sig
    out[m:2 * m] = -S * A - Ctot * tau
    out[2 * m:] = component_sum(B * tau - A * sig)
    return out


# ---------------------------------------------------------------------------
# the same maps on Python floats, for one frame vector per call
#
# A marching right-hand side calls these on a few short rows per stage,
# where NumPy's per-call cost is most of the work.  They repeat the
# operations and sums of `connection_term` and `frame_to_coords` in their
# order on lists of floats: bit-identical to them for every m and s.
# ---------------------------------------------------------------------------

def connection_rows(params: ModelParams, t_frame: list[float],
                    rows: list[list[float]]) -> list[list[float]]:
    """`connection_term(params, T, W)` for each row W of `rows`, with T =
    `t_frame`, on Python floats (see the rounding contract above)."""
    m, m2, s = params.m, 2 * params.m, params.s
    tau, sig = t_frame[:m], t_frame[m:m2]
    S = reduce(add, t_frame[m2:], 0.0)
    neg_S = -S
    out = []
    for w in rows:
        A, B = w[:m], w[m:m2]
        Ctot = reduce(add, w[m2:], 0.0)
        phi_C = reduce(add, [b * u - a * g for a, b, u, g in zip(A, B, tau, sig)],
                       0.0)
        out.append([S * b + Ctot * g for b, g in zip(B, sig)]
                   + [neg_S * a - Ctot * u for a, u in zip(A, tau)]
                   + [phi_C] * s)
    return out


def frame_row_to_coords(params: ModelParams, w: list[float],
                        y: list[float]) -> list[float]:
    """`frame_to_coords(params, w, y)` for one frame vector on Python
    floats (see the rounding contract above)."""
    m, m2 = params.m, 2 * params.m
    A, B = w[:m], w[m:m2]
    z_rate = 2.0 * reduce(add, [b * v for b, v in zip(B, y)], 0.0)
    return [2.0 * b for b in B] + [2.0 * a for a in A] + [2.0 * c + z_rate
                                                          for c in w[m2:]]


# ---------------------------------------------------------------------------
# curvature tensor in closed form
# ---------------------------------------------------------------------------

def curvature_frame(params: ModelParams, X: np.ndarray, Y: np.ndarray,
                    Z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z of the S-space form in frame components (c = -3s).

    The closed form only involves phi, eta_alpha, xi_alpha and g, all of
    which are frame-algebraic: eta_alpha(W) = C_alpha, g = dot product,
    phi = (A,B,C) -> (-B,A,0).  The term ((c+3s)/4)(g(phiX,phiZ) phi^2 Y
    - g(phiY,phiZ) phi^2 X) is left out: c = -3s makes it exactly 0.
    Vectorized over trailing axes.
    """
    m, s = params.m, params.s
    phX, phY, phZ = (phi_frame(params, W) for W in (X, Y, Z))
    dot = lambda U, V: component_sum(U * V)
    xibar = np.zeros((params.dim,) + (1,) * (X.ndim - 1))   # sum_alpha xi_alpha
    xibar[2 * m:] = 1.0
    eX, eY, eZ = (component_sum(W[2 * m:]) for W in (X, Y, Z))
    # phi^2 W = -W + sum_alpha eta_alpha(W) xi_alpha is phi of phi W
    out = (eX * eZ) * phi_frame(params, phY) - (eY * eZ) * phi_frame(params, phX)
    out += (-dot(phX, phZ) * eY + dot(phY, phZ) * eX) * xibar
    coef2 = (params.c - s) / 4.0
    out += coef2 * (dot(X, phZ) * phY - dot(Y, phZ) * phX + 2.0 * dot(X, phY) * phZ)
    return out
