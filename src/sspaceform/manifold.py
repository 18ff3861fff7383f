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
fields are constants.  The coordinate route (analytic Christoffel symbols,
`christoffel`) and a finite-difference route (`christoffel_fd`) are kept as
independent cross-checks.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ModelParams",
    "Point",
    "Tangent",
    "StructureReport",
    "phi_apply",
    "eta_eval",
    "metric_eval",
    "xi_tangent",
    "point_y",
    "connection_term",
    "metric_matrix",
    "metric_inverse",
    "christoffel",
    "christoffel_fd",
    "coords_to_frame",
    "frame_to_coords",
    "phi_frame",
    "covariant_derivative",
    "curvature_frame",
    "curvature_model",
    "curvature_numeric",
    "verify_structure",
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


@dataclass(frozen=True)
class Point:
    """A point of R^(2m+s), coords ordered (x_1..x_m, y_1..y_m, z_1..z_s)."""

    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))


@dataclass(frozen=True)
class Tangent:
    """Tangent vector: coordinate components attached to a base point."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", np.asarray(self.components, dtype=float))
        if self.components.shape != self.base.coords.shape:
            raise ValueError(
                f"component length {self.components.shape} does not match "
                f"base point dimension {self.base.coords.shape}"
            )


def _check_params(params: ModelParams, v: Tangent) -> None:
    if len(v.components) != params.dim:
        raise ValueError(f"dimension mismatch: expected {params.dim}, got {len(v.components)}")


def _same_base(u: Tangent, v: Tangent) -> None:
    if not np.array_equal(u.base.coords, v.base.coords):
        raise ValueError("tangent vectors have different base points")


def point_y(params: ModelParams, p) -> np.ndarray:
    coords = p.coords if isinstance(p, Point) else np.asarray(p, dtype=float)
    return coords[params.m:2 * params.m]


# ---------------------------------------------------------------------------
# structure tensors on coordinate components
# ---------------------------------------------------------------------------

def phi_components(params: ModelParams, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """phi applied to coordinate components v at a point with y-coordinates y."""
    m, s = params.m, params.s
    out = np.zeros_like(v)
    X, Y = v[..., :m], v[..., m:2 * m]
    out[..., :m] = Y
    out[..., m:2 * m] = -X
    out[..., 2 * m:] = np.sum(Y * y, axis=-1, keepdims=True) * np.ones(s)
    return out


def eta_components(params: ModelParams, alpha: int, v: np.ndarray, y: np.ndarray) -> float:
    """eta^alpha(v) = (v_z_alpha - sum_i y_i v_x_i)/2; alpha is 1-based."""
    m, s = params.m, params.s
    if not 1 <= alpha <= s:
        raise IndexError(f"alpha must be in 1..{s}, got {alpha}")
    return 0.5 * (v[..., 2 * m + alpha - 1] - np.sum(y * v[..., :m], axis=-1))


def metric_matrix(params: ModelParams, p) -> np.ndarray:
    """Coordinate matrix of g at p (depends only on the y-coordinates)."""
    m, s = params.m, params.s
    y = point_y(params, p)
    G = np.zeros((params.dim, params.dim))
    G[:m, :m] = 0.25 * (np.eye(m) + s * np.outer(y, y))
    G[m:2 * m, m:2 * m] = 0.25 * np.eye(m)
    G[2 * m:, 2 * m:] = 0.25 * np.eye(s)
    G[:m, 2 * m:] = -0.25 * np.outer(y, np.ones(s))
    G[2 * m:, :m] = G[:m, 2 * m:].T
    return G


def metric_inverse(params: ModelParams, p) -> np.ndarray:
    """Closed-form inverse of the metric matrix (polynomial in y)."""
    m, s = params.m, params.s
    y = point_y(params, p)
    Gi = np.zeros((params.dim, params.dim))
    Gi[:m, :m] = 4.0 * np.eye(m)
    Gi[m:2 * m, m:2 * m] = 4.0 * np.eye(m)
    Gi[:m, 2 * m:] = 4.0 * np.outer(y, np.ones(s))
    Gi[2 * m:, :m] = Gi[:m, 2 * m:].T
    Gi[2 * m:, 2 * m:] = 4.0 * (np.eye(s) + np.dot(y, y) * np.ones((s, s)))
    return Gi


# ---------------------------------------------------------------------------
# spec operations on Tangent objects
# ---------------------------------------------------------------------------

def phi_apply(params: ModelParams, v: Tangent) -> Tangent:
    """Apply the structure tensor phi to a tangent vector."""
    _check_params(params, v)
    y = point_y(params, v.base)
    return Tangent(v.base, phi_components(params, v.components, y))


def eta_eval(params: ModelParams, alpha: int, v: Tangent) -> float:
    """Evaluate eta^alpha(v) at the base point of v (alpha is 1-based)."""
    _check_params(params, v)
    y = point_y(params, v.base)
    return float(eta_components(params, alpha, v.components, y))


def metric_eval(params: ModelParams, u: Tangent, v: Tangent) -> float:
    """g(u, v) at the common base point."""
    _check_params(params, u)
    _check_params(params, v)
    _same_base(u, v)
    G = metric_matrix(params, u.base)
    return float(u.components @ G @ v.components)


def xi_tangent(params: ModelParams, alpha: int, p: Point) -> Tangent:
    comp = np.zeros(params.dim)
    comp[2 * params.m + alpha - 1] = 2.0
    return Tangent(p, comp)


# ---------------------------------------------------------------------------
# Christoffel symbols (analytic, polynomial in y) and FD oracle
# ---------------------------------------------------------------------------

def christoffel(params: ModelParams, p) -> np.ndarray:
    """Gamma[c, a, b] of the Levi-Civita connection at p, exact.

    Nonzero blocks (x: 0..m, y: m..2m, z: 2m..2m+s; all symmetric in a,b):

        Gamma^{y_i}_{x_j x_k} = -(s/2)(delta_ij y_k + y_j delta_ik)
        Gamma^{x_l}_{x_j y_i} = (s/2) y_j delta_il
        Gamma^{z_a}_{x_j y_i} = (s y_i y_j - delta_ij)/2
        Gamma^{y_i}_{x_j z_a} = delta_ij / 2
        Gamma^{x_l}_{y_i z_a} = -delta_il / 2
        Gamma^{z_b}_{y_i z_a} = -y_i / 2
    """
    m, s = params.m, params.s
    n = params.dim
    y = point_y(params, p)
    G = np.zeros((n, n, n))
    eye_m = np.eye(m)
    for i in range(m):
        yi = y[i]
        for j in range(m):
            # Gamma^{y_i}_{x_j x_k} = -(s/2)(delta_ij y_k + y_j delta_ik)
            G[m + i, j, :m] += -(s / 2.0) * ((i == j) * y + y[j] * eye_m[i])
            # Gamma^{x_l}_{x_j y_i} (l = i)
            G[i, j, m + i] += (s / 2.0) * y[j]
            G[i, m + i, j] += (s / 2.0) * y[j]
            # Gamma^{z_a}_{x_j y_i}
            val = 0.5 * (s * yi * y[j] - (i == j))
            G[2 * m:, j, m + i] += val
            G[2 * m:, m + i, j] += val
        for a in range(s):
            # Gamma^{y_i}_{x_i z_a}
            G[m + i, i, 2 * m + a] += 0.5
            G[m + i, 2 * m + a, i] += 0.5
            # Gamma^{x_i}_{y_i z_a}
            G[i, m + i, 2 * m + a] += -0.5
            G[i, 2 * m + a, m + i] += -0.5
            # Gamma^{z_b}_{y_i z_a}
            G[2 * m:, m + i, 2 * m + a] += -0.5 * yi
            G[2 * m:, 2 * m + a, m + i] += -0.5 * yi
    return G


def christoffel_fd(params: ModelParams, p, h: float = 1e-4,
                   richardson: bool = False) -> np.ndarray:
    """Finite-difference Christoffel symbols (4th-order stencil); oracle only.

    richardson=True combines evaluations at steps h and h/2 to cancel the
    leading truncation term (two extra orders of accuracy).
    """
    n = params.dim
    coords = p.coords if isinstance(p, Point) else np.asarray(p, dtype=float)

    def metric_gradient(step):
        dG = np.zeros((n, n, n))  # dG[a] = d g / d x_a
        for a in range(n):
            e = np.zeros(n)
            e[a] = 1.0
            dG[a] = (metric_matrix(params, coords - 2 * step * e)
                     - 8 * metric_matrix(params, coords - step * e)
                     + 8 * metric_matrix(params, coords + step * e)
                     - metric_matrix(params, coords + 2 * step * e)) / (12 * step)
        return dG

    dG = metric_gradient(h)
    if richardson:
        dG = (16.0 * metric_gradient(h / 2) - dG) / 15.0
    Gi = np.linalg.inv(metric_matrix(params, coords))
    # Gamma^c_ab = (1/2) g^{cd} (d_a g_bd + d_b g_ad - d_d g_ab)
    term = np.zeros((n, n, n))
    for a in range(n):
        for b in range(n):
            term[:, a, b] = dG[a][b, :] + dG[b][a, :] - dG[:, a, b]
    return 0.5 * np.einsum("cd,dab->cab", Gi, term)


# ---------------------------------------------------------------------------
# frame components and the exact connection along curves
# ---------------------------------------------------------------------------

def coords_to_frame(params: ModelParams, v: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Coordinate components -> frame components (A | B | C) at y-coords y.

    A_i = v_{y_i}/2 (on X_i), B_i = v_{x_i}/2 (on X_{m+i}),
    C_alpha = eta_alpha(v) (on xi_alpha).  Vectorized over leading axes.
    """
    m = params.m
    out = np.empty_like(v)
    out[..., :m] = v[..., m:2 * m] / 2.0
    out[..., m:2 * m] = v[..., :m] / 2.0
    out[..., 2 * m:] = (v[..., 2 * m:] - np.sum(y * v[..., :m], axis=-1, keepdims=True)) / 2.0
    return out


def frame_to_coords(params: ModelParams, w: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Frame components (A | B | C) -> coordinate components at y-coords y."""
    m = params.m
    A, B, C = w[..., :m], w[..., m:2 * m], w[..., 2 * m:]
    out = np.empty_like(w)
    out[..., :m] = 2.0 * B
    out[..., m:2 * m] = 2.0 * A
    out[..., 2 * m:] = 2.0 * C + 2.0 * np.sum(B * y, axis=-1, keepdims=True)
    return out


def phi_frame(params: ModelParams, w: np.ndarray) -> np.ndarray:
    """phi in frame components: (A, B, C) -> (-B, A, 0)."""
    m, s = params.m, params.s
    out = np.empty_like(w)
    out[..., :m] = -w[..., m:2 * m]
    out[..., m:2 * m] = w[..., :m]
    out[..., 2 * m:] = 0.0
    return out


def connection_term(params: ModelParams, t_frame: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Bilinear connection part Phi(T, W) of nabla_T W in frame components.

    nabla_T W = dW/dt + Phi(T, W) along any curve with tangent T, where

        Phi_A = S B + Ctot sigma
        Phi_B = -S A - Ctot tau
        Phi_C = <B, tau> - <A, sigma>       (same value for every alpha)

    with T = (tau | sigma | s), S = sum s_alpha, Ctot = sum C_alpha.
    """
    m = params.m
    tau, sig, sv = t_frame[..., :m], t_frame[..., m:2 * m], t_frame[..., 2 * m:]
    A, B, C = w[..., :m], w[..., m:2 * m], w[..., 2 * m:]
    S = np.sum(sv, axis=-1, keepdims=True)
    Ctot = np.sum(C, axis=-1, keepdims=True)
    out = np.empty_like(w)
    out[..., :m] = S * B + Ctot * sig
    out[..., m:2 * m] = -S * A - Ctot * tau
    out[..., 2 * m:] = np.sum(B * tau - A * sig, axis=-1, keepdims=True)
    return out


def covariant_derivative(params: ModelParams, curve, field, t: float,
                         h: float = 1e-4) -> Tangent:
    """nabla_T(field) at parameter t along a curve.

    Parameters
    ----------
    curve : either a callable t -> coordinates (length 2m+s), or a single
        curve sample (Point, velocity: Tangent) at parameter t.  With a
        callable the derivative is taken on frame components and the exact
        frame connection is used; with a sample, the field's coordinate
        components are differenced in t and the analytic Christoffel
        symbols supply the connection at the sample point.
    field : callable t -> coordinate components of the field at curve(t)
    t : evaluation parameter
    h : finite-difference step for the 4th-order stencils.
    """
    if not callable(curve):
        point, velocity = curve
        if isinstance(velocity, Tangent):
            _check_params(params, velocity)
            vel = velocity.components
        else:
            vel = np.asarray(velocity, dtype=float)
        coords = point.coords if isinstance(point, Point) else np.asarray(point, dtype=float)
        wvals = [np.asarray(field(tt), dtype=float)
                 for tt in (t - 2 * h, t - h, t + h, t + 2 * h)]
        w_dot = (wvals[0] - 8 * wvals[1] + 8 * wvals[2] - wvals[3]) / (12 * h)
        Gam = christoffel(params, coords)
        out = w_dot + np.einsum("cab,a,b->c", Gam, vel,
                                np.asarray(field(t), dtype=float))
        return Tangent(Point(coords), out)

    p = np.asarray(curve(t), dtype=float)
    y = p[params.m:2 * params.m]
    vel = (np.asarray(curve(t - 2 * h)) - 8 * np.asarray(curve(t - h))
           + 8 * np.asarray(curve(t + h)) - np.asarray(curve(t + 2 * h))) / (12 * h)
    t_frame = coords_to_frame(params, vel, y)

    def wf(tt):
        pt = np.asarray(curve(tt), dtype=float)
        return coords_to_frame(params, np.asarray(field(tt), dtype=float),
                               pt[params.m:2 * params.m])

    w_dot = (wf(t - 2 * h) - 8 * wf(t - h) + 8 * wf(t + h) - wf(t + 2 * h)) / (12 * h)
    out = w_dot + connection_term(params, t_frame, wf(t))
    return Tangent(Point(p), frame_to_coords(params, out, y))


# ---------------------------------------------------------------------------
# curvature tensor: closed form and finite-difference oracle
# ---------------------------------------------------------------------------

def curvature_frame(params: ModelParams, X: np.ndarray, Y: np.ndarray,
                    Z: np.ndarray) -> np.ndarray:
    """R(X,Y)Z of the S-space form in frame components (c = -3s).

    The closed form only involves phi, eta_alpha, xi_alpha and g, all of
    which are frame-algebraic: eta_alpha(W) = C_alpha, g = dot product,
    phi = (A,B,C) -> (-B,A,0).  Vectorized over leading axes.
    """
    m, s = params.m, params.s
    c = params.c
    ebar = lambda W: np.sum(W[..., 2 * m:], axis=-1, keepdims=True)
    phX, phY, phZ = (phi_frame(params, W) for W in (X, Y, Z))
    dot = lambda U, V: np.sum(U * V, axis=-1, keepdims=True)

    def phi2(W):
        # phi^2 W = -W + sum_alpha eta_alpha(W) xi_alpha: kill the xi part
        out = -W.copy()
        out[..., 2 * m:] = 0.0
        return out

    xibar = _xibar(params, X)

    eX, eY, eZ = ebar(X), ebar(Y), ebar(Z)
    out = (eX * eZ) * phi2(Y) - (eY * eZ) * phi2(X)
    out += (-dot(phX, phZ) * eY + dot(phY, phZ) * eX) * xibar
    coef1 = (c + 3 * s) / 4.0
    if coef1 != 0.0:
        out += coef1 * (-dot(phY, phZ) * phi2(X) + dot(phX, phZ) * phi2(Y))
    coef2 = (c - s) / 4.0
    out += coef2 * (dot(X, phZ) * phY - dot(Y, phZ) * phX + 2.0 * dot(X, phY) * phZ)
    return out


def _xibar(params: ModelParams, like: np.ndarray) -> np.ndarray:
    """sum_alpha xi_alpha in frame components, broadcast like `like`."""
    m, s = params.m, params.s
    xb = np.zeros(like.shape[:-1] + (params.dim,))
    xb[..., 2 * m:] = 1.0
    return xb


def curvature_model(params: ModelParams, X: Tangent, Y: Tangent, Z: Tangent) -> Tangent:
    """Closed-form R(X,Y)Z at the common base point (coordinate components)."""
    for v in (X, Y, Z):
        _check_params(params, v)
    _same_base(X, Y)
    _same_base(X, Z)
    y = point_y(params, X.base)
    Xf, Yf, Zf = (coords_to_frame(params, v.components, y) for v in (X, Y, Z))
    out = curvature_frame(params, Xf, Yf, Zf)
    return Tangent(X.base, frame_to_coords(params, out, y))


def curvature_numeric(params: ModelParams, X_field, Y_field, Z_field, p,
                      h: float = 1e-3) -> Tangent:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z by FD.

    X_field, Y_field, Z_field are callables point-coords -> coordinate
    components.  Independent oracle for `curvature_model`: directional
    derivatives use 4th-order central stencils, the connection uses the
    analytic Christoffel symbols.

    Raises ValueError if h is small enough to hit cancellation (h < 1e-7).
    """
    if h < 1e-7:
        raise ValueError(f"step h={h} too small: cancellation would dominate")
    coords = p.coords if isinstance(p, Point) else np.asarray(p, dtype=float)

    def nabla(VF, WF):
        # returns a callable point -> components of nabla_V W
        def inner(q):
            q = np.asarray(q, dtype=float)
            V = np.asarray(VF(q), dtype=float)
            dW = np.zeros((len(q), len(q)))
            for a in range(len(q)):
                e = np.zeros(len(q))
                e[a] = h
                dW[a] = (np.asarray(WF(q - 2 * e)) - 8 * np.asarray(WF(q - e))
                         + 8 * np.asarray(WF(q + e)) - np.asarray(WF(q + 2 * e))) / (12 * h)
            Gam = christoffel(params, q)
            return V @ dW + np.einsum("cab,a,b->c", Gam, V, np.asarray(WF(q)))
        return inner

    def bracket(q):
        q = np.asarray(q, dtype=float)
        out = np.zeros(len(q))
        for a in range(len(q)):
            e = np.zeros(len(q))
            e[a] = h
            dY = (np.asarray(Y_field(q - 2 * e)) - 8 * np.asarray(Y_field(q - e))
                  + 8 * np.asarray(Y_field(q + e)) - np.asarray(Y_field(q + 2 * e))) / (12 * h)
            dX = (np.asarray(X_field(q - 2 * e)) - 8 * np.asarray(X_field(q - e))
                  + 8 * np.asarray(X_field(q + e)) - np.asarray(X_field(q + 2 * e))) / (12 * h)
            out += X_field(q)[a] * dY - Y_field(q)[a] * dX
        return out

    nYZ = nabla(Y_field, Z_field)
    nXZ = nabla(X_field, Z_field)
    first = nabla(X_field, nYZ)(coords)
    second = nabla(Y_field, nXZ)(coords)
    br = bracket(coords)
    Gam = christoffel(params, coords)
    dZ = np.zeros((len(coords), len(coords)))
    for a in range(len(coords)):
        e = np.zeros(len(coords))
        e[a] = h
        dZ[a] = (np.asarray(Z_field(coords - 2 * e)) - 8 * np.asarray(Z_field(coords - e))
                 + 8 * np.asarray(Z_field(coords + e)) - np.asarray(Z_field(coords + 2 * e))) / (12 * h)
    nbrZ = br @ dZ + np.einsum("cab,a,b->c", Gam, br, np.asarray(Z_field(coords)))
    return Tangent(Point(coords), first - second - nbrZ)


# ---------------------------------------------------------------------------
# structure verification report
# ---------------------------------------------------------------------------

@dataclass
class StructureReport:
    """Max residual per framed-metric-structure identity over random samples."""

    params: ModelParams
    samples: int
    seed: int
    residuals: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def as_dict(self) -> dict:
        return {
            "m": self.params.m,
            "s": self.params.s,
            "samples": self.samples,
            "seed": self.seed,
            "residuals": dict(self.residuals),
            "max_residual": self.max_residual,
        }


def verify_structure(params: ModelParams, samples: int = 100, seed: int = 0,
                     metric_perturbation: float = 0.0) -> StructureReport:
    """Evaluate every framed-metric-structure identity at random samples.

    Identities checked (all should vanish identically in the model):
      phi^2 v + v - sum eta_alpha(v) xi_alpha,
      eta_alpha(phi v),
      eta_alpha(xi_beta) - delta_ab,
      phi(xi_alpha),
      g(u,v) - g(phi u, phi v) - sum eta_alpha(u) eta_alpha(v),
      eta_alpha(v) - g(v, xi_alpha),
      d eta_alpha(u,v) - g(u, phi v),
    with the half-normalized exterior derivative
    d eta(u,v) = (u(eta(v)) - v(eta(u)) - eta([u,v]))/2, evaluated exactly
    for constant-coefficient extensions of the sampled vectors.

    metric_perturbation is a test hook: it adds that multiple of the identity
    to the metric matrix inside the compatibility checks (negative control).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    m, s = params.m, params.s
    rng = np.random.default_rng(seed)
    keys = ["phi_square", "eta_phi", "eta_xi", "phi_xi", "metric_compat",
            "eta_is_g_xi", "deta"]
    res = {k: 0.0 for k in keys}

    for _ in range(samples):
        p = rng.uniform(-1.0, 1.0, params.dim)
        y = p[m:2 * m]
        u = rng.uniform(-1.0, 1.0, params.dim)
        v = rng.uniform(-1.0, 1.0, params.dim)
        G = metric_matrix(params, p) + metric_perturbation * np.eye(params.dim)

        phiv = phi_components(params, v, y)
        phi2v = phi_components(params, phiv, y)
        etas_v = np.array([eta_components(params, a + 1, v, y) for a in range(s)])
        xi_sum = np.zeros(params.dim)
        for a in range(s):
            xi = np.zeros(params.dim)
            xi[2 * m + a] = 2.0
            xi_sum += etas_v[a] * xi
            res["phi_xi"] = max(res["phi_xi"],
                                np.max(np.abs(phi_components(params, xi, y))))
            res["eta_phi"] = max(res["eta_phi"],
                                 abs(eta_components(params, a + 1, phiv, y)))
            res["eta_is_g_xi"] = max(res["eta_is_g_xi"],
                                     abs(etas_v[a] - float(v @ G @ xi)))
            for b in range(s):
                xib = np.zeros(params.dim)
                xib[2 * m + b] = 2.0
                res["eta_xi"] = max(res["eta_xi"],
                                    abs(eta_components(params, a + 1, xib, y) - (a == b)))
        res["phi_square"] = max(res["phi_square"], np.max(np.abs(phi2v + v - xi_sum)))

        phiu = phi_components(params, u, y)
        etas_u = np.array([eta_components(params, a + 1, u, y) for a in range(s)])
        compat = float(u @ G @ v) - float(phiu @ G @ phiv) - float(etas_u @ etas_v)
        res["metric_compat"] = max(res["metric_compat"], abs(compat))

        # d eta for constant extensions: [u,v]=0 and
        # u(eta_a(v)) = -<u_y, v_x>/2 exactly.
        deta = 0.5 * (-0.5 * np.dot(u[m:2 * m], v[:m]) + 0.5 * np.dot(v[m:2 * m], u[:m]))
        res["deta"] = max(res["deta"], abs(deta - float(u @ G @ phiv)))

    return StructureReport(params=params, samples=samples, seed=seed, residuals=res)
