"""Slant diagnostics: contact angles, the constants a and b, and the
decomposition of phi T along the Frenet frame.

For a unit-speed curve with tangent T, the contact angles are defined by
eta_alpha(T) = cos(theta_alpha) constant.  Derived scalars:

    a = sum cos^2 theta_alpha        (in [0, s], < 1 for non-geodesic slant)
    b = sum cos theta_alpha
    V = sum cos(theta_alpha) xi_alpha

phi T has squared norm 1 - a.  The master equations read it only through
g(phiT, V2..V4) and |phiT|^2; its angle beta is defined by

    g(phiT, V2) = sqrt(1-a) cos(beta).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .curve import CurveTrace, FrenetData
from .manifold import ModelParams, phi_frame

__all__ = [
    "SlantProfile",
    "PhiTDecomposition",
    "contact_angles",
    "phiT_decomposition",
]


def _arccos_clipped(x: np.ndarray, what: str) -> np.ndarray:
    """arccos of x clipped into [-1, 1]; a value the clip moves is logged.

    The warning goes to the "sspaceform.slant" logger with the largest
    excess |x| - 1.  The package logger "sspaceform" gets a NullHandler,
    so nothing is printed unless the application configures logging.
    `logging` is imported only here, when a clip happens, so importing the
    package loads no logging module.
    """
    excess = np.abs(x) - 1.0
    moved = excess > 0.0
    if np.any(moved):
        import logging
        package = logging.getLogger("sspaceform")
        if not package.handlers:
            package.addHandler(logging.NullHandler())
        logging.getLogger(__name__).warning(
            "%s: clipped %d of %d arccos arguments into [-1, 1]; "
            "largest excess |x| - 1 = %.3e", what, int(np.count_nonzero(moved)),
            moved.size, float(np.max(excess[moved])))
    return np.arccos(np.clip(x, -1.0, 1.0))


@dataclass
class SlantProfile:
    """Contact angles and derived constants of a (candidate) slant curve."""

    params: ModelParams
    thetas: np.ndarray              # radians, per alpha
    a: float                        # sum cos^2 theta
    b: float                        # sum cos theta
    constancy_deviation: float      # max |eta_alpha(T) - cos theta_alpha|
    is_slant: bool
    eta_samples: np.ndarray = field(repr=False, default=None)


def contact_angles(trace: CurveTrace, tolerance: float | None = None) -> SlantProfile:
    """Measure the contact angles of a unit-speed trace.

    theta_alpha = arccos(mean eta_alpha(T)); the curve is flagged slant when
    the worst per-sample deviation from the mean stays below `tolerance`
    (default 1e-5, or 1e-3 for `trace.sampled` traces, whose derivatives
    were differenced from positions).
    """
    if tolerance is None:
        tolerance = 1e-3 if trace.sampled else 1e-5
    # eta_alpha(T) = C_alpha, one sample per row
    etas = trace.tangent_frame()[2 * trace.params.m:].T.copy()
    means = etas.mean(axis=0)
    deviation = float(np.max(np.abs(etas - means)))
    thetas = _arccos_clipped(means, "contact angles (mean eta_alpha(T))")
    cos = np.cos(thetas)
    return SlantProfile(
        params=trace.params,
        thetas=thetas,
        a=float(np.sum(cos ** 2)),
        b=float(np.sum(cos)),
        constancy_deviation=deviation,
        is_slant=bool(deviation <= tolerance),
        eta_samples=etas,
    )


@dataclass
class PhiTDecomposition:
    """Projection of phi T onto the Frenet frame, with the angle beta."""

    p2: np.ndarray                  # g(phiT, V2)
    p3: np.ndarray                  # g(phiT, V3), zeros if r < 3
    p4: np.ndarray                  # g(phiT, V4), zeros if r < 4
    beta: np.ndarray                # arccos(p2 / sqrt(1-a)) in [0, pi]
    phiT_norm2: np.ndarray          # |phiT|^2 per sample


def phiT_decomposition(trace: CurveTrace, fd: FrenetData,
                       profile: SlantProfile) -> PhiTDecomposition:
    """Inner products of phi T with V2..V4, |phi T|^2 and the angle beta.

    beta is reported in [0, pi] (arccos branch); the signs of the sin-beta
    terms are those of the measured p3, p4.  When 1 - a < 1e-12, phi T
    vanishes identically: the projections are zero and beta is nan.
    """
    if fd.order < 2:
        raise ValueError("phi T decomposition needs osculating order >= 2")
    params = trace.params
    one_minus_a = 1.0 - profile.a
    n = trace.n
    phiT = phi_frame(params, trace.tangent_frame()).T.copy()   # (n, dim)
    phiT_norm2 = np.einsum("nd,nd->n", phiT, phiT)
    if one_minus_a < 1e-12:
        zeros = np.zeros(n)
        return PhiTDecomposition(p2=zeros, p3=zeros.copy(), p4=zeros.copy(),
                                 beta=np.full(n, np.nan),
                                 phiT_norm2=phiT_norm2)

    def proj(i):
        if fd.order >= i + 1:
            return np.einsum("nd,nd->n", phiT, fd.frames[i])
        return np.zeros(n)

    p2, p3, p4 = proj(1), proj(2), proj(3)
    beta = _arccos_clipped(p2 / np.sqrt(one_minus_a),
                           "beta (g(phiT, V2) / sqrt(1-a))")
    return PhiTDecomposition(p2=p2, p3=p3, p4=p4, beta=beta,
                             phiT_norm2=phiT_norm2)
