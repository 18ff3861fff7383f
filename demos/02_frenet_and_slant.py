#!/usr/bin/env python3
"""Frenet apparatus and slant diagnostics on three reference curves:
a geodesic, a circle in a flat slice, and the Legendre catenary.

Run:  python demos/02_frenet_and_slant.py
"""
import numpy as np

from sspaceform import synth
from sspaceform.curve import frenet_apparatus, unit_speed_check
from sspaceform.findings import nabla_phiT_check
from sspaceform.manifold import ModelParams
from sspaceform.slant import contact_angles

params = ModelParams(m=2, s=2)

print("=" * 72)
print("1. Geodesic: integral curve of xi_1")
print("=" * 72)
geo = synth.geodesic_trace(params)
fd = frenet_apparatus(geo)
prof = contact_angles(geo)
print(f"unit-speed deviation: {unit_speed_check(geo):.2e}")
print(f"osculating order r = {fd.order} (geodesic)")
print(f"contact angles: {np.degrees(prof.thetas)} deg,  a = {prof.a:.3f}")

print()
print("=" * 72)
print("2. Circle of radius 2 in the flat (y1, y2) slice")
print("=" * 72)
circle = synth.flat_circle_trace(params, radius=2.0)
fd = frenet_apparatus(circle)
print(f"order r = {fd.order}, k1 = {fd.curvatures[0][0]:.6f} "
      f"(expected 2/R = 1), constant to "
      f"{np.max(np.abs(fd.curvatures[0] - 1.0)):.2e}")

print()
print("=" * 72)
print("3. The Legendre catenary: y2 = 2 cosh(y1/2) in the flat y-plane")
print("=" * 72)
cat = synth.legendre_catenary(params)
fd = frenet_apparatus(cat)
prof = contact_angles(cat)
print(f"order r = {fd.order}")
print(f"k1 vs 1/(1+t^2): max deviation "
      f"{np.max(np.abs(fd.curvatures[0] - 1 / (1 + cat.ts ** 2))):.2e}")
print(f"contact angles: all pi/2 (Legendre), deviation "
      f"{prof.constancy_deviation:.2e}")

# The structural identity for nabla_T(phi T) holds on any slant curve.
rep = nabla_phiT_check(cat, fd, prof)
print(f"nabla_T(phi T) identity residual: {rep['max_residual']:.2e}")

print()
print("=" * 72)
print("4. Prescribed-curvature synthesis round trip")
print("=" * 72)
# Integrate the Frenet system with a prescribed k1 and re-measure it.
k0 = 0.8
period = 2 * np.pi / k0
frame0 = np.zeros((2, params.dim))
frame0[0, 0] = 1.0
frame0[1, 1] = 1.0
spec = synth.SynthesisSpec(params=params, p0=np.zeros(params.dim),
                           frame0=frame0, curvatures=[lambda t: k0],
                           window=(0.0, period), step=period / 8000)
trace, _ = synth.integrate_frenet_system(spec)
fd = frenet_apparatus(trace)
print(f"prescribed k1 = {k0}, re-measured max deviation "
      f"{np.max(np.abs(fd.curvatures[0] - k0)):.2e}")
print(f"curve closes after one period 2 pi/k1: endpoint gap "
      f"{np.max(np.abs(trace.points[-1] - trace.points[0])):.2e}")
