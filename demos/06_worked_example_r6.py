#!/usr/bin/env python3
"""The classical worked-example configuration in R^6(-6) -- and what the
numerics say about it.

The configuration: contact angles (pi/2, pi/3), so a = 1/4, b = 1/2;
k1 = k2 = 1/(2+t^2); k3 = (sqrt(17)/4)(2+t^2); g(phiT, V2) =
sqrt(3)/2 cos(beta) constant with cos(beta) = -sqrt(2)/6; weight
f = (2+t^2)^(3/2).  Its scalar algebra is self-consistent: the constant-
beta bracket vanishes, k1 belongs to the eps = 0 closed-form family, and
k2 k3 = sqrt(17)/4 matches |3(c-s) sin(2 beta)/8| (1-a) exactly.

What the algebra does not guarantee is an actual curve carrying this
data.  Three independent computations below show none exists.

Run:  python demos/06_worked_example_r6.py
"""
import numpy as np

from sspaceform import findings, synth
from sspaceform.curve import frenet_apparatus
from sspaceform.slant import contact_angles

cfg = synth.R6ExampleConfig()

print("=" * 72)
print("1. The scalar algebra is exact")
print("=" * 72)
for key, val in findings.r6_constants_summary().items():
    print(f"  {key:<12} {val:+.15g}")

print()
print("=" * 72)
print("2. Hard window bounds")
print("=" * 72)
rep = findings.r6_example_realizability(step=2e-3)
print(f"""Any slant curve with this data and order >= 3 must carry
eta_1(V3) = g(phiT,V2)/k2 = (sqrt(6)/12)(2+t^2) -- but |eta_1(V3)| <= 1
(Cauchy-Schwarz for unit fields), which caps the window at
|t| <= {rep['cauchy_schwarz_abs_t']:.4f}.
The complete family of curves matching the low-order data (slant angles,
k1, k2 = k1, g(phiT,V2) const) reduces to one steering angle whose
defining square root is real only for |t| <= {rep['feasible_abs_t']:.4f}.""")

print()
print("=" * 72)
print("3. Inside the feasible window the data still fails")
print("=" * 72)
print(f"configured k3(0) target: {rep['k3_target_at_0']:.6f}")
for branch in (1, -1):
    b = rep["steering_branches"][branch]
    print(f"steering branch {branch:+d}: measured k3(0) = "
          f"{b['k3_measured_at_0']:.6f}, slant deviation "
          f"{b['slant_deviation']:.1e}, k2/k1 deviation "
          f"{b['k2_over_k1_deviation']:.1e}, eq(4) residual "
          f"{b['eq4_residual']:.3f}, verdict: {b['verdict']}")
print("""Both branches realize the low-order data exactly, but the third
curvature each actually carries is far from the configured target, so
master equation (4), k2 k3 + (3(c-s)/4) g(phiT,V2) g(phiT,V4) = 0, fails
pointwise.  (The best realizations also have k4, k5 != 0: full order 6.)""")

print()
print("=" * 72)
print("4. The order-4 prescribed synthesis drifts off slant")
print("=" * 72)
spec = cfg.synthesis_spec(window=(-2.0, 2.0), step=1e-3)
trace, _ = synth.integrate_frenet_system(spec)
fd = frenet_apparatus(trace)
prof = contact_angles(trace, tolerance=1e-5)
etas = trace.tangent_frame()[4:].T
k1_rel = np.max(np.abs(fd.curvatures[0] - cfg.k1(trace.ts)) / cfg.k1(trace.ts))
print(f"""Integrating gamma' = V1 with the prescribed (k1, k2, k3) and the
admissible initial frame reproduces the curvatures (k1 relative error
{k1_rel:.1e}) -- Frenet data is whatever one prescribes.  But the contact
angles are not preserved: max |eta_1(T)| = {np.max(np.abs(etas[:, 0])):.3f},
max |eta_2(T) - 1/2| = {np.max(np.abs(etas[:, 1] - 0.5)):.3f} over [-2, 2]
(slant would need < 1e-5).  Slant-ness is a property the prescription
cannot force when the data is not self-consistent.""")

print()
print(rep["conclusion"])
