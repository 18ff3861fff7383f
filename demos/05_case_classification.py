#!/usr/bin/env python3
"""The four-case analysis of g(tau3, phi T) = 0 on measured curves, and
the case III nonexistence obstruction.

Run:  python demos/05_case_classification.py
"""
import numpy as np

from sspaceform import findings, synth
from sspaceform.biharmonic import classify_case
from sspaceform.curve import frenet_apparatus
from sspaceform.findings import case3_obstruction
from sspaceform.manifold import ModelParams
from sspaceform.slant import contact_angles, phiT_decomposition

params = ModelParams(m=2, s=2)

print("=" * 72)
print("Case labels on measured curves")
print("=" * 72)
print("""Case I  : c = s            -- unreachable here: c = -3s < 0 <= s,
                              so the model admits it only hypothetically.
Case II : g(phiT, V2) = 0
Case III: phiT parallel V2
Case IV : everything else
""")

curves = {
    "order-3 proper f-biharmonic (phiT perp V2)":
        synth.case2_order3_curve(window=(-1.5, 1.5), step=1e-3),
    "phiT-aligned curve (phiT parallel V2)":
        findings.phiT_aligned_curve(params, (np.pi / 3, np.pi / 2),
                                    lambda t: 0.3 + 0.05 * np.sin(t),
                                    window=(-1.5, 1.5)),
    "generic steered slant curve":
        synth.steered_slant_curve(params, (0.4 * np.pi, 0.6 * np.pi),
                                  lambda t: 0.4 / (1 + 0.3 * t * t),
                                  p2=-0.15, c2=1.4, window=(-1, 1)),
}
for name, tr in curves.items():
    fd = frenet_apparatus(tr)
    prof = contact_angles(tr)
    label, detail = classify_case(phiT_decomposition(tr, fd, prof), prof,
                                  params.c, params.s)
    print(f"{name}:")
    print(f"  case {label}   (max |g(phiT,V2)| = {detail.get('max_abs_p2', 0):.3e},"
          f" alignment defect = {detail.get('align_defect', 0):.3e})")

print()
print("=" * 72)
print("Case III nonexistence: the contradiction chain")
print("=" * 72)
print("""For phiT parallel V2 the structural identity
k2 = sqrt(a d^2 - a s + b^2 + 2 eps b d + s), d = k1/sqrt(1-a), combined
with k2/k1 = c2 yields a polynomial in k1 with constant coefficients.
Its constant term a s - b^2 - s = s(a-1) - b^2 is strictly negative for
0 < a < 1, so the polynomial is never identically zero: k1 is pinned to a
constant root, f = c1 k1^(-3/2) becomes constant, and the curve cannot be
proper f-biharmonic.""")

rep = case3_obstruction(0.25, 0.5, params, c2=1.0)
print(f"\n(a, b) = (1/4, 1/2), c2 = 1: branch = {rep['branch']}")
print(f"  coefficients (A, B, C) = {tuple(round(x, 4) for x in rep['coefficients'][1.0])}")
print(f"  constant k1 roots: {[round(r, 4) for r in rep['constant_k1_roots'][1.0]]}")

scan = findings.case3_grid_scan(params)
print(f"\n10 x 10 (a, b) grid, both signs of eps: "
      f"{len(scan['cells'])} cells, all obstructed: {scan['all_obstructed']}")

rep = case3_obstruction(1.0, 0.0, params)
print(f"formal terminal cell a = 1, b = 0: branch = {rep['branch']}")

print()
print("=" * 72)
print("The structural k2 identity, measured")
print("=" * 72)
tr = curves["phiT-aligned curve (phiT parallel V2)"]
fd = frenet_apparatus(tr)
prof = contact_angles(tr)
d = fd.curvatures[0] / np.sqrt(1 - prof.a)
pred = np.sqrt(prof.a * d ** 2 - prof.a * params.s + prof.b ** 2
               + 2 * prof.b * d + params.s)
err = np.max(np.abs(fd.curvatures[1] - pred)[20:-20])
print(f"measured k2 vs sqrt(a d^2 - a s + b^2 + 2 b d + s): "
      f"max deviation {err:.2e}")
