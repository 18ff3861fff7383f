#!/usr/bin/env python3
"""Two genuine proper f-biharmonic slant curves in R^6(-6), verified end
to end against the five master equations.

1. The Legendre catenary (order 2, all contact angles pi/2):
   k1 = 1/(1+t^2), f = (1+t^2)^(3/2).
2. An order-3 curve with contact angles (pi/3, 2pi/3), a = 1/2, b = 0,
   k1 = k2 = 1/(2+t^2), k3 = 0, f = (2+t^2)^(3/2).  Its existence pivots
   on the degenerate parameter point c2 = sqrt(a/(1-a)) where the third
   curvature vanishes identically.

Run:  python demos/04_proper_f_biharmonic.py
"""
import numpy as np

from sspaceform import odesol, synth
from sspaceform.biharmonic import check_conditions
from sspaceform.curve import frenet_apparatus
from sspaceform.manifold import ModelParams
from sspaceform.slant import contact_angles

params = ModelParams(m=2, s=2)


def k1_catenary(ts):
    u = 1.0 + ts ** 2
    return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 2.0) / u ** 3


def k1_case2(ts):
    u = 2.0 + ts ** 2
    return 1.0 / u, -2.0 * ts / u ** 2, (6.0 * ts ** 2 - 4.0) / u ** 3


def show(title, trace, k1_callable):
    print("=" * 72)
    print(title)
    print("=" * 72)
    fd = frenet_apparatus(trace)
    prof = contact_angles(trace)
    f = odesol.f_from_k1(trace.ts, *k1_callable(trace.ts), c1=1.0)
    rep = check_conditions(trace, fd, prof, f)
    print(f"order r = {fd.order}, contact angles "
          f"{np.round(np.degrees(prof.thetas), 1)} deg, "
          f"a = {prof.a:.4f}, b = {prof.b:+.4f}")
    print(f"slant constancy deviation: {prof.constancy_deviation:.2e}")
    print(f"case {rep.case}, verdict: {rep.verdict}")
    print("master equation residuals:")
    for key in ("eq1", "eq2", "eq3", "eq4", "gphiT"):
        print(f"  {key:<6} {rep.residuals[key]:.2e}")
    print(f"|tau3| max (direct covariant route): "
          f"{rep.residuals['tau3_norm']:.2e}")
    print("tau3's components vs the master equations (identity gaps):")
    for key, gap in rep.details["identity_gaps"].items():
        print(f"  {key:<6} {gap:.2e}")
    print()


show("1. Legendre catenary, f = (1+t^2)^(3/2)",
     synth.legendre_catenary(params, window=(-2, 2), n=4001), k1_catenary)

show("2. Order-3 slant curve, theta = (60, 120) deg, f = (2+t^2)^(3/2)",
     synth.case2_order3_curve(window=(-2, 2), step=1e-3), k1_case2)

print("""Note on case 2: the characterization theorems require, for an
order-3 curve of this kind, that {T, V2, V3, phiT, nabla_T phiT,
xi_1, ..., xi_s} be linearly independent (forcing dim >= 5 + s, i.e.
m >= 3).  This curve lives in dimension 6 < 7, where seven vectors are
never independent -- yet it demonstrably satisfies every master equation.
The independence side-condition fails exactly at the degenerate family
b = 0, c2^2 = a/(1-a) that this curve occupies; the verdict machinery
works from the master equations directly and is unaffected.""")
