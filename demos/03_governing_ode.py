#!/usr/bin/env python3
"""The autonomous ODE behind every classification case:

    3 (y')^2 - 2 y y'' = 4 y^2 [(1 + c2^2) y^2 - eps lam^2]

Closed-form candidates are validated against the residual (the ground
truth) and against a fixed-step RK4 oracle.  The literal case (i)/(ii)
formulas turn out to have empty real interior domain; the eps = 0 family
(case iii) is exact.

Run:  python demos/03_governing_ode.py
"""
import numpy as np

from sspaceform import findings, odesol

print("=" * 72)
print("Case (iii): the eps = 0 family is exact")
print("=" * 72)
spec = odesol.OdeSolutionSpec(epsilon=0, lam=0.0, c2=1.0, c3=4.0, c4=0.0)
ts = np.linspace(-2, 2, 2001)
y, yp, ypp = odesol.case_iii_profile(spec, ts)
res = odesol.ode_residual(y, spec, yp=yp, ypp=ypp)
print(f"(c2, c3, c4) = (1, 4, 0): y = 1/(2+t^2), max deviation "
      f"{np.max(np.abs(y - 1 / (2 + ts ** 2))):.2e}")
print(f"ODE residual (both sides equal 8/(2+t^2)^4): {res['max_residual']:.2e}")

print()
print("=" * 72)
print("Cases (i)/(ii): the printed formulas are nowhere real")
print("=" * 72)
for eps, c3, label in ((1, 1.0, "i"), (-1, 2.0, "ii")):
    s = odesol.OdeSolutionSpec(epsilon=eps, lam=1.0, c2=1.0, c3=c3, c4=0.0)
    rep = findings.real_domain_report(s, window=(-2, 2), n=4001)
    print(f"case ({label}): real fraction on [-2,2] = {rep['real_fraction']:.4f}"
          f"  (nowhere real: {rep['nowhere_real']})")
print("""
For case (i), N = lam^2 sec^2(u)[-(1+c2^2+c3^2) sec^2(u) + (1+c2^2-c3^2)]
satisfies N <= -2 c3^2 lam^2 sec^2(u) < 0 whenever c3 != 0 (sec^2 >= 1),
and N <= 0 with isolated zeros when c3 = 0 -- where the denominator D
vanishes too.  Case (ii) is nonpositive the same way.  In those regimes
the RK4 oracle is the working tool:""")

print("=" * 72)
print("The RK4 oracle")
print("=" * 72)
# It reproduces the known closed form ...
sol = odesol.numeric_solution_oracle(spec, y0=0.5, y0prime=0.0,
                                     window=(-2, 2), step=1e-3)
print(f"oracle vs closed form (case iii): "
      f"{np.max(np.abs(sol.y - 1 / (2 + sol.ts ** 2))):.2e}")

# ... converges at 4th order ...
def err(step):
    s = odesol.numeric_solution_oracle(spec, 0.5, 0.0, window=(0, 2), step=step)
    return np.max(np.abs(s.y - 1 / (2 + s.ts ** 2)))

print(f"error ratio under step halving: {err(2e-2) / err(1e-2):.1f} "
      f"(4th order: ~16)")

# ... and explores the eps = +1 regime where the printed formula is not
# real.  The first integral C = [(y')^2 + 4(1+c2^2)y^4 + 4 eps lam^2 y^2]/y^3
# is conserved along genuine solutions and doubles as a quality metric.
spec1 = odesol.OdeSolutionSpec(epsilon=1, lam=1.0, c2=0.5, c3=1.0, c4=0.0)
sol1 = odesol.numeric_solution_oracle(spec1, y0=0.9, y0prime=0.1,
                                      window=(-2, 2), step=5e-4)
C = odesol.first_integral(sol1.y, sol1.yp, spec1)
print(f"eps = +1 trajectory: y in [{sol1.y.min():.4f}, {sol1.y.max():.4f}], "
      f"first-integral drift {np.max(np.abs(C - C[len(C) // 2])):.2e}")
y_const = spec1.lam / np.sqrt(1 + spec1.c2 ** 2)
solc = odesol.numeric_solution_oracle(spec1, y_const, 0.0, window=(-2, 2),
                                      step=1e-3)
print(f"constant solution y = lam/sqrt(1+c2^2): stays within "
      f"{np.max(np.abs(solc.y - y_const)):.2e}")
