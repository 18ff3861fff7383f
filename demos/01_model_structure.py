#!/usr/bin/env python3
"""Tour of the coordinate model R^(2m+s)(-3s): the exact structure tensors,
the Levi-Civita connection and the curvature tensor derived from g in
sympy, and the frame layer the pipeline uses, checked against them.

Run:  python demos/01_model_structure.py
"""
import numpy as np
import sympy as sp

from sspaceform import manifold as mf
from sspaceform.manifold import ModelParams
from sspaceform.oracles import exact_model, nabla, structure_identities

print("=" * 72)
print("The model space R^6(-6): m = 2, s = 2, phi-sectional curvature -6")
print("=" * 72)

params = ModelParams(m=2, s=2)
M = exact_model(params)
print(f"dimension 2m+s = {params.dim}, c = -3s = {params.c}")
print("metric g in (x1, x2, y1, y2, z1, z2):")
sp.pprint(M.g, use_unicode=False)

# Every framed-metric-structure identity is polynomial in the coordinates
# and the sampled vectors, so it can be expanded to exactly zero.
print("\nstructure identities, expanded exactly:")
for name, expr in structure_identities(M).items():
    print(f"  {name:<14} {'0' if expr.is_zero_matrix else expr}")

# The Christoffel symbols come from g by the Levi-Civita formula; they are
# polynomial in y.
print("\nsome Christoffel symbols derived from g:")
x = M.coords
for c, a, b in [(2, 0, 0), (0, 0, 2), (4, 0, 2), (2, 0, 4)]:
    print(f"  Gamma^{x[c]}_({x[a]} {x[b]}) = {M.gamma[c, a, b]}")

# nabla xi_alpha = -phi, exactly, for a generic constant vector v.
v = sp.Matrix(sp.symbols("v0:6", real=True))
print("\nnabla_v xi_1 + phi v =", sp.expand(nabla(M, v, M.xi[0]) + M.phi * v).T)

# In the frame (X_i, phi X_i, xi_alpha) the connection coefficients are
# constants; the frame layer's connection_term carries exactly these.
C = np.array(M.frame_connection.tolist(), dtype=float)
eye = np.eye(params.dim)
table = np.array([[mf.connection_term(params, eye[i], eye[j])
                   for j in range(params.dim)] for i in range(params.dim)])
print(f"\nconnection_term vs the exact frame connection: "
      f"max difference {np.max(np.abs(table - C)):.1e}")

# Curvature: closed form in frame components vs R derived from g.
frame, riemann = M.numeric("frame"), M.numeric("riemann")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(20):
    p = rng.uniform(-1, 1, params.dim)
    X, Y, Z = rng.uniform(-1, 1, (3, params.dim))
    E, R = frame(p), riemann(p)
    exact = np.linalg.solve(E, np.einsum("dcab,a,b,c->d", R, E @ X, E @ Y, E @ Z))
    got = mf.curvature_frame(params, X, Y, Z)
    worst = max(worst, np.max(np.abs(got - exact)) / np.max(np.abs(exact)))
print(f"curvature_frame vs R derived from g (20 tuples): worst relative {worst:.2e}")

# phi-sectional curvature: for unit X orthogonal to all xi_alpha the plane
# {X, phi X} has sectional curvature exactly c = -3s.
X = rng.uniform(-1, 1, params.dim)
X[4:] = 0.0                                    # eta_alpha(X) = 0
X /= np.linalg.norm(X)
pX = mf.phi_frame(params, X)
sec = mf.curvature_frame(params, X, pX, pX) @ X
print(f"phi-sectional curvature of a random phi-section: {sec:.12f}")
