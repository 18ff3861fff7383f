"""Numerical toolkit for theta_alpha-slant curves and f-biharmonicity in
the coordinate-model S-space form R^(2m+s)(-3s).

`import sspaceform` binds only `__version__`; import a submodule by name.

Submodules
----------
manifold    frame layer: frame components, phi, connection, curvature
curve       curve traces, exact covariant chains, Frenet apparatus
csvformat   Python's "%.16e" bytes from a vectorized kernel that formats a
            constant column once (imported by curve.write_csv on its
            first call)
slant       contact angles, slant constants, phi T decomposition
biharmonic  bitension fields, master equations, verdict, case label I-IV
odesol      the governing autonomous ODE: closed forms vs RK4 oracle
synth       curve synthesis (prescribed-curvature Frenet flow, steering)
cli         verify / synth / ode command-line front end
findings    the paper's analyses: worked-example realizability, the case
            checkers I-IV, nabla phiT identity, closed-form real domains
            (tests and demos only)
oracles     exact sympy model built from g (tests and demos only)
"""
__version__ = "0.1.0"
