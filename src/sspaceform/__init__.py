"""Numerical toolkit for theta_alpha-slant curves and f-biharmonicity in
the coordinate-model S-space form R^(2m+s)(-3s).

Submodules
----------
manifold    frame layer: frame components, phi, connection, curvature
curve       curve traces, exact covariant chains, Frenet apparatus
csvformat   Python's "%.16e" bytes from a vectorized kernel (imported by
            curve.write_csv on its first call)
slant       contact angles, slant constants, phi T decomposition
biharmonic  bitension fields, master equations, verdict, case label I-IV
odesol      the governing autonomous ODE: closed forms vs RK4 oracle
synth       curve synthesis (prescribed-curvature Frenet flow, steering)
cli         verify / synth / ode command-line front end
findings    the paper's analyses: worked-example realizability, the case
            checkers I-IV, nabla phiT identity, closed-form real domains
            (tests and demos only; not imported here)
oracles     exact sympy model built from g (tests and demos only; not
            imported here)
"""
from .manifold import ModelParams
from .curve import CurveTrace, FrenetData, frenet_apparatus, unit_speed_check
from .slant import SlantProfile, contact_angles, phiT_decomposition
from .biharmonic import BiharmonicReport, WeightFunction, check_conditions
from .odesol import OdeSolutionSpec, k1_closed_form, numeric_solution_oracle
from .synth import R6ExampleConfig, SynthesisSpec, integrate_frenet_system

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "CurveTrace", "FrenetData", "frenet_apparatus", "unit_speed_check",
    "SlantProfile", "contact_angles", "phiT_decomposition",
    "BiharmonicReport", "WeightFunction", "check_conditions",
    "OdeSolutionSpec", "k1_closed_form", "numeric_solution_oracle",
    "R6ExampleConfig", "SynthesisSpec", "integrate_frenet_system",
    "__version__",
]
