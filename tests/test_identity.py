"""The key equation as an identity: on a slant curve the five master
equations are the components of the directly computed f-bitension field.

`tau3(fd, f).field` comes from the exact covariant chain and the
closed-form curvature tensor and differences no curvature; the master
equations come from the measured curvatures, their jet and the phi T
decomposition.  Along the measured frame the two routes agree:

    g(tau3, T) = -k1^2 eq1,   g(tau3, V2) = -k1 eq2,   g(tau3, V3) = k1 eq3,
    g(tau3, V4) = k1 eq4,     g(tau3, phi T) = gphiT,

so each term of the master equations is pinned without a golden file.
The traces run through the whole `verify` pipeline, whose report gives
the largest gap of each identity over `trace.interior`, the band the
residuals are reported on, as `details.identity_gaps`.  A term too
small on every slant trace to move a gap (k2' p3 in gphiT: a constant
p2 forces p3 = p2'/k2 = 0) is pinned against a sympy derivation from the
Frenet equations instead.
"""
import contextlib
import io
import json

import numpy as np
import pytest
import sympy as sp

from sspaceform import cli
from sspaceform.biharmonic import WeightFunction, mainprop_residuals

COMPONENTS = ("T", "V2", "V3", "V4", "phiT")

# the largest gap per component over trace.interior (m = s = 2, step 1e-3,
# default windows), as measured when this test was written; a zero is
# exact, since V3 and V4 are zero frames on a curve of order 2
MEASURED = {
    "catenary": (1.04e-11, 4.39e-10, 0.0, 0.0, 0.0),
    # eq2 = 1.0 and verdict none, but the identity still holds
    "circle": (4.44e-13, 2.05e-10, 0.0, 0.0, 0.0),
    "case2-order3": (1.41e-7, 1.05e-7, 3.00e-7, 0.0, 6.29e-12),
    # eq4 and gphiT are far from zero here, so its V4 and phi T gaps pin
    # the p2 p4 term and the out-of-span part of condition (5)
    "r6-steered": (4.43e-6, 1.45e-7, 2.98e-5, 7.67e-10, 2.95e-8),
    # sampled positions: the measured k3 (order 4) feeds the V4 gap
    "csv:case2-order3": (1.44e-4, 7.94e-8, 7.46e-8, 1.54e-4, 2.98e-7),
    "csv:r6-steered": (1.52e-4, 1.54e-7, 6.31e-7, 2.08e-10, 3.14e-8),
}
# each bound is FACTOR times its measured gap, and ZERO_BOUND for a gap
# measured as exactly zero
FACTOR = 10.0
ZERO_BOUND = 1e-12

# r6-example on -2:2 is not slant (its contact angles vary by 7.5e-2), so
# the bracket of the master equations does not describe it: its V2, V3
# and V4 gaps were measured at 7.27e-2, 1.28e-1 and 1.38e-1, spread over
# the whole window; each must stay above a tenth of that
NOT_SLANT_V234 = (7.27e-3, 1.28e-2, 1.38e-2)


@pytest.fixture(scope="module")
def csv_traces(tmp_path_factory):
    work = tmp_path_factory.mktemp("identity")
    paths = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for name in ("case2-order3", "r6-steered"):
            paths[name] = work / f"{name}.csv"
            assert cli.run_synth(name, str(paths[name]), None, 1e-3, False) == 0
    return paths


def identity_gaps(source, tmp_path, window=None) -> dict:
    """Run `verify` on `source`; the largest gap of each identity over
    the trace's interior, as its report gives them."""
    lines = ["[manifold]", "m = 2", "s = 2", "[curve]", f"source = {source}"]
    if window:
        lines.append(f"window = {window}")
    config = tmp_path / "identity.ini"
    config.write_text("\n".join(lines) + "\n")
    report = tmp_path / "identity.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run_verify(str(config), report_path=str(report)) == 0
    gaps = json.loads(report.read_text())["report"]["details"]["identity_gaps"]
    assert tuple(gaps) == COMPONENTS
    return gaps


@pytest.mark.parametrize("name", list(MEASURED))
def test_master_equations_are_the_components_of_tau3(name, csv_traces,
                                                     tmp_path):
    if name.startswith("csv:"):
        source = f"csv:{csv_traces[name.removeprefix('csv:')]}"
    else:
        source = f"builtin:{name}"
    gaps = identity_gaps(source, tmp_path)
    for component, measured in zip(COMPONENTS, MEASURED[name]):
        bound = FACTOR * measured if measured else ZERO_BOUND
        assert gaps[component] <= bound, (component, gaps[component], bound)


def test_identity_separates_a_curve_that_is_not_slant(tmp_path):
    gaps = identity_gaps("builtin:r6-example", tmp_path, window="-2:2")
    for component, floor in zip(("V2", "V3", "V4"), NOT_SLANT_V234):
        assert gaps[component] > floor, (component, gaps[component], floor)


def frenet_expansion_of_tau3_terms():
    """V2, V3, V4 coefficients of nabla^3 T + 2 (f'/f) nabla^2 T +
    (f''/f) nabla T, derived in sympy from the Frenet equations alone:
    nabla T = k1 V2, nabla V_i = -k_{i-1} V_{i-1} + k_i V_{i+1}."""
    t = sp.Symbol("t")
    k = [sp.Function(f"k{i}")(t) for i in range(1, 5)]
    f = sp.Function("f")(t)

    def nabla(w):   # w: coefficients along T, V2, .., V5
        out = [sp.diff(c, t) for c in w]
        for i, c in enumerate(w[:-1]):
            out[i + 1] += k[i] * c
            if i:
                out[i - 1] -= k[i - 1] * c
        return out

    d1 = nabla([1, 0, 0, 0, 0])
    d2 = nabla(d1)
    d3 = nabla(d2)
    field = [a + 2 * sp.diff(f, t) / f * b + sp.diff(f, t, 2) / f * c
             for a, b, c in zip(d3, d2, d1)]
    names = sp.symbols("k1 k1p k1pp k2 k2p k3 f fp fpp")
    jet = {sp.diff(k[0], t, 2): names[2], sp.diff(k[0], t): names[1],
           sp.diff(k[1], t): names[4], sp.diff(f, t, 2): names[8],
           sp.diff(f, t): names[7], k[0]: names[0], k[1]: names[3],
           k[2]: names[5], f: names[6]}
    assert sp.expand(field[4]) == 0    # V5 needs nabla^4 T
    return [sp.lambdify(names, sp.expand(field[i].subs(jet)))
            for i in (1, 2, 3)]


def test_condition5_frenet_terms_match_the_derivation():
    # with the hypothetical c = s, a = 1, b = 0 the curvature terms of
    # gphiT vanish (cf = 0 and a zero bracket), so gphiT is the derived
    # coefficient along V_j times p_j; one unit p_j isolates each V_j
    rng = np.random.default_rng(5)
    n = 200
    k1, k1p, k1pp, k2, k2p, k3, fp, fpp = rng.uniform(-2.0, 2.0, (8, n))
    k1 = np.abs(k1) + 0.1
    f = rng.uniform(0.5, 2.0, n)
    weight = WeightFunction(ts=np.arange(n, dtype=float), f=f, fp=fp, fpp=fpp)
    derived = frenet_expansion_of_tau3_terms()
    unit = np.eye(3)
    for j, coef in enumerate(derived):
        p2, p3, p4 = (np.full(n, u) for u in unit[j])
        got = mainprop_residuals(2.0, 2.0, k1, k2, k3, p2, p3, p4, weight,
                                 1.0, 0.0, k1p, k1pp, k2p)["gphiT"]
        want = coef(k1, k1p, k1pp, k2, k2p, k3, f, fp, fpp)
        assert np.max(np.abs(got - want)) < 1e-12, f"V{j + 2}"
