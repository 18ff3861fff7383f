"""Command-line front end: verify / synth / ode.

verify: run the full pipeline (trace -> Frenet -> slant -> master
equations) on a configured curve and emit a JSON report plus a per-sample
CSV.  synth: write a synthesized trace as CSV, optionally self-verifying.
ode: evaluate a closed-form candidate of the governing ODE and emit
(t, y, residual, domain_flag) CSV.

Exit codes: 0 success (and verdict matches the expectation, if one is
configured); 1 verdict mismatch; 2 configuration error (including a config
file that does not parse, an output path that cannot be written and an
unknown expected verdict); 3 numerical failure (degeneracy, pole,
integrator failure, nowhere-real closed form).  Each subcommand only
raises; `_exit_policy` alone maps what it raises to exit 2 or 3 with one
stderr line.

Config files are flat INI (configparser); see the README for the schema.
Reports are deterministic: fixed float formatting, sorted keys, no
timestamps; every report embeds the tool version, a config hash, the seed
and the tolerance set.  The SSPACEFORM_TOLERANCES environment variable
selects a default tolerance profile (strict / default / loose).
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import errno
import functools
import hashlib
import json
import math
import os
import pathlib
import stat
import sys

import numpy as np

from . import __version__
from . import biharmonic as bih
from . import odesol
from . import synth
from .curve import (MAX_SAMPLES, STEP_TOL, CurveTrace, fd_derivative,
                    frenet_apparatus, grid_samples, read_csv, write_csv)
from .manifold import ModelParams
from .slant import contact_angles

EXIT_OK = 0
EXIT_VERDICT_MISMATCH = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

TOL_PROFILES = {
    "strict": {"eq": 1e-6, "slant": 1e-8, "ode": 1e-12},
    "default": {"eq": 1e-3, "slant": 1e-5, "ode": 1e-10},
    "loose": {"eq": 1e-2, "slant": 1e-3, "ode": 1e-8},
}

BUILTIN_CURVES = ("catenary", "circle", "geodesic", "case2-order3",
                  "r6-example", "r6-steered")

# the sections of a verify config and the keys each may set
CONFIG_KEYS = {
    "manifold": ("m", "s"),
    "curve": ("source", "window", "step", "radius", "seed"),
    "weight": ("c1", "constant", "csv"),
    "tolerances": tuple(TOL_PROFILES["default"]),
    "expect": ("verdict",),
}

# the values of --expect and [expect] verdict: "any" or a report verdict
VERDICTS = ("any", "proper-f-biharmonic", "biharmonic", "harmonic/geodesic",
            "none")


class ConfigError(Exception):
    pass


def _exit_policy(entry):
    """Run a subcommand, mapping the errors it raises to exit 2 or 3.

    This is the one place that turns an exception into an exit code, with
    one stderr line.  Any other exception is a programming error and keeps
    its traceback.
    """
    @functools.wraps(entry)
    def run(*args, **kwargs) -> int:
        try:
            return entry(*args, **kwargs)
        except (ConfigError, ValueError, OSError, configparser.Error) as exc:
            print(f"config error: {_one_line(exc)}", file=sys.stderr)
            return EXIT_CONFIG
        except (synth.SynthesisError, FloatingPointError) as exc:
            print(f"numerical failure: {_one_line(exc)}", file=sys.stderr)
            return EXIT_NUMERICAL
    return run


def _one_line(exc: Exception) -> str:
    # configparser's parse errors quote the offending line on lines of
    # their own
    return " ".join(str(exc).splitlines())


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _config_hash(cp: configparser.ConfigParser) -> str:
    items = []
    for section in sorted(cp.sections()):
        for key in sorted(cp[section]):
            items.append(f"{section}.{key}={cp[section][key]}")
    return hashlib.sha256("\n".join(items).encode()).hexdigest()


def _tolerances(cp: configparser.ConfigParser | None) -> dict:
    profile = os.environ.get("SSPACEFORM_TOLERANCES", "default")
    if profile not in TOL_PROFILES:
        raise ConfigError(f"unknown tolerance profile {profile!r} "
                          f"(choose from {sorted(TOL_PROFILES)})")
    tol = dict(TOL_PROFILES[profile])
    if cp is not None and cp.has_section("tolerances"):
        for key in cp["tolerances"]:
            tol[key] = float(cp["tolerances"][key])
    if not all(math.isfinite(v) and v > 0 for v in tol.values()):
        raise ConfigError("tolerances must be positive and finite")
    return tol


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window must be 'lo:hi', got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"window must be finite, got {text!r}")
    if hi <= lo:
        raise ConfigError("window must have hi > lo")
    return lo, hi


def _build_trace(params: ModelParams, cp: configparser.ConfigParser):
    """Trace plus the curvature callable needed for c1-style weights."""
    source = cp.get("curve", "source", fallback=None)
    if source is None:
        raise ConfigError("[curve] source is required")
    window = _parse_window(cp.get("curve", "window", fallback="-2:2"))
    step = float(cp.get("curve", "step", fallback="1e-3"))
    if not (math.isfinite(step) and step > 0):
        raise ConfigError("step must be positive and finite")
    # a name the source does not read would otherwise be ignored
    if cp.has_option("curve", "radius") and source != "builtin:circle":
        raise ConfigError(f"[curve] radius applies only to builtin:circle, "
                          f"not to {source}")
    kind, _, arg = source.partition(":")
    if kind == "csv":
        if not arg:
            raise ConfigError("source csv: needs a path")
        if cp.has_option("curve", "window"):
            raise ConfigError("[curve] window does not apply to a csv: "
                              "source, whose rows set the window")
        trace = CurveTrace.from_csv(params, arg)
        if (cp.has_option("curve", "step") and abs(step - trace.step)
                > STEP_TOL * max(1.0, abs(trace.step))):
            raise ConfigError(f"[curve] step = {step!r} is not the csv "
                              f"trace's grid step {float(trace.step)!r}")
        return trace, None
    if kind != "builtin":
        raise ConfigError(f"unknown curve source kind {kind!r}")
    name = arg
    if name not in BUILTIN_CURVES:
        raise ConfigError(f"unknown builtin curve {name!r} "
                          f"(choose from {BUILTIN_CURVES})")
    if name in ("catenary", "circle", "geodesic"):   # the others march
        n = grid_samples(window[1] - window[0], step)
        # the largest m = s = 2 grid the sample cap admits, refused before
        # the trace's (n, 2m+s) arrays are allocated
        if n * params.dim > 6 * MAX_SAMPLES:
            raise ConfigError(f"{n} samples in dimension {params.dim} exceed "
                              f"the {6 * MAX_SAMPLES} values a trace may hold")
    if name == "catenary":
        return synth.legendre_catenary(params, window=window, n=n), \
            lambda t: 1.0 / (1.0 + t ** 2)
    if name == "circle":
        radius = float(cp.get("curve", "radius", fallback="2.0"))
        if radius == 0 or not math.isfinite(radius):
            raise ConfigError("[curve] radius must be nonzero and finite")
        return synth.flat_circle_trace(params, radius=radius, window=window, n=n), None
    if name == "geodesic":
        return synth.geodesic_trace(params, window=window, n=n), None
    if name == "case2-order3":
        if (params.m, params.s) != (2, 2):
            raise ConfigError("case2-order3 is defined for m = 2, s = 2")
        return synth.case2_order3_curve(window=window, step=step), \
            synth.case2_order3_k1
    cfg = synth.R6ExampleConfig()
    if (params.m, params.s) != (2, 2):
        raise ConfigError("the r6 examples are defined for m = 2, s = 2")
    if name == "r6-example":
        trace, _ = synth.integrate_frenet_system(
            cfg.synthesis_spec(window=window, step=step))
        return trace, cfg.k1
    trace = cfg.steering_trace(step=step)   # r6-steered, feasible window
    return trace, cfg.k1


def _weight_config(cp) -> tuple[str, object]:
    """The [weight] section, checked before any trace is built: ("c1", c1),
    ("constant", value) or ("csv", its (t, f) rows)."""
    section = cp["weight"] if cp.has_section("weight") else {}
    keys = [k for k in ("c1", "constant", "csv") if k in section]
    if len(keys) > 1:
        raise ConfigError("[weight] must set exactly one of c1, constant, csv")
    kind = keys[0] if keys else "c1"
    if kind != "csv":
        value = float(section.get(kind, "1.0"))
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"[weight] {kind} must be positive and finite, "
                              f"got {value!r}")
        return kind, value
    data = read_csv(section["csv"], 2, "[weight] csv")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise FloatingPointError(
            f"non-finite t or f in data row {bad[0]} of the [weight] csv")
    if len(data) < 2:
        raise ConfigError("[weight] csv needs at least two rows of t,f")
    return kind, data


def _build_weight(trace, fd, k1_callable, weight) -> bih.WeightFunction:
    """The weight `_weight_config` read, on the trace grid.  f = c1 k1^(-3/2)
    reads the analytic k1 of a builtin when there is one, differenced on the
    grid, and otherwise the measured k1 with fd.curvature_jet."""
    ts = trace.ts
    kind, value = weight
    if kind == "c1":
        if k1_callable is None:
            k1 = fd.padded_curvatures[0]
            k1p, k1pp, _ = fd.curvature_jet
        else:
            k1 = np.asarray(k1_callable(ts), dtype=float)
            k1p = fd_derivative(k1, trace.step)
            k1pp = fd_derivative(k1p, trace.step)
        if np.all(k1 < bih.GEODESIC_K1):
            # geodesic: f = c1 k1^(-3/2) is undefined and irrelevant
            # (every tension term carries k1); use a constant weight
            return bih.WeightFunction.constant(ts, value)
        return odesol.f_from_k1(ts, k1, k1p, k1pp, c1=value)
    if kind == "constant":
        return bih.WeightFunction.constant(ts, value)
    t, f = value.T      # the rows of a [weight] csv
    if t[0] > ts[0] or t[-1] < ts[-1]:
        raise ConfigError("sampled weight does not cover the curve window")
    # cubic spline keeps f'' meaningful when the weight grid differs from
    # the trace grid (linear interpolation would have distributional f'')
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(t, f)
    return bih.WeightFunction(ts=ts, f=spline(ts), fp=spline(ts, 1),
                              fpp=spline(ts, 2))


@_exit_policy
def run_verify(config_path: str, report_path=None, csv_path=None,
               expect=None) -> int:
    cp = configparser.ConfigParser()
    if not cp.read(config_path):
        raise ConfigError(f"cannot read config {config_path!r}")
    # a misspelled name would otherwise fall back to its default; a
    # [DEFAULT] key shows up in every section
    for section in cp.sections():
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
    m = cp.getint("manifold", "m", fallback=2)
    s = cp.getint("manifold", "s", fallback=2)
    if m < 1 or s < 1:
        raise ConfigError(f"invalid manifold dimensions m={m}, s={s}")
    params = ModelParams(m=m, s=s)
    tol = _tolerances(cp)
    expected = expect or cp.get("expect", "verdict", fallback="any")
    if expected not in VERDICTS:
        raise ConfigError(f"unknown expected verdict {expected!r} "
                          f"(choose from {VERDICTS})")
    weight = _weight_config(cp)     # refused before the trace is built
    trace, k1_callable = _build_trace(params, cp)
    text, verdict, outputs = _verify_trace(cp, params, tol, trace,
                                           k1_callable, weight, expected,
                                           report_path, csv_path)
    _write_all(outputs)
    if not report_path:
        print(text)
    if expected not in ("any", verdict):
        print(f"verdict mismatch: expected {expected!r}, "
              f"got {verdict!r}", file=sys.stderr)
        return EXIT_VERDICT_MISMATCH
    return EXIT_OK


def _verify_trace(cp, params, tol, trace, k1_callable, weight, expected,
                  report_path=None, csv_path=None):
    """Run the pipeline on a built trace: the JSON report text, the verdict
    and the (path, write) outputs of the report and CSV files."""
    seed = cp.getint("curve", "seed", fallback=0)
    fd = frenet_apparatus(trace)
    profile = contact_angles(trace, tolerance=tol["slant"])
    weight = _build_weight(trace, fd, k1_callable, weight)
    report = bih.check_conditions(trace, fd, profile, weight,
                                  eq_tol=tol["eq"])
    payload = {
        "tool": "sspaceform",
        "version": __version__,
        "command": "verify",
        "config_hash": _config_hash(cp),
        "seed": seed,
        "manifold": {"m": params.m, "s": params.s, "c": params.c},
        "curve": {
            "source": cp.get("curve", "source"),
            "n_samples": trace.n,
            "window": [float(trace.ts[0]), float(trace.ts[-1])],
            "unit_speed_deviation": fd.unit_speed_deviation,
            "osculating_order": fd.order,
        },
        "slant": {
            "thetas": profile.thetas.tolist(),
            "a": profile.a,
            "b": profile.b,
            "constancy_deviation": profile.constancy_deviation,
            "is_slant": profile.is_slant,
        },
        "weight": {"variation": weight.variation,
                   "is_constant": weight.is_constant,
                   "c1": weight.c1},
        "report": report.as_dict(),
        "tolerances": tol,
        "expected_verdict": expected,
    }
    text = _canonical_json(payload)
    outputs = []
    if report_path:
        outputs.append((report_path, lambda path: pathlib.Path(
            path).write_text(text + "\n")))
    if csv_path:
        outputs.append((csv_path, lambda path: _write_verify_csv(
            path, trace, fd, profile, report)))
    return text, report.verdict, outputs


def _target_mode(path):
    """st_mode of the file path names, or None; refuses a directory."""
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return None
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
    return mode


def _write_all(outputs) -> None:
    """Write every output of (path, write) pairs, or none of them.

    write(p) writes its output to the file p.  A missing or regular target
    is written to a temporary sibling of its resolved path (so a symlink
    is written through), which replaces it with the old file's mode once
    every output is written.  Any other target (/dev/null, a FIFO) is
    written directly.  A directory, and two missing or regular targets of
    one resolved path, are refused before anything is written.  On a
    failure the temporaries are removed and the error names the path.
    """
    staged, modes, files = [], [], set()
    try:
        for path, _ in outputs:
            modes.append(_target_mode(path))
            if modes[-1] is None or stat.S_ISREG(modes[-1]):
                if os.path.realpath(path) in files:
                    raise ConfigError(f"two outputs name the file {path!r}")
                files.add(os.path.realpath(path))
        for i, ((path, write), mode) in enumerate(zip(outputs, modes)):
            if mode is not None and not stat.S_ISREG(mode):
                write(path)     # a device or FIFO: no file to replace
                continue
            target = os.path.realpath(path)
            staged.append((f"{target}.{os.getpid()}-{i}.tmp", target, path))
            write(staged[-1][0])
            if mode is not None:
                os.chmod(staged[-1][0], stat.S_IMODE(mode))
        for dest, target, path in staged:
            os.replace(dest, target)
    except OSError as exc:
        if exc.errno is None:
            raise
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for dest, _, _ in staged:
            with contextlib.suppress(FileNotFoundError):
                os.remove(dest)


def _write_verify_csv(path, trace, fd, profile, report) -> None:
    """One row per sample: the arrays whose trimmed maxima the report lists."""
    n = trace.n
    dec = report.decomposition
    if dec is None:
        p = [np.zeros(n)] * 3 + [np.full(n, np.nan)]
    else:
        p = [dec.p2, dec.p3, dec.p4, dec.beta]
    res = report.per_sample
    columns = ([trace.ts] + list(fd.padded_curvatures)
               + list(profile.eta_samples.T) + p
               + [res[key] for key in ("tau3_norm",) + bih.EQUATIONS])
    header = (["t", "k1", "k2", "k3"]
              + [f"eta{a+1}_T" for a in range(trace.params.s)]
              + ["g_phiT_V2", "g_phiT_V3", "g_phiT_V4", "beta", "tau3_norm",
                 "eq1", "eq2", "eq3", "eq4", "g_tau3_phiT"])
    write_csv(path, header, columns)


@_exit_policy
def run_synth(builtin: str, out_path: str, window: str | None, step: float,
              verify: bool, report_path=None) -> int:
    if report_path and not verify:
        raise ConfigError("synth --report needs --verify")
    cp = configparser.ConfigParser()
    cp.add_section("manifold")
    cp.set("manifold", "m", "2")
    cp.set("manifold", "s", "2")
    cp.add_section("curve")
    cp.set("curve", "source", f"builtin:{builtin}")
    if window:
        cp.set("curve", "window", window)
    cp.set("curve", "step", repr(step))
    params = ModelParams(m=2, s=2)
    tol = _tolerances(cp) if verify else None
    trace, k1_callable = _build_trace(params, cp)
    outputs = [(out_path, trace.to_csv)]
    if verify:
        text, _, report = _verify_trace(cp, params, tol, trace, k1_callable,
                                        _weight_config(cp), "any", report_path)
        outputs += report
    _write_all(outputs)
    print(f"wrote {trace.n} samples to {out_path}")
    if verify and not report_path:
        print(text)
    return EXIT_OK


@_exit_policy
def run_ode(case: str, c2: float, c3: float, c4: float, lam: float,
            rng: str, out_path=None, tol: float | None = None) -> int:
    lo = hi = h = math.nan      # a range that does not parse is refused below
    with contextlib.suppress(ValueError):
        lo, hi, h = map(float, rng.split(":"))
    if not (all(map(math.isfinite, (lo, hi, h))) and hi > lo and h > 0):
        raise ConfigError(f"--range must be 'lo:hi:step' with finite "
                          f"lo < hi and step > 0, got {rng!r}")
    eps = {"i": 1, "ii": -1, "iii": 0}.get(case)
    if eps is None:
        raise ConfigError("--case must be i, ii or iii")
    if tol is None:
        tol = _tolerances(None)["ode"]
    elif not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"--tol must be positive and finite, got {tol!r}")
    if eps != 0 and lam <= 0:
        raise ConfigError("cases (i)/(ii) need --lambda > 0")
    spec = odesol.OdeSolutionSpec(epsilon=eps, lam=lam if eps else 0.0,
                                  c2=c2, c3=c3, c4=c4)
    grid_samples(hi - lo, h)
    ts = np.arange(lo, hi + h / 2, h)
    y, ok = odesol.k1_closed_form(spec, ts)
    if spec.case == "iii" and abs(c3) < 1e-14:
        raise FloatingPointError("case (iii) with c3 = 0 degenerates to "
                                 "y = 0 (not a positive curvature)")
    # cases (i)/(ii) are real at isolated samples at most (N <= 0), where
    # no residual can be differenced: their residual column stays NaN
    residual = np.full_like(ts, np.nan)
    if spec.case == "iii":
        yy, yp, ypp = odesol.case_iii_profile(spec, ts)
        residual[ok] = odesol.ode_residual(yy[ok], spec, yp[ok],
                                           ypp[ok])["per_sample"]
    if out_path:
        data = [ts, np.where(ok, y, np.nan),
                np.where(np.isfinite(residual), residual, np.nan), ok]
        _write_all([(out_path, lambda path: write_csv(
            path, ["t", "y", "residual", "domain_ok"], data))])
        print(f"wrote {len(ts)} samples to {out_path}")
    frac = float(np.mean(ok))
    if frac == 0.0:
        raise FloatingPointError(
            f"the literal case ({case}) formula is nowhere real on the range "
            "(its N term is nonpositive for all real arguments; use the RK4 "
            "oracle for this regime)")
    finite = np.isfinite(residual)
    max_res = float(np.max(residual[finite])) if np.any(finite) else np.inf
    print(f"real fraction {frac:.3f}, max residual on real subdomain "
          f"{max_res:.3e} (tolerance {tol:g})")
    if not max_res < tol:
        raise FloatingPointError(f"max residual {max_res:.3e} is not below "
                                 f"the tolerance {tol:g}")
    return EXIT_OK


_RANGE_FLAGS = ("--range", "--window")


def _merge_range_flags(argv: list[str]) -> list[str]:
    """Turn ['--range', '-2:2:0.001'] into ['--range=-2:2:0.001'].

    argparse treats a leading '-' as a new option, so negative-endpoint
    ranges would otherwise require the '=' form.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _RANGE_FLAGS and i + 1 < len(argv) and \
                argv[i + 1].startswith("-") and ":" in argv[i + 1]:
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sspaceform",
        description="slant-curve and f-biharmonicity toolkit for R^(2m+s)(-3s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the verification pipeline")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--report", help="JSON report path (default stdout)")
    p_verify.add_argument("--csv", help="per-sample CSV path")
    p_verify.add_argument("--expect", help="override [expect] verdict")

    p_synth = sub.add_parser("synth", help="synthesize a builtin curve")
    p_synth.add_argument("--builtin", required=True,
                         choices=list(BUILTIN_CURVES))
    p_synth.add_argument("--out", required=True, help="trace CSV path")
    p_synth.add_argument("--window", help="'lo:hi' (default -2:2)")
    p_synth.add_argument("--step", type=float, default=1e-3)
    p_synth.add_argument("--verify", action="store_true",
                         help="run the verify pipeline on the result")
    p_synth.add_argument("--report", help="JSON report path for --verify")

    p_ode = sub.add_parser("ode", help="evaluate a closed-form ODE candidate")
    p_ode.add_argument("--case", required=True, choices=["i", "ii", "iii"])
    p_ode.add_argument("--c2", type=float, default=0.0)
    p_ode.add_argument("--c3", type=float, default=1.0)
    p_ode.add_argument("--c4", type=float, default=0.0)
    p_ode.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p_ode.add_argument("--range", dest="rng", required=True,
                       help="'lo:hi:step'")
    p_ode.add_argument("--out", help="CSV output path")
    p_ode.add_argument("--tol", type=float, help="residual tolerance")

    args = parser.parse_args(_merge_range_flags(
        list(sys.argv[1:] if argv is None else argv)))
    if args.command == "verify":
        return run_verify(args.config, report_path=args.report,
                          csv_path=args.csv, expect=args.expect)
    if args.command == "synth":
        return run_synth(args.builtin, args.out, args.window, args.step,
                         args.verify, report_path=args.report)
    return run_ode(args.case, args.c2, args.c3, args.c4, args.lam, args.rng,
                   out_path=args.out, tol=args.tol)


if __name__ == "__main__":
    sys.exit(main())
