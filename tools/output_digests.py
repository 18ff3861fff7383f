"""One sha256 per output file of the sspaceform CLI and per stdout and
stderr of each command and demo, optionally against a parent.

    python3 tools/output_digests.py [--parent REV]

Run from the root of a sspaceform git checkout.  The tool runs a fixed set
of CLI commands with the checkout's `src` on PYTHONPATH, each in the same
temporary directory and with relative paths only, so the files do not
depend on where the checkout lives:

- `verify --report --csv` for the six builtins (r6-example on -0.5:0.5)
  and for the `csv:` traces of case2-order3 and r6-steered;
- `verify --report --csv` for catenary on -8:8, the bench's largest
  request: 16001 rows, many CSV blocks and 11 constant columns;
- `synth --out` and `synth --verify --report` for r6-example (-0.5:0.5),
  case2-order3, r6-steered and catenary (its x and z columns are
  constant, which drives the trace writer's fixed-column path);
- `ode --out` for case (iii) and for the nowhere-real case (i) and (ii)
  grids;
- inputs the CLI must refuse with exit 2 or 3: a verify config whose
  r6-example march trips the drift guard, one without a section header,
  one that repeats an option, one whose `[weight] csv` holds a nan, an
  unknown `--expect` verdict, an output path in a directory that does not
  exist for `verify --report`, `verify --csv`, `synth --out` and
  `ode --out`, two `ode` runs whose residual is not below the
  tolerance, `synth --report` without `--verify`, two outputs that name
  one file for `verify` and for `synth --verify`, and a catenary in a
  manifold of m = 10^12, whose arrays no address space can map.

Then it runs ORACLE, a `python -c` command that writes the RK4 oracle's
ts, y, y' and first integral, and its truncation, for the bench's four
case (iii) requests (160,001 points each) and for one run that blows up,
one file per run.  Then it runs each `demos/*.py` of the checkout in the
same directory and with the same PYTHONPATH.

It prints one line per file, `<sha256>  <file>`, and three lines per
command, oracle run or demo: `<sha256>  <label> stdout`, `<sha256>
<label> stderr` and `<exit code>  exit <label>`, where the label is the
command's arguments, `oracle` or the demo's file name.  Before hashing,
every occurrence of the checkout's absolute path in stdout or stderr is
replaced by `<checkout>`, so a warning that names a source file hashes
the same in any checkout.  With `--parent REV` it runs the same
commands, and the demos of REV, on a `git archive` of REV extracted into
a temporary directory, prints the lines that differ and exits 1 if any
file, stream or exit code does.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile

from bench_pairs import checkout

BUILTINS = ("catenary", "circle", "geodesic", "case2-order3", "r6-example",
            "r6-steered")
# r6-example takes about 2 s per run on -2:2
WINDOWS = {"r6-example": "-0.5:0.5"}
CSV_TRACES = ("case2-order3", "r6-steered")
SYNTH = ("r6-example", "case2-order3", "r6-steered", "catenary")
ODE = {
    "iii": ["--case", "iii", "--c2", "1", "--c3", "4", "--range", "-2:2:1e-3"],
    "i": ["--case", "i", "--lambda", "1", "--c2", "1", "--c3", "1",
          "--range", "-1:1:1e-3"],
    "ii": ["--case", "ii", "--lambda", "1", "--c2", "1", "--c3", "1",
           "--range", "-1:1:1e-3"],
}
REFUSED_CONFIGS = {
    "refuse-drift-guard.ini": "[manifold]\nm = 2\ns = 2\n[curve]\n"
                              "source = builtin:r6-example\nstep = 0.2\n",
    "refuse-no-section-header.ini": "m = 2\n",
    "refuse-duplicate-option.ini": "[manifold]\nm = 2\nm = 3\n",
    "refuse-huge-manifold.ini": "[manifold]\nm = 1000000000000\ns = 2\n"
                                "[curve]\nsource = builtin:catenary\n",
}
NAN_WEIGHT = {
    "refuse-nan-weight.ini": "[manifold]\nm = 2\ns = 2\n[curve]\n"
                             "source = builtin:catenary\nwindow = -1:1\n"
                             "[weight]\ncsv = refuse-nan-weight.csv\n",
    "refuse-nan-weight.csv": "t,f\n-1,1\n0,nan\n1,1\n",
}
# the largest residual is inf (no residual on the isolated real sample)
# and 2.8e-16, neither below the tolerance
ODE_REFUSED = (
    ["--case", "ii", "--c2", "1", "--c3", "2", "--lambda", "1",
     "--range=-1:1:0.5"],
    ["--case", "iii", "--c2", "1", "--c3", "4", "--range=-2:2:1e-3",
     "--tol", "1e-30"],
)
UNWRITABLE = "no-such-dir/out"
# the oracle requests of perfbench/workloads.py (c2 = 1, the (c3, c4) of
# CASE_III, step 2.5e-5 on (-2, 2)) and a forward blow-up truncation
ORACLE = """
from sspaceform.odesol import (OdeSolutionSpec, case_iii_profile,
                               first_integral, numeric_solution_oracle)
runs = {}
for c3, c4 in ((1.0, 0.0), (2.0, 0.5), (4.0, -0.5), (0.5, 1.0)):
    spec = OdeSolutionSpec(0, 0.0, 1.0, c3, c4)
    y0, yp0, _ = case_iii_profile(spec, [0.0])
    runs[f"oracle-iii-{c3}-{c4}.bin"] = spec, dict(
        y0=float(y0[0]), y0prime=float(yp0[0]), window=(-2.0, 2.0), step=2.5e-5)
runs["oracle-blowup.bin"] = OdeSolutionSpec(0, 0.0, 0.0, 1.0, 0.0), dict(
    y0=0.5, y0prime=3.0, window=(-2.0, 2.0), step=1e-3, blowup=0.6)
for name, (spec, kwargs) in runs.items():
    sol = numeric_solution_oracle(spec, **kwargs)
    with open(name, "wb") as fh:
        for a in (sol.ts, sol.y, sol.yp, first_integral(sol.y, sol.yp, spec)):
            fh.write(a.tobytes())
        fh.write(repr((sol.truncated, sol.blowup_t)).encode())
"""
# one command or demo must not run longer than this
TIMEOUT_S = 300


def commands() -> list[tuple[list[str], dict[str, str]]]:
    """(CLI arguments, config files to write first) of every command, in
    order: the synth runs come first, since they write the `csv:` traces."""
    out = []
    for name in SYNTH:
        window = ["--window", WINDOWS[name]] if name in WINDOWS else []
        out.append((["synth", "--builtin", name, "--out", f"synth-{name}.csv"]
                    + window, {}))
        out.append((["synth", "--builtin", name, "--out",
                     f"synth-verify-{name}.csv", "--verify", "--report",
                     f"synth-{name}.json"] + window, {}))
    sources = ([f"builtin:{name}" for name in BUILTINS]
               + [f"csv:synth-{name}.csv" for name in CSV_TRACES])
    verifies = [(source, WINDOWS.get(source.removeprefix("builtin:")),
                 "verify-" + source.replace(":", "-").removesuffix(".csv"))
                for source in sources]
    # the bench's largest request
    verifies.append(("builtin:catenary", "-8:8", "verify-builtin-catenary-8"))
    for source, window, stem in verifies:
        lines = ["[manifold]", "m = 2", "s = 2", "[curve]", f"source = {source}"]
        if window:
            lines.append(f"window = {window}")
        out.append((["verify", "--config", f"{stem}.ini", "--report",
                     f"{stem}.json", "--csv", f"{stem}.csv"],
                    {f"{stem}.ini": "\n".join(lines) + "\n"}))
    for case, args in ODE.items():
        out.append((["ode", *args, "--out", f"ode-{case}.csv"], {}))
    for name, text in REFUSED_CONFIGS.items():
        out.append((["verify", "--config", name], {name: text}))
    out.append((["verify", "--config", "refuse-nan-weight.ini"], NAN_WEIGHT))
    out += [(["ode", *args], {}) for args in ODE_REFUSED]
    catenary = ["verify", "--config", "verify-builtin-catenary.ini"]
    out += [(argv, {}) for argv in (
        catenary + ["--expect", "proper-f-biharmonc"],
        catenary + ["--report", UNWRITABLE],
        catenary + ["--report", "refuse-csv.json", "--csv", UNWRITABLE],
        ["synth", "--builtin", "catenary", "--out", UNWRITABLE],
        ["ode", *ODE["iii"], "--out", UNWRITABLE],
        ["synth", "--builtin", "catenary", "--out", "refuse-report.csv",
         "--report", "refuse-report.json"],
        catenary + ["--report", "refuse-same.out", "--csv", "refuse-same.out"],
        ["synth", "--builtin", "catenary", "--out", "refuse-same-synth.out",
         "--verify", "--report", "refuse-same-synth.out"])]
    return out


def digests(root: str) -> dict[str, str]:
    """Run every command and every demo of `root` with `root`/src first on
    PYTHONPATH; return one line per output file, stdout and stderr (its
    sha256) and per command and demo (its exit code)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    result = {}
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        def run(label, argv):
            proc = subprocess.run(argv, cwd=work, env=env,
                                  capture_output=True, timeout=TIMEOUT_S)
            for stream in ("stdout", "stderr"):
                text = getattr(proc, stream).replace(os.fsencode(root),
                                                     b"<checkout>")
                result[f"{label} {stream}"] = hashlib.sha256(text).hexdigest()
            result[f"exit {label}"] = str(proc.returncode)

        for argv, configs in commands():
            for name, text in configs.items():
                with open(os.path.join(work, name), "w") as fh:
                    fh.write(text)
            run(" ".join(argv), [sys.executable, "-m", "sspaceform.cli", *argv])
        run("oracle", [sys.executable, "-c", ORACLE])
        demos = os.path.join(root, "demos")
        for name in sorted(os.listdir(demos)):
            if name.endswith(".py"):
                run(name, [sys.executable, os.path.join(demos, name)])
        for name in sorted(os.listdir(work)):
            if name.endswith(".ini"):
                continue
            with open(os.path.join(work, name), "rb") as fh:
                result[name] = hashlib.sha256(fh.read()).hexdigest()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="git revision to compare against")
    args = ap.parse_args(argv)
    repo = os.getcwd()
    change = digests(repo)
    for key, value in change.items():
        print(f"{value}  {key}")
    if args.parent is None:
        return 0
    with tempfile.TemporaryDirectory(prefix="digests-parent-") as parent_root:
        commit = checkout(repo, args.parent, parent_root)
        parent = digests(parent_root)
    differ = sorted(k for k in parent.keys() | change.keys()
                    if parent.get(k) != change.get(k))
    for key in differ:
        print(f"differs from {commit[:12]}: {key}: "
              f"{parent.get(key)} -> {change.get(key)}")
    print(f"{len(change) - len(differ)} of {len(change)} lines identical to "
          f"{commit[:12]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
