"""Mutation probe: does some test fail when a decision threshold or a term
of the computation is changed by one line?

    python3 tools/mutants.py [PYTEST ARGS ...]

Run from the root of a sspaceform checkout.  For each mutant of MUTANTS
the tool copies the working tree's `src/` and `tests/` into a fresh
temporary directory, applies the mutant's one-line edit there and runs
`python -m pytest -x -q` in it with the given arguments (for example
`-k "not golden"`, to see which mutants only the golden files kill).  It
prints one line per mutant:

    M08 killed    tests/test_biharmonic.py::test_...   (first failing test)
    M04 SURVIVED
    M99 STALE     its old text occurs 0 times in src/sspaceform/x.py

A mutant is stale when its old text does not occur exactly once in its
file, so an edit of the source shows up here instead of silently probing
nothing.  The exit status is 1 if any mutant is stale, else 0.  The
demos are not copied, so `tests/test_demos.py` collects nothing.  The
probe uses the standard library only and is not a CI step: each
surviving mutant costs one full test run.
"""
from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

# (id, file under src/sspaceform, old text, new text, what it breaks)
MUTANTS = [
    ("M01", "biharmonic.py", "+ bracket + cf * p2 ** 2))",
     "+ bracket + cf * p2 * p3))", "eq2's cf p2^2 becomes cf p2 p3"),
    ("M02", "biharmonic.py", "eq4 = k2 * k3 + cf * p2 * p4",
     "eq4 = k2 * k3 + cf * p3 * p4", "eq4's p2 p4 becomes p3 p4"),
    ("M03", "biharmonic.py", "p3 ** 2 + p4 ** 2 + out_of_span))",
     "p3 ** 2 + p4 ** 2))", "gphiT drops phiT's out-of-span part"),
    ("M04", "biharmonic.py", "v3_coef = 2.0 * k1p * k2 + k1 * k2p",
     "v3_coef = 2.0 * k1p * k2 + k1p * k2p", "v3_coef's k1 k2' becomes k1' k2'"),
    ("M05", "biharmonic.py", "eq1 = 3.0 * k1p / k1",
     "eq1 = 3.0003 * k1p / k1", "eq1's 3 becomes 3.0003"),
    ("M08", "biharmonic.py", "if p2max < 10 * CASE_TOL * scale:",
     "if p2max < 100 * CASE_TOL * scale:", "case ambiguity band 10x -> 100x"),
    ("M13", "curve.py", "tol = 1e-5 if trace.sampled else 1e-8",
     "tol = 1e-3 if trace.sampled else 1e-8",
     "sampled unit-speed refusal 1e-5 -> 1e-3"),
    ("M16", "slant.py", "tolerance = 1e-3 if trace.sampled else 1e-5",
     "tolerance = 1e-2 if trace.sampled else 1e-5",
     "sampled slant tolerance 1e-3 -> 1e-2"),
    ("M17", "synth.py", "FRAME_DRIFT_TOL = 1e-6", "FRAME_DRIFT_TOL = 1e-4",
     "frame drift guard 1e-6 -> 1e-4"),
    ("M18", "biharmonic.py", "PROPER_F_VARIATION = 1e-8",
     "PROPER_F_VARIATION = 1e-4", "proper-f variation 1e-8 -> 1e-4"),
    ("M19", "biharmonic.py", "residuals[k] < eq_tol for k",
     "residuals[k] < 10 * eq_tol for k", "verdict threshold eq_tol -> 10 eq_tol"),
    ("M21", "synth.py", "for i in range(j):", "for i in range(j - 1):",
     "the march's Gram-Schmidt skips a projection"),
    ("K01", "manifold.py", "out[2 * m:] = component_sum(B * tau - A * sig)",
     "out[2 * m:] = component_sum(A * sig - B * tau)",
     "the connection's Phi_C changes sign"),
    ("K02", "manifold.py", "+ 2.0 * dot(X, phY) * phZ)",
     "+ 1.0 * dot(X, phY) * phZ)", "the curvature tensor's factor 2 becomes 1"),
    ("K03", "curve.py", "live &= ~(nv < 1e-13)", "live &= ~(nv < 0.0)",
     "the Frenet live floor is gone"),
    ("K04", "curve.py", "flip = (neg - neg[last]) % 2 == 1",
     "flip = neg % 2 == 1", "_align_signs restarts at no zero frame"),
    ("K05", "curve.py", "trim = 2 + 3 * self.fd_stride",
     "trim = 2 + 2 * self.fd_stride", "the interior band drops q rows fewer"),
    ("K06", "curve.py", "[-25.0, 48.0, -36.0, 16.0, -3.0]",
     "[-25.0, 48.0, -36.0, 16.0, -3.001]", "a one-sided FD5 weight"),
    ("K07", "biharmonic.py", "d += (f.fpp[b] / f.f[b]) * chain[1][:, b]",
     "d += 0.0 * chain[1][:, b]", "tau3 drops its f''/f term"),
    ("K08", "biharmonic.py", "CASE_TOL = 1e-6", "CASE_TOL = 1e-4",
     "the case II/III threshold 1e-6 -> 1e-4"),
    ("K09", "csvformat.py", "> 0.5 - _TIE_MARGIN)", "> 0.5 + _TIE_MARGIN)",
     "the CSV kernel keeps cells within its tie margin"),
    ("K10", "csvformat.py", "| (d <= 10 ** 16) | (d >= 10 ** 17 - 2))",
     "| (d >= 10 ** 17 - 2))", "the CSV kernel's power-of-ten guard loses "
     "its bottom"),
    ("K11", "csvformat.py", "| (d <= 10 ** 16) | (d >= 10 ** 17 - 2))",
     "| (d <= 10 ** 16))", "the CSV kernel's power-of-ten guard loses its top"),
    ("K12", "biharmonic.py", "float(np.max(np.abs(gap[sl])))",
     "float(np.max(np.abs(gap)))", "the identity gaps read the edge band"),
    ("K13", "biharmonic.py", '"V2": largest(V2, k1 * per_sample["eq2"])',
     '"V2": largest(V2, -k1 * per_sample["eq2"])',
     "the V2 identity gap's sign"),
    ("K14", "curve.py", "usecols=range(ncols)", "usecols=None",
     "read_csv parses every column of a wider file"),
    ("K15", "curve.py", "if np.max(k[interior]) < ORDER_THRESHOLD:",
     "if np.min(k[interior]) < ORDER_THRESHOLD:",
     "a curvature that crosses the threshold ends the order"),
    ("K16", "curve.py", "ORDER_THRESHOLD = 1e-6", "ORDER_THRESHOLD = 1e-5",
     "the Frenet order threshold 1e-6 -> 1e-5"),
    ("K17", "curve.py", "levels = min(len(chain), dim)",
     "levels = min(len(chain) - 1, dim)",
     "the trace's depth caps the Frenet order one level lower"),
    ("K18", "curve.py", "order = j\n", "order = j + 1\n",
     "the Frenet loop keeps one level past the order"),
]


def copy_tree(root: str, dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(os.path.join(root, part), os.path.join(dest, part),
                        ignore=ignore)


def run_mutant(root: str, mutant, pytest_args: list[str]) -> str:
    ident, name, old, new, _ = mutant
    with tempfile.TemporaryDirectory(prefix="sspaceform-mutant-") as tmp:
        copy_tree(root, tmp)
        path = os.path.join(tmp, "src", "sspaceform", name)
        with open(path) as fh:
            text = fh.read()
        count = text.count(old)
        if count != 1:
            return f"{ident} STALE     its old text occurs {count} times in " \
                   f"src/sspaceform/{name}"
        with open(path, "w") as fh:
            fh.write(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *pytest_args, "tests"], cwd=tmp, env=env, capture_output=True,
            text=True)
    if proc.returncode == 0:
        return f"{ident} SURVIVED"
    if proc.returncode not in (1, 2):   # 2: a test module failed to import
        return f"{ident} ERROR     pytest exit {proc.returncode}"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return f"{ident} killed    {failed.group(1) if failed else '?'}"


def main(argv: list[str]) -> int:
    root = os.getcwd()
    stale = False
    for mutant in MUTANTS:
        line = run_mutant(root, mutant, argv)
        stale |= " STALE " in line
        print(f"{line}   ({mutant[4]})", flush=True)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
