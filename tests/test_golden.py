"""Golden numerics: `verify` outputs pinned per builtin curve.

Each tests/golden/<name>.json holds the report payload (verdict, case,
osculating order, residual maxima) and every 100th row of the per-sample
CSV (k1..k3, p2..p4 = g(phiT, V2..V4), eq1..eq4).  Tolerances are stated
per quantity: tight for analytic traces, looser for synthesized ones whose
derivatives come from differencing.  A golden file is only regenerated
together with a CHANGES.md entry that explains the numeric difference:

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

from sspaceform import cli

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
STRIDE = 100
ANALYTIC = ("catenary", "circle", "geodesic")
SYNTHESIZED = ("case2-order3", "r6-steered", "r6-example")
COLUMNS = {"t": "t", "k1": "k1", "k2": "k2", "k3": "k3",
           "p2": "g_phiT_V2", "p3": "g_phiT_V3", "p4": "g_phiT_V4",
           "eq1": "eq1", "eq2": "eq2", "eq3": "eq3", "eq4": "eq4"}

# (rtol, atol) per quantity
TOLERANCES = {
    "analytic": {"t": (0.0, 0.0), "k": (1e-10, 1e-12), "p": (1e-10, 1e-12),
                 "eq": (1e-8, 1e-9), "residuals": (1e-6, 1e-12)},
    "synthesized": {"t": (0.0, 0.0), "k": (1e-7, 1e-9), "p": (1e-7, 1e-9),
                    "eq": (1e-6, 1e-7), "residuals": (1e-4, 1e-9)},
}


def _jsonable(v):
    v = float(v)
    return v if np.isfinite(v) else None


def snapshot(name: str) -> dict:
    """Run `verify` on builtin `name` and extract the pinned quantities."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cfg = tmp / "cfg.ini"
        cfg.write_text(f"[manifold]\nm = 2\ns = 2\n\n"
                       f"[curve]\nsource = builtin:{name}\n")
        code = cli.run_verify(str(cfg), report_path=str(tmp / "r.json"),
                              csv_path=str(tmp / "s.csv"))
        assert code == cli.EXIT_OK
        payload = json.loads((tmp / "r.json").read_text())
        with open(tmp / "s.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    report = payload["report"]
    return {
        "builtin": name,
        "report": {"verdict": report["verdict"], "case": report["case"],
                   "osculating_order": payload["curve"]["osculating_order"],
                   "residuals": report["residuals"]},
        "n_samples": len(rows),
        "stride": STRIDE,
        "samples": {key: [_jsonable(r[col]) for r in rows[::STRIDE]]
                    for key, col in COLUMNS.items()},
    }


def _close(actual, expected, tol, what):
    rtol, atol = tol
    a = np.array([np.nan if v is None else v for v in np.atleast_1d(actual)],
                 dtype=float)
    e = np.array([np.nan if v is None else v for v in np.atleast_1d(expected)],
                 dtype=float)
    assert a.shape == e.shape, what
    np.testing.assert_allclose(a, e, rtol=rtol, atol=atol, equal_nan=True,
                               err_msg=what)


@pytest.mark.parametrize("name", ANALYTIC + SYNTHESIZED)
def test_verify_matches_golden(name):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    got = snapshot(name)
    tol = TOLERANCES["analytic" if name in ANALYTIC else "synthesized"]
    for key in ("verdict", "case", "osculating_order"):
        assert got["report"][key] == golden["report"][key], key
    assert got["n_samples"] == golden["n_samples"]
    assert sorted(got["report"]["residuals"]) == sorted(golden["report"]["residuals"])
    for key, value in golden["report"]["residuals"].items():
        _close(got["report"]["residuals"][key], value, tol["residuals"], key)
    for key, values in golden["samples"].items():
        _close(got["samples"][key], values, tol[key.rstrip("1234")], key)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in ANALYTIC + SYNTHESIZED:
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(snapshot(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}", file=sys.stderr)
