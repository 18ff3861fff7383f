"""Workload definitions, seeded batches and output checks.

Nothing here imports sspaceform: the client (run.py) uses this module to
build requests and check what the serving process wrote, and the serving
process (worker.py) executes the requests.

A workload is a list of slots.  Each slot draws one variant from a short
list whose expected outputs were recorded in references.json (record.py),
so every request the seed can produce has a known verdict.  The seed picks
the variant of each slot and the order of the batch; n stays fixed per slot
so that timings repeat across seeds.
"""
from __future__ import annotations

import json
import math
import os
import random

# -- variants ---------------------------------------------------------------
# Windows use multiples of 1/8 so that every n is exact.

CATENARY_SHIFTS = [-0.5, -0.25, 0.0, 0.25, 0.5]
CATENARY_WIDE_SHIFTS = [-1.0, -0.5, 0.0, 0.5, 1.0]
# rows dropped at the (start, end) of a synthesized -2:2 trace; the total
# is fixed so that every variant has the same n
CSV_TRIMS = [(0, 160), (40, 120), (80, 80), (120, 40), (160, 0)]
CIRCLE_RADII = [1.5, 2.0, 2.5, 3.0]
CASE_III = [(1.0, 0.0), (2.0, 0.5), (4.0, -0.5), (0.5, 1.0)]   # (c3, c4)
R6_CENTERS = [-0.25, -0.125, 0.0, 0.125, 0.25]
C2O3_CENTERS = [-0.25, 0.0, 0.25]     # synthesized with --verify

STEP = 1e-3
ODE_RANGE = "-2:2:0.0001"               # 40001 grid points
ORACLE_STEP = 2.5e-5                    # 160001 grid points on (-2, 2)
ORACLE_C2 = 1.0

SLOTS = {
    "catenary-4001": CATENARY_SHIFTS,
    "catenary-16001": CATENARY_WIDE_SHIFTS,
    "csv-case2-order3": CSV_TRIMS,
    "csv-r6-steered": CSV_TRIMS,
    "cold-catenary": CATENARY_SHIFTS,
    "cold-circle": CIRCLE_RADII,
    "cold-ode": CASE_III,
    "synth-r6-example": R6_CENTERS,
    "synth-case2-order3": C2O3_CENTERS,
    "oracle-iii": CASE_III,
}

# Each workload: how requests are served, the slots of one pass, and the
# fixed untimed warm-up request (slot, variant) of an in-process worker.
# verify-warm carries two 16001-sample catenaries per pass so that the
# slowest tenth of requests lies inside one request type at every seed.
WORKLOADS = {
    "cli-cold": {
        "mode": "cold",
        "slots": ["cold-catenary", "cold-circle", "cold-ode"],
        "warmup": None,
    },
    "verify-warm": {
        "mode": "warm",
        "slots": ["catenary-4001", "catenary-16001", "catenary-16001",
                  "csv-case2-order3", "csv-r6-steered"],
        "warmup": ("catenary-4001", 0.0),
    },
    "synth": {
        "mode": "warm",
        "slots": ["synth-r6-example", "synth-case2-order3", "oracle-iii"],
        "warmup": ("synth-case2-order3", 0.0),
    },
}

# Verdicts the paper fixes independently of the recorded references.
EXPECTED_VERDICT = {
    "catenary-4001": "proper-f-biharmonic",
    "catenary-16001": "proper-f-biharmonic",
    "cold-catenary": "proper-f-biharmonic",
    "csv-case2-order3": "proper-f-biharmonic",
    "csv-r6-steered": "none",
    "synth-r6-example": "none",
    "synth-case2-order3": "proper-f-biharmonic",
}

# Per-quantity tolerances: |got - ref| <= rtol |ref| + atol.
TOLERANCES = {
    "residuals_analytic": {"rtol": 1e-6, "atol": 1e-9},
    "residuals_sampled": {"rtol": 1e-3, "atol": 1e-9},
    "k1_analytic": {"rtol": 1e-9, "atol": 1e-12},
    "k1_sampled": {"rtol": 1e-4, "atol": 1e-9},
    "trace_points": {"rtol": 1e-6, "atol": 1e-9},
    "ode_values": {"rtol": 1e-9, "atol": 1e-12},
    "first_integral_drift": {"max": 1e-10},
}

# traces whose derivatives come from finite differences
SAMPLED_SLOTS = {"csv-case2-order3", "csv-r6-steered", "synth-case2-order3"}


def _window(center: float, half: float) -> str:
    return f"{center - half!r}:{center + half!r}"


def make_batch(workload: str, seed: int) -> list[dict]:
    """The seeded batch of one pass: a variant per slot, in seeded order."""
    rng = random.Random(seed)
    slots = WORKLOADS[workload]["slots"]
    batch = [make_request(slot, rng.choice(SLOTS[slot])) for slot in slots]
    rng.shuffle(batch)
    return batch


def make_request(slot: str, variant) -> dict:
    """Describe one request; paths are filled in by `bind_paths`."""
    req = {"slot": slot, "variant": variant,
           "key": f"{slot}/{json.dumps(variant)}"}
    if slot in ("catenary-4001", "cold-catenary"):
        req.update(kind="verify", source="builtin:catenary",
                   window=_window(variant, 2.0), samples=4001)
    elif slot == "catenary-16001":
        req.update(kind="verify", source="builtin:catenary",
                   window=_window(variant, 8.0), samples=16001)
    elif slot == "cold-circle":
        req.update(kind="verify", source="builtin:circle", window="-2.0:2.0",
                   radius=variant, samples=4001)
    elif slot == "csv-case2-order3":
        req.update(kind="verify", source="csv", synth="case2-order3",
                   trim=variant, samples=4001 - sum(variant))
    elif slot == "csv-r6-steered":
        req.update(kind="verify", source="csv", synth="r6-steered",
                   trim=variant, samples=2925 - sum(variant))
    elif slot == "cold-ode":
        c3, c4 = variant
        req.update(kind="ode", c3=c3, c4=c4, samples=40001)
    elif slot == "synth-r6-example":
        req.update(kind="synth", builtin="r6-example",
                   window=_window(variant, 0.5), samples=1001)
    elif slot == "synth-case2-order3":
        req.update(kind="synth", builtin="case2-order3", verify=True,
                   window=_window(variant, 1.0), samples=2001)
    elif slot == "oracle-iii":
        c3, c4 = variant
        req.update(kind="oracle", c3=c3, c4=c4, samples=160001)
    else:
        raise KeyError(slot)
    return req


def bind_paths(req: dict, workdir: str, index: int) -> dict:
    """Give a request its input and output paths inside `workdir`."""
    req = dict(req)
    stem = os.path.join(workdir, f"r{index}")
    if req["kind"] == "verify":
        req["config"] = stem + ".ini"
        req["report"] = stem + ".json"
        req["csv"] = stem + ".csv"
        if req["source"] == "csv":
            req["trace"] = os.path.join(
                workdir, "in-{}-{}-{}.csv".format(req["synth"], *req["trim"]))
    elif req["kind"] in ("ode", "synth"):
        req["out"] = stem + ".csv"
        if req.get("verify"):
            req["report"] = stem + ".json"
    return req


def write_config(req: dict) -> None:
    source = req["source"]
    if source == "csv":
        source = "csv:" + req["trace"]
    lines = ["[manifold]", "m = 2", "s = 2", "[curve]",
             f"source = {source}", f"step = {STEP!r}"]
    if "window" in req:
        lines.append(f"window = {req['window']}")
    if "radius" in req:
        lines.append(f"radius = {req['radius']!r}")
    with open(req["config"], "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_argv(req: dict) -> list[str]:
    """Arguments of `sspaceform` for a cold request."""
    if req["kind"] == "verify":
        return ["verify", "--config", req["config"], "--report", req["report"],
                "--csv", req["csv"]]
    if req["kind"] == "ode":
        return ["ode", "--case", "iii", f"--c2={ORACLE_C2!r}",
                f"--c3={req['c3']!r}", f"--c4={req['c4']!r}",
                f"--range={ODE_RANGE}", "--out", req["out"]]
    raise ValueError(f"no CLI form for {req['kind']!r}")


def prepare_inputs(reqs: list[dict], workdir: str) -> list[dict]:
    """Write the verify configs; list the trace CSVs to synthesize."""
    inputs = {}
    for req in reqs:
        if req["kind"] == "verify":
            write_config(req)
        if req.get("source") == "csv":
            item = inputs.setdefault(req["synth"], {
                "synth": req["synth"],
                "full": os.path.join(workdir, f"full-{req['synth']}.csv"),
                "trims": {}})
            item["trims"][req["trace"]] = req["trim"]
    return list(inputs.values())


def trim_csv(src: str, dst: str, trim: tuple[int, int]) -> None:
    with open(src) as fh:
        lines = fh.readlines()
    body = lines[1:]
    body = body[trim[0]:len(body) - trim[1]]
    with open(dst, "w") as fh:
        fh.writelines(lines[:1] + body)


# -- observed outputs -----------------------------------------------------------

def checkpoint_rows(n: int) -> list[int]:
    return sorted({0, n // 4, n // 2, (3 * n) // 4, n - 1})


def _csv_rows(path: str, rows: list[int]) -> tuple[int, dict]:
    """Data-row count of a CSV and the float values of the requested rows."""
    wanted = set(rows)
    picked = {}
    count = 0
    with open(path) as fh:
        next(fh)
        for i, line in enumerate(fh):
            if i in wanted:
                picked[i] = [float(x) for x in line.split(",")]
            count += 1
    return count, picked


def summarize(req: dict, reply: dict) -> dict:
    """The quantities of a request's outputs that the check compares."""
    out = {"exit_code": reply["rc"]}
    if reply["rc"] != 0:
        return out
    kind = req["kind"]
    if kind == "verify":
        with open(req["report"]) as fh:
            rep = json.load(fh)
        n = rep["curve"]["n_samples"]
        rows, picked = _csv_rows(req["csv"], [n // 2])
        out.update(verdict=rep["report"]["verdict"], case=rep["report"]["case"],
                   osculating_order=rep["curve"]["osculating_order"],
                   n_samples=n, residuals=rep["report"]["residuals"],
                   csv_rows=rows, k1_mid=picked[n // 2][1])
    elif kind in ("synth", "ode"):
        n = req["samples"]
        rows, picked = _csv_rows(req["out"], checkpoint_rows(n))
        if kind == "synth":
            points = {str(i): v[:7] for i, v in picked.items()}
        else:
            points = {str(i): v[:2] for i, v in picked.items()}
        # "wrote N samples to PATH" / "real fraction F, max residual ..."
        last = reply["stdout"].strip().splitlines()[-1]
        out.update(csv_rows=rows, points=points,
                   stdout=last.split(" to ")[0].split(",")[0])
        if req.get("report"):
            with open(req["report"]) as fh:
                rep = json.load(fh)
            out.update(verdict=rep["report"]["verdict"],
                       case=rep["report"]["case"],
                       osculating_order=rep["curve"]["osculating_order"],
                       residuals=rep["report"]["residuals"])
    elif kind == "oracle":
        out.update(reply["result"])
    return out


def verdict_request(req: dict) -> dict:
    """An untimed verify of a synthesized trace, for its verdict."""
    stem = os.path.splitext(req["out"])[0] + "-check"
    check = {"slot": "verdict-check", "kind": "verify", "source": "csv",
             "trace": req["out"], "config": stem + ".ini",
             "report": stem + ".json"}
    write_config(check)
    return check


def needs_verdict(req: dict) -> bool:
    return (req["kind"] == "synth" and not req.get("verify")
            and req["slot"] in EXPECTED_VERDICT)


def _close(got, ref, tol) -> bool:
    return (isinstance(got, (int, float)) and math.isfinite(got)
            and abs(got - ref) <= tol["rtol"] * abs(ref) + tol["atol"])


def compare(req: dict, got: dict, ref: dict | None) -> list[str]:
    """Mismatches between a request's outputs and its reference."""
    if ref is None:
        return [f"{req['key']}: no reference recorded"]
    errs = []
    for name in ("exit_code", "verdict", "case", "osculating_order",
                 "n_samples", "csv_rows", "stdout", "truncated", "steps"):
        if name in ref and got.get(name) != ref[name]:
            errs.append(f"{name} {got.get(name)!r} != {ref[name]!r}")
    want = EXPECTED_VERDICT.get(req["slot"])
    if want is not None and got.get("verdict") != want:
        errs.append(f"verdict {got.get('verdict')!r}, paper expects {want!r}")
    kind = "sampled" if req["slot"] in SAMPLED_SLOTS else "analytic"
    for name, value in ref.get("residuals", {}).items():
        if not _close(got.get("residuals", {}).get(name), value,
                      TOLERANCES[f"residuals_{kind}"]):
            errs.append(f"residual {name} {got.get('residuals', {}).get(name)!r}"
                        f" vs {value!r}")
    if "k1_mid" in ref and not _close(got.get("k1_mid"), ref["k1_mid"],
                                      TOLERANCES[f"k1_{kind}"]):
        errs.append(f"k1 mid-window {got.get('k1_mid')!r} vs {ref['k1_mid']!r}")
    tol = TOLERANCES["ode_values" if req["kind"] in ("ode", "oracle")
                     else "trace_points"]
    for row, values in ref.get("points", {}).items():
        seen = got.get("points", {}).get(row)
        if seen is None or len(seen) != len(values) or not all(
                _close(g, r, tol) for g, r in zip(seen, values)):
            errs.append(f"row {row} {seen!r} vs {values!r}")
    if "first_integral_drift" in ref:
        drift = got.get("first_integral_drift")
        if not (isinstance(drift, float)
                and drift <= TOLERANCES["first_integral_drift"]["max"]):
            errs.append(f"first-integral drift {drift!r}")
    return [f"{req['key']}: {e}" for e in errs]


def output_bytes(req: dict) -> int:
    paths = [req.get(k) for k in ("report", "csv", "out")]
    return sum(os.path.getsize(p) for p in paths if p and os.path.exists(p))
