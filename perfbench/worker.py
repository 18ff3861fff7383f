"""The serving process of the in-process workloads, and input generation.

    python perfbench/worker.py serve WARMUP_JSON
        Import sspaceform.cli, run the untimed warm-up request, print a
        ready line, then answer one JSON request per stdin line with one
        JSON reply line on stdout (closed loop: the client sends the next
        request only after the reply).  Ops: run, trace (on/off), quit.

    python perfbench/worker.py generate INPUTS_JSON
        Synthesize the trace CSVs that csv: requests read, via
        `cli.run_synth`, and trim them to the requested windows.

The client puts src/ on PYTHONPATH; this file only needs the standard
library before it imports sspaceform.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402


def execute(req: dict) -> dict:
    """Run one request through the package; time only the package call."""
    from sspaceform import cli, odesol
    out, err = io.StringIO(), io.StringIO()
    result = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            kind = req["kind"]
            if kind == "verify":
                rc = cli.run_verify(req["config"], report_path=req["report"],
                                    csv_path=req.get("csv"))
            elif kind == "synth":
                rc = cli.run_synth(req["builtin"], req["out"], req["window"],
                                   workloads.STEP, bool(req.get("verify")),
                                   report_path=req.get("report"))
            elif kind == "ode":
                rc = cli.main(workloads.cli_argv(req))
            elif kind == "oracle":
                spec = odesol.OdeSolutionSpec(
                    epsilon=0, lam=0.0, c2=workloads.ORACLE_C2,
                    c3=req["c3"], c4=req["c4"])
                y0, yp0, _ = odesol.case_iii_profile(spec, [0.0])
                sol = odesol.numeric_solution_oracle(
                    spec, float(y0[0]), float(yp0[0]), window=(-2.0, 2.0),
                    step=workloads.ORACLE_STEP)
                c = odesol.first_integral(sol.y, sol.yp, spec)
                rc = 0
                result = (sol, c)
            else:
                raise ValueError(f"unknown request kind {kind!r}")
        except Exception as exc:  # the reply reports it; the loop goes on
            rc = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    reply = {"rc": rc, "dt": dt, "stdout": out.getvalue(),
             "stderr": err.getvalue()}
    if result is not None:
        import numpy as np
        sol, c = result
        n = len(sol.ts)
        reply["result"] = {
            "steps": n - 1,
            "truncated": bool(sol.truncated),
            "first_integral_drift": float(np.max(np.abs(c - c[0])) / abs(c[0])),
            "points": {str(i): [float(sol.ts[i]), float(sol.y[i])]
                       for i in workloads.checkpoint_rows(n)},
        }
    return reply


def serve(warmup: dict | None) -> int:
    proto = sys.stdout
    import sspaceform.cli  # noqa: F401
    if warmup is not None:
        reply = execute(warmup)
        if reply["rc"] != 0:
            print(json.dumps({"ready": False, "reply": reply}), file=proto,
                  flush=True)
            return 1
    print(json.dumps({"ready": True}), file=proto, flush=True)
    tracer = None
    spans_path = None
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "run":
            if tracer is not None:
                tracer.request = msg.get("id", -1)
            reply = execute(msg["req"])
        elif op == "trace":
            if tracer is None:
                from tracer import Tracer
                tracer = Tracer()
                tracer.install()
                spans_path = msg["spans"]
            elif msg["on"]:
                tracer.enable()
            if not msg["on"]:
                tracer.disable()
            reply = {"absent": tracer.absent}
        elif op == "quit":
            if tracer is not None:
                tracer.dump(spans_path)
            usage = resource.getrusage(resource.RUSAGE_SELF)
            print(json.dumps({"maxrss_kb": usage.ru_maxrss}), file=proto,
                  flush=True)
            return 0
        else:
            reply = {"rc": f"unknown op {op!r}"}
        print(json.dumps(reply), file=proto, flush=True)
    return 0


def generate(inputs: list[dict]) -> int:
    """inputs: [{"synth": builtin, "full": path, "trims": {path: trim}}]."""
    from sspaceform import cli
    for item in inputs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run_synth(item["synth"], item["full"], "-2:2",
                               workloads.STEP, False)
        if rc != 0:
            print(f"input synthesis of {item['synth']} failed: exit {rc}",
                  file=sys.stderr)
            return 1
        for path, trim in item["trims"].items():
            workloads.trim_csv(item["full"], path, trim)
    return 0


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "serve":
        sys.exit(serve(json.loads(arg)))
    with open(arg) as fh:
        sys.exit(generate(json.load(fh)))
