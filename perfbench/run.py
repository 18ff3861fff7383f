"""Benchmark of sspaceform as a batch numerical tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S

Run from the root of a checkout.  The program is taken from src/ of that
checkout; the benchmark reads and writes only inside it (a scratch
directory under .perfbench/ that is removed at exit).

One client drives one serving process in a closed loop: the next request
is sent only after the previous one finished.  cli-cold starts a fresh
process per request, as the `sspaceform` console script would; verify-warm and synth send the
requests to one long-lived worker (worker.py) that has the package
imported.  A pass is one run of the workload's seeded batch; passes repeat
until --seconds have gone by.  Every request is checked against
references.json before the next pass overwrites its outputs.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
passes and passes with spans (tracer.py) and prints the per-layer metrics,
including the tracing overhead.  Metric names and units come from
BENCHMARK.json at the checkout root.  The last stdout line is one JSON
object with correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

PY = sys.executable
# what the installed `sspaceform` console script runs
CONSOLE_SCRIPT = "import sys; from sspaceform.cli import main; sys.exit(main())"
SETUP_REPEATS = {"cold": 5, "warm": 3}
MIN_REQUESTS = 11           # the tail needs ten requests beyond it
MIN_PASSES = 2
CHILD_TIMEOUT = 150
VERIFY_RATIOS = ("curve.covariant_chain", "biharmonic.tau3",
                 "biharmonic.tau2", "slant.phiT_decomposition",
                 "manifold.connection_term")


class BenchError(RuntimeError):
    pass


# -- environment --------------------------------------------------------------

def child_env(root: str, workdir: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = workdir
    return env


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint(root: str, seed: int) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    nproc = len(os.sched_getaffinity(0))
    blas = None
    try:
        import numpy
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    except (ImportError, KeyError, AttributeError):
        pass
    set_threads = [v for v in threads.values() if v]
    return {
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas": blas,
        "blas_threads_env": threads,
        # OpenBLAS and OpenMP default to one thread per usable CPU
        "blas_threads_in_effect": int(set_threads[0]) if set_threads else nproc,
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "seed": seed,
    }


def import_breakdown(env: dict, workdir: str) -> dict:
    """cli.import.* from `python -X importtime -c "import sspaceform.cli"`."""
    proc = subprocess.run([PY, "-X", "importtime", "-c",
                           "import sspaceform.cli"], env=env, cwd=workdir,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        raise BenchError(f"import of sspaceform.cli failed:\n{proc.stderr}")
    total = scipy = numpy = 0.0
    pat = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")
    for line in proc.stderr.splitlines():
        m = pat.match(line)
        if not m:
            continue
        self_us, cum_us, indent, name = (int(m[1]), int(m[2]), len(m[3]),
                                         m[4])
        top = name.split(".")[0]
        if top == "sspaceform" and indent == 1:
            total += cum_us
        if top == "scipy":
            scipy += self_us
        if top == "numpy":
            numpy += self_us
    return {"cli.import.total_s": total / 1e6, "cli.import.scipy_s": scipy / 1e6,
            "cli.import.numpy_s": numpy / 1e6}


# -- inputs --------------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: str, env: dict):
    """Bind the seeded batch and the warm-up request to files in workdir."""
    batch = [workloads.bind_paths(r, workdir, i)
             for i, r in enumerate(workloads.make_batch(workload, seed))]
    warm = workloads.WORKLOADS[workload]["warmup"]
    warmup = None
    if warm is not None:
        warmup = workloads.bind_paths(workloads.make_request(*warm), workdir,
                                      len(batch))
    inputs = workloads.prepare_inputs(batch + ([warmup] if warmup else []),
                                      workdir)
    if inputs:
        spec = os.path.join(workdir, "inputs.json")
        with open(spec, "w") as fh:
            json.dump(inputs, fh)
        proc = subprocess.run([PY, os.path.join(HERE, "worker.py"),
                               "generate", spec], env=env, cwd=workdir,
                              capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise BenchError(f"input generation failed:\n{proc.stderr}")
    return batch, warmup


# -- serving processes ------------------------------------------------------------

class Worker:
    """A warm serving process; `setup_s` is launch to ready."""

    def __init__(self, warmup: dict | None, env: dict, workdir: str):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [PY, os.path.join(HERE, "worker.py"), "serve", json.dumps(warmup)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=workdir)
        ready = self._read()
        self.setup_s = time.perf_counter() - t0
        if not ready.get("ready"):
            self.close()
            raise BenchError(f"worker set-up failed: {ready}")

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker exited (code {self.proc.wait()})")
        return json.loads(line)

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def quit(self) -> int:
        maxrss = self.call({"op": "quit"})["maxrss_kb"]
        self.proc.wait(timeout=CHILD_TIMEOUT)
        return maxrss

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def cold_setup(env: dict, workdir: str) -> float:
    t0 = time.perf_counter()
    proc = subprocess.run([PY, "-c", "import sspaceform.cli"], env=env,
                          cwd=workdir, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(f"import of sspaceform.cli failed:\n{proc.stderr}")
    return dt


def run_cold(req: dict, env: dict, workdir: str, traced: bool,
             rid: int) -> dict:
    argv = workloads.cli_argv(req)
    if traced:
        cmd = [PY, os.path.join(HERE, "traced_cli.py"),
               os.path.join(workdir, f"spans-{rid}.json"), str(rid), "--"] + argv
    else:
        cmd = [PY, "-c", CONSOLE_SCRIPT] + argv
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    return {"rc": proc.returncode, "dt": dt, "stdout": proc.stdout,
            "stderr": proc.stderr}


# -- the measured loop --------------------------------------------------------------

class Session:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, workload, batch, env, workdir, refs, worker=None):
        self.mode = workloads.WORKLOADS[workload]["mode"]
        self.batch = batch
        self.env = env
        self.workdir = workdir
        self.refs = refs
        self.worker = worker
        self.passes = []            # {"wall", "times", "bytes", "traced"}
        self.request_pass = {}      # request id -> pass index
        self.attempted = 0
        self.failures = []
        self.traced = False
        self.spans_path = os.path.join(workdir, "spans-worker.json")

    def run_pass(self) -> None:
        index = len(self.passes)
        replies = []
        t0 = time.perf_counter()
        for req in self.batch:
            rid = len(self.request_pass)
            self.request_pass[rid] = index
            if self.mode == "cold":
                reply = run_cold(req, self.env, self.workdir, self.traced, rid)
            else:
                reply = self.worker.call({"op": "run", "req": req, "id": rid})
            replies.append(reply)
        wall = time.perf_counter() - t0
        self.passes.append({"wall": wall,
                            "times": [r["dt"] for r in replies],
                            "bytes": sum(workloads.output_bytes(r)
                                         for r in self.batch),
                            "traced": self.traced})
        for req, reply in zip(self.batch, replies):
            self.attempted += 1
            errs = self.check(req, reply)
            if errs:
                self.failures.append(errs)

    def check(self, req: dict, reply: dict) -> list[str]:
        try:
            got = workloads.summarize(req, reply)
            if workloads.needs_verdict(req) and reply["rc"] == 0:
                check = workloads.verdict_request(req)
                self.worker.call({"op": "run", "req": check, "id": -1})
                with open(check["report"]) as fh:
                    got["verdict"] = json.load(fh)["report"]["verdict"]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            got = {"exit_code": reply["rc"], "error": repr(exc)}
        errs = workloads.compare(req, got, self.refs.get(req["key"]))
        if errs and reply.get("stderr"):
            errs.append(reply["stderr"].strip()[-500:])
        return errs

    def loop(self, seconds: float, trace: bool) -> None:
        """Run passes for `seconds`; with `trace`, every other one traced.

        Alternating passes expose traced and untraced requests to the same
        drift in machine speed, so their difference is the overhead.
        """
        start = time.perf_counter()
        while True:
            traced = trace and len(self.passes) % 2 == 1
            if self.worker is not None and traced != self.traced:
                self.worker.call({"op": "trace", "on": traced,
                                  "spans": self.spans_path})
            self.traced = traced
            self.run_pass()
            if time.perf_counter() - start >= seconds and all(
                    len(self.times(side)) >= MIN_REQUESTS
                    and sum(p["traced"] == side for p in self.passes)
                    >= MIN_PASSES for side in {False, trace}):
                return

    def times(self, traced: bool) -> list[float]:
        return [t for p in self.passes if p["traced"] == traced
                for t in p["times"]]


def tail(times: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest percentile with >= 10 beyond."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(session: Session, setups: list[float], maxrss_kb: int) -> dict:
    times = session.times(False)
    samples = sum(req["samples"] for req in session.batch)
    tail_s, pct = tail(times)
    failed = len(session.failures)
    return {
        "setup_s": statistics.median(setups),
        "samples_per_s": statistics.median(samples / p["wall"]
                                           for p in session.passes),
        "request_p50_s": statistics.median(times),
        "request_tail_s": tail_s,
        "peak_rss_mb": maxrss_kb / 1024.0,
        "success_rate": (session.attempted - failed) / session.attempted,
    }, {"tail_percentile": pct, "requests": len(times),
        "slot_p50_s": {req["key"]: statistics.median(
            p["times"][j] for p in session.passes)
            for j, req in enumerate(session.batch)},
        "passes": len(session.passes), "setup_runs": setups,
        "error_rate": failed / session.attempted}


def load_spans(paths: list[str]) -> tuple[list[tuple], list[str]]:
    """(label, request id, self time, count, under run_verify) per span."""
    rows = []
    absent = set()
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        names = data["names"]
        absent.update(data["absent"])
        sp = data["spans"]
        labels = [names[i] for i in sp["name"]]
        # ids are taken at span start, so a parent precedes its children
        in_verify = []
        for label, parent in zip(labels, sp["parent"]):
            in_verify.append(parent >= 0 and (
                labels[parent] == "cli.run_verify" or in_verify[parent]))
        for label, req, self_t, count, inside in zip(
                labels, sp["req"], sp["self_time"], sp["count"], in_verify):
            if req >= 0:
                rows.append((label, req, self_t, count, inside))
    return rows, sorted(absent)


def per_layer(session: Session, spans: list[tuple], imports: dict) -> tuple:
    traced = [i for i, p in enumerate(session.passes) if p["traced"]]
    labels = [f"{mod}.{name.split('.')[-1]}" for mod, names in TARGETS.items()
              for name in names]
    calls = {i: dict.fromkeys(labels, 0) for i in traced}
    self_s = {i: dict.fromkeys(labels, 0.0) for i in traced}
    counts = {i: dict.fromkeys(labels, 0) for i in traced}
    in_verify = dict.fromkeys(labels, 0)
    for label, req, self_t, count, inside in spans:
        i = session.request_pass[req]
        calls[i][label] += 1
        self_s[i][label] += self_t
        counts[i][label] += count
        in_verify[label] += inside

    def median_of(fn):
        return statistics.median(fn(i) for i in traced)

    out = dict(imports)
    for label in labels:
        out[f"{label}.calls"] = median_of(lambda i: calls[i][label])
        out[f"{label}.self_s"] = median_of(lambda i: self_s[i][label])
    for mod in TARGETS:
        out[f"{mod}.self_s"] = median_of(lambda i: sum(
            v for k, v in self_s[i].items() if k.startswith(mod + ".")))
    out["synth.rk4_steps"] = median_of(
        lambda i: counts[i]["synth.integrate_frenet_system"]
        + counts[i]["synth.steered_slant_curve"])
    out["odesol.numeric_solution_oracle.steps"] = median_of(
        lambda i: counts[i]["odesol.numeric_solution_oracle"])
    verifies = sum(calls[i]["cli.run_verify"] for i in traced)
    for label in VERIFY_RATIOS:
        out[f"{label}.calls_per_verify"] = (in_verify[label] / verifies
                                            if verifies else 0.0)
    out["cli.bytes_written"] = median_of(lambda i: session.passes[i]["bytes"])
    out["bench.trace_overhead_s"] = (statistics.median(session.times(True))
                                     - statistics.median(session.times(False)))
    repeat = [label for label in labels
              if len({calls[i][label] for i in traced}) > 1]
    return out, {"calls_not_repeating": repeat, "traced_passes": len(traced)}


def run_workload(root: str, workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict]:
    spec = workloads.WORKLOADS[workload]
    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)["requests"]
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = os.path.join(base, f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(workdir)
    env = child_env(root, workdir)
    workers = []
    try:
        batch, warmup = prepare(workload, seed, workdir, env)
        setups = []
        worker = None
        if spec["mode"] == "cold":
            cold_setup(env, workdir)    # untimed: fills the page cache
            if not trace:
                setups = [cold_setup(env, workdir)
                          for _ in range(SETUP_REPEATS["cold"])]
        else:
            for _ in range(1 if trace else SETUP_REPEATS["warm"]):
                if worker is not None:
                    worker.quit()
                worker = Worker(warmup, env, workdir)
                workers.append(worker)
                setups.append(worker.setup_s)
        session = Session(workload, batch, env, workdir, refs, worker)
        details = {"workload": workload, "seed": seed,
                   "fingerprint": fingerprint(root, seed),
                   "batch": [r["key"] for r in batch]}
        session.loop(seconds, trace)
        if not trace:
            if worker is not None:
                maxrss = worker.quit()
            else:
                maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics, more = end_to_end(session, setups, maxrss)
        else:
            imports = [import_breakdown(env, workdir) for _ in range(3)]
            imports = {k: statistics.median(d[k] for d in imports)
                       for k in imports[0]}
            if worker is not None:
                worker.quit()
                spans_files = [session.spans_path]
            else:
                spans_files = [os.path.join(workdir, f"spans-{rid}.json")
                               for rid, i in session.request_pass.items()
                               if session.passes[i]["traced"]]
            spans, absent = load_spans([p for p in spans_files
                                        if os.path.exists(p)])
            metrics, more = per_layer(session, spans, imports)
            more["absent"] = absent
        details.update(more)
        details["failures"] = session.failures[:20]
        details["attempted"] = session.attempted
        details["failed"] = len(session.failures)
        return metrics, details
    finally:
        for w in workers:
            w.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass                    # another run still uses it


# -- output ------------------------------------------------------------------------

def declared(root: str, trace: bool) -> list[dict]:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def select(metrics: dict, wanted: list[dict], prefix: str = "") -> dict:
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {prefix + m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in wanted}


def print_table(title: str, selected: dict) -> None:
    print(f"== {title}")
    for name, m in selected.items():
        print(f"  {name:50s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sspaceform", "cli.py")):
        print("error: run from the root of a sspaceform checkout "
              "(src/sspaceform/cli.py not found)", file=sys.stderr)
        return 2
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    traces = [False, True] if args.workload == "all" else [bool(args.trace)]
    signal.signal(signal.SIGALRM, _timeout)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in names:
            for trace in traces:
                signal.alarm(int(args.seconds) + 140)
                metrics, details = run_workload(root, name, args.seed,
                                                args.seconds, trace)
                signal.alarm(0)
                prefix = f"{name}/" if args.workload == "all" else ""
                wanted = declared(root, trace)
                selected = select(metrics, wanted, prefix)
                names_wanted = {m["name"] for m in wanted}
                details["other_metrics"] = {k: v for k, v in metrics.items()
                                            if k not in names_wanted}
                print_table(f"{name} trace={int(trace)} seed={args.seed}",
                            selected)
                print(json.dumps({"details": details}, sort_keys=True))
                result["metrics"].update(selected)
                result["attempted"] += details["attempted"]
                result["failed"] += details["failed"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


def _timeout(signum, frame):
    raise BenchError("run exceeded its time limit")


if __name__ == "__main__":
    sys.exit(main())
