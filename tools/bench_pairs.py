"""Alternating parent/change pairs of `perfbench/run.py`, written to one JSON record.

    python3 tools/bench_pairs.py --parent REV --workload synth \\
        --out BENCH_<n>.json

Run from the root of a sspaceform git checkout.  The parent side is `git
archive REV` extracted into a temporary directory; the change side is the
working tree itself, uncommitted edits included.  Each side runs its own
`perfbench/run.py --trace 0` for the `run_seconds` of BENCHMARK.json.
There are always 10 pairs: pair i uses seed `--seed + i` on both sides,
and the side that runs first alternates from pair to pair, so that drift in
machine speed falls on both sides alike.  After the pairs, each side makes
one traced run (`--trace 1`, first seed) per workload for the per-layer
metrics.

The record holds, per workload and per end-to-end metric of BENCHMARK.json,
each side's runs, median and quartiles (`statistics.quantiles`, n = 4), its
interquartile range relative to its own median (None for a zero median), the
pairs the change won, lost and tied (by the metric's `better` direction),
and two verdicts.  `gain` is true when the change won at least 9/10 of the
pairs, its median is better than the parent's by more than the parent's
interquartile range, and no larger share of its requests failed.
`regression` is true when the change's median is worse than the parent's
by more than the metric's bound times the parent's median; otherwise it is
"unresolved" when either side's interquartile range is wider than that
bound and not every change run is better than every parent run, and false
when neither holds.  The record also holds each side's failed share of
requests, traced per-layer metrics and the environment fingerprint that
run.py reports.

The temporary checkout is removed at exit, and every process a run starts
is killed with its process group if the run fails or is interrupted.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile

# pairs per workload: the fewest a gain may be judged on
PAIRS = 10
# run.py stops itself after --seconds + 140 s of one workload; a side that
# has not finished by then is hung
RUN_SLACK_S = 200


def run_bench(root: str, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One `perfbench/run.py` run in checkout `root`: its result object and
    the fingerprint from its details line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=seconds + RUN_SLACK_S)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    details = [json.loads(line)["details"] for line in lines
               if line.startswith('{"details"')]
    result["fingerprint"] = details[0]["fingerprint"] if details else None
    return result


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"runs": values, "median": median, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / abs(median) if median else None}


def failed_share(runs: list[dict]) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def compare(parent: list[dict], change: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' summaries, wins and verdicts."""
    more_failures = failed_share(change) > failed_share(parent)
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        wins = sum((cv > pv) if higher else (cv < pv) for pv, cv in zip(p, c))
        ties = sum(cv == pv for pv, cv in zip(p, c))
        ps, cs = summary(p), summary(c)
        diff = cs["median"] - ps["median"]
        worse = -diff if higher else diff
        allowed = spec["bound"] * abs(ps["median"])
        separated = min(c) > max(p) if higher else max(c) < min(p)
        if worse > allowed:
            regression = True
        elif (max(ps["q3"] - ps["q1"], cs["q3"] - cs["q1"]) > allowed
              and not separated):
            regression = "unresolved"
        else:
            regression = False
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "bound": spec["bound"], "parent": ps, "change": cs,
            "wins": wins, "losses": len(p) - wins - ties, "ties": ties,
            "gain": (wins >= 0.9 * len(p) and -worse > ps["q3"] - ps["q1"]
                     and not more_failures),
            "regression": regression,
        }
    return out


def checkout(repo: str, rev: str, dest: str) -> str:
    """Extract `rev` into `dest`; return the full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            cwd=repo, capture_output=True, text=True,
                            check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             cwd=repo, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True,
                    help="a perfbench workload; repeat for several")
    ap.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    ap.add_argument("--out", required=True, help="JSON record to write")
    args = ap.parse_args(argv)
    repo = os.getcwd()
    with open(os.path.join(repo, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    record = {"parent": None, "change": "working tree", "pairs": PAIRS,
              "seeds": [args.seed + i for i in range(PAIRS)],
              "seconds": seconds, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_root:
        record["parent"] = checkout(repo, args.parent, parent_root)
        roots = {"parent": parent_root, "change": repo}
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for i, seed in enumerate(record["seeds"]):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    res = run_bench(roots[side], workload, seed, seconds, 0)
                    runs[side].append(res)
                    print(f"{workload} pair {i + 1}/{PAIRS} {side}: "
                          + ", ".join(f"{k} {v['value']:.6g}"
                                      for k, v in res["metrics"].items()),
                          file=sys.stderr, flush=True)
            traced = {side: run_bench(roots[side], workload, args.seed,
                                      seconds, 1) for side in roots}
            record["workloads"][workload] = {
                "first": ["parent" if i % 2 == 0 else "change"
                          for i in range(PAIRS)],
                "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
                "failed_share": {side: failed_share(runs[side]) for side in runs},
                "attempted": {side: [r["attempted"] for r in runs[side]]
                              for side in runs},
                "metrics": compare(runs["parent"], runs["change"],
                                   bench["end_to_end"]),
                "per_layer": {side: {k: v["value"]
                                     for k, v in traced[side]["metrics"].items()}
                              for side in traced},
                "fingerprint": {side: runs[side][0]["fingerprint"] for side in runs},
            }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
