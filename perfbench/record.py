"""Record references.json: the expected outputs of every request variant.

    python3 perfbench/record.py      (from the root of a checkout)

Runs each variant of every slot once, in-process, through the same code
the worker uses, and stores what the check compares (exit code, verdict,
case, osculating order, residual maxima, checkpoint rows).  It refuses to
write references that contradict the verdicts fixed by the paper
(workloads.EXPECTED_VERDICT).  Re-record only when a change of the
numbers is intended, and say why in CHANGES.md.
"""
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import run
    import worker
    import workloads
    workdir = os.path.join(root, ".perfbench", f"record-{os.getpid()}")
    os.makedirs(workdir)
    try:
        pairs = [(slot, v) for slot, vs in workloads.SLOTS.items() for v in vs]
        reqs = [workloads.bind_paths(workloads.make_request(slot, v), workdir, i)
                for i, (slot, v) in enumerate(pairs)]
        if worker.generate(workloads.prepare_inputs(reqs, workdir)) != 0:
            return 1
        refs = {}
        for req in reqs:
            got = workloads.summarize(req, worker.execute(req))
            if workloads.needs_verdict(req):
                check = workloads.verdict_request(req)
                worker.execute(check)
                with open(check["report"]) as fh:
                    got["verdict"] = json.load(fh)["report"]["verdict"]
            want = workloads.EXPECTED_VERDICT.get(req["slot"])
            if got["exit_code"] != 0 or (want and got.get("verdict") != want):
                print(f"refusing to record {req['key']}: {got}", file=sys.stderr)
                return 1
            refs[req["key"]] = got
            print(req["key"], got.get("verdict", ""), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {"source_sha256": run.source_digest(root),
           "tolerances": workloads.TOLERANCES, "requests": refs}
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
