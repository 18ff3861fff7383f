"""Run the sspaceform CLI with span tracing and write the spans at exit.

    python perfbench/traced_cli.py SPANS_JSON REQUEST_ID -- CLI_ARGS...

Used for the traced passes of the cli-cold workload; untraced requests
call `sspaceform.cli.main` as the console script does and install no
wrappers.
"""
import atexit
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracer import Tracer  # noqa: E402

if __name__ == "__main__":
    spans_path, request_id, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: traced_cli.py SPANS_JSON REQUEST_ID -- CLI_ARGS...")
    tracer = Tracer()
    tracer.install()
    tracer.request = int(request_id)
    atexit.register(tracer.dump, spans_path)
    from sspaceform import cli
    sys.exit(cli.main(cli_args))
