"""One traced CLI command in a fresh process, for the cli-cold trace.

    python bench/cli_op.py <calabilab cli arguments>

Runs calabilab.cli.main in-process with the tracer installed after the
import, then prints the span summary, the import time and the time of
main() as the last stdout line.  The exit code is main()'s.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

start = time.perf_counter()
from calabilab import cli  # noqa: E402

import_s = time.perf_counter() - start

import tracer as T  # noqa: E402

trace = T.Tracer()
T.install(trace)

start = time.perf_counter()
code = cli.main(sys.argv[1:])
snapshot = trace.snapshot()
snapshot["compute_s"] = time.perf_counter() - start
snapshot["import_s"] = import_s
print(json.dumps(snapshot))
sys.exit(code)
