"""Run one tollgate CLI command in-process with the span tracer installed.

Usage: python3 bench/traced.py SPANS.json <tollgate arguments...>

The import of ``tollgate.cli`` is timed first, in this fresh process, before
anything else is imported. The command's exit code is this process's exit
code; spans and counters go to SPANS.json once the command has returned.
Writing them out is part of the tracing overhead the benchmark reports.
"""

import importlib
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    cli = importlib.import_module("tollgate.cli")
    import_s = time.perf_counter() - start

    import json

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    rc = cli.main(sys.argv[2:])
    sys.stdout.flush()
    record = tracer.dump()
    record.update(rc=rc, import_s=import_s)
    with open(sys.argv[1], "w") as fh:
        json.dump(record, fh, separators=(",", ":"))
    sys.exit(rc)
