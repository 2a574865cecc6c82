"""Run one dickmanlab subcommand under the tracer (traced cli_reports passes).

Usage: python3 cli_child.py SPANS_JSON SUBCOMMAND [ARGS...]

The report goes to stdout exactly as ``python -m dickmanlab.cli`` would
write it.  SPANS_JSON receives the import time of ``dickmanlab.cli`` and the
spans recorded while ``cli.main`` ran.  Exits with ``main``'s code.
"""
import json
import sys
import time

t0 = time.perf_counter()
import dickmanlab.cli  # noqa: E402  (the import is what is timed)

startup_s = time.perf_counter() - t0

from tracing import Tracer  # noqa: E402
from layers import COUNTERS, MEMORY, dickmanlab_modules  # noqa: E402

out_path, argv = sys.argv[1], sys.argv[2:]
tracer = Tracer(COUNTERS, MEMORY)
tracer.install(dickmanlab_modules())
try:
    code = dickmanlab.cli.main(argv)
finally:
    tracer.uninstall()
    with open(out_path, "w") as fh:
        json.dump({"startup_s": startup_s, "spans": tracer.spans}, fh)
sys.exit(code)
