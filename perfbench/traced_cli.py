"""Run ``sphsep``'s command line with the benchmark's tracer installed.

    python traced_cli.py SPAN_FILE <sphsep arguments...>

Behaves like ``python -m sphsep <arguments>`` (same output and exit code, and
an uncaught error still ends in a traceback), and writes the spans it
recorded to SPAN_FILE when it ends.
"""

import json
import sys

import sphsep.cli

from tracer import Tracer

tracer = Tracer()
tracer.install()
try:
    code = sphsep.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.spans, fh)
sys.exit(code)
