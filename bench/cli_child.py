"""Run ``affsemi.cli`` in a fresh process with tracing on.

Usage: python bench/cli_child.py SPANS_PATH ARG...

Behaves like ``python -m affsemi.cli ARG...`` (same stdout and exit code)
and writes the spans and work counts of the run to SPANS_PATH as JSON,
including a ``cli.import`` span for the import of the package.
"""

import json
import sys
from time import perf_counter

import tracer

if __name__ == "__main__":
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracer.Tracer()
    start = perf_counter()
    import affsemi.cli

    recorder.span("cli.import", start, perf_counter())
    recorder.install()
    try:
        code = affsemi.cli.main(argv)
    finally:
        recorder.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": recorder.spans, "counts": recorder.counts}, handle)
    sys.exit(code)
