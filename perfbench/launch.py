"""Traced stand-in for `python -m chaingroup.cli`, used by the cli-calls trace.

Times the package import, installs the tracing wrappers, runs
chaingroup.cli.main with the given arguments, and writes its aggregates and
spans to the file named by PERFBENCH_TRACE when the call ends.
"""

import time

_start = time.perf_counter()
import chaingroup.cli as cli  # noqa: E402

_import_ms = (time.perf_counter() - _start) * 1e3

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def _dump(tracer: tracing.Tracer) -> None:
    agg = tracer.aggregates()
    payload = {
        "import_ms": _import_ms,
        "cli_self_ms": agg["self_s"].get("cli", 0.0) * 1e3,
        "aggregates": agg,
        "spans": tracer.spans(),
    }
    with open(os.environ["PERFBENCH_TRACE"], "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cli.main()
    finally:
        sys.stdout.flush()
        tracer.uninstall()
        _dump(tracer)
