"""Traced ``vrg`` command: install the span wrappers, then run ``vrg.cli.main``.

Usage: python3 perfbench/cli_child.py SPANS_PATH REQUEST_ID VRG_ARGS...

Behaves like the ``vrg`` console script (same stdout and exit code; stderr
starts with the ``vrg-ready`` line that ``run.py`` reads) and writes its
spans to SPANS_PATH, with the time ``import vrg.cli`` took as ``cli.import_s``.
"""

from __future__ import annotations

import sys
import time

from tracing import Tracer


def main() -> int:
    spans_path, request, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import vrg.cli  # noqa: F401

    import_s = time.perf_counter() - t0
    print("vrg-ready", repr(time.monotonic()), file=sys.stderr, flush=True)
    tracer = Tracer()
    tracer.request = request
    tracer.install()
    try:
        return sys.modules["vrg.cli"].main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, {"cli.import_s": import_s})


if __name__ == "__main__":
    sys.exit(main())
