"""Start ``repro-allfp serve``, optionally with the layer tracer installed.

Usage: ``python3 perfbench/launch_server.py [--trace-dir DIR] <serve flags>``
with ``src`` on ``PYTHONPATH``.  With ``--trace-dir`` the tracer wraps the
layer functions before the service is built (forked shard workers inherit
the wrappers), and every process writes its spans into DIR when it stops.
Stop the server with SIGINT.
"""

from __future__ import annotations

import signal
import sys


def main(argv: list[str]) -> int:
    # A process started in the background of a non-interactive shell
    # inherits SIGINT as ignored; the clean shutdown (and the span files)
    # depend on it raising KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir, argv = argv[1], argv[2:]
        import tracing

        tracing.install(trace_dir)
    from repro.cli import main as cli_main

    code = cli_main(["serve", *argv])
    if trace_dir is not None:
        tracing.dump(trace_dir, "router")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
