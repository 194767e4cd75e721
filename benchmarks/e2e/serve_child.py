"""Run ``repro serve`` for the ``search_hot`` workload.

Usage: ``serve_child.py [--trace-file PATH] serve --data DIR ...``

Everything after the optional ``--trace-file PATH`` is passed to
``repro.cli.main`` unchanged.  With a trace file, the layer wrappers of
:mod:`layers` are installed first and the recorded spans are written to
the file when the server exits (on SIGINT).
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    trace_file = None
    if argv[:1] == ["--trace-file"]:
        trace_file, argv = argv[1], argv[2:]
    from repro import cli

    if trace_file is None:
        return cli.main(argv)
    import layers

    tracer = layers.Tracer().install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
