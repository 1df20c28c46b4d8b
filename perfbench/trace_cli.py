"""Run one ``etaforge`` command in this process with the benchmark's tracer.

Usage: python3 perfbench/trace_cli.py TRACE_FILE ARGS...

Installs the span wrappers, calls ``etaforge.cli.main(ARGS)``, writes the
spans and counters to TRACE_FILE and exits with the command's exit code.
The package is found through PYTHONPATH, as for ``python -m etaforge.cli``.
"""

import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    trace_file, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.prepare()
    import etaforge.cli

    tracer.install()
    try:
        return tracer.run_cli_main(etaforge.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(trace_file)


if __name__ == "__main__":
    raise SystemExit(main())
