"""Run a ``repro`` entry point with the layer timers installed.

Usage::

    python perfbench/traced_main.py SPANS_OUT MODULE [ARGS...]

Imports ``MODULE`` (``repro.experiments.runner`` or ``repro.cli``),
wraps every layer function listed in :data:`tracing.TARGETS`, calls the
module's ``main(ARGS)`` and, however it ends, writes the recorded spans
to ``SPANS_OUT`` as JSON. The exit status is ``main``'s.
"""

from __future__ import annotations

import importlib
import sys

import tracing


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans_out, module_name, *argv = sys.argv[1:]
    module = importlib.import_module(module_name)
    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return module.main(argv)
    finally:
        recorder.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
