"""Launch the mapping service with the benchmark's span wrappers.

``python3 perfbench/traced_server.py TRACE_OUT [service arguments]``
installs :mod:`tracing` in this process, runs
``repro.service.__main__.main`` with the remaining arguments, and
writes the recorded spans to ``TRACE_OUT`` when the service stops.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from repro.service.__main__ import main  # noqa: E402

if __name__ == "__main__":
    trace_out = sys.argv[1]
    tracing.install(server=True)
    try:
        main(sys.argv[2:])
    finally:
        tracing.RECORDER.dump(trace_out)
