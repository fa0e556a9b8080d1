"""Start ``qfe-serve`` for the benchmark, optionally with the layer wrappers.

Usage::

    python3 qfebench/serve.py [--trace-to PATH] <qfe-serve arguments>

Without ``--trace-to`` this is exactly ``qfe-serve``. With it, the wrappers
of :mod:`qfebench.layers` are installed before the service starts but record
nothing until the process receives SIGUSR1 (sent after the warm-up session).
On shutdown (SIGINT) the spans, per-layer aggregates and the number of cold
joins since SIGUSR1 are written to ``PATH``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main(argv: list[str]) -> int:
    trace_to = None
    if argv[:1] == ["--trace-to"]:
        trace_to, argv = argv[1], argv[2:]
    from repro.service import cli

    if trace_to is None:
        return cli.main(argv)

    from repro.relational.join import JOIN_STATS

    from qfebench.layers import Recorder, install, restore

    recorder = Recorder()
    recorder.enabled = False
    baseline = {"full_joins": JOIN_STATS.full_joins}

    def arm(signum, frame) -> None:
        baseline["full_joins"] = JOIN_STATS.full_joins
        recorder.enabled = True

    signal.signal(signal.SIGUSR1, arm)
    patches = install(recorder)
    try:
        return cli.main(argv)
    finally:
        restore(patches)
        recorder.dump(trace_to, full_joins=JOIN_STATS.full_joins - baseline["full_joins"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
