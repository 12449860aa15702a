"""Start ``repro serve`` with the benchmark's serve-layer wrappers installed.

Usage: ``serve_launcher.py SNAPSHOT_JSON <repro serve arguments...>``

The wrappers go in first, then the normal ``repro serve`` entry point
runs unchanged.  SIGUSR1 clears what was recorded so far (set-up
requests) and writes ``SNAPSHOT_JSON.cleared``; SIGUSR2 writes the
per-layer snapshot of everything since to ``SNAPSHOT_JSON``.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


def _write(path: pathlib.Path, data: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data))
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    snapshot = pathlib.Path(argv[0])
    tracer = Tracer()
    layers.install_serve(tracer)
    baseline: dict[str, int] = {}

    def mark(signum, frame):  # noqa: ARG001
        current = layers.sum_evaluator_stats(tracer)
        if signum == signal.SIGUSR1:
            tracer.clear()
            baseline.clear()
            baseline.update(current)
            _write(snapshot.with_name(snapshot.name + ".cleared"), {})
        else:
            evaluator = {k: v - baseline.get(k, 0) for k, v in current.items()}
            _write(snapshot, {"tracer": tracer.snapshot(), "evaluator": evaluator})

    signal.signal(signal.SIGUSR1, mark)
    signal.signal(signal.SIGUSR2, mark)

    from repro.cli import main as repro_main

    return repro_main(["serve", *argv[1:]])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
