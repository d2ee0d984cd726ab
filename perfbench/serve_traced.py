"""``repro serve`` with the benchmark's span wrappers installed.

Run as ``python perfbench/serve_traced.py serve SCHEMA --wal LOG ...``
(with ``src`` on ``PYTHONPATH``): it wraps the server-side entry points
(see :mod:`tracing`), then runs the normal ``repro`` command line.  A
fleet supervisor started this way spawns its workers through this same
launcher.

Recording is driven by signals so that only the timed phase is traced:
SIGUSR1 clears the spans and starts recording; SIGUSR2 stops, reduces
the spans to per-name totals and writes them as JSON to
``$PERFBENCH_SPANS.<pid>``.  With ``PERFBENCH_RECORD=1`` recording is on
from the start (a restart, to trace recovery).
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def _dump(log: tracing.SpanLog, path: str) -> None:
    log.enabled = False
    summary = tracing.summarize(log.spans())
    summary["groups"] = log.groups
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(summary, fh)
    os.replace(tmp, path)


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main
    from repro.server import supervisor

    log = tracing.SpanLog()
    tracing.install(log, server=True)
    path = f"{os.environ['PERFBENCH_SPANS']}.{os.getpid()}"

    def start(*_):
        log.reset()
        log.enabled = True

    signal.signal(signal.SIGUSR1, start)
    signal.signal(signal.SIGUSR2, lambda *_: _dump(log, path))
    if os.environ.get("PERFBENCH_RECORD") == "1":
        start()

    worker_command = supervisor.Supervisor._worker_command

    def traced_worker_command(self, index):
        cmd = worker_command(self, index)
        if cmd[1:3] != ["-m", "repro"]:
            raise RuntimeError(f"unexpected worker command {cmd[:3]}")
        return [cmd[0], os.path.abspath(__file__), *cmd[3:]]

    supervisor.Supervisor._worker_command = traced_worker_command
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
