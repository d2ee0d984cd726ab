"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

Run from the repository root: the program under test is imported from
``src`` and served processes are started from it.  With ``--trace 0``
the last line of standard output is the JSON result with every
end-to-end metric; with ``--trace 1`` it carries the per-layer metrics
of a separate traced run (see ``perfbench/NOTES.md``).  The lines
before it are the full report: run context, p99s and sample counts,
``stats`` deltas with their bases, and any failures.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys

import harness

WORKLOADS = ("oltp", "bulk", "embedded", "fleet")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness.require_source()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "flush_policy": harness.FLUSH_POLICY,
        "setup_repeats": harness.SETUP_REPEATS,
    }
    if args.workload == "embedded":
        import embedded

        result = embedded.run(args.seed, args.seconds, bool(args.trace), context)
    else:
        import served

        result = served.run(
            args.workload, args.seed, args.seconds, bool(args.trace), context
        )
    harness.emit(result, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
