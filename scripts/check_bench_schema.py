#!/usr/bin/env python
"""Validate the structure of ``BENCH_engine.json``.

The benchmark report is written by four harnesses --
``benchmarks/bench_engine.py`` (the per-size ``results`` entries),
``benchmarks/bench_server.py`` (the ``server`` flush/fsync matrix),
``bench_server.py --metrics`` (the ``server_metrics`` overhead entry),
``bench_server.py --sharded`` (the ``server_sharded`` fleet-scaling
entry), ``bench_server.py --replicated`` (the ``server_replicated``
shipping-overhead/failover entry), ``bench_server.py --spans`` (the
``server_spans`` tracing-overhead entry), and
``benchmarks/bench_backend.py``
(the ``backend_sqlite`` bulk-load comparison) -- and read by docs, CI
greps and
regression tooling.  This checker
pins the required keys per entry kind so a harness edit cannot
silently drop a column downstream consumers depend on::

    python scripts/check_bench_schema.py [REPORT.json]

Exit code 0 when the report conforms, 1 with one line per problem
otherwise.  :func:`validate_report` is importable for the test suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Top-level keys every report must carry.
REPORT_KEYS = frozenset(("harness", "ops_cap", "python", "results", "sizes"))

#: Per-size engine entry (one per ``sizes`` element).
ENGINE_KEYS = frozenset(
    (
        "n_courses",
        "n_ops",
        "fig3_ops_per_s",
        "fig3_latency_us",
        "fig6_ops_per_s",
        "fig6_latency_us",
        "indexed_ops_per_s",
        "indexed_latency_us",
        "scan_baseline_ops_per_s",
        "speedup_vs_scan",
        "bulk_rows_per_s",
        "bulk_dict_rows_per_s",
        "slotted_speedup_x",
    )
)

#: The optional ``wal`` sub-entry of an engine entry.
WAL_KEYS = frozenset(
    (
        "checkpoint_ms",
        "insert_wal_off",
        "insert_wal_on",
        "insert_many_wal_on",
        "wal_overhead_x",
    )
)

#: The ``advisor`` sub-entry of an engine entry: profile-join latency
#: before/after the advised online merge.
ADVISOR_KEYS = frozenset(
    (
        "recommended",
        "merged_name",
        "joins_observed",
        "apply_ms",
        "join_ops_per_s_before",
        "join_ops_per_s_after",
        "join_p50_us_before",
        "join_p50_us_after",
        "join_p99_us_before",
        "join_p99_us_after",
        "join_speedup_x",
    )
)

#: One client-load run (shared by the server matrix and the metrics
#: overhead entry).
RUN_KEYS = frozenset(
    (
        "clients",
        "ops_per_client",
        "inserts_per_s",
        "p50_us",
        "p99_us",
        "wall_s",
    )
)

#: The two durability levels of the ``server`` entry, each holding a
#: per_record/group_commit pair plus the speedup ratio.
SERVER_LEVELS = ("flush", "fsync")

#: The ``server_metrics`` overhead entry's run keys.
METRICS_MODES = ("metrics_off", "metrics_on")

#: The ``server_spans`` tracing-overhead entry's runs (no sink, then a
#: sink at each measured head-sampling rate).
SPANS_MODES = ("spans_off", "spans_0pct", "spans_1pct", "spans_100pct")

#: The ``backend_sqlite`` entry: bulk-load throughput of the in-memory
#: engine versus the live SQLite execution backend
#: (``benchmarks/bench_backend.py``).
BACKEND_KEYS = frozenset(
    (
        "harness",
        "python",
        "n_courses",
        "rows_loaded",
        "engine_bulk_rows_per_s",
        "sqlite_bulk_rows_per_s",
        "sqlite_slowdown_x",
    )
)

#: The ``server_sharded`` scaling entry's own keys (besides one
#: ``workers_N`` run per measured fleet width).
SHARDED_KEYS = frozenset(
    (
        "harness",
        "python",
        "cores",
        "durability",
        "max_batch",
        "fsync_overlap_x",
        "sharded_speedup_x",
    )
)


def _missing(entry: object, required: frozenset, where: str) -> list[str]:
    """Problems for one dict-shaped entry: wrong type or missing keys."""
    if not isinstance(entry, dict):
        return [f"{where}: expected an object, got {type(entry).__name__}"]
    absent = sorted(required - entry.keys())
    if absent:
        return [f"{where}: missing key(s) {', '.join(absent)}"]
    return []


def validate_report(report: object) -> list[str]:
    """Every schema problem in one parsed report (empty = conformant)."""
    problems: list[str] = []
    problems += _missing(report, REPORT_KEYS, "report")
    if not isinstance(report, dict):
        return problems

    results = report.get("results")
    if not isinstance(results, list) or not results:
        problems.append("report: 'results' must be a non-empty array")
        results = []
    for i, entry in enumerate(results):
        where = f"results[{i}]"
        problems += _missing(entry, ENGINE_KEYS, where)
        if isinstance(entry, dict) and "wal" in entry:
            problems += _missing(entry["wal"], WAL_KEYS, f"{where}.wal")
        if isinstance(entry, dict) and "advisor" in entry:
            problems += _missing(
                entry["advisor"], ADVISOR_KEYS, f"{where}.advisor"
            )

    if "server" in report:
        server = report["server"]
        problems += _missing(
            server, frozenset(("harness", "python")), "server"
        )
        if isinstance(server, dict):
            for level in SERVER_LEVELS:
                if level not in server:
                    problems.append(f"server: missing section {level!r}")
                    continue
                section = server[level]
                problems += _missing(
                    section,
                    frozenset(
                        ("per_record", "group_commit", "group_commit_speedup_x")
                    ),
                    f"server.{level}",
                )
                if isinstance(section, dict):
                    for mode in ("per_record", "group_commit"):
                        if mode in section:
                            problems += _missing(
                                section[mode],
                                RUN_KEYS
                                | {"group_commits", "batched_records"},
                                f"server.{level}.{mode}",
                            )

    if "backend_sqlite" in report:
        problems += _missing(
            report["backend_sqlite"], BACKEND_KEYS, "backend_sqlite"
        )

    if "server_sharded" in report:
        sh = report["server_sharded"]
        problems += _missing(sh, SHARDED_KEYS, "server_sharded")
        if isinstance(sh, dict):
            runs = [k for k in sh if k.startswith("workers_")]
            if len(runs) < 2:
                problems.append(
                    "server_sharded: needs at least two workers_N runs"
                )
            for key in sorted(runs):
                problems += _missing(
                    sh[key],
                    RUN_KEYS | {"workers"},
                    f"server_sharded.{key}",
                )

    if "server_replicated" in report:
        sr = report["server_replicated"]
        problems += _missing(
            sr,
            frozenset(
                (
                    "harness",
                    "python",
                    "cores",
                    "durability",
                    "replica_durability",
                    "shipping_overhead_pct",
                    "failover_ms",
                )
            ),
            "server_replicated",
        )
        if isinstance(sr, dict):
            for mode in ("standalone", "replicated"):
                if mode not in sr:
                    problems.append(
                        f"server_replicated: missing run {mode!r}"
                    )
                elif isinstance(sr[mode], dict):
                    problems += _missing(
                        sr[mode], RUN_KEYS, f"server_replicated.{mode}"
                    )

    if "server_metrics" in report:
        sm = report["server_metrics"]
        problems += _missing(
            sm,
            frozenset(("harness", "python", "overhead_pct")),
            "server_metrics",
        )
        if isinstance(sm, dict):
            for mode in METRICS_MODES:
                if mode not in sm:
                    problems.append(f"server_metrics: missing run {mode!r}")
                elif isinstance(sm[mode], dict):
                    problems += _missing(
                        sm[mode], RUN_KEYS, f"server_metrics.{mode}"
                    )

    if "server_spans" in report:
        sp = report["server_spans"]
        problems += _missing(
            sp,
            frozenset(
                (
                    "harness",
                    "python",
                    "overhead_pct_0pct",
                    "overhead_pct_1pct",
                    "overhead_pct_100pct",
                )
            ),
            "server_spans",
        )
        if isinstance(sp, dict):
            for mode in SPANS_MODES:
                if mode not in sp:
                    problems.append(f"server_spans: missing run {mode!r}")
                elif isinstance(sp[mode], dict):
                    required = RUN_KEYS
                    if mode != "spans_off":
                        required = RUN_KEYS | {
                            "spans_exported",
                            "spans_dropped",
                        }
                    problems += _missing(
                        sp[mode], required, f"server_spans.{mode}"
                    )
    return problems


def main(argv: list[str] | None = None) -> int:
    """Check one report file (default: the repo's BENCH_engine.json)."""
    argv = sys.argv[1:] if argv is None else argv
    path = Path(
        argv[0]
        if argv
        else Path(__file__).resolve().parent.parent / "BENCH_engine.json"
    )
    try:
        report = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return 1
    problems = validate_report(report)
    for problem in problems:
        print(f"{path}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"{path}: bench schema OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
