"""Engine micro-benchmark harness.

Measures ops/sec for the engine's core operations -- insert, update,
delete and navigate -- on the paper's Figure 3 (normalized) versus
Figure 6 (merged) university schemas at growing scale, plus the
speedup of the index-backed restrict-delete and ``find_referencing``
paths over the scan-based oracle (the seed engine's behaviour).

The results are emitted as a JSON document (``BENCH_engine.json`` at the
repo root) so the perf trajectory is tracked across PRs; run it via::

    python benchmarks/bench_engine.py [--sizes 1000,10000] [-o BENCH_engine.json]
    python -m repro bench -o BENCH_engine.json
"""

from __future__ import annotations

import platform
import time
from typing import Any, Callable

from repro.core.merge import merge
from repro.core.remove import remove_all
from repro.engine.database import ConstraintViolationError, Database
from repro.engine.oracle import OracleDatabase
from repro.engine.query import QueryEngine
from repro.engine.stats import EngineStats
from repro.relational.tuples import NULL
from repro.workloads.university import university_relational, university_state

DEFAULT_SIZES = (1_000, 10_000, 50_000)

#: Navigations of the course-profile query on the Figure 3 schema.
PROFILE_NAVIGATIONS = [
    (["C.NR"], "OFFER", ["O.C.NR"]),
    (["C.NR"], "TEACH", ["T.C.NR"]),
    (["C.NR"], "ASSIST", ["A.C.NR"]),
]


def _ops_per_second(
    fn: Callable[[int], Any],
    n_ops: int,
    stats: EngineStats | None = None,
    op: str | None = None,
) -> float:
    """Throughput of ``fn``; with ``stats``/``op`` every call's latency
    is also recorded into ``stats.latencies[op]`` (the p50/p99 columns
    of the report)."""
    if stats is None:
        start = time.perf_counter()
        for i in range(n_ops):
            fn(i)
        elapsed = time.perf_counter() - start
        return n_ops / elapsed if elapsed > 0 else float("inf")
    observe = stats.observe
    start = time.perf_counter()
    for i in range(n_ops):
        t0 = time.perf_counter()
        fn(i)
        observe(op, time.perf_counter() - t0)
    elapsed = time.perf_counter() - start
    return n_ops / elapsed if elapsed > 0 else float("inf")


def _build_databases(n_courses: int):
    schema = university_relational()
    state = university_state(n_courses=n_courses, seed=7)
    simplified = remove_all(
        merge(schema, ["COURSE", "OFFER", "TEACH", "ASSIST"])
    )
    unmerged = Database(schema)
    unmerged.load_state(state, validate=False)
    merged = Database(simplified.schema)
    merged.load_state(simplified.forward.apply(state), validate=False)
    oracle = OracleDatabase(schema)
    oracle.load_state(state)
    for db in (unmerged, merged, oracle):
        db.insert("DEPARTMENT", {"D.NAME": "bench-dept"})
        db.insert("PERSON", {"P.SSN": "bench-fac"})
        db.insert("FACULTY", {"F.SSN": "bench-fac"})
        db.insert("PERSON", {"P.SSN": "bench-stu"})
        db.insert("STUDENT", {"S.SSN": "bench-stu"})
    return unmerged, merged, simplified, oracle


def _bench_fig3(db: Database, n_ops: int) -> dict[str, float]:
    def insert_object(i: int) -> None:
        nr = f"new-{i:06d}"
        db.insert("COURSE", {"C.NR": nr})
        db.insert("OFFER", {"O.C.NR": nr, "O.D.NAME": "bench-dept"})
        db.insert("TEACH", {"T.C.NR": nr, "T.F.SSN": "bench-fac"})
        db.insert("ASSIST", {"A.C.NR": nr, "A.S.SSN": "bench-stu"})

    q = QueryEngine(db)
    stats = db.stats
    result = {
        "insert": _ops_per_second(insert_object, n_ops, stats, "insert"),
        "update": _ops_per_second(
            lambda i: db.update(
                "TEACH", f"new-{i:06d}", {"T.F.SSN": "bench-fac"}
            ),
            n_ops,
            stats,
            "update",
        ),
        "navigate": _ops_per_second(
            lambda i: q.profile(
                "COURSE", f"crs-{i % 1000:04d}", PROFILE_NAVIGATIONS
            ),
            n_ops,
            stats,
            "navigate",
        ),
        "delete": _ops_per_second(
            lambda i: db.delete("TEACH", f"new-{i:06d}"), n_ops, stats, "delete"
        ),
    }
    return result


def _bench_fig6(db: Database, merged_name: str, n_ops: int) -> dict[str, float]:
    def insert_object(i: int) -> None:
        db.insert(
            merged_name,
            {
                "C.NR": f"new-{i:06d}",
                "O.D.NAME": "bench-dept",
                "T.F.SSN": "bench-fac",
                "A.S.SSN": "bench-stu",
            },
        )

    q = QueryEngine(db)
    stats = db.stats
    return {
        "insert": _ops_per_second(insert_object, n_ops, stats, "insert"),
        "update": _ops_per_second(
            lambda i: db.update(
                merged_name, f"new-{i:06d}", {"T.F.SSN": "bench-fac"}
            ),
            n_ops,
            stats,
            "update",
        ),
        "navigate": _ops_per_second(
            lambda i: q.profile(merged_name, f"crs-{i % 1000:04d}", []),
            n_ops,
            stats,
            "navigate",
        ),
        "delete": _ops_per_second(
            lambda i: db.update(merged_name, f"new-{i:06d}", {"T.F.SSN": NULL}),
            n_ops,
            stats,
            "delete",
        ),
    }


def _bench_scan_paths(
    unmerged: Database, oracle: OracleDatabase, n_ops: int
) -> tuple[dict[str, float], dict[str, float]]:
    """Indexed engine vs scan oracle on the two formerly-O(n) paths.

    ``find_referencing`` probes a heavily-referenced department (~n/3
    child rows); the restrict-delete probes ``bench-dept``, referenced
    by exactly one OFFER row *appended last* -- the needle-late case
    where the seed's restrict scan walks the whole child relation
    before finding the blocker.
    """
    dept = next(iter(unmerged.scan("DEPARTMENT")))
    for db in (unmerged, oracle):
        db.insert("COURSE", {"C.NR": "bench-crs"})
        db.insert("OFFER", {"O.C.NR": "bench-crs", "O.D.NAME": "bench-dept"})
    q = QueryEngine(unmerged)

    def indexed_find(i: int) -> None:
        q.find_referencing(dept, "OFFER", ["O.D.NAME"], ["D.NAME"])

    def indexed_restrict(i: int) -> None:
        try:
            unmerged.delete("DEPARTMENT", "bench-dept")
        except ConstraintViolationError:
            pass
        else:  # pragma: no cover - the department is always referenced
            raise AssertionError("restrict-delete unexpectedly succeeded")

    # The oracle scans O(n) per op; cap its reps to keep runs short.
    oracle_ops = min(n_ops, 100)

    def oracle_find(i: int) -> None:
        oracle.find_referencing(dept, "OFFER", ["O.D.NAME"], ["D.NAME"])

    def oracle_restrict(i: int) -> None:
        try:
            oracle.delete("DEPARTMENT", "bench-dept")
        except ConstraintViolationError:
            pass
        else:  # pragma: no cover
            raise AssertionError("restrict-delete unexpectedly succeeded")

    indexed = {
        "find_referencing": _ops_per_second(
            indexed_find, n_ops, unmerged.stats, "find_referencing"
        ),
        "restrict_delete": _ops_per_second(
            indexed_restrict, n_ops, unmerged.stats, "restrict_delete"
        ),
    }
    # Same per-call timing as the indexed side, so the speedup compares
    # like with like; the oracle's latencies are not reported.
    scan_stats = EngineStats()
    scan = {
        "find_referencing": _ops_per_second(
            oracle_find, oracle_ops, scan_stats, "find_referencing"
        ),
        "restrict_delete": _ops_per_second(
            oracle_restrict, oracle_ops, scan_stats, "restrict_delete"
        ),
    }
    return indexed, scan


def _bench_bulk(
    db: Database, n_ops: int, reps: int = 3
) -> tuple[dict[str, float], dict[str, float], dict[str, float]]:
    """Rows/sec through insert_many + apply_batch (delete back), for
    both row representations.

    Measures the slotted columnar path (``Database(slotted=True)``, the
    default) and the row-at-a-time dict path (the pre-slotted engine,
    forced via the ``_slotted`` switch) on the same database, taking the
    best of ``reps`` alternating rounds so CPU-frequency noise does not
    land on one side only.  Returns ``(slotted, dict_path, speedup)``.
    """
    rows = [{"C.NR": f"bulk-{i:06d}"} for i in range(n_ops)]
    ops = [("delete", "COURSE", (f"bulk-{i:06d}",)) for i in range(n_ops)]

    def _once() -> tuple[float, float]:
        start = time.perf_counter()
        db.insert_many("COURSE", rows)
        mid = time.perf_counter()
        db.apply_batch(ops)
        end = time.perf_counter()
        return n_ops / (mid - start), n_ops / (end - mid)

    was_slotted = db._slotted
    rates = {True: [0.0, 0.0], False: [0.0, 0.0]}
    try:
        for _ in range(reps):
            for slotted in (True, False):
                db._slotted = slotted
                insert_rate, delete_rate = _once()
                best = rates[slotted]
                best[0] = max(best[0], insert_rate)
                best[1] = max(best[1], delete_rate)
    finally:
        db._slotted = was_slotted
    slotted_rates = {
        "insert_many": rates[True][0],
        "apply_batch_delete": rates[True][1],
    }
    dict_rates = {
        "insert_many": rates[False][0],
        "apply_batch_delete": rates[False][1],
    }
    speedup = {
        op: slotted_rates[op] / dict_rates[op] if dict_rates[op] else 0.0
        for op in slotted_rates
    }
    return slotted_rates, dict_rates, speedup


def _bench_wal(n_ops: int, wal_path: str | None) -> dict[str, float]:
    """Durability overhead: WAL-off vs WAL-on insert throughput, rows/s
    through a WAL'd ``insert_many`` (ten batches of ``n_ops`` rows, one
    sync per batch), plus checkpoint latency at the workload's final
    size.

    Without an explicit ``wal_path`` the log lives in memory, measuring
    the logging discipline itself (encode + checksum + append) rather
    than the disk; a path adds the file-system cost.
    """
    from repro.engine.wal import MemoryStorage, WriteAheadLog

    schema = university_relational()

    def _fresh(with_wal: bool) -> Database:
        if not with_wal:
            db = Database(schema)
        elif wal_path is None:
            db = Database(schema, wal=WriteAheadLog(MemoryStorage()))
        else:
            open(wal_path, "w").close()  # start from an empty log
            db = Database(schema, wal_path=wal_path)
        db.insert("DEPARTMENT", {"D.NAME": "bench-dept"})
        return db

    off_db = _fresh(with_wal=False)
    insert_off = _ops_per_second(
        lambda i: off_db.insert("COURSE", {"C.NR": f"wal-{i:06d}"}), n_ops
    )
    on_db = _fresh(with_wal=True)
    insert_on = _ops_per_second(
        lambda i: on_db.insert("COURSE", {"C.NR": f"wal-{i:06d}"}), n_ops
    )
    start = time.perf_counter()
    on_db.checkpoint()
    checkpoint_s = time.perf_counter() - start
    on_db.wal.close()
    bulk_db = _fresh(with_wal=True)
    batches = [
        [{"C.NR": f"walbulk-{b}-{i:06d}"} for i in range(n_ops)]
        for b in range(10)
    ]
    start = time.perf_counter()
    for batch in batches:
        bulk_db.insert_many("COURSE", batch)
        bulk_db.sync_wal()
    insert_many_on = 10 * n_ops / (time.perf_counter() - start)
    bulk_db.wal.close()
    return {
        "insert_wal_off": insert_off,
        "insert_wal_on": insert_on,
        "insert_many_wal_on": insert_many_on,
        "wal_overhead_x": insert_off / insert_on if insert_on else 0.0,
        "checkpoint_ms": checkpoint_s * 1e3,
    }


def _bench_advisor(n_courses: int, n_ops: int) -> dict[str, Any]:
    """The advisor's acceptance measurement: profile-join latency on
    the live engine before and after an *advised online* merge.

    A fresh WAL-backed university database serves the Figure 3
    course-profile navigation until the mined counters make the COURSE
    family pay; the advisor's recommendation is then applied through
    ``apply_merge_online`` (quiesce, transform, re-verify, one WAL
    transaction) and the same profile repeats as a single ``get`` on
    the merged scheme.
    """
    from repro.advisor import advise, apply_recommendation
    from repro.engine.wal import MemoryStorage, WriteAheadLog

    db = Database(
        university_relational(), wal=WriteAheadLog(MemoryStorage())
    )
    db.load_state(university_state(n_courses=n_courses, seed=7), validate=False)
    q = QueryEngine(db)
    stats = db.stats
    before = _ops_per_second(
        lambda i: q.profile(
            "COURSE", f"crs-{i % 1000:04d}", PROFILE_NAVIGATIONS
        ),
        n_ops,
        stats,
        "advisor_join_before",
    )
    report = advise(db)
    recommendation = report["recommendation"]
    start = time.perf_counter()
    simplified = apply_recommendation(db, report)
    apply_ms = (time.perf_counter() - start) * 1_000
    merged_name = simplified.info.merged_name
    after = _ops_per_second(
        lambda i: q.profile(merged_name, f"crs-{i % 1000:04d}", []),
        n_ops,
        stats,
        "advisor_join_after",
    )
    latencies = _latency_summary(
        stats, ("advisor_join_before", "advisor_join_after")
    )
    return {
        "recommended": recommendation["key_relation"],
        "merged_name": merged_name,
        "joins_observed": recommendation["workload"]["joins_saved"],
        "apply_ms": round(apply_ms, 2),
        "join_ops_per_s_before": round(before, 1),
        "join_ops_per_s_after": round(after, 1),
        "join_p50_us_before": latencies["advisor_join_before"]["p50_us"],
        "join_p50_us_after": latencies["advisor_join_after"]["p50_us"],
        "join_p99_us_before": latencies["advisor_join_before"]["p99_us"],
        "join_p99_us_after": latencies["advisor_join_after"]["p99_us"],
        "join_speedup_x": round(after / before, 2) if before else 0.0,
    }


def _latency_summary(
    stats: EngineStats, ops: tuple[str, ...]
) -> dict[str, dict]:
    """p50/p99 (log2-bucket upper bounds, in us) per measured op."""
    out = {}
    for op in ops:
        hist = stats.latencies.get(op)
        if hist is None or hist.count == 0:
            continue
        summary = hist.to_dict()
        out[op] = {
            "count": summary["count"],
            "p50_us": summary["p50_us"],
            "p99_us": summary["p99_us"],
            "max_us": summary["max_us"],
        }
    return out


def run_engine_benchmark(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    ops_cap: int = 2_000,
    wal_path: str | None = None,
) -> dict[str, Any]:
    """Run the full harness; returns the JSON-ready report.

    ``wal_path`` routes the WAL measurement through file storage at
    that path (truncated first); by default it runs against in-memory
    storage, isolating the logging cost from the disk's.
    """
    if not sizes or any(n <= 0 for n in sizes):
        raise ValueError("sizes must be positive integers")
    if ops_cap <= 0:
        raise ValueError("ops_cap must be a positive integer")
    report: dict[str, Any] = {
        "harness": "benchmarks/bench_engine.py",
        "python": platform.python_version(),
        "sizes": list(sizes),
        "ops_cap": ops_cap,
        "results": [],
    }
    for n in sizes:
        n_ops = min(ops_cap, n)
        unmerged, merged, simplified, oracle = _build_databases(n)
        fig3 = _bench_fig3(unmerged, n_ops)
        fig6 = _bench_fig6(merged, simplified.info.merged_name, n_ops)
        indexed, scan = _bench_scan_paths(unmerged, oracle, n_ops)
        bulk, bulk_dict, bulk_speedup = _bench_bulk(unmerged, n_ops)
        wal = _bench_wal(n_ops, wal_path)
        advisor = _bench_advisor(n, n_ops)
        mutation_ops = ("insert", "update", "navigate", "delete")
        report["results"].append(
            {
                "n_courses": n,
                "n_ops": n_ops,
                "fig3_ops_per_s": {k: round(v, 1) for k, v in fig3.items()},
                "fig6_ops_per_s": {k: round(v, 1) for k, v in fig6.items()},
                "fig3_latency_us": _latency_summary(
                    unmerged.stats, mutation_ops
                ),
                "fig6_latency_us": _latency_summary(merged.stats, mutation_ops),
                "indexed_latency_us": _latency_summary(
                    unmerged.stats, ("find_referencing", "restrict_delete")
                ),
                "indexed_ops_per_s": {
                    k: round(v, 1) for k, v in indexed.items()
                },
                "scan_baseline_ops_per_s": {
                    k: round(v, 1) for k, v in scan.items()
                },
                "speedup_vs_scan": {
                    k: round(indexed[k] / scan[k], 1) for k in indexed
                },
                "bulk_rows_per_s": {k: round(v, 1) for k, v in bulk.items()},
                "bulk_dict_rows_per_s": {
                    k: round(v, 1) for k, v in bulk_dict.items()
                },
                "slotted_speedup_x": {
                    k: round(v, 2) for k, v in bulk_speedup.items()
                },
                "wal": {k: round(v, 2) for k, v in wal.items()},
                "advisor": advisor,
            }
        )
    return report


def format_report(report: dict[str, Any]) -> str:
    """A printable table of one harness run."""
    lines = [
        f"engine benchmark (python {report['python']}, "
        f"{report['ops_cap']} ops/measurement)",
        f"{'n':>8} {'op':>18} {'fig3 ops/s':>12} {'fig6 ops/s':>12}"
        f" {'fig3 p50/p99 us':>18} {'fig6 p50/p99 us':>18}",
    ]

    def _p(latencies: dict, op: str) -> str:
        lat = latencies.get(op)
        if not lat:
            return "-"
        return f"{lat['p50_us']:.0f}/{lat['p99_us']:.0f}"

    for row in report["results"]:
        n = row["n_courses"]
        fig3_lat = row.get("fig3_latency_us", {})
        fig6_lat = row.get("fig6_latency_us", {})
        for op in ("insert", "update", "delete", "navigate"):
            lines.append(
                f"{n:>8} {op:>18} "
                f"{row['fig3_ops_per_s'][op]:>12.0f} "
                f"{row['fig6_ops_per_s'][op]:>12.0f}"
                f" {_p(fig3_lat, op):>18} {_p(fig6_lat, op):>18}"
            )
        for op in ("find_referencing", "restrict_delete"):
            lines.append(
                f"{n:>8} {op:>18} indexed {row['indexed_ops_per_s'][op]:>12.0f}"
                f"  scan {row['scan_baseline_ops_per_s'][op]:>12.0f}"
                f"  speedup {row['speedup_vs_scan'][op]:>8.1f}x"
            )
        dict_rates = row.get("bulk_dict_rows_per_s", {})
        speedups = row.get("slotted_speedup_x", {})
        for op, rate in row["bulk_rows_per_s"].items():
            extra = ""
            if op in dict_rates:
                extra = (
                    f"  dict {dict_rates[op]:>12.0f}"
                    f"  speedup {speedups.get(op, 0):>6.2f}x"
                )
            lines.append(f"{n:>8} {op:>18} {rate:>12.0f} rows/s{extra}")
        wal = row.get("wal")
        if wal:
            lines.append(
                f"{n:>8} {'wal insert':>18} "
                f"off {wal['insert_wal_off']:>12.0f}"
                f"  on {wal['insert_wal_on']:>12.0f}"
                f"  overhead {wal['wal_overhead_x']:>6.2f}x"
                f"  checkpoint {wal['checkpoint_ms']:.1f} ms"
            )
            lines.append(
                f"{n:>8} {'wal insert_many':>18} "
                f"on {wal['insert_many_wal_on']:>12.0f} rows/s"
            )
        advisor = row.get("advisor")
        if advisor:
            lines.append(
                f"{n:>8} {'advised merge':>18} "
                f"join p50 {advisor['join_p50_us_before']:.0f}us"
                f" -> {advisor['join_p50_us_after']:.0f}us"
                f"  speedup {advisor['join_speedup_x']:>6.2f}x"
                f"  apply {advisor['apply_ms']:.1f} ms"
                f"  ({advisor['recommended']} -> {advisor['merged_name']})"
            )
    return "\n".join(lines)
