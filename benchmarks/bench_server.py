#!/usr/bin/env python
"""Closed-loop load generator for the JSON-lines server.

Default mode hosts two servers in-process over temporary file WALs --
one with the group-commit path (buffered appends, one flush per batch),
one flushing every record (the ``max_batch=1`` baseline) -- drives each
with N concurrent client threads doing inserts, and appends a
``server`` entry with throughput and p50/p99 request latencies to
``BENCH_engine.json``::

    python benchmarks/bench_server.py --clients 8 --ops 250

With ``--connect HOST:PORT`` it instead drives an already-running
``python -m repro serve`` instance (no JSON is written); ``--smoke``
shrinks the load and asserts the server answers a non-empty
``metrics`` exposition -- the CI smoke-job mode::

    python -m repro serve university.json --wal db.wal &
    python benchmarks/bench_server.py --connect 127.0.0.1:7043 --smoke

``--spans`` measures span-tracing overhead instead: the same hosted
load with no span sink and with a sink at 0%, 1% and 100% head
sampling, reporting each throughput cost as a ``server_spans`` entry
(target: under 5% at the 1% production rate).

``--sharded`` measures shard-per-core scaling instead: it spawns a
``repro serve --workers N`` fleet (the :mod:`repro.server.supervisor`
topology) for each worker count, drives it with sharded clients at
per-record fsync durability (``--fsync --max-batch 1``, so throughput
is bound by the WAL sync each worker performs independently), and
writes a ``server_sharded`` entry with per-topology runs and the
aggregate speedup of the widest fleet over one worker.

``--replicated`` measures WAL-shipping replication (see
``docs/REPLICATION.md``): the same fsync insert load against a
standalone primary and against a primary with a synchronous replica
attached (every ack now waits for the replica's confirm), reporting the
shipping overhead as ``shipping_overhead_pct`` (target: under 15%) --
then SIGKILLs a subprocess primary and times ``promote`` on its replica
until the promoted server answers reads and writes (``failover_ms``).
The entry is written under ``server_replicated``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.client import Client


def run_clients(
    port: int, clients: int, ops: int, prefix: str
) -> dict[str, float]:
    """Drive ``clients`` threads of ``ops`` inserts each; aggregate
    throughput and per-request latency."""
    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def worker(i: int) -> None:
        try:
            with Client(port=port, timeout=60) as c:
                barrier.wait()
                lat = latencies[i]
                for j in range(ops):
                    t0 = perf_counter()
                    c.insert("COURSE", {"C.NR": f"{prefix}c{i}-{j}"})
                    lat.append(perf_counter() - t0)
        except BaseException as exc:  # surface, don't hang the barrier
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = perf_counter()
    for t in threads:
        t.join()
    wall = perf_counter() - t0
    if errors:
        raise errors[0]
    merged = sorted(x for lat in latencies for x in lat)
    n = len(merged)
    return {
        "clients": clients,
        "ops_per_client": ops,
        "inserts_per_s": round(n / wall, 1),
        "p50_us": round(merged[n // 2] * 1e6, 1),
        "p99_us": round(merged[min(n - 1, (n * 99) // 100)] * 1e6, 1),
        "wall_s": round(wall, 3),
    }


def bench_hosted(clients: int, ops: int) -> dict[str, object]:
    """Group commit vs per-record flush, at both durability levels
    (userspace flush only, and fsync at every barrier)."""
    from repro.engine.database import Database
    from repro.engine.wal import FileStorage, WriteAheadLog
    from repro.server import ServerConfig, ServerThread
    from repro.workloads.university import university_relational

    entry: dict[str, object] = {
        "harness": "benchmarks/bench_server.py",
        "python": platform.python_version(),
    }
    with tempfile.TemporaryDirectory() as tmp:
        for level, fsync in (("flush", False), ("fsync", True)):
            section: dict[str, object] = {}
            for mode, buffered, max_batch in (
                ("per_record", False, 1),
                ("group_commit", True, 256),
            ):
                wal = WriteAheadLog(
                    FileStorage(
                        os.path.join(tmp, f"{level}_{mode}.wal"),
                        fsync=fsync,
                        buffered=buffered,
                    )
                )
                db = Database(university_relational(), wal=wal)
                config = ServerConfig(
                    max_connections=clients + 4, max_batch=max_batch
                )
                with ServerThread(db, config) as st:
                    assert st.port is not None
                    result = run_clients(st.port, clients, ops, "")
                snap = db.stats.snapshot()
                result["group_commits"] = snap["wal_group_commits"]
                result["batched_records"] = snap["wal_batched_records"]
                section[mode] = result
            section["group_commit_speedup_x"] = round(
                section["group_commit"]["inserts_per_s"]
                / section["per_record"]["inserts_per_s"],
                2,
            )
            entry[level] = section
    return entry


def run_sharded_clients(
    port: int, clients: int, ops: int, prefix: str
) -> dict[str, float]:
    """The sharded twin of :func:`run_clients`: each thread drives a
    :class:`repro.client.ShardedClient`, which routes every insert to
    the worker owning its key's hash partition."""
    from repro.client import ShardedClient

    latencies: list[list[float]] = [[] for _ in range(clients)]
    errors: list[BaseException] = []
    barrier = threading.Barrier(clients + 1)

    def worker(i: int) -> None:
        try:
            with ShardedClient(port=port, timeout=60) as c:
                barrier.wait()
                lat = latencies[i]
                for j in range(ops):
                    t0 = perf_counter()
                    c.insert("COURSE", {"C.NR": f"{prefix}c{i}-{j}"})
                    lat.append(perf_counter() - t0)
        except BaseException as exc:  # surface, don't hang the barrier
            errors.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(clients)
    ]
    for t in threads:
        t.start()
    barrier.wait()
    t0 = perf_counter()
    for t in threads:
        t.join()
    wall = perf_counter() - t0
    if errors:
        raise errors[0]
    merged = sorted(x for lat in latencies for x in lat)
    n = len(merged)
    return {
        "clients": clients,
        "ops_per_client": ops,
        "inserts_per_s": round(n / wall, 1),
        "p50_us": round(merged[n // 2] * 1e6, 1),
        "p99_us": round(merged[min(n - 1, (n * 99) // 100)] * 1e6, 1),
        "wall_s": round(wall, 3),
    }


def _fsync_overlap(tmp: str, streams: int, n: int = 200) -> float:
    """How much the fsync device rewards concurrent log streams: the
    aggregate fsync rate of ``streams`` threads appending to disjoint
    files over the single-stream rate.  This is the I/O-level headroom
    a fleet of single-writer workers can exploit -- on a box with fewer
    cores than workers it bounds the achievable sharded speedup
    together with the CPU."""

    def one(path: str) -> float:
        fd = os.open(path, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, b"x" * 128)
            os.fsync(fd)  # warm up: file creation, first metadata sync
            t0 = perf_counter()
            for _ in range(n):
                os.write(fd, b"x" * 128)
                os.fsync(fd)
            return n / (perf_counter() - t0)
        finally:
            os.close(fd)

    # Best of three: a single serial run is at the mercy of whatever
    # else the device absorbs that instant.
    serial = max(
        one(os.path.join(tmp, f"fsync-serial{i}.log")) for i in range(3)
    )
    rates: list[float] = []
    threads = [
        threading.Thread(
            target=lambda i=i: rates.append(
                one(os.path.join(tmp, f"fsync-{i}.log"))
            )
        )
        for i in range(streams)
    ]
    t0 = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    aggregate = streams * n / (perf_counter() - t0)
    return round(aggregate / serial, 2)


def bench_sharded(
    clients: int, ops: int, worker_counts: tuple[int, ...] = (1, 2, 4)
) -> dict[str, object]:
    """Aggregate fleet throughput at 1/2/4 workers, per-record fsync.

    Durability is pinned to the strictest level (``--fsync
    --max-batch 1``: one WAL fsync per insert) so the scaling number
    reflects what sharding actually buys -- N workers fsync N disjoint
    logs concurrently -- rather than group-commit amortisation.
    """
    from repro.io import relational_schema_to_dict
    from repro.server.supervisor import FleetProcess
    from repro.workloads.university import university_relational

    entry: dict[str, object] = {
        "harness": "benchmarks/bench_server.py --sharded",
        "python": platform.python_version(),
        "cores": os.cpu_count(),
        "durability": "fsync",
        "max_batch": 1,
    }
    with tempfile.TemporaryDirectory() as tmp:
        entry["fsync_overlap_x"] = _fsync_overlap(tmp, worker_counts[-1])
        schema = os.path.join(tmp, "university.json")
        with open(schema, "w") as f:
            json.dump(relational_schema_to_dict(university_relational()), f)
        for n in worker_counts:
            fleet = FleetProcess(
                schema,
                workers=n,
                wal=os.path.join(tmp, f"fleet{n}.wal"),
                extra_args=("--fsync", "--max-batch", "1"),
            )
            try:
                fleet.wait_ready()
                result = run_sharded_clients(
                    fleet.port, clients, ops, prefix=f"w{n}-"
                )
            finally:
                rc = fleet.stop()
            if rc != 0:
                raise SystemExit(f"fleet of {n} exited with {rc}")
            result["workers"] = n
            entry[f"workers_{n}"] = result
    first, last = worker_counts[0], worker_counts[-1]
    entry["sharded_speedup_x"] = round(
        entry[f"workers_{last}"]["inserts_per_s"]
        / entry[f"workers_{first}"]["inserts_per_s"],
        2,
    )
    cores = os.cpu_count() or 1
    if cores < last:
        entry["note"] = (
            f"host has {cores} core(s) for a {last}-worker fleet: "
            "shard-per-core has no cores to scale onto, so the workers "
            "time-slice one CPU and the speedup reflects scheduling "
            "overhead plus whatever fsync overlap the device allows "
            "(fsync_overlap_x); expect near-linear scaling up to the "
            "core count on real hardware"
        )
    return entry


def bench_replicated(clients: int, ops: int) -> dict[str, object]:
    """Shipping overhead and failover time of the replication pair.

    The overhead half is in-process at fsync durability: the synchronous
    replica's confirm is on every mutation's ack path, so what it costs
    is visible exactly where durability is priced.  The failover half is
    honest about process death: SIGKILL on a subprocess primary, then
    the wall time of ``promote`` until the promoted replica has answered
    one read and one write.
    """
    import time

    from repro.engine.database import Database
    from repro.engine.wal import FileStorage, WriteAheadLog
    from repro.io import relational_schema_to_dict
    from repro.server import ServerConfig, ServerProcess, ServerThread
    from repro.workloads.university import university_relational

    entry: dict[str, object] = {
        "harness": "benchmarks/bench_server.py --replicated",
        "python": platform.python_version(),
        "durability": "fsync",
        # The semi-sync ack waits for the replica's *receipt*, not its
        # replay, so the replica runs its own WAL at OS-flush
        # durability (the production default; see docs/REPLICATION.md)
        # while the primary fsyncs every barrier.  A replica that
        # fsyncs too serialises its confirm cadence behind a second
        # disk for no additional acked durability.
        "replica_durability": "flush",
        # Context for reading the overhead: primary and replica share
        # this host's cores.  On a single core the replica's entire
        # redo cost (engine apply + its own log) serialises against
        # the primary instead of overlapping on another core, so the
        # measured number is an upper bound on what a replica pair
        # with a core each would show (docs/REPLICATION.md, "What
        # shipping costs").
        "cores": os.cpu_count() or 1,
    }
    with tempfile.TemporaryDirectory() as tmp:

        def fsync_db(name: str, fsync: bool = True) -> Database:
            return Database(
                university_relational(),
                wal=WriteAheadLog(
                    FileStorage(
                        os.path.join(tmp, name), fsync=fsync, buffered=True
                    )
                ),
            )

        # The confirm round trip is paid once per commit *group*, so
        # its per-insert share scales with group size.  Below ~16
        # closed-loop clients the group is so small that the number
        # measures the host scheduler's thread-handoff granularity,
        # not shipping; floor the overhead half there (the entry
        # records the count actually used).
        clients = max(clients, 16)

        def one_run(mode: str, attempt: int) -> dict[str, float]:
            db = fsync_db(f"{mode}-primary-{attempt}.wal")
            config = ServerConfig(max_connections=clients + 4, max_batch=256)
            with ServerThread(db, config) as primary:
                assert primary.port is not None
                if mode == "replicated":
                    replica = ServerThread(
                        fsync_db(f"replica-{attempt}.wal", fsync=False),
                        ServerConfig(
                            replicate_from=f"127.0.0.1:{primary.port}"
                        ),
                    )
                    with replica:
                        # Let the replica register as synchronous
                        # before the timed load, so every ack pays
                        # the confirm.
                        with Client(port=primary.port, timeout=60) as c:
                            deadline = time.monotonic() + 30
                            while c.repl_status()["replicas"] < 1:
                                assert time.monotonic() < deadline
                                time.sleep(0.01)
                        return run_clients(
                            primary.port, clients, ops, f"{mode}{attempt}-"
                        )
                return run_clients(
                    primary.port, clients, ops, f"{mode}{attempt}-"
                )

        # Paired attempts, median overhead: one short closed-loop run
        # is at the mercy of whatever else the scheduler and the fsync
        # device are doing that instant, and a ratio of two
        # *independently* selected bests is noisier still (each mode's
        # ceiling shows up in different epochs).  Running the two modes
        # back to back inside one attempt pairs them under the same
        # conditions; the median pair's ratio is the stable estimate,
        # and the entry reports that pair's runs.
        pairs: list[tuple[float, dict[str, dict[str, float]]]] = []
        for attempt in range(5):
            runs = {
                mode: one_run(mode, attempt)
                for mode in ("standalone", "replicated")
            }
            base = runs["standalone"]["inserts_per_s"]
            pct = (base - runs["replicated"]["inserts_per_s"]) / base * 100
            pairs.append((pct, runs))
        pairs.sort(key=lambda pair: pair[0])
        pct, runs = pairs[len(pairs) // 2]
        entry["standalone"] = runs["standalone"]
        entry["replicated"] = runs["replicated"]
        entry["shipping_overhead_pct"] = round(pct, 2)

        # -- failover: SIGKILL the primary, promote, time to serving ---
        schema = os.path.join(tmp, "university.json")
        with open(schema, "w") as f:
            json.dump(relational_schema_to_dict(university_relational()), f)
        with ServerProcess(
            schema, wal=os.path.join(tmp, "fo-primary.wal")
        ) as primary_proc:
            primary_proc.wait_ready()
            with ServerProcess(
                schema,
                wal=os.path.join(tmp, "fo-replica.wal"),
                replicate_from=f"127.0.0.1:{primary_proc.port}",
            ) as replica_proc:
                replica_proc.wait_ready()
                replica_proc.wait_line("replica caught up")
                n_acked = max(ops, 50)
                with Client(port=primary_proc.port, timeout=60) as c:
                    for j in range(n_acked):
                        c.insert("COURSE", {"C.NR": f"fo-{j}"})
                primary_proc.kill()
                t0 = perf_counter()
                with Client(port=replica_proc.port, timeout=60) as rc:
                    rc.promote()
                    assert rc.get("COURSE", f"fo-{n_acked - 1}") is not None
                    rc.insert("COURSE", {"C.NR": "fo-after"})
                entry["failover_ms"] = round((perf_counter() - t0) * 1e3, 1)
                entry["acked_before_kill"] = n_acked
                replica_proc.stop()
    return entry


def bench_spans_overhead(clients: int, ops: int) -> dict[str, object]:
    """The same group-commit load with span tracing off and at 0%, 1%
    and 100% head sampling; each throughput delta against the no-sink
    baseline is the tracing overhead at that rate (target: under 5% at
    the 1% production rate).

    Sampled runs also ask the ``spans`` verb for the sink's counters,
    asserting spans were actually exported (or, at 0%, that none were)
    -- an overhead number for a sink that traced nothing would be
    meaningless.
    """
    from repro.engine.database import Database
    from repro.engine.wal import FileStorage, WriteAheadLog
    from repro.server import ServerConfig, ServerThread
    from repro.workloads.university import university_relational

    entry: dict[str, object] = {
        "harness": "benchmarks/bench_server.py --spans",
        "python": platform.python_version(),
    }
    modes = (
        ("spans_off", None),
        ("spans_0pct", 0.0),
        ("spans_1pct", 0.01),
        ("spans_100pct", 1.0),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for mode, sample in modes:
            wal = WriteAheadLog(
                FileStorage(
                    os.path.join(tmp, f"{mode}.wal"),
                    fsync=False,
                    buffered=True,
                )
            )
            db = Database(university_relational(), wal=wal)
            config = ServerConfig(
                max_connections=clients + 4,
                max_batch=256,
                span_sink=(
                    os.path.join(tmp, f"{mode}.spans.jsonl")
                    if sample is not None
                    else None
                ),
                span_sample=sample if sample is not None else 1.0,
            )
            with ServerThread(db, config) as st:
                assert st.port is not None
                # Best of two: the first load also warms the path, so a
                # cold baseline can't masquerade as tracing overhead.
                result = max(
                    (run_clients(st.port, clients, ops, f"a{i}-") for i in range(2)),
                    key=lambda r: r["inserts_per_s"],
                )
                if sample is not None:
                    with Client(port=st.port, timeout=60) as c:
                        sink = c.spans(limit=1)
                    if sample == 0.0:
                        assert sink["exported"] == 0, "0% run traced spans"
                    elif sample >= 1.0:  # 1% may trace nothing on tiny runs
                        assert sink["exported"] > 0, "sink traced nothing"
                    result["spans_exported"] = sink["exported"]
                    result["spans_dropped"] = sink["dropped"]
            entry[mode] = result
    off = entry["spans_off"]["inserts_per_s"]
    for mode, sample in modes[1:]:
        on = entry[mode]["inserts_per_s"]
        entry[f"overhead_pct_{mode.removeprefix('spans_')}"] = round(
            (off - on) / off * 100, 2
        )
    return entry


def bench_external(
    host: str, port: int, clients: int, ops: int
) -> dict[str, object]:
    """Drive an already-running server; returns the load summary.

    Probes the ``topology`` verb first: pointed at a sharded fleet's
    public port it switches to sharded clients (routing each insert to
    its owning worker) and aggregates the per-worker WAL counters.
    """
    prefix = f"bench-{os.getpid()}-"
    with Client(host=host, port=port, timeout=60) as c:
        try:
            topo = c.call("topology")
        except Exception:
            topo = {}
    workers = int(topo.get("workers", 1) or 1)
    if workers > 1 and topo.get("ports"):
        from repro.client import ShardedClient

        result = run_sharded_clients(port, clients, ops, prefix)
        result["workers"] = workers
        with ShardedClient(host=host, port=port, timeout=60) as sc:
            snaps = sc.stats()
        result["group_commits"] = sum(
            s["wal_group_commits"] for s in snaps
        )
        result["batched_records"] = sum(
            s["wal_batched_records"] for s in snaps
        )
        with Client(host=host, port=port, timeout=60) as c:
            metrics = c.metrics()
    else:
        result = run_clients(port, clients, ops, prefix)
        with Client(host=host, port=port, timeout=60) as c:
            metrics = c.metrics()
            stats = c.stats()
        result["group_commits"] = stats["wal_group_commits"]
        result["batched_records"] = stats["wal_batched_records"]
    result["metrics_bytes"] = len(metrics)
    if not metrics.strip():
        raise SystemExit("server returned an empty metrics exposition")
    return result


def append_to_report(
    path: str, entry: dict[str, object], key: str = "server"
) -> None:
    """Merge one entry into the engine benchmark report under ``key``."""
    report: dict[str, object] = {}
    if os.path.exists(path):
        with open(path) as f:
            report = json.load(f)
    report[key] = entry
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--clients", type=int, default=8, help="concurrent clients"
    )
    parser.add_argument(
        "--ops", type=int, default=250, help="inserts per client"
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        help="drive an already-running server instead of hosting one",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny load; with --connect, also assert metrics is non-empty",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="measure span-tracing overhead (sink off vs 0%%/1%%/100%% "
        "head sampling) instead of the flush/fsync matrix",
    )
    parser.add_argument(
        "--sharded",
        action="store_true",
        help="measure shard-per-core scaling (1/2/4-worker fleets at "
        "per-record fsync durability) instead of the flush/fsync matrix",
    )
    parser.add_argument(
        "--replicated",
        action="store_true",
        help="measure WAL-shipping replication (synchronous-replica "
        "overhead on fsync inserts, and SIGKILL-to-promoted failover "
        "time) instead of the flush/fsync matrix",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(REPO_ROOT / "BENCH_engine.json"),
        help="report to append the server entry to; '-' skips writing",
    )
    args = parser.parse_args(argv)
    if args.clients < 1 or args.ops < 1:
        parser.error("--clients and --ops must be positive")
    if args.smoke:
        args.clients = min(args.clients, 4)
        args.ops = min(args.ops, 25)

    if args.connect:
        host, _, port = args.connect.rpartition(":")
        entry = bench_external(host or "127.0.0.1", int(port), args.clients, args.ops)
        print(json.dumps(entry, indent=2))
        return 0

    if args.spans:
        entry = bench_spans_overhead(args.clients, args.ops)
        print(json.dumps(entry, indent=2))
        if not args.smoke and args.output != "-":
            append_to_report(args.output, entry, key="server_spans")
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    if args.sharded:
        counts = (1, 2) if args.smoke else (1, 2, 4)
        entry = bench_sharded(args.clients, args.ops, counts)
        print(json.dumps(entry, indent=2))
        if not args.smoke and args.output != "-":
            append_to_report(args.output, entry, key="server_sharded")
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    if args.replicated:
        entry = bench_replicated(args.clients, args.ops)
        print(json.dumps(entry, indent=2))
        if not args.smoke and args.output != "-":
            append_to_report(args.output, entry, key="server_replicated")
            print(f"wrote {args.output}", file=sys.stderr)
        return 0

    entry = bench_hosted(args.clients, args.ops)
    print(json.dumps(entry, indent=2))
    if not args.smoke and args.output != "-":
        append_to_report(args.output, entry)
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
