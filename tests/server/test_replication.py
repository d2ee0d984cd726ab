"""WAL-shipping replication: catch-up, streaming, promotion, failover.

The acked-durability contract across hosts: a registered replica is
synchronous -- the primary withholds a mutation's ack until the replica
has confirmed receipt of its WAL records -- so when the primary host
dies without warning (SIGKILL: no drain, no checkpoint), promoting the
replica loses nothing any client was told succeeded.  The subprocess
test at the bottom proves exactly that, with the scan oracle of
``tests/engine/_wal_oracle.py`` as the independent referee; the
in-process tests cover the catch-up protocol piece by piece (snapshot
bootstrap, mid-stream attach, torn tails, read-your-writes,
promotion).  See ``docs/REPLICATION.md``.
"""

from __future__ import annotations

import json
import os
import threading
import time

import pytest

from repro.client import Client, ReplicatedClient, RemoteError
from repro.engine.database import Database
from repro.engine.recovery import recover_database
from repro.engine.wal import (
    MemoryStorage,
    WalCursor,
    WriteAheadLog,
    insert_record,
)
from repro.io import relational_schema_to_dict, state_to_dict
from repro.server import ServerConfig, ServerProcess, ServerThread
from repro.workloads.university import university_relational

from tests.engine._wal_oracle import oracle_replay


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "university.json"
    path.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    return str(path)


def _database() -> Database:
    return Database(
        university_relational(), wal=WriteAheadLog(MemoryStorage())
    )


def _replica_thread(primary: ServerThread) -> ServerThread:
    return ServerThread(
        _database(),
        ServerConfig(replicate_from=f"127.0.0.1:{primary.port}"),
    )


def _await_applied(port: int, lsn: int, timeout: float = 30.0) -> dict:
    """Poll ``repl_status`` until ``applied_lsn`` reaches ``lsn``."""
    deadline = time.monotonic() + timeout
    with Client(port=port, timeout=30) as c:
        while True:
            status = c.repl_status()
            if status["applied_lsn"] >= lsn:
                return status
            assert time.monotonic() < deadline, status
            time.sleep(0.01)


# -- WalCursor: the shipping read path -----------------------------------------


def test_cursor_ships_only_durable_records():
    wal = WriteAheadLog(MemoryStorage())
    cursor = WalCursor(wal.storage)
    wal.append(insert_record("COURSE", {"C.NR": "c1"}))
    wal.append(insert_record("COURSE", {"C.NR": "c2"}))
    # Nothing synced yet: durable_lsn still covers only the header.
    assert wal.durable_lsn == 1
    assert cursor.read_after(0, wal.durable_lsn) == []
    wal.sync()
    records = cursor.read_after(0, wal.durable_lsn)
    assert [r["op"] for r in records] == ["insert", "insert"]
    # The cursor is incremental: nothing new, nothing returned.
    assert cursor.read_after(records[-1]["lsn"], wal.durable_lsn) == []


def test_cursor_stops_at_torn_tail_and_resumes():
    wal = WriteAheadLog(MemoryStorage())
    wal.append(insert_record("COURSE", {"C.NR": "c1"}))
    wal.sync()
    cursor = WalCursor(wal.storage)
    assert len(cursor.read_after(0, wal.durable_lsn)) == 1
    # A torn append: only half the next record's bytes are present.
    offset = cursor.offset
    wal.append(insert_record("COURSE", {"C.NR": "c2"}))
    wal.sync()
    torn = wal.storage.read()
    half = MemoryStorage()
    half.append(torn[: offset + 9])
    torn_cursor = WalCursor(half)
    torn_cursor.read_after(0, 10**9)
    before = torn_cursor.offset
    assert torn_cursor.read_after(0, 10**9) == []
    assert torn_cursor.offset == before  # did not advance past the tear
    # The tail completes (the primary finished the write): it ships.
    half.replace(torn)
    (record,) = torn_cursor.read_after(2, 10**9)
    assert record["row"]["C.NR"] == "c2"


def test_cursor_detects_checkpoint_compaction():
    wal = WriteAheadLog(MemoryStorage())
    for i in range(5):
        wal.append(insert_record("COURSE", {"C.NR": f"c{i}"}))
    wal.sync()
    cursor = WalCursor(wal.storage)
    assert len(cursor.read_after(0, wal.durable_lsn)) == 5
    # A checkpoint shrinks the log to one snapshot record: the cursor
    # must notice its offset is past the end and restart from zero.
    db = Database(university_relational())
    wal.write_snapshot(state_to_dict(db.state()))
    records = cursor.read_after(0, wal.durable_lsn)
    assert [r["op"] for r in records] == ["snapshot"]


# -- in-process: catch-up, reads, rejection, promotion -------------------------


def test_replica_bootstraps_from_snapshot_and_streams():
    with ServerThread(_database(), ServerConfig()) as primary:
        with Client(port=primary.port, timeout=30) as c:
            c.insert("COURSE", {"C.NR": "before"})
            base_lsn = c.last_lsn
        with _replica_thread(primary) as replica:
            _await_applied(replica.port, base_lsn)
            with Client(port=replica.port, timeout=30) as rc:
                assert rc.get("COURSE", "before") == {"C.NR": "before"}
            # Streaming: a write after attach ships without a snapshot.
            with Client(port=primary.port, timeout=30) as c:
                c.insert("COURSE", {"C.NR": "after"})
                lsn = c.last_lsn
            status = _await_applied(replica.port, lsn)
            assert status["role"] == "replica"
            assert status["lag"] == 0
            with Client(port=replica.port, timeout=30) as rc:
                assert rc.get("COURSE", "after") == {"C.NR": "after"}
            # The primary reports its attached synchronous replica.
            with Client(port=primary.port, timeout=30) as c:
                assert c.repl_status()["replicas"] >= 1


def test_replica_attaches_mid_stream():
    """Snapshot transfer while the primary is actively committing: the
    replica must converge on exactly the primary's state, with every
    record applied once (no gap, no double-apply at the seam)."""
    with ServerThread(_database(), ServerConfig()) as primary:
        stop = threading.Event()
        acked: list[str] = []

        def writer() -> None:
            with Client(port=primary.port, timeout=60) as c:
                i = 0
                while not stop.is_set():
                    key = f"w{i}"
                    c.insert("COURSE", {"C.NR": key})
                    acked.append(key)
                    i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            while len(acked) < 20:  # attach mid-load
                time.sleep(0.001)
            with _replica_thread(primary) as replica:
                while len(acked) < 60:  # keep writing over the seam
                    time.sleep(0.001)
                stop.set()
                thread.join(timeout=60)
                with Client(port=primary.port, timeout=30) as c:
                    final = c.repl_status()["durable_lsn"]
                _await_applied(replica.port, final)
                with Client(port=replica.port, timeout=30) as rc:
                    for key in acked:
                        assert rc.get("COURSE", key) is not None, key
                    total = len(rc.check()["violations"])
                    assert total == 0
        finally:
            stop.set()
            thread.join(timeout=60)


def test_replica_rejects_writes_naming_primary():
    with ServerThread(_database(), ServerConfig()) as primary:
        with _replica_thread(primary) as replica:
            with Client(port=replica.port, timeout=30) as rc:
                with pytest.raises(RemoteError) as excinfo:
                    rc.insert("COURSE", {"C.NR": "nope"})
                assert excinfo.value.type == "read-only-replica"
                assert excinfo.value.extra["primary"].endswith(
                    str(primary.port)
                )


def test_promote_turns_replica_into_writable_primary():
    with ServerThread(_database(), ServerConfig()) as primary:
        with Client(port=primary.port, timeout=30) as c:
            c.insert("COURSE", {"C.NR": "c1"})
            lsn = c.last_lsn
        with _replica_thread(primary) as replica:
            _await_applied(replica.port, lsn)
            with Client(port=replica.port, timeout=30) as rc:
                result = rc.promote()
                assert result == {
                    "was": "replica",
                    "role": "primary",
                    "applied_lsn": lsn,
                }
                # Idempotent on a primary.
                assert rc.promote()["was"] == "primary"
                rc.insert("COURSE", {"C.NR": "c2"})
                assert rc.get("COURSE", "c2") == {"C.NR": "c2"}


def test_read_your_writes_routes_through_replica():
    with ServerThread(_database(), ServerConfig()) as primary:
        with _replica_thread(primary) as replica:
            with ReplicatedClient(
                f"127.0.0.1:{primary.port}",
                [f"127.0.0.1:{replica.port}"],
                timeout=30,
            ) as client:
                client.insert("COURSE", {"C.NR": "mine"})
                assert client.last_lsn > 0
                # Served by the replica, after it caught up to the
                # client's own watermark (the primary would also have
                # it, but the routed read must not need the fallback).
                assert client.get("COURSE", "mine") == {"C.NR": "mine"}
                status = _await_applied(replica.port, client.last_lsn)
                assert status["applied_lsn"] >= client.last_lsn


# -- subprocess: SIGKILL the primary, promote, lose nothing --------------------

N_CLIENTS = 3
KILL_AFTER_ACKS = 60


def test_sigkill_primary_promote_replica_loses_no_acked_mutation(
    schema_file, tmp_path
):
    primary_wal = str(tmp_path / "primary.wal")
    replica_wal = str(tmp_path / "replica.wal")
    with ServerProcess(schema_file, wal=primary_wal) as primary:
        primary.wait_ready()
        with ServerProcess(
            schema_file,
            wal=replica_wal,
            replicate_from=f"127.0.0.1:{primary.port}",
        ) as replica:
            replica.wait_ready()
            replica.wait_line("replica caught up")

            acked: list[list[str]] = [[] for _ in range(N_CLIENTS)]
            total = threading.Semaphore(0)

            def load(i: int) -> None:
                try:
                    with Client(port=primary.port, timeout=60) as c:
                        j = 0
                        while True:
                            key = f"k{i}-{j}"
                            c.insert("COURSE", {"C.NR": key})
                            acked[i].append(key)
                            total.release()
                            j += 1
                except (ConnectionError, OSError):
                    pass  # the kill severed this connection mid-request

            workers = [
                threading.Thread(target=load, args=(i,))
                for i in range(N_CLIENTS)
            ]
            for w in workers:
                w.start()
            for _ in range(KILL_AFTER_ACKS):
                assert total.acquire(timeout=60)
            primary.kill()  # SIGKILL: no drain, no checkpoint, no warning
            for w in workers:
                w.join(timeout=60)
                assert not w.is_alive()

            with Client(port=replica.port, timeout=30) as rc:
                promoted = rc.promote()
                assert promoted["role"] == "primary"
                # Acked durability across failover: every mutation any
                # client was told succeeded is served by the promoted
                # replica -- the primary's disk is out of the picture.
                all_acked = [k for per_client in acked for k in per_client]
                assert len(all_acked) >= KILL_AFTER_ACKS
                for key in all_acked:
                    assert rc.get("COURSE", key) is not None, key
                rc.insert("COURSE", {"C.NR": "post-failover"})
            replica.stop()  # graceful drain: flushes the replica's WAL

    schema = university_relational()

    # The replica invented nothing: its recovered state is a subset of
    # what the primary's surviving log proves committed (plus the one
    # post-failover write), per the independent scan oracle.
    with open(primary_wal, "rb") as f:
        oracle_state = oracle_replay(f.read(), schema).state()
    result = recover_database(schema, replica_wal)
    assert result.report.verified
    replica_state = result.database.state()
    for scheme, relation in replica_state.items():
        extra = set(relation.tuples) - set(oracle_state[scheme].tuples)
        extra = {t for t in extra if t["C.NR"] != "post-failover"} \
            if scheme == "COURSE" else extra
        assert not extra, (scheme, extra)
    # And nothing acked is missing from it either.
    for per_client in acked:
        for key in per_client:
            assert result.database.get("COURSE", (key,)) is not None, key
    result.database.wal.close()
    assert os.path.getsize(replica_wal) > 0
