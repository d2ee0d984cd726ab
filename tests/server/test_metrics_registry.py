"""One metrics path: every exported family comes from one registry.

The engine's :class:`~repro.engine.stats.EngineStats` counters are
exported through the server's :class:`~repro.obs.metrics.MetricsRegistry`
alongside the server-layer families, and every server count is kept
once, in the registry: the ``stats`` verb and the drain summary read it
back.  These tests pin the exposition a served workload produces, the
one ``# HELP`` / ``# TYPE`` pair per family, and the prepare outcome
counts, which must add up to the prepares the writer took.
"""

from __future__ import annotations

import asyncio
import re
from collections import Counter

from repro.client import Client, RemoteConstraintViolation
from repro.engine.database import Database
from repro.engine.faults import FaultyStorage
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.server import ServerConfig, ServerThread
from repro.server.protocol import encode_row
from repro.server.service import DatabaseService, Session
from repro.workloads.university import university_relational

OFFER_TO_COURSE = "OFFER[O.C.NR] <= COURSE[C.NR]"


def _served_exposition() -> str:
    """The ``metrics`` verb's body after three inserts along the
    ``OFFER -> COURSE`` inclusion dependency, one navigation along it
    and one restrict-delete rejection."""
    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    with ServerThread(db, ServerConfig()) as st:
        with Client(port=st.port, timeout=30) as c:
            c.insert("DEPARTMENT", {"D.NAME": "d1"})
            c.insert("COURSE", {"C.NR": "c1"})
            c.insert("OFFER", {"O.D.NAME": "d1", "O.C.NR": "c1"})
            assert c.join_to("OFFER", "c1", ["O.C.NR"], "COURSE") is not None
            try:
                c.delete("COURSE", "c1")
            except RemoteConstraintViolation as exc:
                assert exc.kind == "restrict-delete"
            else:
                raise AssertionError("expected a restrict-delete rejection")
            return c.metrics()


def _header_counts(text: str, kind: str) -> Counter:
    """How many ``# <kind>`` header lines each family name has."""
    return Counter(
        m.group(1)
        for m in re.finditer(rf"^# {kind} (\S+) ", text, re.MULTILINE)
    )


def test_served_exposition_keeps_the_engine_samples():
    text = _served_exposition()
    lines = text.splitlines()
    for line in (
        "repro_engine_inserts 3",
        f'repro_engine_ind_joins{{ind="{OFFER_TO_COURSE}"}} 1',
        'repro_engine_scheme_mutations{scheme="COURSE"} 1',
        'repro_engine_scheme_mutations{scheme="DEPARTMENT"} 1',
        'repro_engine_scheme_mutations{scheme="OFFER"} 1',
        "repro_engine_wal_group_commits 3",
        "repro_engine_wal_batched_records 3",
        'repro_server_requests_total{verb="insert"} 3',
        'repro_server_requests_total{verb="delete"} 1',
    ):
        assert line in lines, line
    assert set(_header_counts(text, "TYPE").values()) == {1}


def test_every_family_has_one_help_and_one_type_line():
    text = _served_exposition()
    types = _header_counts(text, "TYPE")
    assert types and set(types.values()) == {1}
    assert _header_counts(text, "HELP") == types
    # The checkpoint count is exported once, as the engine's counter.
    assert "repro_engine_checkpoints" in types
    assert "repro_server_wal_snapshots" not in types


def test_spans_dropped_total_is_typed_a_counter():
    """A monotone ``_total`` count is a counter, callback-backed or not."""
    lines = _served_exposition().splitlines()
    assert "# TYPE repro_server_spans_dropped_total counter" in lines


def test_prepare_whose_commit_write_fails_is_counted_as_failed():
    """A commit decision whose durability barrier fails still ends the
    prepare: it is counted under ``failed``, so the outcome counts add
    up to the prepares taken."""

    async def main() -> tuple[dict, dict, str]:
        storage = FaultyStorage()
        db = Database(university_relational(), wal=WriteAheadLog(storage))
        service = DatabaseService(db, max_delay=0)
        await service.start()
        session = Session(1)
        try:
            prepared = await service.handle(
                session,
                {
                    "id": 1,
                    "verb": "batch_prepare",
                    "xid": "x1",
                    "ops": [
                        ["insert", "COURSE", encode_row({"C.NR": "c1"})]
                    ],
                },
            )
            assert prepared["ok"], prepared
            held = service.server_stats()["prepares"]
            assert held["held"] and held["prepared"] == 1
            storage.fail_at = storage.writes  # the commit decision's write
            committed = await service.handle(
                session, {"id": 2, "verb": "batch_commit", "xid": "x1"}
            )
            return committed, service.server_stats(), service.render_metrics()
        finally:
            await service.stop()

    committed, stats, text = asyncio.run(main())
    assert not committed["ok"]
    assert committed["error"]["type"] == "wal-error"
    prepares = stats["prepares"]
    assert prepares["failed"] == 1
    assert prepares["held"] is False
    assert prepares["prepared"] == 1 == sum(
        prepares[k] for k in ("committed", "aborted", "expired", "failed")
    )
    assert 'repro_server_prepares_total{outcome="failed"} 1' in text


def test_stats_and_drain_summary_read_the_registry():
    from repro.server import drain_summary

    db = Database(university_relational(), wal=WriteAheadLog(MemoryStorage()))
    with ServerThread(db, ServerConfig()) as st:
        with Client(port=st.port, timeout=30) as c:
            c.insert("COURSE", {"C.NR": "c1"})
            server = c.stats()["server"]
        with Client(port=st.port, timeout=30) as c:
            c.get("COURSE", "c1")
    # The stats request counts itself, as it always has.
    assert server["requests_served"] == 2
    assert isinstance(server["requests_served"], int)
    for key in ("prepared", "committed", "aborted", "expired", "failed"):
        assert server["prepares"][key] == 0
        assert isinstance(server["prepares"][key], int)
    for key in ("shipped", "applied"):
        assert server["replication"][key] == 0
        assert isinstance(server["replication"][key], int)
    summary = drain_summary(st.server)
    assert summary["sessions"] == 2
    assert summary["requests"] == 3
    assert summary["rejected_connections"] == 0
    assert all(
        isinstance(summary[k], int)
        for k in ("sessions", "requests", "rejected_connections")
    )
