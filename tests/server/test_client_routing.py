"""The routing step every client verb goes through.

Two halves.  Against a stub server that answers ``topology`` with a
made-up shard map and records every request, the tests pin where
:class:`ShardedClient` sends each request: the host it dials, which
mutations go direct and which use the two-phase protocol, and the
whole-database verbs a fleet refuses client-side.  Against a real
2-worker fleet, they pin the CLI commands that fan out over every
worker (``promote``, ``monitor``, ``trace``).
"""

from __future__ import annotations

import json
import socketserver
import threading

import pytest

from repro.cli import _fleet_replication_targets, _live_spans, main
from repro.client import ReplicatedClient, ShardedClient
from repro.engine.database import Database
from repro.io import relational_schema_to_dict
from repro.server import ServerConfig
from repro.server.protocol import (
    decode_frame,
    encode_frame,
    ok_frame,
    parse_target,
)
from repro.server.router import shard_of
from repro.server.server import ReproServer
from repro.server.supervisor import FleetProcess
from repro.workloads.university import university_relational

# A loopback address the stub does not listen on: dialling it is
# refused at once, without leaving the machine.
ELSEWHERE = "127.0.0.2"

# FREE: no reference in or out.  CHILD references PARENT.
SCHEMES = {
    "FREE": {"key": ["F.K"], "refs_out": False, "refs_in": False},
    "CHILD": {"key": ["C.K"], "refs_out": True, "refs_in": False},
    "PARENT": {"key": ["P.K"], "refs_out": False, "refs_in": True},
}


def _rows(ops: list) -> list:
    """What the stub answers for a batch: each op's row, None for a
    delete."""
    return [op[-1] if op[0] != "delete" else None for op in ops]


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        prepared: list = []
        for line in self.rfile:
            frame = decode_frame(line)
            verb = frame["verb"]
            self.server.verbs.append(verb)
            if verb == "topology":
                result = self.server.topology
            elif verb in ("insert", "update"):
                result = frame.get("row", frame.get("updates"))
            elif verb == "insert_many":
                result = frame["rows"]
            elif verb == "apply_batch":
                result = _rows(frame["ops"])
            elif verb == "batch_prepare":
                prepared = frame["ops"]
                result = {"requirements": []}
            elif verb == "batch_commit":
                result = _rows(prepared)
            elif verb == "stats":
                result = {"port": self.server.server_address[1]}
            else:
                result = None
            self.wfile.write(encode_frame(ok_frame(frame["id"], result)))


class StubServer(socketserver.ThreadingTCPServer):
    """Answers ``topology`` with a shard map whose every worker is this
    stub, reported on ``host``; records the verb of every request."""

    daemon_threads = True

    def __init__(self, workers: int, host: str = ELSEWHERE):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.verbs: list[str] = []
        port = self.server_address[1]
        self.topology = {
            "workers": workers,
            "host": host,
            "ports": [port] * workers if workers > 1 else [],
            "schemes": SCHEMES,
        }

    def __enter__(self) -> "StubServer":
        threading.Thread(target=self.serve_forever, daemon=True).start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
        self.server_close()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def routed(self) -> list[str]:
        """The verbs sent since the last call, bar ``topology``."""
        verbs = [v for v in self.verbs if v != "topology"]
        self.verbs.clear()
        return verbs


def _key_on(scheme: str, shard: int, tag: str = "k") -> str:
    i = 0
    while shard_of(scheme, [f"{tag}{i}"], 2) != shard:
        i += 1
    return f"{tag}{i}"


# -- where requests go -----------------------------------------------------


def test_sharded_client_dials_workers_on_the_callers_host():
    """The topology's ``host`` is the fleet's bind address, which may
    mean nothing to the caller (``0.0.0.0``); workers listen where the
    shared port does, so the client dials the host it was given."""
    with StubServer(workers=2) as stub:
        with ShardedClient(port=stub.port, timeout=5) as sc:
            assert sc.stats() == [{"port": stub.port}] * 2
        assert stub.routed() == ["stats", "stats"]


def test_fleet_replication_targets_use_the_callers_host():
    with StubServer(workers=2) as stub:
        target = f"127.0.0.1:{stub.port}"
        assert _fleet_replication_targets(target, 2) == [target] * 2


def test_whole_database_verbs_raise_on_a_fleet():
    """No single worker holds every row, so these are refused before
    any request is sent -- never answered from one shard."""
    with StubServer(workers=2) as stub:
        with ShardedClient(port=stub.port, timeout=5) as sc:
            calls = [
                sc.check,
                lambda: sc.join_to("CHILD", "c1", ["C.P"], "PARENT"),
                lambda: sc.find_referencing(
                    "PARENT", "p1", "CHILD", ["C.P"], ["P.K"]
                ),
                lambda: sc.apply_merge(["CHILD", "PARENT"]),
            ]
            for call in calls:
                with pytest.raises(NotImplementedError, match="2 workers"):
                    call()
        assert stub.routed() == []


def test_mutations_go_direct_only_when_local_to_one_shard():
    k0, k0b = _key_on("FREE", 0), _key_on("FREE", 0, "x")
    k1 = _key_on("FREE", 1)
    with StubServer(workers=2) as stub:
        with ShardedClient(port=stub.port, timeout=5) as sc:
            # Reference-free and on one shard: the verb itself.
            assert sc.insert("FREE", {"F.K": k0}) == {"F.K": k0}
            sc.delete("FREE", k1)
            rows = sc.apply_batch(
                [("insert", "FREE", {"F.K": k0}), ("delete", "FREE", k0b)]
            )
            assert rows == [{"F.K": k0}, None]
            assert stub.routed() == ["insert", "delete", "apply_batch"]
            # Two shards: two-phase, even without references.
            rows = sc.insert_many("FREE", [{"F.K": k0}, {"F.K": k1}])
            assert rows == [{"F.K": k0}, {"F.K": k1}]
            assert sorted(stub.routed()) == ["batch_commit"] * 2 + [
                "batch_prepare"
            ] * 2
            # A check that may cross shards: two-phase, even on one.
            assert sc.insert("CHILD", {"C.K": "c1"}) == {"C.K": "c1"}
            sc.delete("PARENT", "p1")
            sc.update("CHILD", "c1", {"C.P": "p2"})
            assert stub.routed() == ["batch_prepare", "batch_commit"] * 3


def test_a_one_shard_map_sends_every_mutation_direct():
    with StubServer(workers=1) as stub:
        with ShardedClient(port=stub.port, timeout=5) as sc:
            sc.insert("CHILD", {"C.K": "c1"})
            sc.apply_batch([("delete", "PARENT", "p1")])
            assert sc.check() is None  # one shard holds every row
        assert stub.routed() == ["insert", "apply_batch", "check"]


def test_one_target_parser_everywhere():
    assert parse_target("db.example:7043") == ("db.example", 7043)
    assert parse_target("7043") == ("127.0.0.1", 7043)
    for bad in ("nope", "host:", "host:0", "host:70000"):
        with pytest.raises(ValueError, match="HOST:PORT"):
            parse_target(bad)
    with pytest.raises(ValueError, match="HOST:PORT"):
        ReplicatedClient("nope")
    # A replica with a malformed primary address is refused up front,
    # not retried forever.
    db = Database(university_relational())
    with pytest.raises(ValueError, match="HOST:PORT"):
        ReproServer(db, ServerConfig(replicate_from="nope"))


# -- the CLI's fleet fan-outs, against a real fleet ------------------------


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("routing-fleet")
    schema_file = tmp / "university.json"
    schema_file.write_text(
        json.dumps(relational_schema_to_dict(university_relational()))
    )
    fleet = FleetProcess(
        str(schema_file),
        workers=2,
        extra_args=("--span-sink", str(tmp / "spans.jsonl")),
    )
    try:
        fleet.wait_ready()
        yield fleet
    finally:
        fleet.stop()


def test_promote_cli_promotes_every_worker(fleet, capsys):
    assert main(["promote", f"127.0.0.1:{fleet.port}"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in out] == [
        "worker 0: primary -> primary",
        "worker 1: primary -> primary",
    ]


def test_monitor_cli_renders_the_fleet_dashboard(fleet, capsys):
    target = f"127.0.0.1:{fleet.port}"
    assert main(["monitor", target, "--once", "--no-clear"]) == 0
    out = capsys.readouterr().out
    assert f"repro monitor {target} — 2 workers" in out
    rows = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert [r for r in rows if r in ("w0", "w1", "fleet")] == [
        "w0",
        "w1",
        "fleet",
    ]


def test_trace_cli_collects_spans_from_every_worker(fleet, capsys):
    with ShardedClient(port=fleet.port, timeout=30) as sc:
        for shard in (0, 1):
            sc.insert("COURSE", {"C.NR": _key_on("COURSE", shard, "t")})
    target = f"127.0.0.1:{fleet.port}"
    assert {s["process"] for s in _live_spans(target, 30)} == {"w0", "w1"}
    assert main(["trace", target, "--list"]) == 0
    out = capsys.readouterr().out
    assert "trace(s) from 1 source(s)" in out
    assert out.count("1 process(es)") >= 2
