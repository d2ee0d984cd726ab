"""Blocking clients for the JSON-lines server (``repro.server``).

One :class:`Client` is one TCP connection and one outstanding request
at a time -- the deliberately simple synchronous counterpart to the
asyncio server.  Concurrency comes from many clients (one per thread or
process), which is exactly the shape the server's group-commit path is
built for.

Every verb is written once, on :class:`Client`: it encodes its
parameters, hands the request to :meth:`Client._route`, and decodes the
result.  A plain client routes everything down its own connection.
:class:`ReplicatedClient` (writes to a primary, reads from replicas) and
:class:`ShardedClient` (each row to the worker owning it) differ only in
that routing step; their connections to each server are plain
:class:`Client`\\ s, so every round trip is one :meth:`Client.call`.

Rows and primary keys travel in the engine's own value encoding
(``NULL`` as the ``{"$null": true}`` marker), so what a method returns
is what :meth:`Database.get` would return in-process, as a plain dict.
Server-side rejections come back as exceptions:
:class:`~repro.server.protocol.RemoteConstraintViolation` for
constraint violations (carrying ``constraint``/``kind``/``rule``/
``detail`` provenance) and :class:`~repro.server.protocol.RemoteError`
for everything else.

::

    from repro.client import Client

    with Client(port=7043) as c:
        c.insert("COURSE", {"C.NR": "c1", "C.TITLE": "Databases"})
        row = c.get("COURSE", "c1")
"""

from __future__ import annotations

import secrets
import socket
import time
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.spans import SpanSink
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    RemoteConstraintViolation,
    RemoteError,
    decode_frame,
    decode_row,
    encode_frame,
    encode_pk,
    encode_row,
    parse_target,
    raise_error,
    request_frame,
)
from repro.server.router import (
    ShardMap,
    group_ops_by_shard,
    requirement_violation,
)

__all__ = [
    "Client",
    "ShardedClient",
    "ReplicatedClient",
    "RemoteConstraintViolation",
    "RemoteError",
]

#: How long a replica read waits for the replica to apply this
#: client's own latest write before it falls back to the primary.
CATCHUP_TIMEOUT_S = 5.0

# What a request's answer depends on -- all a routing step needs to
# know besides the verb (see :meth:`Client._route`).
WRITE = "write"  # a mutation: of the rows in ``ops``, or of the schema
KEY = "key"  # the row under the request's ``scheme`` and ``pk``
STATE = "state"  # every row of the database
SCHEMA = "schema"  # the schema alone: every server answers alike
EXISTS = "exists"  # whether any server holds a value
SERVER = "server"  # the server that answers it

#: Batch verbs answer one row per op; the other mutations one row.
_BATCH_VERBS = ("insert_many", "apply_batch")


def _wire_pk(pk: Any) -> list:
    """A primary key (scalar or tuple) in wire form."""
    if not isinstance(pk, tuple):
        pk = (pk,)
    return encode_pk(pk)


def _wire_ops(ops: Iterable[tuple]) -> list[list]:
    """Engine-style ``apply_batch`` op tuples in wire form."""
    wire: list[list] = []
    for op in ops:
        kind = op[0] if op else None
        if kind == "insert" and len(op) == 3:
            wire.append(["insert", op[1], encode_row(op[2])])
        elif kind == "update" and len(op) == 4:
            wire.append(
                ["update", op[1], _wire_pk(op[2]), encode_row(op[3])]
            )
        elif kind == "delete" and len(op) == 3:
            wire.append(["delete", op[1], _wire_pk(op[2])])
        else:
            raise ValueError(f"not a valid batch op: {op!r}")
    return wire


def _maybe_row(row: Any) -> dict[str, Any] | None:
    return decode_row(row) if row is not None else None


class Client:
    """One blocking connection to a ``repro`` server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        span_sink: SpanSink | None = None,
    ):
        self._sock = socket.create_connection((host, port), timeout=timeout)
        # One small frame per request: Nagle+delayed-ACK would add
        # whole milliseconds to every round trip.
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._fh = self._sock.makefile("rwb")
        self._next_id = 0
        #: Where this client's root spans go (``None`` = no client-side
        #: tracing).  With a sink set, each :meth:`call` that is not
        #: already inside a trace opens a sampled ``client:<verb>`` root
        #: span and sends its context on the wire.
        self.span_sink = span_sink
        #: The ``trace_id`` the server echoed in the most recent
        #: response -- the trace ``repro trace`` shows for that request,
        #: and the id stamped on its engine trace events.  Only a
        #: request that ran under a span (a sampled ``span_ctx``, this
        #: client's :attr:`span_sink`, or a server-rooted trace) echoes
        #: one; it is ``None`` after an untraced response.
        self.last_trace_id: str | None = None
        #: The WAL ``lsn`` of this connection's most recent acknowledged
        #: mutation (0 before the first one) -- the watermark
        #: :class:`ReplicatedClient` waits for on a replica before a
        #: read (see ``docs/REPLICATION.md``).
        self.last_lsn: int = 0

    # -- plumbing --------------------------------------------------------

    def close(self) -> None:
        """Close the connection (idempotent)."""
        try:
            self._fh.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def call(
        self,
        verb: str,
        *,
        span_ctx: str | None = None,
        **params: Any,
    ) -> Any:
        """One request/response round trip; the raw ``result`` value.

        ``span_ctx`` (optional) is an encoded span context
        (:func:`repro.obs.spans.encode_context`) sent as the request's
        ``span`` field, parenting the server's span under the caller's.
        Without one, a configured :attr:`span_sink` opens (and exports)
        a ``client:<verb>`` root span around the round trip.  A traced
        request's trace id comes back in :attr:`last_trace_id`.

        Raises the matching :class:`RemoteError` subtype on an error
        frame, :class:`ConnectionError` if the server hangs up, and
        :class:`ProtocolError` on an unparseable or mismatched response.
        """
        self._next_id += 1
        request_id = self._next_id
        span = None
        if (
            span_ctx is None
            and self.span_sink is not None
            and self.span_sink.sample_root()
        ):
            span = self.span_sink.start_span(f"client:{verb}", kind="client")
            span_ctx = span.context()
        if span_ctx is not None:
            params["span"] = span_ctx
        try:
            self._fh.write(
                encode_frame(request_frame(request_id, verb, **params))
            )
            self._fh.flush()
            line = self._fh.readline(MAX_FRAME_BYTES + 1)
            if not line:
                raise ConnectionError("server closed the connection")
            frame = decode_frame(line)
            if frame.get("id") != request_id:
                raise ProtocolError(
                    f"response id {frame.get('id')!r} does not match "
                    f"request id {request_id!r}"
                )
            echoed = frame.get("trace_id")
            self.last_trace_id = echoed if isinstance(echoed, str) else None
            if not frame.get("ok"):
                raise_error(frame)
        except Exception as exc:
            if span is not None:
                span.status = type(exc).__name__
            raise
        finally:
            if span is not None:
                self.span_sink.export(span.end())
        lsn = frame.get("lsn")
        if isinstance(lsn, int) and lsn > self.last_lsn:
            self.last_lsn = lsn
        return frame.get("result")

    def _route(
        self,
        verb: str,
        params: dict[str, Any],
        scope: str,
        ops: list[list] | None = None,
    ) -> Any:
        """Send one request where it belongs; its raw result.

        ``scope`` says what the answer depends on (:data:`WRITE`,
        :data:`KEY`, ...) and ``ops`` lists a row mutation's wire-form
        batch ops.  One server holds everything, so a plain client
        sends every request down its own connection.
        """
        return self.call(verb, **params)

    # -- mutations -------------------------------------------------------

    def insert(
        self, scheme: str, row: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Insert one row; returns the stored row."""
        wire = encode_row(row)
        return decode_row(
            self._route(
                "insert",
                {"scheme": scheme, "row": wire},
                WRITE,
                [["insert", scheme, wire]],
            )
        )

    def update(
        self, scheme: str, pk: Any, updates: Mapping[str, Any]
    ) -> dict[str, Any]:
        """Update one row by primary key; returns the updated row."""
        wire_pk, wire = _wire_pk(pk), encode_row(updates)
        return decode_row(
            self._route(
                "update",
                {"scheme": scheme, "pk": wire_pk, "updates": wire},
                WRITE,
                [["update", scheme, wire_pk, wire]],
            )
        )

    def delete(self, scheme: str, pk: Any) -> None:
        """Delete one row by primary key."""
        wire_pk = _wire_pk(pk)
        self._route(
            "delete",
            {"scheme": scheme, "pk": wire_pk},
            WRITE,
            [["delete", scheme, wire_pk]],
        )

    def insert_many(
        self, scheme: str, rows: Sequence[Mapping[str, Any]]
    ) -> list[dict[str, Any]]:
        """Insert many rows of one scheme atomically."""
        wire = [encode_row(r) for r in rows]
        result = self._route(
            "insert_many",
            {"scheme": scheme, "rows": wire},
            WRITE,
            [["insert", scheme, w] for w in wire],
        )
        return [decode_row(r) for r in result]

    def apply_batch(self, ops: Iterable[tuple]) -> list[dict[str, Any] | None]:
        """Apply a mixed mutation batch atomically (engine-style op
        tuples: ``("insert", scheme, row)``, ``("update", scheme, pk,
        updates)``, ``("delete", scheme, pk)``)."""
        wire = _wire_ops(ops)
        result = self._route("apply_batch", {"ops": wire}, WRITE, wire)
        return [_maybe_row(r) for r in result]

    def apply_merge(
        self,
        members: list[str] | None = None,
        key_relation: str | None = None,
        merged_name: str | None = None,
        strategy: str | None = None,
    ) -> dict[str, Any]:
        """Apply a merge online (one WAL transaction on the server's
        single-writer path).  With no ``members`` the advisor's
        recommendation is applied."""
        params: dict[str, Any] = {}
        if members is not None:
            params["members"] = list(members)
            if key_relation is not None:
                params["key_relation"] = key_relation
            if merged_name is not None:
                params["merged_name"] = merged_name
        elif strategy is not None:
            params["strategy"] = strategy
        return self._route("apply_merge", params, WRITE)

    # -- reads -----------------------------------------------------------

    def get(self, scheme: str, pk: Any) -> dict[str, Any] | None:
        """Primary-key lookup; ``None`` when absent."""
        return _maybe_row(
            self._route("get", {"scheme": scheme, "pk": _wire_pk(pk)}, KEY)
        )

    def exists(
        self, scheme: str, attrs: Sequence[str], value: Sequence[Any]
    ) -> bool:
        """Whether a row of ``scheme`` carries ``value`` under
        ``attrs``."""
        params = {
            "scheme": scheme,
            "attrs": list(attrs),
            "value": encode_pk(tuple(value)),
        }
        return self._route("exists", params, EXISTS)["exists"]

    def join_to(
        self,
        scheme: str,
        pk: Any,
        via: Sequence[str],
        target_scheme: str,
        target_attrs: Sequence[str] | None = None,
    ) -> dict[str, Any] | None:
        """Navigate a foreign key from the row under ``pk``."""
        params = {
            "scheme": scheme,
            "pk": _wire_pk(pk),
            "via": list(via),
            "target_scheme": target_scheme,
            "target_attrs": list(target_attrs) if target_attrs else None,
        }
        return _maybe_row(self._route("join_to", params, STATE))

    def find_referencing(
        self,
        scheme: str,
        pk: Any,
        source_scheme: str,
        via: Sequence[str],
        target_attrs: Sequence[str],
    ) -> list[dict[str, Any]]:
        """All rows of ``source_scheme`` referencing the row under
        ``pk``."""
        params = {
            "scheme": scheme,
            "pk": _wire_pk(pk),
            "source_scheme": source_scheme,
            "via": list(via),
            "target_attrs": list(target_attrs),
        }
        result = self._route("find_referencing", params, STATE)
        return [decode_row(r) for r in result]

    def check(self) -> dict[str, Any]:
        """Full-state consistency check:
        ``{"consistent": bool, "violations": [...]}``."""
        return self._route("check", {}, STATE)

    def explain(self, op: str, scheme: str) -> dict[str, Any]:
        """The enforcement plan EXPLAIN dict for ``op`` on ``scheme``."""
        return self._route("explain", {"op": op, "scheme": scheme}, SCHEMA)

    # -- per server (a fleet answers one per worker) ---------------------

    def advise(self, strategy: str | None = None) -> dict[str, Any]:
        """The merge advisor's report over the server's mined workload
        counters: candidate families with Section 5 verdicts and
        workload scores, the ``recommendation`` (or ``None``), and the
        EXPLAIN text."""
        params = {"strategy": strategy} if strategy is not None else {}
        return self._route("advise", params, SERVER)

    def metrics(self) -> str:
        """The server's Prometheus text exposition."""
        return self._route("metrics", {}, SERVER)

    def stats(self) -> dict[str, Any]:
        """The server's :meth:`EngineStats.snapshot` dict."""
        return self._route("stats", {}, SERVER)

    def spans(self, limit: int | None = None) -> dict[str, Any]:
        """The server's span-sink ring buffer (oldest first) plus its
        depth/dropped/exported/sample counters; empty with no sink
        configured."""
        params = {"limit": limit} if limit is not None else {}
        return self._route("spans", params, SERVER)

    def repl_status(self) -> dict[str, Any]:
        """Where this server stands in the replication topology:
        ``{"role", "applied_lsn", "durable_lsn", "primary",
        "replicas"}``."""
        return self._route("repl_status", {}, SERVER)

    def promote(self) -> dict[str, Any]:
        """Turn a replica into a read-write primary (idempotent on a
        primary): ``{"was", "role", "applied_lsn"}``."""
        return self._route("promote", {}, SERVER)


class ReplicatedClient(Client):
    """A client of a primary/replica pair (or set): mutations and
    per-server verbs go to the primary, reads round-robin across the
    replicas, so read load scales out without touching the write path
    (see ``docs/REPLICATION.md``).

    Replication is asynchronous, so a replica may serve a state behind
    the primary's.  Each read therefore first waits (up to
    :data:`CATCHUP_TIMEOUT_S`) until the chosen replica's
    ``applied_lsn`` has reached the ``lsn`` of this client's own latest
    acknowledged mutation: the session always observes its own writes.
    A replica that cannot catch up in time, or is unreachable, leaves
    the read to the primary.

    :meth:`promote` fails the pair over client-side: it promotes the
    first replica and re-points this client's writes at it.

    One instance is one logical connection: not thread-safe.
    """

    def __init__(
        self,
        primary: str,
        replicas: Sequence[str] = (),
        timeout: float | None = None,
    ):
        self._timeout = timeout
        self._replica_targets = [parse_target(t) for t in replicas]
        self._replica_clients: dict[int, Client] = {}
        self._rr = 0
        host, port = parse_target(primary)
        self._primary = Client(host=host, port=port, timeout=timeout)

    def close(self) -> None:
        """Close the primary and every replica connection."""
        self._primary.close()
        for client in self._replica_clients.values():
            client.close()
        self._replica_clients.clear()

    @property
    def last_lsn(self) -> int:
        """The ``lsn`` of this client's latest acknowledged mutation."""
        return self._primary.last_lsn

    def _replica_client(self, index: int) -> Client:
        client = self._replica_clients.get(index)
        if client is None:
            host, port = self._replica_targets[index]
            client = Client(host=host, port=port, timeout=self._timeout)
            self._replica_clients[index] = client
        return client

    def _await_applied(self, client: Client, lsn: int) -> bool:
        """Wait until ``client``'s server has applied ``lsn`` (True) or
        :data:`CATCHUP_TIMEOUT_S` elapses (False)."""
        deadline = time.monotonic() + CATCHUP_TIMEOUT_S
        while True:
            status = client.call("repl_status")
            if (
                int(status.get("applied_lsn", 0)) >= lsn
                or status.get("role") == "primary"
            ):
                return True
            if time.monotonic() >= deadline:
                return False
            time.sleep(0.005)

    def _route(self, verb, params, scope, ops=None):
        """Mutations and per-server verbs to the primary; ``promote``
        fails over to the first replica; every read to a replica."""
        if verb == "promote":
            return self._fail_over()
        if scope in (WRITE, SERVER):
            return self._primary.call(verb, **params)
        for _ in range(len(self._replica_targets)):
            index = self._rr
            self._rr = (self._rr + 1) % len(self._replica_targets)
            try:
                client = self._replica_client(index)
                lsn = self._primary.last_lsn
                if lsn and not self._await_applied(client, lsn):
                    continue
                return client.call(verb, **params)
            except (OSError, ConnectionError):
                dead = self._replica_clients.pop(index, None)
                if dead is not None:
                    dead.close()
        return self._primary.call(verb, **params)

    def _fail_over(self) -> dict[str, Any]:
        """Promote the first replica and re-point this client's writes
        at it (the old primary connection is dropped; use after the
        primary has died)."""
        client = self._replica_client(0)
        result = client.call("promote")
        try:
            self._primary.close()
        except OSError:
            pass
        self._primary = client
        del self._replica_targets[0]
        # Re-key the cached connections around the removed slot.
        self._replica_clients = {
            i - 1: c for i, c in self._replica_clients.items() if i != 0
        }
        self._rr = 0
        return result


class ShardedClient(Client):
    """The shard-aware client of a ``repro serve --workers N`` fleet.

    Connecting to the fleet's shared port, it asks ``topology`` for the
    shard map, then opens one direct connection per worker (lazily, on
    the host it was given: every worker listens where the shared port
    does).  Pointed at a plain single-process server it is a one-shard
    fleet.  How each request is routed is set out in
    ``docs/SERVER.md`` (Routing):

    * A mutation goes to one worker as its own verb when all its ops
      land on one shard and none of their checks can reach another:
      the map has one shard, or no op's scheme has an inclusion
      dependency in the direction the op checks (out of it for an
      insert, into it for a delete, either for an update).
    * Everything else uses the two-phase protocol: ``batch_prepare`` on
      every involved worker (in worker-id order, which makes concurrent
      sharded writers deadlock-free), ``exists`` probes across the
      fleet for the requirements no single shard could verify, then
      ``batch_commit`` everywhere -- or ``batch_abort`` everywhere,
      which is what makes a cross-shard constraint violation reject
      the whole batch atomically.
    * A per-server verb (``stats``, ``spans``, ``promote``, ...)
      answers a list, one entry per worker; the verbs that need the
      whole database (``join_to``, ``find_referencing``, ``check``,
      ``apply_merge``) raise :class:`NotImplementedError` on a fleet
      rather than answer from one shard.

    One instance is one logical connection: not thread-safe, one
    outstanding logical request at a time.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        timeout: float | None = None,
        span_sink: SpanSink | None = None,
    ):
        self._host = host
        self._timeout = timeout
        #: Client-side span sink, shared by every per-shard connection;
        #: two-phase batches additionally get a ``router:2pc`` span
        #: whose context fans out to every participant.
        self.span_sink = span_sink
        bootstrap = Client(host=host, port=port, timeout=timeout)
        try:
            self.shard_map = ShardMap.from_topology(bootstrap.call("topology"))
        except BaseException:
            bootstrap.close()
            raise
        self._clients: dict[int, Client] = {}
        if not self.shard_map.ports:
            # A plain server: everything lives behind this connection.
            self._clients[0] = bootstrap
        else:
            bootstrap.close()

    def close(self) -> None:
        """Close every per-shard connection."""
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    @property
    def n_shards(self) -> int:
        """How many shards (workers) the fleet partitions rows across."""
        return self.shard_map.n_shards

    def shard_client(self, shard: int) -> Client:
        """The direct connection to one worker (opened on first use)."""
        client = self._clients.get(shard)
        if client is None:
            client = Client(
                host=self._host,
                port=self.shard_map.ports[shard],
                timeout=self._timeout,
                span_sink=self.span_sink,
            )
            self._clients[shard] = client
        return client

    def _route(self, verb, params, scope, ops=None):
        """Route by the request's scope, as the class docstring says."""
        shard_map = self.shard_map
        if scope == WRITE and ops is not None:
            groups = group_ops_by_shard(shard_map, ops)
            if len(groups) == 1 and (
                shard_map.n_shards == 1 or all(map(self._local, ops))
            ):
                (shard,) = groups
                return self.shard_client(shard).call(verb, **params)
            rows = self._two_phase(ops, groups)
            return rows if verb in _BATCH_VERBS else rows[0]
        if scope == KEY:
            shard = shard_map.shard_of_pk(params["scheme"], params["pk"])
            return self.shard_client(shard).call(verb, **params)
        if scope == EXISTS:
            return {"exists": self._exists_any(params)}
        if scope == SERVER:
            return [
                self.shard_client(s).call(verb, **params)
                for s in shard_map.shards()
            ]
        if scope != SCHEMA and shard_map.n_shards > 1:
            raise NotImplementedError(
                f"{verb} needs the whole database, and each of the "
                f"{shard_map.n_shards} workers holds one shard of it; "
                "ask a plain server, or each worker directly"
            )
        return self.shard_client(0).call(verb, **params)

    def _local(self, op: Sequence[Any]) -> bool:
        """Whether no inclusion dependency checked by ``op`` can reach
        a row on another shard."""
        kind, scheme = op[0], op[1]
        if kind != "delete" and self.shard_map.refs_out.get(scheme, True):
            return False
        return kind == "insert" or not self.shard_map.refs_in.get(
            scheme, True
        )

    def _exists_any(
        self, params: dict[str, Any], span_ctx: str | None = None
    ) -> bool:
        """Whether any worker answers ``exists`` for ``params``."""
        return any(
            self.shard_client(s).call("exists", span_ctx=span_ctx, **params)[
                "exists"
            ]
            for s in self.shard_map.shards()
        )

    def _two_phase(
        self, wire_ops: list[list], groups: dict[int, list]
    ) -> list[Any]:
        """Prepare/probe/commit one batch across every involved shard;
        the wire-form result row of each op, in request order."""
        shards = sorted(groups)  # worker-id order: deadlock-free
        xid = secrets.token_hex(16)
        root = router = None
        sink = self.span_sink
        if sink is not None and sink.sample_root():
            # One root for the logical batch, one router child fanning
            # its context out to every participant -- the trace shows
            # the prepare round trips and probes under a single parent.
            root = sink.start_span(
                "client:batch", kind="client", ops=len(wire_ops)
            )
            router = root.child(
                "router:2pc", kind="router", shards=len(shards), xid=xid
            )
        ctx = router.context() if router is not None else None
        try:
            requirements: list[dict[str, Any]] = []
            prepared: list[int] = []
            try:
                for shard in shards:
                    ack = self.shard_client(shard).call(
                        "batch_prepare",
                        xid=xid,
                        span_ctx=ctx,
                        ops=[op for _, op in groups[shard]],
                    )
                    prepared.append(shard)
                    requirements.extend(ack["requirements"])
                probe_cache: dict[tuple, bool] = {}

                def exists_any(scheme, attrs, value) -> bool:
                    key = (scheme, tuple(attrs), tuple(map(repr, value)))
                    hit = probe_cache.get(key)
                    if hit is None:
                        hit = self._exists_any(
                            {
                                "scheme": scheme,
                                "attrs": list(attrs),
                                "value": list(value),
                            },
                            ctx,
                        )
                        probe_cache[key] = hit
                    return hit

                for req in requirements:
                    message = requirement_violation(req, exists_any)
                    if message is not None:
                        raise RemoteConstraintViolation(
                            message,
                            constraint=req["constraint"],
                            kind="inclusion-dependency"
                            if req["kind"] == "exists"
                            else "restrict-batch",
                            detail=message,
                        )
            except BaseException:
                if router is not None:
                    router.status = "aborted"
                self._abort_all(prepared, xid, ctx)
                raise
            results: list[Any] = [None] * len(wire_ops)
            failure: Exception | None = None
            for shard in prepared:
                try:
                    rows = self.shard_client(shard).call(
                        "batch_commit", xid=xid, span_ctx=ctx
                    )
                except Exception as exc:  # commit the rest, then report
                    failure = failure or exc
                    continue
                for (index, _op), row in zip(groups[shard], rows):
                    results[index] = row
            if failure is not None:
                raise failure
            return results
        finally:
            if router is not None:
                sink.export(router.end())
                sink.export(root.end())

    def _abort_all(
        self, prepared: list[int], xid: str, span_ctx: str | None = None
    ) -> None:
        for shard in prepared:
            try:
                self.shard_client(shard).call(
                    "batch_abort", xid=xid, span_ctx=span_ctx
                )
            except Exception:
                pass  # its hold will expire; rejection already decided
