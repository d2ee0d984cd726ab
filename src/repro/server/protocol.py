"""The JSON-lines wire protocol between :mod:`repro.client` and the
server.

One frame per line, UTF-8 JSON, newline-terminated.  Requests carry a
client-chosen ``id`` (echoed verbatim in the response, so a client can
match responses to requests), a ``verb``, and verb-specific parameters::

    {"id": 1, "verb": "insert", "scheme": "COURSE", "row": {"C.NR": "c1"}}

Requests may also carry an optional ``span`` string -- a
W3C-traceparent-style span context
(:func:`repro.obs.spans.encode_context`).  A server running with a span
sink parents its server span on the context's span id, so the client's
root span, the router's fan-out, every participant shard's
prepare/commit, the group-commit barrier, and the replica's apply all
land in one reassemblable trace (``repro trace``; see
``docs/OBSERVABILITY.md``).  An absent or malformed ``span`` simply
roots a new trace; bit 0 of the context's flags carries the caller's
head-sampling decision.  A request that runs under a span gets the
span's ``trace_id`` echoed as a top-level ``trace_id`` on the response
(and inside the ``error`` object of error frames), and the server
stamps it onto every engine trace event emitted while handling the
request -- the handle JSONL trace greps and ``repro trace`` pivot on
(see ``docs/OBSERVABILITY.md``).  Untraced responses carry no
``trace_id``.

Responses are either a result frame or a typed error frame::

    {"id": 1, "ok": true, "result": {"C.NR": "c1"}}
    {"id": 2, "ok": false, "error": {"type": "constraint-violation",
        "constraint": "restrict-delete", "kind": "restrict-delete",
        "rule": "Section 5.1 (referential integrity, ...)",
        "message": "..."}}

Error frames for rejected mutations carry the full provenance of the
:class:`~repro.engine.database.ConstraintViolationError` that fired --
``constraint``, ``kind``, ``rule`` and ``detail`` -- so a remote client
learns exactly which paper rule rejected it, the same way an in-process
caller would.  Other error ``type`` values: ``not-found`` (no row under
the given key), ``bad-request`` (malformed frame, unknown verb, bad
parameters), ``wal-error`` (the log refused; the server needs crash
recovery), ``overloaded`` (connection limit), ``shutting-down`` (the
server is draining) and ``server-error`` (anything else).

Attribute values travel through :func:`repro.io.state_json.encode_value`
/ :func:`~repro.io.state_json.decode_value`, so the ``NULL`` marker
``{"$null": true}`` round-trips exactly as it does in state files and
the write-ahead log.

Verbs (dispatched by :mod:`repro.server.service`):

========================  =====================================================
``insert``                ``scheme``, ``row`` -> the stored row
``update``                ``scheme``, ``pk``, ``updates`` -> the updated row
``delete``                ``scheme``, ``pk`` -> ``null``
``insert_many``           ``scheme``, ``rows`` -> list of stored rows
``apply_batch``           ``ops`` (list of op arrays) -> list of row/``null``
``get``                   ``scheme``, ``pk`` -> row or ``null``
``join_to``               ``scheme``, ``pk``, ``via``, ``target_scheme``
                          [, ``target_attrs``] -> row or ``null``
``find_referencing``      ``scheme``, ``pk``, ``source_scheme``, ``via``,
                          ``target_attrs`` -> list of rows
``check``                 -> ``{"consistent": bool, "violations": [...]}``
``explain``               ``op``, ``scheme`` -> the EXPLAIN dict
``metrics``               -> Prometheus text exposition (string): the
                          engine counters/histograms plus the
                          server-layer registry
``stats``                 -> the :meth:`EngineStats.snapshot` dict plus
                          a ``server`` key (request/queue gauges and
                          the metric registry snapshot)
``advise``                [``strategy``] -> the merge advisor's report:
                          mined per-IND join counts and per-scheme
                          mutation rates, every candidate family's
                          Section 5 verdicts and workload score, the
                          ``recommendation`` (or ``null``), and the
                          EXPLAIN text
``apply_merge``           [``members``, ``key_relation``,
                          ``merged_name``, ``strategy``] -> apply a
                          merge online in one WAL transaction; with no
                          ``members`` the advisor's recommendation is
                          applied.  Returns ``{"merged_name",
                          "members", "key_relation", "removed",
                          "schemes"}``
``topology``              -> ``{"workers", "worker_id", "host",
                          "ports", "shared_port"}`` -- the shard map a
                          router needs (a plain single-process server
                          reports ``workers: 1`` and an empty port
                          list, meaning "this address serves
                          everything")
``exists``                ``scheme``, ``attrs``, ``value`` -> whether
                          any local row of ``scheme`` carries ``value``
                          under ``attrs`` (the router's cross-shard
                          reference probe; sees held-prepare state)
``batch_prepare``         ``xid``, ``ops`` -> ``{"xid", "requirements"}``
                          -- phase one of a sharded batch: apply the
                          ops in an open transaction, return the
                          reference checks this shard cannot answer
                          alone, and hold the writer until the decision
``batch_commit``          ``xid`` -> list of row/``null`` (the batch's
                          results), after a durability barrier
``batch_abort``           ``xid`` -> ``null``; rolls the prepare back
``repl_snapshot``         -> ``{"state", "lsn", "role"}`` -- the current
                          checkpoint image plus the durable ``lsn`` it
                          covers (a replica's catch-up base); rejected
                          with ``busy`` while a cross-shard prepare is
                          held
``repl_poll``             ``after`` [, ``wait``, ``sync``,
                          ``max_records``] -> ``{"records",
                          "durable_lsn"}`` -- committed log records with
                          ``lsn > after``, long-polling up to ``wait``
                          seconds when caught up; ``sync: true``
                          registers the session as a synchronous
                          replica whose receipt gates mutation acks
``repl_status``           -> ``{"role", "applied_lsn", "durable_lsn",
                          "primary", "replicas"}`` -- where this server
                          stands in the replication topology
``promote``               -> ``{"was", "role", "applied_lsn"}`` -- turn
                          a replica into a read-write primary
                          (idempotent on a primary)
``spans``                 [``limit``] -> ``{"spans", "depth",
                          "dropped", "exported", "sample"}`` -- the
                          span sink's ring buffer, oldest first (the
                          live collection path of ``repro trace``);
                          empty with no sink configured
========================  =====================================================

Sharding (see ``docs/SERVER.md``): each worker of a sharded fleet owns
the rows whose primary key hashes to it (:mod:`repro.server.router`).
Single-shard mutations sent to the wrong worker are rejected with a
``wrong-shard`` error frame carrying the owning ``worker`` index;
``batch_commit``/``batch_abort`` for an unknown transfer id get
``no-prepared-batch``, and a decision arriving after the hold timed out
gets ``prepare-expired``.

Replication (see ``docs/REPLICATION.md``): a replica answers reads
normally but rejects every mutation and decision verb with a
``read-only-replica`` error frame naming its ``primary``, so a client
that writes to the wrong end of the pair learns where to go.
``repl_snapshot`` during a held prepare gets ``busy`` (retry shortly).
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Mapping

from repro.io.state_json import decode_value, encode_value

#: Hard cap on one frame's length in bytes (newline included).  A
#: JSON-lines protocol has no other framing, so an unbounded line is an
#: unbounded memory commitment per connection; oversized requests are
#: rejected with a ``bad-request`` frame and the connection is closed.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Every verb the service dispatches; requests naming anything else are
#: answered with a ``bad-request`` error frame.
VERBS = (
    "insert",
    "update",
    "delete",
    "insert_many",
    "apply_batch",
    "get",
    "join_to",
    "find_referencing",
    "check",
    "explain",
    "advise",
    "apply_merge",
    "metrics",
    "stats",
    "topology",
    "exists",
    "batch_prepare",
    "batch_commit",
    "batch_abort",
    "repl_snapshot",
    "repl_poll",
    "repl_status",
    "promote",
    "spans",
)

#: The verbs that mutate state and therefore go through the
#: single-writer group-commit path (the rest execute as snapshot reads).
#: ``batch_commit``/``batch_abort`` are neither: they are decisions
#: delivered straight to the writer already holding their prepare.
MUTATION_VERBS = frozenset(
    (
        "insert",
        "update",
        "delete",
        "insert_many",
        "apply_batch",
        "batch_prepare",
        "apply_merge",
    )
)

#: Decision verbs for a held prepare (routed around the mutation queue).
DECISION_VERBS = frozenset(("batch_commit", "batch_abort"))

#: WAL-shipping verbs (``promote`` included: it flips the role the
#: others are gated on).  Handled outside the mutation queue -- a
#: replica poll parks on the commit signal, never on the writer.
REPLICATION_VERBS = frozenset(
    ("repl_snapshot", "repl_poll", "repl_status", "promote")
)


class ProtocolError(ValueError):
    """A frame could not be parsed (bad JSON, missing fields, too big)."""


class RemoteError(RuntimeError):
    """An error frame, raised client-side.

    ``type`` is the error frame's type string; ``detail`` whatever extra
    the frame carried.
    """

    def __init__(self, type: str, message: str, **extra: Any):
        super().__init__(f"{type}: {message}")
        self.type = type
        self.message = message
        self.extra = extra


class RemoteConstraintViolation(RemoteError):
    """A server-side :class:`ConstraintViolationError`, re-raised
    client-side with its full provenance (``constraint``, ``kind``,
    ``rule``, ``detail``)."""

    def __init__(self, message: str, **extra: Any):
        super().__init__("constraint-violation", message, **extra)
        self.constraint = extra.get("constraint", "")
        self.kind = extra.get("kind", "")
        self.rule = extra.get("rule", "")
        self.detail = extra.get("detail", "")


# -- row / value encoding ------------------------------------------------------


def encode_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """A tuple's attribute mapping in wire form (NULL -> marker)."""
    return {k: encode_value(v) for k, v in row.items()}


def decode_row(row: Mapping[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`encode_row`."""
    return {k: decode_value(v) for k, v in row.items()}


def encode_pk(pk: tuple[Any, ...]) -> list[Any]:
    """A primary-key value tuple in wire form."""
    return [encode_value(v) for v in pk]


def decode_pk(pk: Iterable[Any]) -> tuple[Any, ...]:
    """Inverse of :func:`encode_pk`."""
    return tuple(decode_value(v) for v in pk)


# -- framing -------------------------------------------------------------------


def encode_frame(frame: Mapping[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return json.dumps(frame, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a frame dict.

    Raises :class:`ProtocolError` on anything that is not a JSON object
    (framing never resyncs mid-connection, so the caller should close).
    """
    if isinstance(line, bytes):
        if len(line) > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame of {len(line)} bytes exceeds the "
                f"{MAX_FRAME_BYTES}-byte limit"
            )
        try:
            line = line.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"frame is not valid UTF-8: {exc}") from exc
    try:
        frame = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(frame, dict):
        raise ProtocolError("frame must be a JSON object")
    return frame


def parse_target(target: str) -> tuple[str, int]:
    """``HOST:PORT`` (or bare ``PORT``, meaning the loopback) as a
    connect address; :class:`ValueError` names the expected form."""
    host, _, port_text = target.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not 0 < port < 65536:
        raise ValueError(f"target must be HOST:PORT, got {target!r}")
    return host or "127.0.0.1", port


def request_frame(id: Any, verb: str, **params: Any) -> dict[str, Any]:
    """A request frame (client side)."""
    frame = {"id": id, "verb": verb}
    frame.update(params)
    return frame


def ok_frame(id: Any, result: Any) -> dict[str, Any]:
    """A success response frame."""
    return {"id": id, "ok": True, "result": result}


def error_frame(
    id: Any, type: str, message: str, **extra: Any
) -> dict[str, Any]:
    """A typed error response frame."""
    error: dict[str, Any] = {"type": type, "message": message}
    error.update({k: v for k, v in extra.items() if v is not None})
    return {"id": id, "ok": False, "error": error}


def violation_frame(id: Any, exc: Any) -> dict[str, Any]:
    """The error frame of one rejected mutation, carrying the
    :class:`ConstraintViolationError`'s full provenance."""
    return error_frame(
        id,
        "constraint-violation",
        str(exc),
        constraint=exc.constraint,
        kind=exc.kind,
        rule=exc.rule,
        detail=exc.detail,
    )


def raise_error(frame: Mapping[str, Any]) -> None:
    """Client side: raise the matching exception for an error frame."""
    error = frame.get("error")
    if not isinstance(error, Mapping):
        raise ProtocolError(f"malformed error frame: {frame!r}")
    type_ = str(error.get("type", "server-error"))
    message = str(error.get("message", ""))
    extra = {k: v for k, v in error.items() if k not in ("type", "message")}
    if type_ == "constraint-violation":
        raise RemoteConstraintViolation(message, **extra)
    raise RemoteError(type_, message, **extra)
