"""Span recording around the program's public entry points.

The benchmark never edits the program: :func:`install` replaces the
public functions of each layer -- ``Client.call``, the frame codec as
the client and the server import it, ``DatabaseService.handle``,
the ``Database`` mutation and read verbs, ``QueryEngine.join_to``,
``WriteAheadLog.append``/``sync``, ``recover_database`` and
``ConsistencyChecker.violations`` -- with wrappers that record one span
per call while :attr:`SpanLog.enabled` is set.

A span is ``(id, name, start, end, parent, request, extra)``, where
``extra`` is the frame size of a codec call or the verb of a handler.  Synchronous
spans nest through a per-thread stack, so a span's self time is its
duration minus its children's.  ``DatabaseService.handle`` is a
coroutine that interleaves with others, so it is recorded as a root
span and only names the request; synchronous calls made while it runs
carry that request id through a context variable.  Engine and WAL calls
made by the server's writer task run outside any handler: they carry
the number of the group-commit barrier (``WriteAheadLog.sync``) that
made them durable instead.

Spans stay in memory while the run measures and are reduced to
per-name totals by :func:`summarize` when it ends.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from time import perf_counter_ns
from typing import Any, Callable


class SpanLog:
    """In-memory spans of one process, one list per thread."""

    def __init__(self) -> None:
        self.enabled = False
        self.request: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )
        self.groups = 0
        self._local = threading.local()
        self._threads: list[list[tuple]] = []
        self._lock = threading.Lock()

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            local.stack = []
            local.next_id = 0
            with self._lock:
                self._threads.append(local.spans)
        return local

    def reset(self) -> None:
        with self._lock:
            for spans in self._threads:
                spans.clear()
        self.groups = 0

    def spans(self) -> list[list[tuple]]:
        with self._lock:
            return [list(s) for s in self._threads]

    def call(
        self, name: str, fn: Callable, args=(), kwargs=None, size=None
    ) -> Any:
        """Run ``fn(*args, **kwargs)`` inside one span (when enabled).
        ``size(args, result)``, if given, is stored with the span (the
        frame bytes of a codec call)."""
        kwargs = kwargs or {}
        if not self.enabled:
            return fn(*args, **kwargs)
        local = self._state()
        span_id = local.next_id
        local.next_id += 1
        stack = local.stack
        parent = stack[-1] if stack else None
        request = self.request.get()
        if request is None:
            request = ("group", self.groups)
        stack.append(span_id)
        start = perf_counter_ns()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = perf_counter_ns()
            stack.pop()
            extra = size(args, result) if size is not None else None
            local.spans.append(
                (span_id, name, start, end, parent, request, extra)
            )

    def wrap(self, name: str, fn: Callable, size=None) -> Callable:
        log = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return log.call(name, fn, args, kwargs, size)

        return wrapper

    def wrap_async(self, name: str, fn: Callable) -> Callable:
        log = self

        @functools.wraps(fn)
        async def wrapper(service, session, frame, *args, **kwargs):
            if not log.enabled:
                return await fn(service, session, frame, *args, **kwargs)
            local = log._state()
            span_id = local.next_id
            local.next_id += 1
            request = (id(session), frame.get("id"))
            token = log.request.set(request)
            start = perf_counter_ns()
            try:
                return await fn(service, session, frame, *args, **kwargs)
            finally:
                end = perf_counter_ns()
                log.request.reset(token)
                local.spans.append(
                    (span_id, name, start, end, None, request, frame.get("verb"))
                )

        return wrapper


def _patch(owner: Any, attr: str, log: SpanLog, name: str, size=None) -> None:
    setattr(owner, attr, log.wrap(name, getattr(owner, attr), size))


def _encoded_size(args, result) -> int:
    return len(result) if result is not None else 0


def _decoded_size(args, result) -> int:
    return len(args[0])


def install(log: SpanLog, server: bool) -> None:
    """Wrap every layer's public entry points in this process."""
    from repro import client as client_module
    from repro.constraints.checker import ConsistencyChecker
    from repro.engine import recovery
    from repro.engine.database import Database
    from repro.engine.query import QueryEngine
    from repro.engine.wal import WriteAheadLog

    for verb in (
        "insert",
        "get",
        "update",
        "delete",
        "insert_many",
        "apply_batch",
        "apply_batch_prepare",
    ):
        _patch(Database, verb, log, f"engine.{verb}")
    _patch(QueryEngine, "join_to", log, "query.join_to")
    _patch(WriteAheadLog, "append", log, "wal.append")
    sync = WriteAheadLog.sync

    def counted_sync(self, *args, **kwargs):
        try:
            return sync(self, *args, **kwargs)
        finally:
            log.groups += 1

    WriteAheadLog.sync = log.wrap("wal.sync", counted_sync)
    _patch(recovery, "recover_database", log, "recovery.recover")
    _patch(ConsistencyChecker, "violations", log, "recovery.verify")
    if server:
        from repro.server import server as server_module
        from repro.server.service import DatabaseService

        _patch(
            server_module,
            "encode_frame",
            log,
            "protocol.encode_server",
            _encoded_size,
        )
        _patch(
            server_module,
            "decode_frame",
            log,
            "protocol.decode_server",
            _decoded_size,
        )
        DatabaseService.handle = log.wrap_async(
            "service.handle", DatabaseService.handle
        )
    else:
        _patch(client_module.Client, "call", log, "client.call")
        _patch(
            client_module,
            "encode_frame",
            log,
            "protocol.encode_client",
            _encoded_size,
        )
        _patch(
            client_module,
            "decode_frame",
            log,
            "protocol.decode_client",
            _decoded_size,
        )


def summarize(threads: list[list[tuple]]) -> dict[str, Any]:
    """Reduce spans to per-name counts, total and self time (seconds),
    median duration (microseconds) and codec bytes; per-verb handler
    medians; and ``parent>child`` call counts."""
    names: dict[str, dict[str, Any]] = {}
    verbs: dict[str, list[int]] = {}
    pairs: dict[str, int] = {}
    groups: set[int] = set()
    writer_calls = 0
    for spans in threads:
        by_id = {span[0]: span for span in spans}
        child_ns: dict[int, int] = {}
        for span in spans:
            parent = by_id.get(span[4]) if span[4] is not None else None
            if parent is not None:
                child_ns[parent[0]] = child_ns.get(parent[0], 0) + span[3] - span[2]
                pair = f"{parent[1]}>{span[1]}"
                pairs[pair] = pairs.get(pair, 0) + 1
        for span in spans:
            span_id, name, start, end, _parent, request, extra = span
            duration = end - start
            entry = names.setdefault(
                name,
                {"count": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0, "_d": []},
            )
            entry["count"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child_ns.get(span_id, 0)) / 1e9
            entry["_d"].append(duration)
            if name == "service.handle":
                verbs.setdefault(str(extra), []).append(duration)
            elif name.startswith("engine.") and request[0] == "group":
                # A writer-side call, attributed to its group commit.
                groups.add(request[1])
                writer_calls += 1
            elif isinstance(extra, int):
                entry["bytes"] += extra
    for entry in names.values():
        durations = sorted(entry.pop("_d"))
        entry["p50_us"] = durations[(len(durations) - 1) // 2] / 1e3
    return {
        "names": names,
        "pairs": pairs,
        "writer": {"engine_calls": writer_calls, "group_commits": len(groups)},
        "handle_p50_us_by_verb": {
            verb: sorted(d)[(len(d) - 1) // 2] / 1e3 for verb, d in verbs.items()
        },
    }


def merge_summaries(summaries: list[dict[str, Any]]) -> dict[str, Any]:
    """Combine per-process summaries (fleet workers): counts and times
    add; a median is taken from the worker with most spans of it."""
    out: dict[str, Any] = {
        "names": {},
        "pairs": {},
        "writer": {"engine_calls": 0, "group_commits": 0},
        "handle_p50_us_by_verb": {},
    }
    for summary in summaries:
        for name, entry in summary["names"].items():
            have = out["names"].get(name)
            if have is None:
                out["names"][name] = dict(entry)
                continue
            bigger = entry if entry["count"] > have["count"] else have
            have["p50_us"] = bigger["p50_us"]
            for key in ("count", "total_s", "self_s", "bytes"):
                have[key] += entry[key]
        for key, count in summary["writer"].items():
            out["writer"][key] += count
        for pair, count in summary["pairs"].items():
            out["pairs"][pair] = out["pairs"].get(pair, 0) + count
        for verb, p50 in summary["handle_p50_us_by_verb"].items():
            out["handle_p50_us_by_verb"].setdefault(verb, p50)
    return out
