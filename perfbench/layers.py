"""Per-layer metrics of a traced run, from span summaries
(:func:`tracing.summarize`) and the engine's ``stats`` deltas.

Medians (``*_us`` of one call) come from span durations; ``self`` times
subtract the spans nested inside.  A metric whose layer the workload
never reaches is reported as 0 and named, with the reason, under
``unavailable``.
"""

from __future__ import annotations

from typing import Any

from harness import Run

ENGINE_VERBS = ("insert", "get", "update", "delete")
BULK_SPANS = ("engine.insert_many", "engine.apply_batch", "engine.apply_batch_prepare")
TWO_PHASE_OPS = ("op.offer_2pc", "op.retire_2pc")


def _get(summary: dict[str, Any], name: str, key: str) -> float:
    return summary["names"].get(name, {}).get(key, 0)


def _self(summary: dict[str, Any], prefix: str) -> float:
    return sum(
        e["self_s"] for n, e in summary["names"].items() if n.startswith(prefix)
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def engine_layers(
    timed: Run, engine: dict[str, Any], recovery: dict[str, Any], records_in_log: int
) -> dict[str, float]:
    """The engine, query, WAL and recovery layers (any workload)."""
    delta = timed.stats_delta
    ops = timed.ops
    bulk_s = sum(_get(engine, n, "total_s") for n in BULK_SPANS)
    recover_s = _get(recovery, "recovery.recover", "total_s")
    out = {
        "engine.busy_us_per_op": _ratio(_self(engine, "engine.") * 1e6, ops),
        **{
            f"engine.{verb}_us": _get(engine, f"engine.{verb}", "p50_us")
            for verb in ENGINE_VERBS
        },
        "engine.bulk_us_per_row": _ratio(bulk_s * 1e6, delta["bulk_rows"]),
        "engine.checks_per_op": _ratio(delta["constraint_checks"], ops),
        "engine.lookups_per_op": _ratio(delta["lookups"], ops),
        "engine.index_hit_ratio": _ratio(
            delta["index_hits"], delta["index_hits"] + delta["index_misses"]
        ),
        "engine.rejected_ratio": _ratio(timed.rejected, timed.mutations),
        "query.join_us": _get(engine, "query.join_to", "p50_us"),
        "wal.append_us": _get(engine, "wal.append", "p50_us"),
        "wal.sync_us": _get(engine, "wal.sync", "p50_us"),
        "wal.bytes_per_row": _ratio(delta["wal_bytes"], timed.rows),
        "wal.records_per_row": _ratio(delta["wal_records"], timed.rows),
        "service.records_per_sync": _ratio(
            delta["wal_batched_records"], delta["wal_group_commits"]
        ),
        "service.syncs_per_s": _ratio(delta["wal_group_commits"], timed.elapsed_s),
        "recovery.replay_s": _get(recovery, "recovery.recover", "self_s"),
        "recovery.verify_s": _get(recovery, "recovery.verify", "total_s"),
        "recovery.records_per_s": _ratio(records_in_log, recover_s),
    }
    return out


def tracing_ratio(timed: Run, untraced: Run) -> float:
    """Traced ops/s against the untraced phase's ops/s (same run)."""
    return _ratio(
        _ratio(timed.ops, timed.elapsed_s), _ratio(untraced.ops, untraced.elapsed_s)
    )


def served(
    timed: Run,
    untraced: Run,
    client: dict[str, Any],
    server: dict[str, Any],
    recovery: dict[str, Any],
    records_in_log: int,
    aborts: int,
) -> dict[str, Any]:
    calls = _get(client, "client.call", "count")
    handled = _get(server, "service.handle", "count")
    call_us = _get(client, "client.call", "p50_us")
    handle_us = _get(server, "service.handle", "p50_us")
    codec_client = _ratio(
        (
            _get(client, "protocol.encode_client", "total_s")
            + _get(client, "protocol.decode_client", "total_s")
        )
        * 1e6,
        calls,
    )
    codec_server = _ratio(
        (
            _get(server, "protocol.encode_server", "total_s")
            + _get(server, "protocol.decode_server", "total_s")
        )
        * 1e6,
        handled,
    )
    below_service = (
        _self(server, "engine.") + _self(server, "query.") + _self(server, "wal.")
    )
    out = engine_layers(timed, server, recovery, records_in_log)
    out.update(
        {
            "client.call_us": call_us,
            "client.calls_per_op": _ratio(calls, timed.ops),
            "protocol.codec_us_client": codec_client,
            "protocol.codec_us_server": codec_server,
            "protocol.bytes_per_op": _ratio(
                _get(client, "protocol.encode_client", "bytes")
                + _get(client, "protocol.decode_client", "bytes"),
                timed.ops,
            ),
            "server.self_us": call_us - handle_us - codec_client - codec_server,
            "service.handle_us": handle_us,
            "service.wait_us": _ratio(
                (_get(server, "service.handle", "total_s") - below_service) * 1e6,
                handled,
            ),
            "tracing.ops_ratio": tracing_ratio(timed, untraced),
        }
    )
    two_phase = sum(_get(client, n, "count") for n in TWO_PHASE_OPS)
    if two_phase:
        # Router metrics: only ``fleet`` (not listed in BENCHMARK.json)
        # reaches them, so they are printed in its report, not on the
        # result line.
        out["router.overhead_us"] = _get(client, "op.offer_2pc", "p50_us") - _get(
            client, "op.local_insert", "p50_us"
        )
        out["router.round_trips_per_batch"] = _ratio(
            sum(client["pairs"].get(f"{n}>client.call", 0) for n in TWO_PHASE_OPS),
            two_phase,
        )
        out["router.aborts"] = aborts
    out["unavailable"] = {}
    out["handle_p50_us_by_verb"] = server["handle_p50_us_by_verb"]
    writer = server["writer"]
    out["writer_engine_calls_per_group_commit"] = {
        "value": _ratio(writer["engine_calls"], writer["group_commits"]),
        "base": f"{writer['group_commits']} group commits",
    }
    return out


def embedded(
    timed: Run,
    untraced: Run,
    summary: dict[str, Any],
    recovery: dict[str, Any],
    records_in_log: int,
) -> dict[str, Any]:
    out = engine_layers(timed, summary, recovery, records_in_log)
    out["tracing.ops_ratio"] = tracing_ratio(timed, untraced)
    reason = "in-process Database: no client, wire protocol or server"
    unavailable = {}
    for name in (
        "client.call_us",
        "client.calls_per_op",
        "protocol.codec_us_client",
        "protocol.codec_us_server",
        "protocol.bytes_per_op",
        "server.self_us",
        "service.handle_us",
        "service.wait_us",
    ):
        out[name] = 0.0
        unavailable[name] = reason
    out["unavailable"] = unavailable
    return out
