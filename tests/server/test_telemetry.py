"""End-to-end telemetry: trace correlation, /metrics, probes, monitor.

The acceptance path of the observability slice: a violating mutation
driven through the blocking client under a sampled span context must
(a) come back as an error frame echoing that context's trace id with
the constraint kind and paper rule, (b) leave every engine trace event
it caused in the JSONL sink bearing the same id, and (c) show up in the
scraped ``/metrics`` exposition as a violation counter labeled with
that rule.  Requests sent without a context (on a server that roots no
traces of its own) get no trace id, and their events stay unstamped.
"""

from __future__ import annotations

import urllib.error
import urllib.request

import pytest

from repro.client import Client, RemoteConstraintViolation
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.obs.spans import encode_context, new_span_id, new_trace_id
from repro.obs.trace import JsonlTracer, read_jsonl
from repro.server import ServerConfig, ServerThread
from repro.workloads.university import university_relational

TRACE_ID = new_trace_id()


def _http_get(url: str):
    """``(status, body text)`` of one GET, 4xx/5xx included."""
    try:
        with urllib.request.urlopen(url, timeout=30) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


@pytest.fixture
def traced_server(tmp_path):
    """A served database with a JSONL tracer, a span sink that roots no
    traces of its own (only requests carrying a sampled context are
    traced), and the metrics endpoint."""
    trace_path = str(tmp_path / "trace.jsonl")
    tracer = JsonlTracer.to_path(trace_path)
    db = Database(
        university_relational(),
        tracer=tracer,
        wal=WriteAheadLog(MemoryStorage()),
    )
    st = ServerThread(
        db,
        ServerConfig(
            max_connections=8,
            metrics_port=0,
            span_sink=str(tmp_path / "spans.jsonl"),
            span_sample=0.0,
        ),
    )
    st.start()
    yield st, trace_path
    st.stop()
    tracer.close()


def _run_load(st: ServerThread) -> str:
    """A small untraced load ending in one restrict-delete violation
    sent under a sampled span context; returns the violated rule
    label."""
    with Client(port=st.port, timeout=30) as c:
        c.insert("DEPARTMENT", {"D.NAME": "d1"})
        c.insert("COURSE", {"C.NR": "c1"})
        c.insert(
            "OFFER", {"O.D.NAME": "d1", "O.C.NR": "c1"}
        )
        assert c.last_trace_id is None  # untraced: nothing echoed
        with pytest.raises(RemoteConstraintViolation) as exc_info:
            c.call(
                "delete",
                span_ctx=encode_context(TRACE_ID, new_span_id()),
                scheme="COURSE",
                pk=["c1"],
            )
        err = exc_info.value
        assert err.kind == "restrict-delete"
        assert "restrict rule" in err.rule
        # (a) the error frame echoes the context's trace id.
        assert err.extra.get("trace_id") == TRACE_ID
        assert c.last_trace_id == TRACE_ID
        return err.rule


def test_violation_trace_and_metrics_end_to_end(traced_server):
    st, trace_path = traced_server
    rule = _run_load(st)

    # (c) the scraped /metrics shows the violation counter labeled
    # with the paper rule, plus per-verb counters and histograms.
    assert st.metrics_port is not None
    status, body = _http_get(
        f"http://{st.host}:{st.metrics_port}/metrics"
    )
    assert status == 200
    assert (
        f'repro_server_violations_total{{kind="restrict-delete",'
        f'rule="{rule}"}} 1' in body
    )
    assert 'repro_server_requests_total{verb="insert"} 3' in body
    assert 'repro_server_request_seconds_bucket{verb="insert"' in body
    assert 'repro_server_request_seconds_count{verb="delete"} 1' in body
    assert 'repro_server_errors_total{type="constraint-violation"} 1' in body
    assert "repro_engine_inserts 3" in body  # engine section included
    assert "repro_server_commit_batch_size_count" in body

    # Probes answer while serving.
    assert _http_get(f"http://{st.host}:{st.metrics_port}/healthz") == (
        200,
        "ok\n",
    )
    assert _http_get(f"http://{st.host}:{st.metrics_port}/readyz") == (
        200,
        "ready\n",
    )
    status, _ = _http_get(f"http://{st.host}:{st.metrics_port}/nope")
    assert status == 404

    # (b) every engine trace event of that request bears the trace id.
    st.stop()
    with open(trace_path) as f:
        events = read_jsonl(f)
    correlated = [e for e in events if e.get("trace_id") == TRACE_ID]
    assert len(correlated) >= 2  # the restrict probe and the reject
    by_event = {e["event"] for e in correlated}
    assert "reject" in by_event
    assert "restrict-check" in by_event
    reject = next(e for e in correlated if e["event"] == "reject")
    assert reject["kind"] == "restrict-delete"
    assert reject["rule"] == rule
    # The untraced inserts left their events unstamped: every event
    # either belongs to the traced request or carries no id at all.
    assert {e.get("trace_id") for e in events} == {None, TRACE_ID}
    untraced = [e for e in events if "trace_id" not in e]
    assert {"mutation", "ref-check", "wal"} <= {e["event"] for e in untraced}


def test_readyz_ready_while_serving(tmp_path):
    db = Database(university_relational())
    st = ServerThread(db, ServerConfig(metrics_port=0))
    st.start()
    try:
        url = f"http://{st.host}:{st.metrics_port}/readyz"
        assert _http_get(url)[0] == 200
    finally:
        st.stop()


def test_stats_verb_carries_server_section(traced_server):
    st, _ = traced_server
    with Client(port=st.port, timeout=30) as c:
        c.insert("COURSE", {"C.NR": "c9"})
        stats = c.stats()
    # Engine fields stay top-level; the server section is additive.
    assert stats["inserts"] == 1
    server = stats["server"]
    assert server["requests_served"] >= 2
    assert server["connections"] >= 1
    names = {f["name"] for f in server["metrics"]}
    assert "repro_server_requests_total" in names
    assert "repro_server_queue_depth" in names


def test_monitor_renders_dashboard_from_stats(traced_server):
    from repro.obs.monitor import render_dashboard

    st, _ = traced_server
    _run_load(st)
    with Client(port=st.port, timeout=30) as c:
        prev = c.stats()
        c.insert("COURSE", {"C.NR": "c2"})
        cur = c.stats()
    out = render_dashboard(cur, prev, interval=1.0, title="repro monitor t")
    assert "repro monitor t" in out
    assert "insert" in out
    assert "violations by rule" in out
    assert "restrict-delete" in out
    assert "engine:" in out


def test_monitor_cli_once(traced_server, capsys):
    from repro.cli import main

    st, _ = traced_server
    _run_load(st)
    rc = main(
        [
            "monitor",
            f"{st.host}:{st.port}",
            "--once",
            "--no-clear",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert f"repro monitor {st.host}:{st.port}" in out
    assert "requests" in out
    assert "restrict-delete" in out


def test_traced_group_commit_barrier_carries_the_trace_id(traced_server):
    st, trace_path = traced_server
    trace_id = new_trace_id()
    with Client(port=st.port, timeout=30) as c:
        c.call(
            "insert",
            span_ctx=encode_context(trace_id, new_span_id()),
            scheme="COURSE",
            row={"C.NR": "cx"},
        )
        assert c.last_trace_id == trace_id
        c.get("COURSE", "cx")
        assert c.last_trace_id is None
    st.stop()
    with open(trace_path) as f:
        events = read_jsonl(f)
    stamped = [e for e in events if e.get("trace_id") == trace_id]
    # The mutation, its WAL append and the barrier that made it durable.
    assert {"mutation", "wal"} <= {e["event"] for e in stamped}
    assert any(e.get("op") == "group-commit" for e in stamped)
