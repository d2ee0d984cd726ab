"""The benchmark's own tests: the metric contract, every workload's
checks at a tiny size, and that the checks can fail."""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest

import embedded
import harness
import served
from harness import Run

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "BENCHMARK.json",
)
TINY_COURSES = 300
SECONDS = 0.6


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setattr(served, "PRELOAD_COURSES", TINY_COURSES)
    monkeypatch.setattr(embedded, "PRELOAD_COURSES", TINY_COURSES)
    monkeypatch.setattr(served, "BATCH_ROWS", 100)


def _emit(run: Run, trace: bool) -> tuple[dict, dict]:
    """The printed report and the result line, parsed."""
    out = io.StringIO()
    with redirect_stdout(out):
        harness.emit(run, trace)
    lines = out.getvalue().splitlines()
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def _run(workload: str, trace: bool = False) -> Run:
    context = {"workload": workload}
    if workload == "embedded":
        return embedded.run(1, SECONDS, trace, context)
    return served.run(workload, 1, SECONDS, trace, context)


def test_every_named_metric_is_printed_with_its_unit():
    with open(BENCHMARK) as fh:
        spec = json.load(fh)
    run = Run(workload="oltp", seed=1, setup_s=[1.0], ops=1, elapsed_s=1.0)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        printed = _emit(run, trace)[1]["metrics"]
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in printed.items()} == wanted
    # The report names all thirteen end-to-end metrics, gated or not.
    body = _emit(run, trace=False)[0]["end_to_end"]
    assert {k: v["unit"] for k, v in body.items()} == dict(harness.END_TO_END)
    assert len(body) == 13
    assert {k for k, v in body.items() if v["gated"]} == set(
        m["name"] for m in spec["end_to_end"]
    )


#: Latency classes a workload's mix never issues.
NO_SAMPLES = {
    "oltp": {"batch_p50_ms", "batch_p90_ms"},
    "embedded": {"batch_p50_ms", "batch_p90_ms"},
    "bulk": {"write_p50_us", "write_p90_us"},
}


@pytest.mark.parametrize("workload", ["oltp", "bulk", "embedded"])
def test_each_workload_passes_its_checks(workload):
    run = _run(workload)
    assert run.failures == []
    result = _emit(run, trace=False)[1]
    assert result["correct"] and result["failed"] == 0
    assert run.notes["consistent"]
    assert run.notes["recovered_rows"] == run.notes["expected_rows"]
    values = run.end_to_end()
    assert values.pop("failed_ratio") == 0
    assert {k for k, v in values.items() if v is None} == NO_SAMPLES[workload]
    assert all(v > 0 for v in values.values() if v is not None), values


@pytest.mark.parametrize("workload, rows", [("oltp", 2 * 2), ("embedded", 1)])
def test_the_table_keeps_one_size(workload, rows, monkeypatch):
    """Once each loop holds ``LIVE`` own rows (a COURSE and an OFFER per
    ``oltp`` chain, on each of 2 connections), the run adds no more,
    whatever the throughput."""
    monkeypatch.setattr(served, "LIVE", 10)
    monkeypatch.setattr(embedded, "LIVE", 10)
    run = _run(workload)
    assert run.failures == []
    assert run.net_rows == 10 * rows


#: Layer metrics a workload reaches but whose calls its mix never makes.
NOT_CALLED = {
    "oltp": {"engine.bulk_us_per_row"},
    "embedded": {"query.join_us", "engine.bulk_us_per_row"},
}


@pytest.mark.parametrize("workload", ["oltp", "embedded"])
def test_traced_run_reports_every_layer_it_reaches(workload):
    run = _run(workload, trace=True)
    assert run.failures == []
    layers = run.per_layer
    unavailable = layers["unavailable"]
    for name, _ in harness.LAYER_UNITS:
        if name in unavailable or name in NOT_CALLED.get(workload, ()):
            assert layers[name] == 0, name
        else:
            assert layers[name] > 0, name
    result = _emit(run, trace=True)[1]
    assert result["correct"]
    assert set(result["metrics"]) == {name for name, _ in harness.LAYER_UNITS}


@pytest.mark.xfail(
    strict=True,
    reason="a worker cannot replay a 2PC-committed row whose referenced "
    "row lives on another shard, so the fleet never restarts",
)
def test_fleet_passes_its_checks():
    run = _run("fleet")
    assert run.failures == []


def test_traced_fleet_reports_the_router():
    run = _run("fleet", trace=True)
    # The only failure allowed is the restart the defect above breaks.
    assert all(f.startswith("restart: ") for f in run.failures), run.failures
    layers = run.per_layer
    assert "router.overhead_us" not in layers["unavailable"]
    assert layers["router.overhead_us"] != 0
    assert layers["router.round_trips_per_batch"] > 1
    assert layers["client.call_us"] > 0


def test_latency_percentiles_are_within_a_bucket():
    rng = random.Random(5)
    values = [rng.lognormvariate(-9, 1) for _ in range(5000)]
    hist = harness.Latencies()
    for v in values:
        hist.add(v)
    for q in (50, 90, 99):
        exact = harness.percentile(values, q)
        assert abs(hist.percentile(q) / exact - 1) <= 0.0025
    assert harness.Latencies().percentile(50) is None


def test_checker_flags_a_lost_acknowledgement(monkeypatch):
    verify = harness.verify_ledger

    def with_phantom(ledger, fetch):
        ledger = dict(ledger)
        ledger[("COURSE", "never-written")] = {"C.NR": "never-written"}
        return verify(ledger, fetch)

    monkeypatch.setattr(harness, "verify_ledger", with_phantom)
    run = _run("oltp")
    assert any("never-written" in f and "lost" in f for f in run.failures)
    result = _emit(run, trace=False)[1]
    assert not result["correct"] and result["failed"] >= 1


def test_checker_flags_a_rejection_with_the_wrong_rule(monkeypatch):
    monkeypatch.setattr(
        served,
        "MISSING_COURSE",
        {**served.MISSING_COURSE, "rule": "Section 5.1 (some other rule)"},
    )
    run = _run("oltp")
    assert any("bad_offer: expected rule" in f for f in run.failures)
    assert not _emit(run, trace=False)[1]["correct"]


def test_check_rejection_and_verify_ledger():
    class Rejected(Exception):
        kind = "null-existence"
        rule = "Section 3"

    expected = {"kind": "null-existence", "rule": "Section 3"}
    assert harness.check_rejection(Rejected(), expected) is None
    assert "accepted" in harness.check_rejection(None, expected)
    assert "kind" in harness.check_rejection(
        Rejected(), {**expected, "kind": "inclusion-dependency"}
    )
    rows = {("T", 1): {"a": 1}}
    assert harness.verify_ledger({("T", 1): {"a": 1}}, lambda s, k: rows.get((s, k))) == []
    assert harness.verify_ledger({("T", 2): {"a": 2}}, lambda s, k: None)
    assert harness.verify_ledger({("T", 1): None}, lambda s, k: rows.get((s, k)))
    assert harness.verify_ledger({("T", 1): {"a": 9}}, lambda s, k: rows.get((s, k)))
