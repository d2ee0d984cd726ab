"""The ``embedded`` workload: the paper's Figure 6 scheme in-process.

``remove_all(merge(university, [COURSE, OFFER, TEACH, ASSIST]))``
gives ``COURSE''(C.NR, O.D.NAME, T.F.SSN, A.S.SSN)`` with the Section 3
null-existence constraints ``T.F.SSN |-> O.D.NAME`` and
``A.S.SSN |-> O.D.NAME``.  A single thread drives one ``Database`` with
a file write-ahead log, preloaded with the merge's state mapping (eta)
of a 20k-course Figure 3 state.  Every accepted mutation is followed by
``Database.sync_wal()`` -- the same flush-to-OS barrier a served group
commit issues.  Once ``LIVE`` own rows are live, each insert first
deletes the oldest, so the table does not grow with throughput.  After
the timed phase the log is closed by a checkpoint and a fixed tail of
mutations, the ``Database`` is dropped unclosed, and the log is
recovered in-process.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

import harness
import layers
import tracing
from harness import Run
from served import HOT_ROWS, LIVE, OWN_POOL, PRELOAD_COURSES, Loop, pick, run_loops

MERGED = "COURSE''"
#: Mutations (expected rejections included) run after the closing
#: checkpoint, before the crash: the log recovery replays is that
#: snapshot plus this tail.
TAIL_OPS = 5_000
#: Equal shares of the operations the workload must exercise (see
#: ``served.OLTP_MIX``).
MIX = (
    ("insert", 0.25),
    ("get", 0.25),
    ("null_update", 0.25),
    ("bad_insert", 0.25),
)
#: An insert with a faculty but no department breaks T.F.SSN |-> O.D.NAME.
NULL_EXISTENCE = {
    "kind": "null-existence",
    "constraint": "COURSE'': T.F.SSN |-> O.D.NAME",
    "rule": "Section 3 (null-existence Y |-> Z); Definition 4.1 steps 3(c)/3(e)",
}


def figure6_schema():
    from repro.core.merge import merge
    from repro.core.remove import remove_all
    from repro.workloads.university import university_relational

    return remove_all(
        merge(
            university_relational(),
            ["COURSE", "OFFER", "TEACH", "ASSIST"],
            merged_name=MERGED,
        )
    )


def step(d: Loop) -> None:
    from repro.relational.tuples import NULL

    db, rng, inputs = d.client, d.rng, d.inputs
    kind = pick(rng, MIX)

    def merged_row(key: str) -> dict:
        return {
            "C.NR": key,
            "O.D.NAME": rng.choice(inputs["departments"]),
            "T.F.SSN": rng.choice(inputs["faculty"]),
            "A.S.SSN": rng.choice(inputs["students"]) if rng.random() < 0.5 else NULL,
        }

    def durable(fn):
        def op():
            result = fn()
            db.sync_wal()
            return result

        return op

    if kind == "insert":
        if len(d.own) >= LIVE:
            old = d.own.popleft()
            if not d.mutate(
                "write",
                "delete",
                durable(lambda: db.delete(MERGED, old)),
                [(MERGED, old, None)],
            ):
                return
        row = merged_row(d.own_key("e"))
        if d.mutate(
            "write",
            "insert",
            durable(lambda: db.insert(MERGED, row)),
            [(MERGED, row["C.NR"], row)],
        ):
            d.own.append(row["C.NR"])
    elif kind == "null_update":
        key = d.next_update(inputs["hot"])
        new = {**d.ledger[(MERGED, key)], "T.F.SSN": NULL}
        d.mutate(
            "write",
            "update",
            durable(lambda: db.update(MERGED, key, {"T.F.SSN": NULL})),
            [(MERGED, key, new)],
            update=True,
        )
    elif kind == "bad_insert":
        row = {**merged_row(f"bad-{rng.randrange(OWN_POOL)}"), "O.D.NAME": NULL}
        d.reject(kind, lambda: db.insert(MERGED, row), NULL_EXISTENCE)
    elif d.own and rng.random() < 0.5:
        # A live own row, or (below) a preloaded one: half each.
        key = d.own[rng.randrange(len(d.own))]
        d.read("get", lambda: _row(db, key), d.ledger[(MERGED, key)])
    else:
        key = rng.choice(inputs["keys"])
        d.read("get", lambda: _row(db, key), d.ledger[(MERGED, key)])


def _row(db, key):
    t = db.get(MERGED, key)
    return dict(t.mapping) if t is not None else None


def _setup(state, wal_path: str):
    """Merge the schema, map the state through eta, load it behind a
    fresh file log: the set-up ``setup_s`` times."""
    from repro.engine import Database
    from repro.engine.wal import FileStorage, WriteAheadLog

    if os.path.exists(wal_path):
        os.remove(wal_path)
    simplified = figure6_schema()
    eta = simplified.forward.apply(state)
    db = Database(
        simplified.schema,
        wal=WriteAheadLog(FileStorage(wal_path, fsync=False, buffered=True)),
    )
    db.load_state(eta)
    db.sync_wal()
    return simplified, eta, db


def run(seed: int, seconds: float, trace: bool, context) -> Run:
    rundir = os.path.join(harness.RUN_ROOT, f"embedded-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    try:
        return _run(seed, seconds, trace, context, rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def _run(seed, seconds, trace, context, rundir) -> Run:
    from repro.engine import ConstraintViolationError, recovery
    from repro.workloads.university import university_state

    result = Run(workload="embedded", seed=seed, context=context)
    state = university_state(n_courses=PRELOAD_COURSES, seed=seed)
    wal_path = os.path.join(rundir, "embedded.wal")
    db = None
    for _ in range(harness.SETUP_REPEATS):
        db = None
        gc.collect()
        started = time.perf_counter()
        simplified, eta, db = _setup(state, wal_path)
        result.setup_s.append(time.perf_counter() - started)

    merged_rows = {t["C.NR"]: dict(t.mapping) for t in eta[MERGED]}
    preload = {name: len(eta[name]) for name in eta}
    inputs = {
        "keys": sorted(merged_rows),
        "hot": sorted(merged_rows)[:HOT_ROWS],
        "departments": sorted(t["D.NAME"] for t in eta["DEPARTMENT"]),
        "faculty": sorted(t["F.SSN"] for t in eta["FACULTY"]),
        "students": sorted(t["S.SSN"] for t in eta["STUDENT"]),
    }
    d = Loop(
        index=0,
        rng=random.Random(seed * 7919),
        client=db,
        inputs=inputs,
        tally=Run(workload="embedded", seed=seed),
        rejection=ConstraintViolationError,
        # The preloaded merged rows start the ledger: an update replaces
        # an entry, so the ledger keeps one size.
        ledger={(MERGED, key): row for key, row in merged_rows.items()},
    )
    result.context.update(
        preload=preload,
        preload_courses=PRELOAD_COURSES,
        merged_scheme=str(simplified.merged_scheme),
        mix=dict(MIX),
        live_own_rows=LIVE,
        updated_rows=HOT_ROWS,
        tail_after_checkpoint=TAIL_OPS,
        loop="closed, 1 thread, in-process",
    )

    def phase(log, seconds):
        d.tally = Run(workload="embedded", seed=seed)
        d.log = log
        before = db.stats.snapshot()
        log_before = os.path.getsize(wal_path)
        elapsed = run_loops([d], step, seconds)
        tally = d.tally
        tally.elapsed_s = elapsed
        tally.stats_delta = harness.stats_delta([before], [db.stats.snapshot()])
        tally.wal_bytes = os.path.getsize(wal_path) - log_before
        return tally

    result.absorb(phase(None, harness.warmup_seconds(seconds)), measured=False)
    host_before = harness.host_reference()
    if trace:
        untraced = phase(None, seconds)
        result.absorb(untraced, measured=False)
        log = tracing.SpanLog()
        tracing.install(log, server=False)
        log.enabled = True
        timed = phase(log, seconds)
        log.enabled = False
        engine_summary = tracing.summarize(log.spans())
    else:
        timed = phase(None, seconds)
    result.absorb(timed)
    result.wal_bytes = timed.wal_bytes
    result.elapsed_s = timed.elapsed_s
    result.stats_delta = timed.stats_delta
    result.notes["host_reference_loops_per_s"] = [
        host_before,
        harness.host_reference(),
    ]

    # Close the log with a checkpoint, then a fixed tail of mutations:
    # what recovery replays does not grow with the timed phase's speed.
    db.checkpoint()
    tail = Run(workload="embedded", seed=seed)
    d.tally = tail
    while tail.mutations < TAIL_OPS:
        step(d)
    result.absorb(tail, measured=False)

    # Crash: drop the Database unclosed; recover the log as it is.
    result.peak_rss_mb = harness.vmhwm_mb()
    d.client = db = None
    gc.collect()
    if trace:
        log.reset()
        log.enabled = True
    started = time.perf_counter()
    try:
        # Through the module: a traced run wraps recover_database there.
        recovered = recovery.recover_database(simplified.schema, wal_path)
    except recovery.RecoveryError as exc:
        recovered = None
        result.attempted += 1
        result.fail(f"recovery failed: {exc}")
    result.restart_s = time.perf_counter() - started
    if trace:
        log.enabled = False
        recovery_summary = tracing.summarize(log.spans())
    if recovered is not None:
        verify_recovered(result, recovered, d.ledger, sum(preload.values()))
    if trace:
        result.per_layer = layers.embedded(
            timed=timed,
            untraced=untraced,
            summary=engine_summary,
            recovery=recovery_summary,
            records_in_log=result.notes.get("records_in_log", 0),
        )
    return result


def verify_recovered(result: Run, recovered, ledger, preloaded: int) -> None:
    """Every acknowledged write reads back, the row count matches the
    ledger, and recovery verified Definition 2.1 consistency."""
    rdb = recovered.database
    problems = harness.verify_ledger(ledger, lambda scheme, key: _row(rdb, key))
    expected_rows = preloaded + result.net_rows
    rows = sum(rdb.count(s.name) for s in rdb.schema.schemes)
    if rows != expected_rows:
        problems.append(f"recovered {rows} rows, the ledger expects {expected_rows}")
    if not recovered.report.verified:
        problems.append("recovery did not verify consistency")
    rdb.wal.close()
    result.attempted += len(ledger) + 2
    result.failures.extend(problems)
    result.notes.update(
        ledger_keys=len(ledger),
        recovered_rows=rows,
        expected_rows=expected_rows,
        consistent=recovered.report.verified,
        records_in_log=recovered.report.records_read,
    )
