"""The three workloads that drive a ``repro serve`` process over TCP:
``oltp``, ``bulk`` and ``fleet``.

Each builds its inputs from the seed, starts the server (set-up is done
:data:`harness.SETUP_REPEATS` times and the last instance is kept),
drives a closed loop for the requested seconds, SIGKILLs the server,
restarts it on the same log and checks that every acknowledged write
survived, that the recovered row count matches the ledger and that the
recovered state is consistent (Definition 2.1).
"""

from __future__ import annotations

import collections
import functools
import json
import os
import random
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import harness
import layers
import tracing
from harness import Run, ServedDatabase

BATCH_ROWS = 2000
PRELOAD_COURSES = 20_000
#: Own keys a loop cycles through, and how many of its own rows (or
#: COURSE->OFFER chains) stay live.  Once a loop holds ``LIVE`` of them,
#: each new one first retires the oldest, so the table, the server's
#: heap and the ledger stay the same size however fast the program runs.
OWN_POOL = 1_000
LIVE = 100
#: Preloaded rows a loop updates, in turn: every one is rewritten within
#: the warm-up, so what the updates change (and the memory that takes)
#: no longer depends on how many there were.
HOT_ROWS = 100
ORDER = (
    "PERSON",
    "FACULTY",
    "STUDENT",
    "COURSE",
    "DEPARTMENT",
    "OFFER",
    "TEACH",
    "ASSIST",
)
KEYS = {
    "PERSON": "P.SSN",
    "FACULTY": "F.SSN",
    "STUDENT": "S.SSN",
    "COURSE": "C.NR",
    "DEPARTMENT": "D.NAME",
    "OFFER": "O.C.NR",
    "TEACH": "T.C.NR",
    "ASSIST": "A.C.NR",
}
#: The rejections the mixes provoke, as the paper's rules label them.
MISSING_COURSE = {
    "kind": "inclusion-dependency",
    "rule": "Section 2 (key-based inclusion dependency); "
    "Definition 4.1 step 4(b)/4(c) rewriting",
}
REFERENCED_DEPARTMENT = {
    "kind": "restrict-delete",
    "rule": "Section 5.1 (referential integrity, restrict rule on delete)",
}

#: Each mix gives the operations its workload must exercise equal
#: shares: no measured traffic fixes them, so none is favoured.  An
#: ``invalid`` draw is the OFFER with a missing COURSE or the
#: restrict-delete of a referenced DEPARTMENT, half each.
OLTP_MIX = (
    ("chain", 0.2),
    ("get", 0.2),
    ("join_to", 0.2),
    ("teach_update", 0.2),
    ("invalid", 0.2),
)
#: ``fleet`` takes its three operations in turn: each OFFER references
#: the COURSE the turn before inserted.
FLEET_TURNS = ("local_insert", "offer_2pc", "get")


def pick(rng: random.Random, mix) -> str:
    r = rng.random()
    for kind, share in mix:
        r -= share
        if r < 0:
            return kind
    return mix[-1][0]


# -- inputs --------------------------------------------------------------------


@dataclass
class Inputs:
    """The preloaded rows and the lookups the mixes draw from."""

    rows: dict[str, list[dict[str, Any]]]
    courses: list[str]
    departments: list[str]
    faculty: list[str]
    offers: dict[str, dict[str, Any]]
    teach: list[dict[str, Any]]
    total: int


def university_inputs(seed: int, schemes: tuple[str, ...]) -> Inputs:
    """A 20k-course Figure 3 state; only ``schemes`` are preloaded."""
    from repro.workloads.university import university_state

    state = university_state(n_courses=PRELOAD_COURSES, seed=seed)
    full = {
        s: sorted(
            (dict(t.mapping) for t in state[s]), key=lambda r, k=KEYS[s]: r[k]
        )
        for s in ORDER
    }
    rows = {s: full[s] for s in schemes}
    return Inputs(
        rows=rows,
        courses=[r["C.NR"] for r in full["COURSE"]],
        departments=[r["D.NAME"] for r in full["DEPARTMENT"]],
        faculty=[r["F.SSN"] for r in full["FACULTY"]],
        offers={r["O.C.NR"]: r for r in full["OFFER"]},
        teach=full["TEACH"],
        total=sum(len(rs) for rs in rows.values()),
    )


def preload(client, inputs: Inputs) -> None:
    for scheme, rows in inputs.rows.items():
        for i in range(0, len(rows), BATCH_ROWS):
            client.insert_many(scheme, rows[i : i + BATCH_ROWS])


def preload_sharded(client, inputs: Inputs) -> None:
    """Split each preload batch by owning shard, so every call stays
    shard-local (the schemes preloaded on the fleet reference nothing)."""
    from repro.server.protocol import encode_row

    for scheme, rows in inputs.rows.items():
        by_shard: dict[int, list[dict]] = {}
        for row in rows:
            shard = client.shard_map.shard_of_row(scheme, encode_row(row))
            by_shard.setdefault(shard, []).append(row)
        for shard_rows in by_shard.values():
            for i in range(0, len(shard_rows), BATCH_ROWS):
                client.insert_many(scheme, shard_rows[i : i + BATCH_ROWS])


# -- the closed loop -----------------------------------------------------------


@dataclass
class Loop:
    """One closed loop (one connection): its own keys, ledger, tallies.

    Each loop owns disjoint preloaded TEACH/ASSIST rows and mints its
    own new keys, so the ledger's expected value for every key is exact
    even with two loops running at once.
    """

    index: int
    rng: random.Random
    client: Any
    inputs: Inputs
    tally: Run
    log: tracing.SpanLog | None = None
    ledger: dict = field(default_factory=dict)
    teach: list[dict[str, Any]] = field(default_factory=list)
    #: This loop's live own keys, oldest first (at most ``LIVE``).
    own: collections.deque = field(default_factory=collections.deque)
    #: A COURSE inserted and not yet offered (``fleet``).
    pending: str | None = None
    counter: int = 0
    slot: int = 0
    turn: int = 0
    update_turn: int = 0
    op_seq: int = 0
    #: The exception type an expected rejection arrives as (the remote
    #: one by default; ``ConstraintViolationError`` in-process).
    rejection: type | None = None

    def new_key(self, prefix: str) -> str:
        """A key never used before."""
        self.counter += 1
        return f"{prefix}{self.index}-{self.counter:07d}"

    def own_key(self, prefix: str) -> str:
        """The next key of this loop's pool; never a live one, because
        ``LIVE`` is below ``OWN_POOL``."""
        self.slot += 1
        return f"{prefix}{self.index}-{self.slot % OWN_POOL:05d}"

    def next_update(self, rows: list) -> Any:
        """The next of ``rows`` (at most ``HOT_ROWS``) to update."""
        self.update_turn += 1
        return rows[self.update_turn % len(rows)]

    def own_row(self) -> tuple[str, str] | None:
        """A live own row, ``(scheme, key)``: the COURSE or the OFFER of
        a live chain, half each."""
        if not self.own:
            return None
        key = self.own[self.rng.randrange(len(self.own))]
        return ("COURSE" if self.rng.random() < 0.5 else "OFFER"), key

    def timed(
        self, cls: str, kind: str, fn: Callable, rows: int = 0
    ) -> tuple[bool, Any]:
        """Run one operation: time it, count it; ``(ok, result)``.
        An unexpected error is recorded as a failure (``ok`` false)."""
        t = self.tally
        t.attempted += 1
        log = self.log
        token = None
        if log is not None and log.enabled:
            self.op_seq += 1
            token = log.request.set(("op", self.index, self.op_seq))
            fn = functools.partial(log.call, f"op.{kind}", fn)
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # any unexpected error is a failure
            t.fail(f"{kind}: {exc!r}")
            return False, None
        finally:
            if token is not None:
                log.request.reset(token)
        t.record(cls, time.perf_counter() - started)
        t.ops += 1
        t.rows += rows
        return True, result

    def mutate(
        self,
        cls: str,
        kind: str,
        fn: Callable,
        rows: list,
        update: bool = False,
    ) -> bool:
        """A mutation that must be accepted, writing ``rows`` as
        ``(scheme, key, row)``; ``row`` ``None`` deletes the key."""
        self.tally.mutations += 1
        if not self.timed(cls, kind, fn, len(rows))[0]:
            return False
        for scheme, key, row in rows:
            self.ledger[(scheme, key)] = row
            if row is None:
                self.tally.net_rows -= 1
            else:
                if not update:
                    self.tally.net_rows += 1
                self.tally.user_bytes += harness.json_bytes(row)
        return True

    def reject(self, kind: str, fn: Callable, expected: dict) -> None:
        """An invalid mutation: it must be rejected as ``expected``."""
        from repro.server.protocol import RemoteError

        rejection = self.rejection or RemoteError

        def attempt():
            try:
                fn()
            except rejection as exc:
                return exc
            return None

        self.tally.mutations += 1
        ok, exc = self.timed("write", kind, attempt)
        if not ok:
            return
        problem = harness.check_rejection(exc, expected)
        if problem is not None:
            self.tally.fail(f"{kind}: {problem}")
        else:
            self.tally.rejected += 1

    def read(self, kind: str, fn: Callable, expected) -> None:
        ok, got = self.timed("read", kind, fn)
        if ok and got != expected:
            self.tally.fail(f"{kind}: read {got!r}, expected {expected!r}")


def run_loops(loops: list[Loop], step: Callable, seconds: float) -> float:
    """Run each closed loop in its own thread for ``seconds``;
    return the measured wall time."""
    barrier = threading.Barrier(len(loops) + 1)
    deadline = [0.0]
    errors: list[BaseException] = []

    def loop(d: Loop) -> None:
        barrier.wait()
        try:
            while time.perf_counter() < deadline[0]:
                step(d)
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    threads = [threading.Thread(target=loop, args=(d,)) for d in loops]
    for th in threads:
        th.start()
    started = time.perf_counter()
    deadline[0] = started + seconds
    barrier.wait()
    for th in threads:
        th.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


# -- oltp ------------------------------------------------------------------------


def oltp_step(d: Loop) -> None:
    kind = pick(d.rng, OLTP_MIX)
    c, rng = d.client, d.rng
    dept = rng.choice(d.inputs.departments)
    if kind == "chain":
        if len(d.own) >= LIVE and not retire_chain(d):
            return
        key = d.own_key("o")
        course, offer = {"C.NR": key}, {"O.C.NR": key, "O.D.NAME": dept}
        if d.mutate(
            "write",
            "insert",
            lambda: c.insert("COURSE", course),
            [("COURSE", key, course)],
        ) and d.mutate(
            "write",
            "insert",
            lambda: c.insert("OFFER", offer),
            [("OFFER", key, offer)],
        ):
            d.own.append(key)
    elif kind == "get":
        # A preloaded COURSE, a TEACH row this loop updates, or a row
        # this loop wrote: a third each.
        r = rng.random()
        own = d.own_row()
        if r < 1 / 3:
            row = rng.choice(d.teach)
            key = row["T.C.NR"]
            expected = d.ledger.get(("TEACH", key), row)
            d.read("get", lambda: c.get("TEACH", key), expected)
        elif r < 2 / 3 and own is not None:
            scheme, key = own
            expected = d.ledger[(scheme, key)]
            d.read("get", lambda: c.get(scheme, key), expected)
        else:
            key = rng.choice(d.inputs.courses)
            d.read("get", lambda: c.get("COURSE", key), {"C.NR": key})
    elif kind == "join_to":
        key = rng.choice(d.inputs.courses)
        d.read(
            "join_to",
            lambda: c.join_to("COURSE", key, ["C.NR"], "OFFER", ["O.C.NR"]),
            d.inputs.offers.get(key),
        )
    elif kind == "teach_update":
        teach_update(d)
    elif rng.random() < 0.5:
        row = {"O.C.NR": f"missing{d.index}-{rng.randrange(OWN_POOL)}", "O.D.NAME": dept}
        d.reject("bad_offer", lambda: c.insert("OFFER", row), MISSING_COURSE)
    else:
        d.reject(
            "bad_department_delete",
            lambda: c.delete("DEPARTMENT", dept),
            REFERENCED_DEPARTMENT,
        )


def retire_chain(d: Loop) -> bool:
    """Delete this loop's oldest chain, the OFFER first (the restrict
    rule forbids deleting a referenced COURSE)."""
    key = d.own.popleft()
    return d.mutate(
        "write",
        "delete",
        lambda: d.client.delete("OFFER", key),
        [("OFFER", key, None)],
    ) and d.mutate(
        "write",
        "delete",
        lambda: d.client.delete("COURSE", key),
        [("COURSE", key, None)],
    )


def teach_update(d: Loop) -> None:
    key = d.next_update(d.teach)["T.C.NR"]
    updates = {"T.F.SSN": d.rng.choice(d.inputs.faculty)}
    d.mutate(
        "write",
        "update",
        lambda: d.client.update("TEACH", key, updates),
        [("TEACH", key, {"T.C.NR": key, **updates})],
        update=True,
    )


# -- bulk ------------------------------------------------------------------------


def bulk_step(d: Loop) -> None:
    """Connection A streams batches; connection B reads."""
    if d.index == 0:
        bulk_writer_step(d)
    else:
        key = d.rng.choice(d.inputs.courses)
        d.read("get", lambda: d.client.get("COURSE", key), {"C.NR": key})


def bulk_writer_step(d: Loop) -> None:
    """One COURSE batch, then the OFFER batch that references it.

    ``insert_many`` is all-or-nothing, so each batch's last row stands
    for it in the ledger; the restart's row count covers the rest.
    """
    courses = [{"C.NR": d.new_key("k")} for _ in range(BATCH_ROWS)]
    offers = [
        {"O.C.NR": r["C.NR"], "O.D.NAME": d.rng.choice(d.inputs.departments)}
        for r in courses
    ]
    for scheme, rows in (("COURSE", courses), ("OFFER", offers)):
        d.tally.mutations += 1
        if not d.timed(
            "batch",
            "insert_many",
            lambda: d.client.insert_many(scheme, rows),
            len(rows),
        )[0]:
            return
        last = rows[-1]
        d.ledger[(scheme, last[KEYS[scheme]])] = last
        d.tally.net_rows += len(rows)
        d.tally.user_bytes += sum(harness.json_bytes(r) for r in rows)


# -- fleet -----------------------------------------------------------------------


def fleet_step(d: Loop) -> None:
    kind = FLEET_TURNS[d.turn % len(FLEET_TURNS)]
    d.turn += 1
    c, rng = d.client, d.rng
    if kind == "local_insert":
        if len(d.own) >= LIVE:
            # Retire the oldest chain: one two-phase batch, since other
            # shards may hold the rows that reference it.
            old = d.own.popleft()
            ops = [("delete", "OFFER", old), ("delete", "COURSE", old)]
            if not d.mutate(
                "batch",
                "retire_2pc",
                lambda: c.apply_batch(ops),
                [("OFFER", old, None), ("COURSE", old, None)],
            ):
                return
        key = d.own_key("f")
        row = {"C.NR": key}
        if d.mutate(
            "write",
            "local_insert",
            lambda: c.insert("COURSE", row),
            [("COURSE", key, row)],
        ):
            d.pending = key
    elif kind == "offer_2pc":
        key, d.pending = d.pending, None
        if key is None:  # the insert before it failed, and says so
            return
        row = {"O.C.NR": key, "O.D.NAME": rng.choice(d.inputs.departments)}
        if d.mutate(
            "batch",
            "offer_2pc",
            lambda: c.insert("OFFER", row),
            [("OFFER", key, row)],
        ):
            d.own.append(key)
    else:
        # A preloaded COURSE or a row this loop wrote, half each.
        own = d.own_row()
        if own is None or rng.random() < 0.5:
            key = rng.choice(d.inputs.courses)
            d.read("get", lambda: c.get("COURSE", key), {"C.NR": key})
        else:
            scheme, key = own
            d.read("get", lambda: c.get(scheme, key), d.ledger[(scheme, key)])


# -- the run ---------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    step: Callable[[Loop], None]
    connections: int
    workers: int | None
    mix: dict[str, Any]
    schemes: tuple[str, ...] = ORDER


WORKLOADS = {
    "oltp": Workload(
        "oltp",
        oltp_step,
        2,
        None,
        {
            "each of 2 connections": dict(OLTP_MIX),
            "live chains per connection": LIVE,
            "TEACH rows updated per connection": HOT_ROWS,
        },
    ),
    "bulk": Workload(
        "bulk",
        bulk_step,
        2,
        None,
        {
            "connection A": f"insert_many of {BATCH_ROWS} COURSE rows, then "
            f"{BATCH_ROWS} OFFER rows referencing them",
            "connection B": "point get of a preloaded COURSE",
        },
    ),
    "fleet": Workload(
        "fleet",
        fleet_step,
        1,
        2,
        {
            "one ShardedClient, in turn": list(FLEET_TURNS),
            "live chains": LIVE,
        },
        schemes=("COURSE", "DEPARTMENT"),
    ),
}


def _connect(workload: Workload, port: int):
    from repro.client import Client, ShardedClient

    if workload.workers:
        return ShardedClient(port=port, timeout=60)
    return Client(port=port, timeout=60)


def _stats(client) -> list[dict[str, Any]]:
    stats = client.stats()
    return stats if isinstance(stats, list) else [stats]


def run(name: str, seed: int, seconds: float, trace: bool, context) -> Run:
    workload = WORKLOADS[name]
    result = Run(workload=name, seed=seed, context=context)
    rundir = os.path.join(harness.RUN_ROOT, f"{name}-{os.getpid()}")
    shutil.rmtree(rundir, ignore_errors=True)
    os.makedirs(rundir)
    servers: list[ServedDatabase] = []
    try:
        _run(workload, result, rundir, seed, seconds, trace, servers)
    finally:
        for server in servers:
            server.kill()
        shutil.rmtree(rundir, ignore_errors=True)
    return result


def _run(workload, result, rundir, seed, seconds, trace, servers) -> None:
    from repro.io.relational_json import relational_schema_to_dict
    from repro.workloads.university import university_relational

    schema_path = os.path.join(rundir, "schema.json")
    with open(schema_path, "w") as fh:
        json.dump(relational_schema_to_dict(university_relational()), fh)
    inputs = university_inputs(seed, workload.schemes)
    result.context.update(
        preload={s: len(r) for s, r in inputs.rows.items()},
        preload_courses=PRELOAD_COURSES,
        connections=workload.connections,
        workers=workload.workers,
        mix=workload.mix,
        loop=f"closed, {workload.connections} connection(s)",
    )
    spans = os.path.join(rundir, "spans")

    def spawn(wal: str, record_from_start: bool = False) -> ServedDatabase:
        server = ServedDatabase(
            schema_path,
            wal,
            os.path.join(rundir, "serve.log"),
            workers=workload.workers,
            traced=trace,
            spans_path=spans if trace else None,
            record_from_start=record_from_start,
        )
        servers.append(server)
        return server

    # Set-up, several times: spawn on an empty log, then preload.
    for attempt in range(harness.SETUP_REPEATS):
        wal = os.path.join(rundir, f"db{attempt}.wal")
        server = spawn(wal)
        started = time.perf_counter()
        server.start()
        with _connect(workload, server.port) as client:
            (preload_sharded if workload.workers else preload)(client, inputs)
        result.setup_s.append(time.perf_counter() - started)
        if attempt < harness.SETUP_REPEATS - 1:
            server.kill()
            servers.remove(server)

    def log_bytes() -> int:
        """Bytes of the served log(s) on disk (every worker's, on a
        fleet); exact between phases, when every reply has waited for
        its group commit's flush."""
        name = os.path.basename(wal)
        return sum(
            os.path.getsize(os.path.join(rundir, p))
            for p in os.listdir(rundir)
            if p.startswith(name)
        )

    clients = [
        _connect(workload, server.port) for _ in range(workload.connections)
    ]
    loops = [
        Loop(
            index=i,
            rng=random.Random(seed * 7919 + i),
            client=client,
            inputs=inputs,
            tally=Run(workload=workload.name, seed=seed),
            teach=inputs.teach[i :: workload.connections][:HOT_ROWS],
        )
        for i, client in enumerate(clients)
    ]

    def phase(log: tracing.SpanLog | None, seconds) -> tuple[Run, list, list]:
        for d in loops:
            d.tally = Run(workload=workload.name, seed=seed)
            d.log = log
        before = _stats(clients[0])
        log_before = log_bytes()
        elapsed = run_loops(loops, workload.step, seconds)
        after = _stats(clients[0])
        tally = Run(workload=workload.name, seed=seed)
        for d in loops:
            tally.absorb(d.tally)
        tally.wal_bytes = log_bytes() - log_before
        tally.elapsed_s = elapsed
        tally.stats_delta = harness.stats_delta(before, after)
        return tally, before, after

    result.absorb(phase(None, harness.warmup_seconds(seconds))[0], measured=False)
    host_before = harness.host_reference()
    if trace:
        # Untraced first, for the tracing overhead; then traced.
        untraced, _, _ = phase(None, seconds)
        result.absorb(untraced, measured=False)
        log = tracing.SpanLog()
        tracing.install(log, server=False)
        log.enabled = True
        server.signal(signal.SIGUSR1)
        timed, before, after = phase(log, seconds)
        log.enabled = False
        server.signal(signal.SIGUSR2)
        server_summary = tracing.merge_summaries(
            [harness.read_spans_file(f"{spans}.{pid}") for pid in server.pids]
        )
        client_summary = tracing.summarize(log.spans())
    else:
        timed, before, after = phase(None, seconds)
    result.absorb(timed)
    result.wal_bytes = timed.wal_bytes
    result.elapsed_s = timed.elapsed_s
    result.stats_delta = timed.stats_delta
    result.notes["host_reference_loops_per_s"] = [
        host_before,
        harness.host_reference(),
    ]
    records_in_log = sum(int(s["wal_records"]) for s in after)
    aborts = sum(
        a["server"]["prepares"]["aborted"] - b["server"]["prepares"]["aborted"]
        for b, a in zip(before, after)
    )
    for client in clients:
        client.close()

    # Crash: SIGKILL right after the timed phase, the log as it is.
    result.peak_rss_mb = server.peak_rss_mb()
    server.kill()
    servers.remove(server)
    restarted = spawn(wal, record_from_start=trace)
    recovery_summary = tracing.summarize([])
    started = time.perf_counter()
    try:
        restarted.start()
    except harness.RecoveryFailed as exc:
        # Nothing acknowledged can be read back: the run fails, and says
        # why.
        result.restart_s = time.perf_counter() - started
        result.attempted += 1
        result.fail(f"restart: {exc}")
    else:
        result.restart_s = time.perf_counter() - started
        if trace:
            restarted.signal(signal.SIGUSR2)
            recovery_summary = tracing.merge_summaries(
                [
                    harness.read_spans_file(f"{spans}.{pid}")
                    for pid in restarted.pids
                ]
            )
        ledger: dict = {}
        for d in loops:
            ledger.update(d.ledger)
        verify_restart(workload, result, restarted, ledger, inputs)
    if trace:
        result.per_layer = layers.served(
            timed=timed,
            untraced=untraced,
            client=client_summary,
            server=server_summary,
            recovery=recovery_summary,
            records_in_log=records_in_log,
            aborts=aborts,
        )


def verify_restart(workload, result, server, ledger, inputs) -> None:
    """Durability and consistency after the SIGKILL-and-restart.

    The recovered state is read whole (one ``repl_snapshot`` per
    shard): every ledger key must hold its acknowledged row (or be
    gone, for an acknowledged delete), the row count must be the
    preload plus the net rows acknowledged, and the state must pass the
    consistency check of Definition 2.1.
    """
    from repro.constraints.checker import ConsistencyChecker
    from repro.io.state_json import state_from_dict
    from repro.relational.state import DatabaseState
    from repro.workloads.university import university_relational

    schema = university_relational()
    with _connect(workload, server.port) as client:
        ports = (
            [client.shard_map.ports[s] for s in client.shard_map.shards()]
            if workload.workers
            else [server.port]
        )
        rows: dict[str, list] = {s.name: [] for s in schema.schemes}
        for port in ports:
            state = state_from_dict(harness.fetch_state(port), schema)
            for name in rows:
                rows[name].extend(dict(t.mapping) for t in state[name])
        if workload.workers:
            # A worker's own check cannot see rows other shards own.
            union = DatabaseState.for_schema(schema, rows)
            violations = [
                str(v) for v in ConsistencyChecker(schema).violations(union)
            ]
        else:
            violations = client.check()["violations"]
    by_key = {
        name: {r[KEYS[name]]: r for r in scheme_rows}
        for name, scheme_rows in rows.items()
    }
    problems = harness.verify_ledger(
        ledger, lambda scheme, key: by_key[scheme].get(key)
    )
    expected_rows = inputs.total + result.net_rows
    recovered_rows = sum(len(r) for r in rows.values())
    if recovered_rows != expected_rows:
        problems.append(
            f"recovered {recovered_rows} rows, the ledger expects {expected_rows}"
        )
    if violations:
        problems.append(f"recovered state is inconsistent: {violations[:3]}")
    # Each ledger read-back, the row count and the check are operations.
    result.attempted += len(ledger) + 2
    result.notes.update(
        ledger_keys=len(ledger),
        recovered_rows=recovered_rows,
        expected_rows=expected_rows,
        consistent=not violations,
    )
    result.failures.extend(problems)
