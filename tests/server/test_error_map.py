"""One bad input, one error frame, whichever verb carries it.

The service maps engine and protocol exceptions to typed error frames
on five paths: the inline read path, a single mutation verb, an
``insert_many`` row, an ``apply_batch`` op, and a ``batch_prepare`` op.  This table pins that
the frame's ``type``/``kind``/``rule``/``worker`` do not depend on the
path, so a client (or the shard router) can classify a rejection
without knowing how it was sent.

The bad inputs run against the Figure 6 merged scheme ``COURSE''`` on
worker 0 of a two-worker fleet:

* a misrouted key (its row belongs to worker 1);
* a malformed op;
* an unknown scheme;
* a key-based inclusion dependency violation;
* a Section 3 null-existence violation;
* a non-scalar attribute value or key component (a JSON array, or an
  object other than the null marker), which must be a ``bad-request``
  and never reach an index as an unhashable key.

A prepare cannot reject an inclusion dependency on its own -- the
referenced row may live on another shard -- so it reports the same
constraint as an ``exists`` requirement, which the router then turns
into the violation.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.merge import merge
from repro.core.remove import remove_all
from repro.engine.database import Database
from repro.engine.wal import MemoryStorage, WriteAheadLog
from repro.relational.tuples import NULL
from repro.server.protocol import encode_row
from repro.server.router import shard_of
from repro.server.service import DatabaseService, Session, ShardInfo
from repro.workloads.university import university_relational

MERGED = "COURSE''"
N_SHARDS = 2


def _routed(scheme: str, shard: int, make) -> object:
    """The first ``make(i)`` key value that ``scheme`` routes to ``shard``."""
    i = 0
    while shard_of(scheme, [make(i)], N_SHARDS) != shard:
        i += 1
    return make(i)


def _key(scheme: str, shard: int, prefix: str) -> str:
    """The first ``<prefix><i>`` key that ``scheme`` routes to ``shard``."""
    return _routed(scheme, shard, lambda i: f"{prefix}{i}")


FACULTY = _key("FACULTY", 0, "f")
DEPARTMENT = _key("DEPARTMENT", 0, "d")
LOCAL = _key(MERGED, 0, "c")
FOREIGN = _key(MERGED, 1, "c")
UNKNOWN = _key("NOPE", 0, "n")
LIST_KEY = _routed(MERGED, 0, lambda i: [f"c{i}"])
OBJECT_KEY = _routed(MERGED, 0, lambda i: {"nr": f"c{i}"})


def _row(**values) -> dict:
    """A wire-form ``COURSE''`` row, NULL wherever not given."""
    row = {"C.NR": NULL, "O.D.NAME": NULL, "T.F.SSN": NULL, "A.S.SSN": NULL}
    row.update(values)
    return encode_row(row)


#: name -> (scheme, row); a non-dict row is the malformed input.
INSERTS = {
    "misrouted-key": (MERGED, _row(**{"C.NR": FOREIGN})),
    "malformed-op": (MERGED, "not-a-row"),
    "unknown-scheme": ("NOPE", {"x": 1}),
    "ind-violation": (MERGED, _row(**{"C.NR": LOCAL, "O.D.NAME": "ghost"})),
    "null-existence": (MERGED, _row(**{"C.NR": LOCAL, "T.F.SSN": FACULTY})),
    "list-value": (MERGED, _row(**{"C.NR": LOCAL, "O.D.NAME": [DEPARTMENT]})),
    "object-value": (MERGED, _row(**{"C.NR": LOCAL, "O.D.NAME": {"$null": False}})),
    "list-key": (MERGED, _row(**{"C.NR": LIST_KEY})),
    "object-key": (MERGED, _row(**{"C.NR": OBJECT_KEY})),
}

#: What each input's frame must carry, on every mutation path.
EXPECTED = {
    "misrouted-key": {"type": "wrong-shard", "worker": 1},
    "malformed-op": {"type": "bad-request"},
    "unknown-scheme": {"type": "not-found"},
    "ind-violation": {
        "type": "constraint-violation",
        "kind": "inclusion-dependency",
    },
    "null-existence": {
        "type": "constraint-violation",
        "kind": "null-existence",
        "rule": "Section 3 (null-existence Y |-> Z); "
        "Definition 4.1 steps 3(c)/3(e)",
    },
    "list-value": {"type": "bad-request"},
    "object-value": {"type": "bad-request"},
    "list-key": {"type": "bad-request"},
    "object-key": {"type": "bad-request"},
}

#: Reads hit the shard check, parameter decoding and scheme lookup.
READS = {
    "misrouted-key": (
        {"scheme": MERGED, "pk": [FOREIGN]},
        {"type": "wrong-shard", "worker": 1},
    ),
    "malformed-op": ({"scheme": MERGED, "pk": "x"}, {"type": "bad-request"}),
    "unknown-scheme": ({"scheme": "NOPE", "pk": [UNKNOWN]}, {"type": "not-found"}),
    "list-key": ({"scheme": MERGED, "pk": [LIST_KEY]}, {"type": "bad-request"}),
    "object-key": (
        {"scheme": MERGED, "pk": [OBJECT_KEY]},
        {"type": "bad-request"},
    ),
}


def _classify(frame: dict) -> dict:
    """The path-independent part of an error frame."""
    assert frame["ok"] is False, frame
    error = frame["error"]
    return {
        k: error[k]
        for k in ("type", "kind", "rule", "worker", "constraint")
        if k in error
    }


def _run(requests: list[dict]) -> list[dict]:
    """Send ``requests`` in order to a fresh worker-0 service seeded
    with one faculty member and one department; the responses."""

    async def main() -> list[dict]:
        schema = remove_all(
            merge(
                university_relational(),
                ["COURSE", "OFFER", "TEACH", "ASSIST"],
                merged_name=MERGED,
            )
        ).schema
        db = Database(schema, wal=WriteAheadLog(MemoryStorage()))
        service = DatabaseService(
            db,
            max_delay=0,
            shard=ShardInfo(worker_id=0, n_shards=N_SHARDS),
        )
        await service.start()
        session = Session(1)
        try:
            for i, (scheme, row) in enumerate(
                [
                    ("PERSON", {"P.SSN": FACULTY}),
                    ("FACULTY", {"F.SSN": FACULTY}),
                    ("DEPARTMENT", {"D.NAME": DEPARTMENT}),
                ]
            ):
                seeded = await service.handle(
                    session,
                    {"id": -i, "verb": "insert", "scheme": scheme, "row": row},
                )
                assert seeded["ok"], seeded
            out = []
            for i, request in enumerate(requests):
                out.append(await service.handle(session, {"id": i, **request}))
                result = out[-1].get("result")
                if isinstance(result, dict) and "xid" in result:
                    abort = await service.handle(
                        session,
                        {"id": -1, "verb": "batch_abort", "xid": result["xid"]},
                    )
                    assert abort["ok"], abort
            return out
        finally:
            await service.stop()

    return asyncio.run(main())


@pytest.mark.parametrize("name", sorted(INSERTS))
def test_mutation_paths_share_one_error_map(name):
    scheme, row = INSERTS[name]
    op = ["insert", scheme, row] if isinstance(row, dict) else ["insert", scheme]
    single, many, batch, prepare = _run(
        [
            {"verb": "insert", "scheme": scheme, "row": row},
            {"verb": "insert_many", "scheme": scheme, "rows": [row]},
            {"verb": "apply_batch", "ops": [op]},
            {"verb": "batch_prepare", "xid": "x1", "ops": [op]},
        ]
    )
    got = _classify(single)
    assert {k: got.get(k) for k in EXPECTED[name]} == EXPECTED[name]
    assert _classify(many) == got
    assert _classify(batch) == got
    if name == "ind-violation":
        # The referenced row could live on another shard: the prepare
        # hands the same constraint to the router as a requirement.
        assert prepare["ok"], prepare
        (requirement,) = prepare["result"]["requirements"]
        assert requirement["kind"] == "exists"
        assert requirement["constraint"] == got["constraint"]
    else:
        assert _classify(prepare) == got


@pytest.mark.parametrize("name", sorted(READS))
def test_read_path_shares_the_error_map(name):
    params, expected = READS[name]
    (read,) = _run([{"verb": "get", **params}])
    got = _classify(read)
    assert got == expected
    # The same input as a mutation classifies identically.
    (delete,) = _run([{"verb": "delete", **params}])
    assert _classify(delete) == got
