"""Shared test helper: interpret a WAL image with the scan oracle.

The crash-point matrix and the hypothesis property test both need an
*independent* notion of "the state the log proves committed": parse the
surviving bytes with :func:`repro.engine.wal.parse_wal` and apply the
committed records, in log order, to the scan-based
:class:`~repro.engine.oracle.OracleDatabase` -- buffering transaction
groups until their ``commit`` marker, dropping aborted/unterminated
groups and records cancelled by ``rollback`` markers.  Nothing in this
interpreter shares code with :mod:`repro.engine.recovery`, so agreement
between the two is evidence, not tautology.

The oracle applies a committed group's records in order (it has no
deferred reference checking), so test workloads keep their batches
order-safe: parents before children, children deleted before parents.
A columnar ``insert_many`` record is decoded here, by this module's own
code, and applied row by row; a ``batch`` record's entries (insert
runs in that columnar layout, updates, deletes) are applied in order,
so its batches must be order-safe too.
"""

from repro.engine.oracle import OracleDatabase
from repro.engine.wal import decode_batch_op, parse_wal
from repro.io.state_json import state_from_dict
from repro.relational.tuples import NULL


def oracle_replay(
    data: bytes, schema, null_semantics: str = "distinct"
) -> OracleDatabase:
    """The oracle holding the committed prefix of the log image ``data``."""
    oracle = OracleDatabase(schema, null_semantics=null_semantics)
    in_txn = False
    buffered: list[dict] = []
    for record in parse_wal(data).records:
        op = record["op"]
        if op == "header":
            continue
        if op in ("snapshot", "load_state"):
            if "schema" in record:
                # A post-merge checkpoint embeds the evolved schema; the
                # image is an instance of it, not of the boot schema.
                from repro.io.relational_json import (
                    relational_schema_from_dict,
                )

                evolved = relational_schema_from_dict(record["schema"])
                oracle = OracleDatabase(
                    evolved, null_semantics=null_semantics
                )
                oracle.load_state(state_from_dict(record["state"], evolved))
            else:
                oracle.load_state(
                    state_from_dict(record["state"], oracle.schema)
                )
        elif op == "begin":
            in_txn, buffered = True, []
        elif op == "rollback":
            buffered = [
                r for r in buffered if r.get("lsn", 0) < record["to_lsn"]
            ]
        elif op == "abort":
            in_txn, buffered = False, []
        elif op == "commit":
            for r in buffered:
                oracle = _apply(oracle, r)
            in_txn, buffered = False, []
        elif in_txn:
            buffered.append(record)
        else:
            oracle = _apply(oracle, record)
    return oracle


def _apply(oracle: OracleDatabase, record: dict) -> OracleDatabase:
    if record["op"] == "merge":
        # A committed online merge: recompute the deterministic
        # Merge + Remove pipeline from the record's family spec and
        # continue on a fresh oracle holding the forward-mapped state.
        # Independent of repro.engine.recovery by construction -- only
        # the core transformation (which both sides must share, it
        # *defines* the merged schema) is reused.
        from repro.core.merge import merge
        from repro.core.remove import remove_all

        simplified = remove_all(
            merge(
                oracle.schema,
                record["members"],
                merged_name=record.get("merged_name"),
                key_relation=record.get("key_relation"),
            )
        )
        merged = OracleDatabase(
            simplified.schema, null_semantics=oracle.null_semantics
        )
        merged.load_state(simplified.forward.apply(oracle.state()))
        return merged
    if record["op"] == "batch":
        for entry in record["entries"]:
            oracle = _apply(oracle, entry)
        return oracle
    if record["op"] == "insert_many":
        for row in _columnar_rows(record):
            oracle.insert(record["scheme"], row)
        return oracle
    op = decode_batch_op(record)
    if op[0] == "insert":
        oracle.insert(op[1], op[2])
    elif op[0] == "update":
        oracle.update(op[1], op[2], op[3])
    else:
        oracle.delete(op[1], op[2])
    return oracle


def _columnar_rows(record: dict) -> list[dict]:
    """The rows of an ``insert_many`` record: row ``i`` takes entry
    ``i`` of every column, or ``NULL`` where the column's null list
    names ``i``."""
    attrs, cols, nulls = record["attrs"], record["cols"], record["nulls"]
    n_rows = len(cols[0])
    assert all(len(col) == n_rows for col in cols), "ragged columns"
    rows = []
    for i in range(n_rows):
        row = {}
        for name, col in zip(attrs, cols):
            row[name] = NULL if i in nulls.get(name, ()) else col[i]
        rows.append(row)
    return rows
