"""Workload mining: the per-IND join counters and per-scheme mutation
rates the advisor scores from, plus the ``lookups`` undercounting
regression (a ``find_referencing`` probe answered from the reverse-
reference index must count one ``lookup``, exactly like ``join_to``'s
pk probe)."""

import dataclasses

from repro.engine.database import Database
from repro.engine.query import QueryEngine
from repro.engine.stats import EngineStats
from repro.obs.metrics import MetricsRegistry
from repro.workloads.university import university_relational

OFFER_COURSE = "OFFER[O.C.NR] <= COURSE[C.NR]"
OFFER_DEPT = "OFFER[O.D.NAME] <= DEPARTMENT[D.NAME]"


def _seeded_db() -> Database:
    db = Database(university_relational())
    db.insert("DEPARTMENT", {"D.NAME": "cs"})
    db.insert("COURSE", {"C.NR": "c1"})
    db.insert("OFFER", {"O.C.NR": "c1", "O.D.NAME": "cs"})
    return db


# -- satellite regression: lookups undercounting ------------------------------


def test_find_referencing_index_probe_counts_a_lookup():
    """The reverse-reference index branch used to count only an
    ``index_hit``; as a probe it must also count one ``lookup``."""
    db = _seeded_db()
    q = QueryEngine(db)
    dept = db.get("DEPARTMENT", ("cs",))
    db.stats.reset()
    rows = q.find_referencing(dept, "OFFER", ["O.D.NAME"], ["D.NAME"])
    assert len(rows) == 1
    assert db.stats.index_hits == 1  # still the index path
    assert db.stats.lookups == 1


def test_find_referencing_pk_probe_still_counts_a_lookup():
    db = _seeded_db()
    q = QueryEngine(db)
    course = db.get("COURSE", ("c1",))
    before = db.stats.lookups
    q.find_referencing(course, "OFFER", ["O.C.NR"], ["C.NR"])
    assert db.stats.lookups == before + 1


def test_probe_counts_match_between_directions():
    """A navigation is never cheaper than a point query in either
    direction: N probes -> N lookups, whichever side they start from."""
    db = _seeded_db()
    q = QueryEngine(db)
    offer = db.get("OFFER", ("c1",))
    course = db.get("COURSE", ("c1",))
    db.stats.reset()
    for _ in range(5):
        q.join_to(offer, ["O.C.NR"], "COURSE")
        q.find_referencing(course, "OFFER", ["O.C.NR"], ["C.NR"])
    assert db.stats.joins_performed == 10
    assert db.stats.lookups == 10


# -- per-IND join counters -----------------------------------------------------


def test_join_to_counts_the_traversed_ind():
    db = _seeded_db()
    q = QueryEngine(db)
    offer = db.get("OFFER", ("c1",))
    q.join_to(offer, ["O.C.NR"], "COURSE")
    q.join_to(offer, ["O.D.NAME"], "DEPARTMENT")
    q.join_to(offer, ["O.D.NAME"], "DEPARTMENT")
    assert db.stats.ind_joins == {OFFER_COURSE: 1, OFFER_DEPT: 2}


def test_backward_navigation_counts_the_same_ind():
    """``find_referencing`` (and ``join_to`` from the referenced side)
    traverses the same IND backwards -- one counter per dependency, not
    per direction."""
    db = _seeded_db()
    q = QueryEngine(db)
    course = db.get("COURSE", ("c1",))
    q.find_referencing(course, "OFFER", ["O.C.NR"], ["C.NR"])
    q.join_to(course, ["C.NR"], "OFFER", ["O.C.NR"])
    assert db.stats.ind_joins == {OFFER_COURSE: 2}


def test_non_ind_navigation_counts_no_ind():
    db = _seeded_db()
    q = QueryEngine(db)
    offer = db.get("OFFER", ("c1",))
    q.join_to(offer, ["O.C.NR"], "TEACH", ["T.F.SSN"])  # no such IND shape
    assert db.stats.ind_joins == {}


def test_ind_maps_rebuilt_after_online_merge():
    """The IND lookup cache keys on the schema object, so an online
    merge (which swaps ``db.schema``) invalidates it."""
    db = _seeded_db()
    q = QueryEngine(db)
    offer = db.get("OFFER", ("c1",))
    q.join_to(offer, ["O.D.NAME"], "DEPARTMENT")
    db.apply_merge_online(["COURSE", "OFFER", "TEACH", "ASSIST"])
    merged = db.get("COURSE'", ("c1",))
    q.join_to(merged, ["O.D.NAME"], "DEPARTMENT")
    assert db.stats.ind_joins[OFFER_DEPT] == 1
    post = [k for k in db.stats.ind_joins if k.startswith("COURSE'")]
    assert post and db.stats.ind_joins[post[0]] == 1


# -- per-scheme mutation counters ----------------------------------------------


def test_mutation_counters_cover_every_path():
    db = _seeded_db()  # 3 single inserts
    db.update("OFFER", ("c1",), {"O.D.NAME": "cs"})
    db.insert_many("COURSE", [{"C.NR": "m1"}, {"C.NR": "m2"}])
    db.apply_batch(
        [
            ("insert", "DEPARTMENT", {"D.NAME": "math"}),
            ("delete", "COURSE", ("m1",)),
        ]
    )
    db.delete("COURSE", ("m2",))
    assert db.stats.scheme_mutations == {
        "DEPARTMENT": 2,
        "COURSE": 5,
        "OFFER": 2,
    }


def test_counters_survive_snapshot_and_are_copies():
    db = _seeded_db()
    snap = db.stats.snapshot()
    assert snap["scheme_mutations"] == {
        "DEPARTMENT": 1,
        "COURSE": 1,
        "OFFER": 1,
    }
    snap["scheme_mutations"]["COURSE"] = 999  # a copy, not the live dict
    assert db.stats.scheme_mutations["COURSE"] == 1
    assert set(snap) == {f.name for f in dataclasses.fields(EngineStats)}


def test_reset_clears_the_mined_counters():
    db = _seeded_db()
    q = QueryEngine(db)
    q.join_to(db.get("OFFER", ("c1",)), ["O.C.NR"], "COURSE")
    db.stats.reset()
    assert db.stats.ind_joins == {}
    assert db.stats.scheme_mutations == {}


def test_prometheus_exposition_labels_the_series():
    db = _seeded_db()
    q = QueryEngine(db)
    q.join_to(db.get("OFFER", ("c1",)), ["O.C.NR"], "COURSE")
    registry = MetricsRegistry()
    db.stats.register(registry)
    text = registry.render()
    assert (
        'repro_engine_ind_joins{ind="OFFER[O.C.NR] <= COURSE[C.NR]"} 1'
        in text
    )
    assert 'repro_engine_scheme_mutations{scheme="COURSE"} 1' in text
    # An empty series emits no sample (no bare dict in the exposition).
    registry = MetricsRegistry()
    EngineStats().register(registry)
    samples = [
        line
        for line in registry.render().splitlines()
        if not line.startswith("#")
    ]
    assert not [line for line in samples if "ind_joins" in line]
