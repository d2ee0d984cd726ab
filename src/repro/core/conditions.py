"""DBMS-compatibility conditions (Propositions 5.1 and 5.2).

1992-era relational DBMSs maintain declaratively only key-based inclusion
dependencies, non-null (unique) keys, and nulls-not-allowed constraints;
everything else needs triggers (SYBASE 4.0), rules (INGRES 6.3) or
validprocs (DB2).  The two propositions characterise, *on the input
schema*, when ``Merge`` (and ``Remove``) stay within the declarative
fragment:

* Proposition 5.1(i): the output contains only key-based inclusion
  dependencies iff no non-key-relation family member is referenced from
  outside the family.
* Proposition 5.1(ii): the merged scheme's key attributes stay non-null
  iff every non-key-relation family member has a unique (primary) key.
* Proposition 5.2: the fully simplified output carries only
  nulls-not-allowed constraints iff the family has a hub ``Rk`` that every
  other member references directly, every other member has exactly one
  non-key attribute, is never referenced, and only references outward
  targets that ``Rk`` also references.

These checkers are pure schema predicates; the benchmarks validate them
against the actual ``Merge``/``Remove`` outputs.
"""

from __future__ import annotations

from typing import Sequence

from repro.constraints.inclusion import InclusionDependency
from repro.core.keyrelation import MergeFamily, find_key_relation
from repro.relational.schema import RelationalSchema


def prop51_key_based_inds_only(
    schema: RelationalSchema, members: Sequence[str]
) -> bool:
    """Proposition 5.1(i): will ``Merge(members)`` produce only key-based
    inclusion dependencies?

    True iff every family member that is not the key-relation is not
    referenced by an inclusion dependency from outside the family (such a
    reference would survive as ``Rj[Z] <= Rm[Ki]`` with ``Ki`` no longer
    the primary key of ``Rm``).
    """
    family = MergeFamily(schema, tuple(members))
    key_relation = find_key_relation(family)
    member_set = set(members)
    for ind in schema.inds:
        if ind.rhs_scheme not in member_set:
            continue
        if ind.rhs_scheme == key_relation:
            continue
        if ind.lhs_scheme in member_set:
            continue
        rhs_scheme = schema.scheme(ind.rhs_scheme)
        if tuple(ind.rhs_attrs) == rhs_scheme.key_names:
            return False
    return True


def prop51_keys_not_null(
    schema: RelationalSchema, members: Sequence[str]
) -> bool:
    """Proposition 5.1(ii): will every candidate key of the merged scheme
    consist of non-null attributes (after removing the redundant key
    copies)?

    True iff every family member that is not the key-relation is
    associated with a unique (primary) key -- extra candidate keys would
    survive as nullable candidate keys of ``Rm``, which SYBASE- and
    INGRES-class systems cannot maintain (Section 5.1).
    """
    family = MergeFamily(schema, tuple(members))
    key_relation = find_key_relation(family)
    for member in members:
        if member == key_relation:
            continue
        if len(schema.scheme(member).candidate_keys) > 1:
            return False
    return True


def prop52_nulls_not_allowed_only(
    schema: RelationalSchema, members: Sequence[str]
) -> tuple[bool, str | None]:
    """Proposition 5.2: will ``Merge`` followed by exhaustive ``Remove``
    leave only nulls-not-allowed constraints?

    Returns ``(holds, key_relation_name)``.  The conditions, checked for a
    hub candidate ``Rk`` against every other member ``Ri``:

    1. ``Ri[Ki] <= Rk[Kk]`` belongs to ``I`` (every member references the
       hub directly -- this makes ``Rk`` a key-relation);
    2. ``Ri`` has exactly one non-primary-key attribute;
    3. ``Ri`` is not referenced by any inclusion dependency;
    4. besides the hub reference, ``Ri`` participates only in left-hand
       sides ``Ri[Z] <= Rj[Kj]``; and when ``Z`` is ``Ri``'s own key, the
       hub must carry the same reference (``Rk[Kk] <= Rj[Kj]``).
    """
    member_list = tuple(members)
    member_set = set(member_list)
    MergeFamily(schema, member_list)  # validates key compatibility

    for hub in member_list:
        hub_scheme = schema.scheme(hub)
        if _prop52_holds_for_hub(schema, hub_scheme, member_list, member_set):
            return True, hub
    return False, None


def _prop52_holds_for_hub(
    schema: RelationalSchema,
    hub_scheme,
    member_list: tuple[str, ...],
    member_set: set[str],
) -> bool:
    hub = hub_scheme.name
    hub_outward_keyrefs = {
        (ind.rhs_scheme, tuple(ind.rhs_attrs))
        for ind in schema.inds
        if ind.lhs_scheme == hub and tuple(ind.lhs_attrs) == hub_scheme.key_names
    }
    for member in member_list:
        if member == hub:
            continue
        scheme = schema.scheme(member)
        # Condition (1): direct reference into the hub's primary key.
        direct = InclusionDependency(
            member, scheme.key_names, hub, hub_scheme.key_names
        )
        if direct not in schema.inds:
            return False
        # Condition (2): exactly one non-primary-key attribute.
        if len(scheme.attributes) - len(scheme.primary_key) != 1:
            return False
        # Condition (3): never referenced.
        if any(ind.rhs_scheme == member for ind in schema.inds):
            return False
        # Condition (4): only outward key-based references; key-sourced
        # references must be mirrored by the hub.
        for ind in schema.inds:
            if ind.lhs_scheme != member or ind == direct:
                continue
            rhs_scheme = schema.scheme(ind.rhs_scheme)
            if tuple(ind.rhs_attrs) != rhs_scheme.key_names:
                return False
            if ind.rhs_scheme in member_set:
                return False
            if tuple(ind.lhs_attrs) == scheme.key_names:
                mirrored = (ind.rhs_scheme, tuple(ind.rhs_attrs))
                if mirrored not in hub_outward_keyrefs:
                    return False
    return True
