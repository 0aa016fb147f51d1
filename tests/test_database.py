"""Unit tests for repro.data.database and repro.data.indexes."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from repro.data import Database, PredicateIndex, Relation, relation_of, split_edb_idb
from repro.errors import ArityError, GroundnessError
from repro.lang import Atom, Variable, parse_program
from repro.lang.terms import Constant, Null


class TestAddContains:
    def test_add_new(self):
        db = Database()
        assert db.add(Atom.of("A", 1, 2))
        assert Atom.of("A", 1, 2) in db

    def test_add_duplicate(self):
        db = Database()
        db.add(Atom.of("A", 1, 2))
        assert not db.add(Atom.of("A", 1, 2))
        assert len(db) == 1

    def test_add_fact_coerces(self):
        db = Database()
        db.add_fact("A", 1, "x")
        assert db.contains_tuple("A", (Constant(1), Constant("x")))

    def test_nonground_rejected(self):
        with pytest.raises(GroundnessError):
            Database().add(Atom("A", (Variable("x"),)))

    def test_nonground_fact_rejected(self):
        with pytest.raises(GroundnessError):
            Database().add_fact("A", Variable("x"))

    def test_null_atoms_accepted(self):
        db = Database()
        db.add(Atom("A", (Constant(3), Null(1))))
        assert len(db) == 1

    def test_arity_conflict(self):
        db = Database()
        db.add_fact("A", 1)
        with pytest.raises(ArityError):
            db.add_fact("A", 1, 2)

    def test_add_all_counts_new(self):
        db = Database()
        added = db.add_all([Atom.of("A", 1), Atom.of("A", 1), Atom.of("A", 2)])
        assert added == 2


class TestConstruction:
    def test_from_facts(self):
        db = Database.from_facts({"A": [(1, 2)], "B": [("x",)]})
        assert db.count("A") == 1 and db.count("B") == 1

    def test_from_atoms(self):
        db = Database.from_atoms([Atom.of("A", 1, 2)])
        assert len(db) == 1

    def test_copy_independent(self):
        db = Database.from_facts({"A": [(1, 2)]})
        other = db.copy()
        other.add_fact("A", 3, 4)
        assert len(db) == 1 and len(other) == 2


class TestSetOperations:
    def test_update_counts_new(self):
        db = Database.from_facts({"A": [(1, 2)]})
        other = Database.from_facts({"A": [(1, 2), (3, 4)], "B": [(5,)]})
        assert db.update(other) == 2
        assert len(db) == 3

    def test_equality_ignores_empty_relations(self):
        db1 = Database.from_facts({"A": [(1, 2)]})
        db2 = Database.from_facts({"A": [(1, 2)]})
        # Probe a missing predicate; must not affect equality.
        db2.count("B")
        assert db1 == db2

    def test_difference(self):
        big = Database.from_facts({"A": [(1, 2), (3, 4)]})
        small = Database.from_facts({"A": [(1, 2)]})
        assert big.difference(small) == {Atom.of("A", 3, 4)}

    def test_issubset(self):
        big = Database.from_facts({"A": [(1, 2), (3, 4)]})
        small = Database.from_facts({"A": [(1, 2)]})
        assert small.issubset(big)
        assert not big.issubset(small)

    def test_restrict_to(self):
        db = Database.from_facts({"A": [(1, 2)], "B": [(3,)]})
        only_a = db.restrict_to(["A"])
        assert only_a.predicates == {"A"}

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Database())


class TestQueries:
    def test_atoms_iteration(self):
        db = Database.from_facts({"A": [(1, 2)], "B": [(3,)]})
        assert set(db.atoms()) == {Atom.of("A", 1, 2), Atom.of("B", 3)}

    def test_atoms_for(self):
        db = Database.from_facts({"A": [(1, 2)], "B": [(3,)]})
        assert list(db.atoms_for("B")) == [Atom.of("B", 3)]
        assert list(db.atoms_for("Zzz")) == []

    def test_tuples_of_unknown_predicate(self):
        assert Database().tuples("X") == frozenset()

    def test_bool(self):
        assert not Database()
        assert Database.from_facts({"A": [(1,)]})


class TestCandidates:
    def setup_method(self):
        self.db = Database.from_facts(
            {"A": [(1, 2), (1, 3), (2, 3), (4, 5)]}
        )

    def test_unbound_scan(self):
        assert len(list(self.db.candidates("A", {}))) == 4

    def test_single_position(self):
        rows = list(self.db.candidates("A", {0: Constant(1)}))
        assert len(rows) == 2

    def test_multi_position(self):
        rows = list(self.db.candidates("A", {0: Constant(1), 1: Constant(3)}))
        assert rows == [(Constant(1), Constant(3))]

    def test_miss(self):
        assert list(self.db.candidates("A", {0: Constant(9)})) == []

    def test_unknown_predicate(self):
        assert list(self.db.candidates("Zzz", {0: Constant(1)})) == []

    def test_index_maintained_after_insert(self):
        # Build the index, then insert, then probe again.
        list(self.db.candidates("A", {0: Constant(1)}))
        self.db.add_fact("A", 1, 9)
        rows = list(self.db.candidates("A", {0: Constant(1)}))
        assert len(rows) == 3

    def test_probe_count_increases(self):
        before = self.db.probe_count()
        list(self.db.candidates("A", {0: Constant(1)}))
        assert self.db.probe_count() > before


class TestCompositeCandidates:
    def setup_method(self):
        self.db = Database.from_facts(
            {"A": [(1, 2, 3), (1, 2, 4), (1, 5, 3), (2, 2, 3)]}
        )

    def test_multi_bound_exact_match(self):
        rows = set(self.db.candidates("A", {0: Constant(1), 1: Constant(2)}))
        assert rows == {
            (Constant(1), Constant(2), Constant(3)),
            (Constant(1), Constant(2), Constant(4)),
        }

    def test_composite_index_built_lazily_per_position_set(self):
        list(self.db.candidates("A", {0: Constant(1), 1: Constant(2)}))
        list(self.db.candidates("A", {0: Constant(1), 2: Constant(3)}))
        index = self.db._indexes["A"]
        assert index.composite_positions() == {(0, 1), (0, 2)}

    def test_composite_maintained_after_add_and_discard(self):
        bound = {0: Constant(1), 1: Constant(2)}
        assert len(list(self.db.candidates("A", bound))) == 2
        self.db.add_fact("A", 1, 2, 9)
        assert len(list(self.db.candidates("A", bound))) == 3
        self.db.discard(Atom.of("A", 1, 2, 3))
        assert len(list(self.db.candidates("A", bound))) == 2

    def test_empty_composite_bucket(self):
        assert list(self.db.candidates("A", {0: Constant(9), 1: Constant(2)})) == []

    def test_fallback_past_cap_with_early_exit(self, monkeypatch):
        from repro.data import database as database_module

        monkeypatch.setattr(database_module, "_COMPOSITE_CAP", 0)
        bound = {0: Constant(1), 1: Constant(2)}
        rows = list(self.db.candidates("A", bound))
        assert len(rows) == 2
        assert self.db._indexes["A"].composite_count() == 0
        # The early-exit fix: an empty bucket at any bound position
        # returns () immediately, even when other positions match.
        assert list(self.db.candidates("A", {0: Constant(9), 1: Constant(2)})) == []
        assert list(self.db.candidates("A", {0: Constant(1), 1: Constant(9)})) == []

    def test_empty_like_is_plain_and_empty(self):
        fresh = self.db.empty_like()
        assert isinstance(fresh, Database)
        assert len(fresh) == 0
        assert len(self.db) == 4


class TestPredicateIndex:
    def test_build_and_bucket(self):
        index = PredicateIndex(2)
        rows = [(Constant(1), Constant(2)), (Constant(1), Constant(3))]
        index.build(0, rows)
        assert index.bucket(0, Constant(1)) == set(rows)

    def test_bucket_unbuilt_position(self):
        index = PredicateIndex(2)
        assert index.bucket(1, Constant(2)) is None

    def test_insert_maintains_built(self):
        index = PredicateIndex(2)
        index.build(0, [])
        index.insert((Constant(7), Constant(8)))
        assert index.bucket(0, Constant(7)) == {(Constant(7), Constant(8))}

    def test_bucket_size_no_probe(self):
        index = PredicateIndex(1)
        index.build(0, [(Constant(1),)])
        before = index.probes
        assert index.bucket_size(0, Constant(1)) == 1
        assert index.probes == before

    def test_composite_build_probe_and_maintain(self):
        index = PredicateIndex(3)
        rows = [
            (Constant(1), Constant(2), Constant(3)),
            (Constant(1), Constant(2), Constant(4)),
        ]
        index.build_composite((0, 1), rows)
        hit = index.composite_bucket((0, 1), (Constant(1), Constant(2)))
        assert hit == set(rows)
        assert index.composite_bucket((0, 2), (Constant(1), Constant(3))) is None
        index.insert((Constant(1), Constant(2), Constant(9)))
        index.remove(rows[0])
        hit = index.composite_bucket((0, 1), (Constant(1), Constant(2)))
        assert hit == {rows[1], (Constant(1), Constant(2), Constant(9))}
        assert index.composite_count() == 1


def test_byte_model_tracks_tracemalloc():
    """``approximate_bytes`` (the governor's memory cap) stays within 25 %
    of what 100 000 random binary facts retain, with no index and with
    one.  Terms are interned process-wide, so they are made first."""
    rng = random.Random(1987)
    terms = [Constant(value) for value in range(10_000)]
    pairs = [(rng.choice(terms), rng.choice(terms)) for _ in range(100_000)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        db = Database()
        for first, second in pairs:
            db._add_row("E", (first, second))
        gc.collect()
        measured = [tracemalloc.get_traced_memory()[0] - before]
        modelled = [db.approximate_bytes()]
        list(db.candidates("E", {0: terms[0]}))
        gc.collect()
        measured.append(tracemalloc.get_traced_memory()[0] - before)
        modelled.append(db.approximate_bytes())
    finally:
        tracemalloc.stop()
    for model, actual in zip(modelled, measured):
        assert 0.75 * actual <= model <= 1.25 * actual
    assert modelled[1] > modelled[0]


class TestRelations:
    def test_relation_of(self):
        db = Database.from_facts({"A": [(1, 2), (3, 4)]})
        rel = relation_of(db, "A")
        assert isinstance(rel, Relation)
        assert len(rel) == 2
        assert (Constant(1), Constant(2)) in rel

    def test_relation_values_unwrap(self):
        db = Database.from_facts({"A": [(1, "x")]})
        assert relation_of(db, "A").values() == {(1, "x")}

    def test_split_edb_idb(self):
        program = parse_program("G(x, z) :- A(x, z).")
        db = Database.from_facts({"A": [(1, 2)], "G": [(1, 2)], "Other": [(9,)]})
        edb, idb = split_edb_idb(db, program)
        assert edb.predicates == {"A", "Other"}
        assert idb.predicates == {"G"}
