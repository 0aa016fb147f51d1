"""Unit tests for incremental view maintenance (DRed)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, evaluate, paper, parse_program
from repro.engine.incremental import MaterializedView
from repro.errors import GroundnessError, TransientStorageError, UnsafeRuleError
from repro.lang import Atom, Constant, Variable
from repro.resilience import FaultPlan
from repro.testing import reference_maintenance
from repro.workloads import chain, cycle, random_graph, tc_nonlinear

from .legacy import on_backend

#: ``columnar``: the base is read back from its legacy columnar document.
BACKENDS = ("rows", "columnar")
PHASES = ("_overdelete", "_rederive", "_propagate")


def recomputed(program, atoms):
    return evaluate(program, Database(atoms)).database


def state(view):
    """What a failed operation must leave untouched: view and base."""
    return frozenset(view.database.atoms()), frozenset(view._base.atoms())


def built_views(db, predicate):
    """The index views built on *predicate*, single and composite."""
    index = db._indexes[predicate]
    return set(index.built_positions()) | set(index.composite_positions())


class TestConstruction:
    def test_initial_materialization(self, tc):
        base = chain(5)
        view = MaterializedView(tc, base)
        assert view.database == evaluate(tc, base).database

    def test_negation_rejected(self):
        program = parse_program("P(x) :- A(x), not B(x).")
        with pytest.raises(UnsafeRuleError):
            MaterializedView(program, Database())

    def test_len_and_contains(self, tc):
        view = MaterializedView(tc, chain(3))
        assert len(view) == 3 + 6
        assert Atom.of("G", 0, 3) in view


class TestInsert:
    def test_insert_propagates(self, tc):
        view = MaterializedView(tc, chain(3))
        view.insert(Atom.of("A", 3, 4))
        expected = recomputed(tc, list(chain(4).atoms()))
        assert view.database == expected

    def test_insert_bridge_edge(self, tc):
        # Two disconnected chains joined by one new edge.
        base = chain(3)
        base.update(chain(3, offset=10))
        view = MaterializedView(tc, base)
        view.insert(Atom.of("A", 3, 10))
        atoms = set(base.atoms()) | {Atom.of("A", 3, 10)}
        assert view.database == recomputed(tc, atoms)

    def test_duplicate_insert_noop(self, tc):
        view = MaterializedView(tc, chain(3))
        before = len(view)
        stats = view.insert(Atom.of("A", 0, 1))
        assert stats.inserted == 0
        assert len(view) == before

    def test_insert_counts(self, tc):
        view = MaterializedView(tc, chain(3))
        stats = view.insert(Atom.of("A", 3, 4))
        # New: edge + G(3,4) + G(2,4) + G(1,4) + G(0,4).
        assert stats.inserted == 5

    def test_nonground_rejected(self, tc):
        view = MaterializedView(tc, chain(2))
        with pytest.raises(GroundnessError):
            view.insert(Atom("A", (Variable("x"), Variable("y"))))

    def test_insert_idb_fact(self, tc):
        # Initial IDB facts are legal inputs (paper, Section III).
        view = MaterializedView(tc, chain(2))
        view.insert(Atom.of("G", 50, 60))
        assert Atom.of("G", 50, 60) in view


class TestDelete:
    def test_delete_chain_edge(self, tc):
        base = chain(6)
        view = MaterializedView(tc, base)
        view.delete(Atom.of("A", 3, 4))
        remaining = [a for a in base.atoms() if a != Atom.of("A", 3, 4)]
        assert view.database == recomputed(tc, remaining)

    def test_delete_with_rederivation(self, tc):
        # In a cycle, many closure facts survive edge deletion through
        # alternative paths: rederivation must bring them back.
        base = cycle(5)
        view = MaterializedView(tc, base)
        stats = view.delete(Atom.of("A", 0, 1))
        remaining = [a for a in base.atoms() if a != Atom.of("A", 0, 1)]
        assert view.database == recomputed(tc, remaining)
        assert stats.rederived > 0
        assert stats.overdeleted > stats.deleted

    def test_delete_absent_fact_noop(self, tc):
        view = MaterializedView(tc, chain(3))
        before = len(view)
        stats = view.delete(Atom.of("A", 50, 51))
        assert stats.deleted == 0
        assert len(view) == before

    def test_delete_then_reinsert_roundtrip(self, tc):
        base = chain(5)
        view = MaterializedView(tc, base)
        original = view.database.copy()
        view.delete(Atom.of("A", 2, 3))
        view.insert(Atom.of("A", 2, 3))
        assert view.database == original

    def test_base_facts_protected(self, tc):
        # A(0,1) is given AND derivable-as-G... G(0,1) is derived; if we
        # delete A(1,2), G(0,1) must survive (it has its own support).
        view = MaterializedView(tc, chain(3))
        view.delete(Atom.of("A", 1, 2))
        assert Atom.of("A", 0, 1) in view
        assert Atom.of("G", 0, 1) in view
        assert Atom.of("G", 0, 2) not in view

    def test_delete_all_batch(self, tc):
        base = chain(6)
        view = MaterializedView(tc, base)
        victims = [Atom.of("A", 1, 2), Atom.of("A", 4, 5)]
        view.delete_all(victims)
        remaining = [a for a in base.atoms() if a not in victims]
        assert view.database == recomputed(tc, remaining)


class TestDifferential:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_random_workload_matches_recomputation(self, tc, seed):
        rng = random.Random(seed)
        base = random_graph(9, 18, seed=seed)
        view = MaterializedView(tc, base)
        live = set(base.atoms())
        for _ in range(15):
            if live and rng.random() < 0.5:
                atom = rng.choice(sorted(live, key=str))
                view.delete(atom)
                live.discard(atom)
            else:
                atom = Atom.of("A", rng.randrange(9), rng.randrange(9))
                view.insert(atom)
                live.add(atom)
            assert view.database == recomputed(tc, live)


class TestInPlace:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_database_is_one_object_and_index_views_survive(self, tc_linear, backend):
        view = MaterializedView(tc_linear, on_backend(cycle(6), backend))
        db = view.database
        key = {value: Constant(value) for value in range(6)}
        for bound in ({0: 0}, {1: 0}, {0: 0, 1: 1}):
            list(db.candidates("G", {p: key[v] for p, v in bound.items()}))
        built = built_views(db, "G")
        view.delete(Atom.of("A", 2, 3))
        view.insert(Atom.of("A", 2, 3))
        view.delete_all([Atom.of("A", 0, 1), Atom.of("A", 4, 5)])
        assert view.database is db
        assert built <= built_views(db, "G")
        # The views maintained in place answer exactly what a scan does.
        rows = set(db.candidates("G", {}))
        for pos in (0, 1):
            for value in key.values():
                hits = set(db.candidates("G", {pos: value}))
                assert hits == {row for row in rows if row[pos] == value}
        for x in key.values():
            for y in key.values():
                assert set(db.candidates("G", {0: x, 1: y})) == (
                    {(x, y)} & rows
                )

    def test_deletes_copy_neither_view_nor_base(self, tc_linear, monkeypatch):
        view = MaterializedView(tc_linear, cycle(5))
        copied = []
        original = Database.copy
        monkeypatch.setattr(
            Database, "copy", lambda self: copied.append(self) or original(self)
        )
        view.delete(Atom.of("A", 1, 2))
        view.insert(Atom.of("A", 1, 2))
        assert all(db is not view.database and db is not view._base for db in copied)


# -- storage faults inside maintenance ------------------------------------------

#: A chain with a shortcut: deleting A(2, 3) over-deletes G(1, 3), which
#: the shortcut rederives in one step, and G(0, 3), which propagation
#: brings back -- so every phase makes storage calls.
SHORTCUT = [(i, i + 1) for i in range(6)] + [(1, 3)]
DELETE = [Atom.of("A", 2, 3)]
INSERT = [Atom.of("A", 6, 7)]


def edges(backend, pairs):
    return on_backend(Database.from_facts({"A": pairs}), backend)


def faulted(tc_linear, backend, pairs, plan):
    return MaterializedView(tc_linear, plan.wrap(edges(backend, pairs)))


def seam_counts(tc_linear, backend, pairs, operation, run):
    """On a clean run of *run*: the *operation* count when it starts,
    when each phase is first entered, and when it ends."""
    plan = FaultPlan()
    view = faulted(tc_linear, backend, pairs, plan)
    starts = {}
    for name in PHASES:
        def spy(*args, _name=name, _method=getattr(view, name)):
            starts.setdefault(_name, plan.counters[operation])
            return _method(*args)

        setattr(view, name, spy)
    begin = plan.counters[operation]
    run(view)
    return begin, starts, plan.counters[operation]


def assert_rolls_back_then_retries(tc_linear, backend, pairs, operation, at, kind, atoms):
    plan = FaultPlan.transient_at(operation, [at])
    view = faulted(tc_linear, backend, pairs, plan)
    before = state(view)
    run = view.insert_all if kind == "insert" else view.delete_all
    with pytest.raises(TransientStorageError):
        run(atoms)
    assert state(view) == before
    run(atoms)
    given = {Atom.of("A", u, v) for u, v in pairs}
    given = given | set(atoms) if kind == "insert" else given - set(atoms)
    assert view.database == recomputed(tc_linear, given)
    return view


class TestStorageFaults:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "kind, atoms, nth, after", [("delete", DELETE, 4, 14), ("insert", INSERT, 3, 35)]
    )
    def test_fault_after_the_base_changed_does_not_stick(
        self, tc_linear, backend, kind, atoms, nth, after
    ):
        # The nth candidates call of the operation fails after the base
        # has changed.  Without a rollback the view kept its 27 facts and
        # the retry was a no-op, so the view stayed wrong for good.
        chain_edges = [(i, i + 1) for i in range(6)]
        begin, _, _ = seam_counts(tc_linear, backend, chain_edges, "candidates", len)
        view = assert_rolls_back_then_retries(
            tc_linear, backend, chain_edges, "candidates", begin + nth, kind, atoms
        )
        assert len(view) == after

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("phase", PHASES)
    def test_fault_in_each_delete_phase_rolls_back(self, tc_linear, backend, phase):
        def delete(view):
            view.delete_all(DELETE)

        _, starts, end = seam_counts(tc_linear, backend, SHORTCUT, "candidates", delete)
        assert set(starts) == set(PHASES)
        assert starts[phase] < end
        assert_rolls_back_then_retries(
            tc_linear, backend, SHORTCUT, "candidates", starts[phase] + 1, "delete", DELETE
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("operation", ["candidates", "add", "contains"])
    @pytest.mark.parametrize("kind, atoms", [("delete", DELETE), ("insert", INSERT)])
    def test_every_fault_position_rolls_back(self, tc_linear, backend, operation, kind, atoms):
        def run(view):
            (view.insert_all if kind == "insert" else view.delete_all)(atoms)

        begin, _, end = seam_counts(tc_linear, backend, SHORTCUT, operation, run)
        assert end > begin
        for at in range(begin + 1, end + 1):
            assert_rolls_back_then_retries(
                tc_linear, backend, SHORTCUT, operation, at, kind, atoms
            )


# -- differential property against the copy-based reference ---------------------

NODES = 5
edge_atoms = st.builds(
    lambda pred, u, v: Atom.of(pred, u, v),
    st.sampled_from(["A", "A", "A", "G"]),
    st.integers(0, NODES - 1),
    st.integers(0, NODES - 1),
)
scripts = st.lists(
    st.tuples(st.sampled_from(["insert", "delete"]), st.lists(edge_atoms, min_size=1, max_size=4)),
    max_size=6,
)


class TestDifferentialProperty:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("program", [paper.TC_LINEAR, paper.TC_NONLINEAR], ids=["linear", "nonlinear"])
    @settings(max_examples=40, deadline=None)
    @given(base=st.lists(edge_atoms, max_size=12), script=scripts)
    def test_view_and_counters_match_the_reference(
        self, program, backend, base, script
    ):
        # Random graphs on five nodes have cycles; "G" atoms are given
        # IDB facts (the paper's generalized inputs), protected until
        # deleted themselves.  Deletes of atoms not given are no-ops.
        given_db = on_backend(Database(base), backend)
        expected = reference_maintenance(program, given_db, script)
        view = MaterializedView(program, given_db)
        db = view.database
        given_atoms = set(base)
        for (kind, batch), (stats, atoms) in zip(script, expected):
            if kind == "insert":
                got = view.insert_all(batch)
                given_atoms |= set(batch)
            else:
                got = view.delete_all(batch)
                given_atoms -= set(batch)
            assert got == stats
            assert frozenset(view.database.atoms()) == atoms
            assert atoms == frozenset(recomputed(program, given_atoms).atoms())
            assert view.database is db
