"""What survives of the removed ``columnar`` storage backend.

There is one store, :class:`~repro.data.database.Database`.  Two
things of the second backend stay, and this module checks both:

* the **name**: ``Database(backend="columnar")`` builds the one store,
  so older callers keep working, and any unknown name is an error;
* the **files**: format-2 database documents tagged ``columnar`` (a
  symbol list plus rows of indexes into it) load onto the one store.

The differential sweeps that used to compare the two backends now
compare a database with the same database read back from its legacy
columnar document (:func:`tests.legacy.on_backend`): every engine, the
fault harness and the governor must not be able to tell them apart.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, parse_program
from repro.engine import evaluate, get_engine
from repro.engine.incremental import MaterializedView
from repro.engine.joins import delta_variant_positions
from repro.engine.seminaive import seminaive_fixpoint
from repro.errors import ValidationError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom
from repro.lang.serialize import database_from_json
from repro.lang.terms import Constant
from repro.resilience import (
    EvaluationSession,
    EvaluationStatus,
    FaultPlan,
    ResourceGovernor,
    RetryPolicy,
)
from repro.resilience.faults import FaultyDatabase
from repro.testing import reference_fixpoint
from repro.workloads import programs
from repro.workloads.suites import SUITES

from .legacy import columnar_document, on_backend

BACKENDS = ("rows", "columnar")


def atom_set(db: Database) -> frozenset[Atom]:
    return frozenset(db.atoms())


def legacy_load(document: dict) -> Database:
    return database_from_json(json.dumps(document))


# ---------------------------------------------------------------------------
# Legacy symbol lists
# ---------------------------------------------------------------------------


class TestSymbolTable:
    def test_intern_is_idempotent_and_dense(self):
        """Index *i* names ``symbols[i]``, and every use of one index
        decodes to the one hash-consed term."""
        db = legacy_load({
            "format": 2,
            "backend": "columnar",
            "symbols": [{"str": "a"}, {"int": 7}],
            "facts": {"A": [[0, 1], [0, 0]]},
        })
        assert db == Database.from_facts({"A": [("a", 7), ("a", "a")]})
        rows = list(db.tuples("A"))
        assert all(row[0] is Constant("a") for row in rows)

    def test_decode_inverts_intern(self):
        db = Database.from_facts({"A": [("x", 1), (1, "y")], "B": [("y",)]})
        document = columnar_document(db)
        assert len(document["symbols"]) == 3
        assert legacy_load(document) == db

    def test_variables_are_rejected(self):
        document = {
            "format": 2,
            "backend": "columnar",
            "symbols": [{"int": 1}, {"var": "x"}],
            "facts": {"A": [[0, 1]]},
        }
        with pytest.raises(ValidationError):
            legacy_load(document)


class TestColumnarRelation:
    def test_add_discard_and_views(self):
        """A legacy-loaded database is the one store: it takes inserts
        and deletes, and its index buckets follow them."""
        db = legacy_load(columnar_document(Database.from_facts({"A": [(1, 2)]})))
        assert db.add(parse_atom("A(1, 3)"))
        assert not db.add(parse_atom("A(1, 3)"))
        one = Constant(1)
        assert set(db.candidates("A", {0: one})) == {(one, Constant(2)), (one, Constant(3))}
        assert db.discard(parse_atom("A(1, 2)"))
        assert set(db.candidates("A", {0: one})) == {(one, Constant(3))}
        assert not db.discard(parse_atom("A(9, 9)"))


# ---------------------------------------------------------------------------
# The legacy backend name
# ---------------------------------------------------------------------------


class TestBackendContract:
    def test_constructor_dispatch(self):
        for name in (None, "rows", "columnar"):
            assert type(Database(backend=name)) is Database
        assert Database([parse_atom("A(1)")], backend="columnar") == Database.from_facts({"A": [(1,)]})
        for name in ("x", "parquet", "Rows", ""):
            with pytest.raises(ValueError):
                Database(backend=name)

    def test_copy_and_empty_like_preserve_backend(self):
        for backend in BACKENDS:
            db = on_backend(Database.from_facts({"A": [(1, 2)]}), backend)
            assert type(db.copy()) is Database
            assert type(db.empty_like()) is Database
            assert len(db.empty_like()) == 0
            assert atom_set(db.copy()) == atom_set(db)

    def test_contains_and_candidates_agree_across_backends(self):
        facts = {"A": [(1, 2), (2, 3), (1, 4)], "B": [("x", 1)]}
        rows = Database.from_facts(facts)
        cols = on_backend(rows, "columnar")
        for atom in rows.atoms():
            assert atom in cols
        assert parse_atom("A(9, 9)") not in cols
        for value in (1, 2, 9):
            bound = {0: Constant(value)}
            assert set(cols.candidates("A", bound)) == set(rows.candidates("A", bound))

    def test_update_across_backends_decodes(self):
        cols = on_backend(Database.from_facts({"A": [(1, 2)]}), "columnar")
        rows = Database.from_facts({"A": [(2, 3)]})
        assert rows.update(cols) == 1
        assert atom_set(rows) == atom_set(Database.from_facts({"A": [(1, 2), (2, 3)]}))


# ---------------------------------------------------------------------------
# Differential: every suite, every applicable engine, plain == legacy-loaded
# ---------------------------------------------------------------------------

_SIZE = 8


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_fixpoint_engines_agree_across_backends(suite):
    workload = SUITES[suite]()
    reference = None
    for backend in BACKENDS:
        edb = on_backend(workload.edb(_SIZE), backend)
        for engine in ("naive", "seminaive"):
            result = evaluate(workload.program, edb, engine=engine)
            answers = atom_set(result.database)
            if reference is None:
                reference = answers
            assert answers == reference, f"{suite}/{engine}/{backend} diverged"


@pytest.mark.parametrize("suite", ["magic-tc"])
def test_query_engines_agree_across_backends(suite):
    workload = SUITES[suite]()
    reference = None
    for backend in BACKENDS:
        edb = on_backend(workload.edb(_SIZE), backend)
        for engine in ("magic", "supplementary", "topdown"):
            answers, _ = get_engine(engine).answer(workload.program, edb, workload.query)
            got = atom_set(answers)
            if reference is None:
                reference = got
            assert got == reference, f"{suite}/{engine}/{backend} diverged"


@pytest.mark.parametrize("suite", ["tc+2atoms/chain", "same-generation"])
def test_incremental_round_trip_agrees_across_backends(suite):
    workload = SUITES[suite]()
    outcomes = []
    for backend in BACKENDS:
        edb = workload.edb(_SIZE)
        atoms = sorted(edb.atoms(), key=lambda a: a.sort_key())
        holdout, base = atoms[-3:], atoms[:-3]
        view = MaterializedView(workload.program, on_backend(Database(base), backend))
        view.insert_all(holdout)
        after_insert = atom_set(view.database)
        stats = view.delete_all(holdout)
        outcomes.append((after_insert, atom_set(view.database),
                         stats.overdeleted, stats.rederived, stats.deleted))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Fault injection: the seams fire identically on a legacy-loaded database
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_faults_retry_to_the_clean_fixpoint(seed, backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = on_backend(workload.edb(_SIZE), backend)
    clean = atom_set(evaluate(workload.program, edb, engine="seminaive").database)
    session = EvaluationSession(
        workload.program,
        edb,
        engine="seminaive",
        fault_plan=FaultPlan.seeded(seed, horizon=200),
        retry_policy=RetryPolicy(max_retries=8),
    )
    result = session.run()
    assert atom_set(result.database) == clean


@pytest.mark.parametrize("backend", BACKENDS)
def test_explicit_faults_fire_identically_on_both_backends(backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = on_backend(workload.edb(_SIZE), backend)
    clean = atom_set(evaluate(workload.program, edb, engine="seminaive").database)
    plan = FaultPlan.transient_at("candidates", [1, 5, 9])
    session = EvaluationSession(
        workload.program, edb, engine="seminaive", fault_plan=plan
    )
    result = session.run()
    assert atom_set(result.database) == clean
    assert result.faults_seen == 3
    assert result.attempts > 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_wrapping_preserves_backend(backend):
    db = on_backend(Database.from_facts({"A": [(1, 2)]}), backend)
    wrapped = FaultPlan().wrap(db)
    assert type(wrapped) is FaultyDatabase
    assert type(wrapped.empty_like()) is FaultyDatabase
    assert type(wrapped.copy()) is FaultyDatabase
    assert atom_set(wrapped.copy()) == atom_set(db)


# ---------------------------------------------------------------------------
# Governed budgets: PARTIAL results stay sound subsets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_memory_cap_degrades_to_sound_subset(backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = on_backend(workload.edb(16), backend)
    full = atom_set(evaluate(workload.program, edb, engine="seminaive").database)
    governor = ResourceGovernor(max_memory_bytes=1)
    result = evaluate(workload.program, edb, engine="seminaive", governor=governor)
    assert result.status is EvaluationStatus.PARTIAL
    assert atom_set(result.database) <= full


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_facts_cap_degrades_to_sound_subset(backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = on_backend(workload.edb(16), backend)
    full = atom_set(evaluate(workload.program, edb, engine="seminaive").database)
    governor = ResourceGovernor(max_facts=10)
    result = evaluate(workload.program, edb, engine="seminaive", governor=governor)
    assert result.status is EvaluationStatus.PARTIAL
    assert atom_set(result.database) <= full


# ---------------------------------------------------------------------------
# Semi-naive delta-variant dedup (redundant-atom symmetry)
# ---------------------------------------------------------------------------


class TestDeltaVariantPositions:
    def test_symmetric_private_copies_collapse(self):
        rule = programs.tc_with_redundant_atoms(2).rules[1]
        # body: G(x,y), G(y,z), G(x,s1), G(x,s2) -- s1/s2 are private,
        # so the s2 literal is a renaming of the s1 literal.
        assert delta_variant_positions(rule.head, rule.body) == (0, 1, 2)

    def test_distinct_literals_all_kept(self):
        rule = programs.tc_nonlinear().rules[1]
        assert delta_variant_positions(rule.head, rule.body) == (0, 1)

    def test_shared_variables_prevent_collapse(self):
        program = parse_program("H(x) :- A(x, y), A(x, y).")
        rule = program.rules[0]
        # y occurs twice, so neither literal is private -- the two
        # identical literals share a signature and still collapse.
        assert delta_variant_positions(rule.head, rule.body) == (0,)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dedup_changes_no_answers_and_no_firings(self, backend):
        workload = SUITES["tc+4atoms/chain"]()
        edb = on_backend(workload.edb(_SIZE), backend)
        compiled = seminaive_fixpoint(workload.program, edb)
        reference = reference_fixpoint(workload.program, edb)
        naive = evaluate(workload.program, edb, engine="naive")
        assert atom_set(compiled.database) == atom_set(naive.database)
        assert atom_set(reference) == atom_set(naive.database)


# ---------------------------------------------------------------------------
# Property tests: legacy documents decode to what was written
# ---------------------------------------------------------------------------

ground_terms = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31).map(Constant),
    st.text(min_size=0, max_size=12).map(Constant),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(ground_terms, min_size=1, max_size=30))
def test_intern_decode_round_trip(terms):
    db = Database(Atom("P", (t,)) for t in terms)
    loaded = legacy_load(columnar_document(db))
    decoded = {row[0] for row in loaded.tuples("P")}
    assert decoded == set(terms)
    # Hash-consing: each decoded symbol is the very term written.
    written = {t: t for t in terms}
    assert all(t is written[t] for t in decoded)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=40))
def test_columnar_database_round_trips_facts(pairs):
    rows = Database.from_facts({"A": pairs})
    cols = on_backend(rows, "columnar")
    assert atom_set(cols) == atom_set(rows)
    assert len(cols) == len(rows)
    for atom in rows.atoms():
        assert atom in cols
