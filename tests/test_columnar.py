"""Columnar backend: storage contract, differential equivalence, units.

The storage contract (``docs/STORAGE.md``) promises that the two
backends are observationally identical through the five seams --
``candidates`` / ``_add_row`` / ``__contains__`` / ``empty_like`` /
``copy`` -- so every engine must compute the same answers on either.
This module checks that promise three ways:

* **unit** tests of :class:`SymbolTable` / :class:`ColumnarRelation`
  and the int/Term representation convention;
* **differential** sweeps: every workload suite under every applicable
  engine, rows vs columnar, including under seeded fault injection and
  under governed memory budgets (where both backends must degrade to
  the same *kind* of sound PARTIAL answer);
* **property** tests (hypothesis): intern -> decode round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, parse_program
from repro.data.columnar import ColumnarDatabase, ColumnarRelation, SymbolTable
from repro.engine import evaluate, get_engine
from repro.engine.costs import collect_statistics
from repro.engine.incremental import MaterializedView
from repro.engine.joins import delta_variant_positions
from repro.engine.seminaive import seminaive_fixpoint
from repro.errors import GroundnessError
from repro.lang.atoms import Atom
from repro.lang.parser import parse_atom
from repro.lang.terms import Constant, Variable
from repro.resilience import (
    EvaluationSession,
    EvaluationStatus,
    FaultPlan,
    ResourceGovernor,
    RetryPolicy,
)
from repro.workloads import programs
from repro.workloads.suites import SUITES

BACKENDS = ("rows", "columnar")


def atom_set(db: Database) -> frozenset[Atom]:
    return frozenset(db.atoms())


# ---------------------------------------------------------------------------
# SymbolTable / ColumnarRelation units
# ---------------------------------------------------------------------------


class TestSymbolTable:
    def test_intern_is_idempotent_and_dense(self):
        table = SymbolTable()
        a, b = Constant("a"), Constant(7)
        assert table.intern(a) == 0
        assert table.intern(b) == 1
        assert table.intern(a) == 0
        assert len(table) == 2

    def test_decode_inverts_intern(self):
        table = SymbolTable()
        terms = [Constant("x"), Constant(1), Constant("y")]
        idents = [table.intern(t) for t in terms]
        assert [table.decode(i) for i in idents] == terms

    def test_lookup_does_not_allocate(self):
        table = SymbolTable()
        assert table.lookup(Constant("never-seen")) is None
        assert len(table) == 0

    def test_variables_are_rejected(self):
        table = SymbolTable()
        with pytest.raises(GroundnessError):
            table.intern(Variable("x"))

    def test_reset_installs_a_fresh_process_table(self, monkeypatch):
        from repro.data import columnar

        old = columnar.symbol_table()
        # Registers the undo: later tests get the old process table back.
        monkeypatch.setattr(columnar, "_GLOBAL_TABLE", old)
        old.intern(Constant("interned-before-reset"))
        fresh = columnar.reset_symbol_table()
        assert fresh is columnar.symbol_table() and fresh is not old
        assert len(fresh) == 0
        assert ColumnarDatabase()._table is fresh


class TestColumnarRelation:
    def test_add_discard_and_views(self):
        rel = ColumnarRelation(2)
        assert rel.add((1, 2))
        assert not rel.add((1, 2))
        assert rel.add((1, 3))
        assert rel.bucket(0, 1) == {(1, 2), (1, 3)}
        assert rel.discard((1, 2))
        assert rel.bucket(0, 1) == {(1, 3)}
        assert not rel.discard((9, 9))

    def test_copy_compacts_stale_log_entries(self):
        rel = ColumnarRelation(2)
        rel.add((1, 2))
        rel.add((3, 4))
        rel.discard((1, 2))
        assert rel.appended == 2  # stale (1, 2) still logged
        compacted = rel.copy()
        assert compacted.appended == len(compacted.rows) == 1
        assert list(compacted.columns[0]) == [3]

    def test_approximate_bytes_tracks_columns(self):
        rel = ColumnarRelation(2)
        for i in range(10):
            rel.add((i, i + 1))
        assert rel.approximate_bytes() == 10 * 2 * 8 + 10 * 24


# ---------------------------------------------------------------------------
# Backend dispatch and the five seams
# ---------------------------------------------------------------------------


class TestBackendContract:
    def test_constructor_dispatch(self):
        assert isinstance(Database(backend="columnar"), ColumnarDatabase)
        assert Database(backend="rows").backend == "rows"
        assert Database().backend == "rows"
        with pytest.raises(ValueError):
            Database(backend="parquet")

    def test_copy_and_empty_like_preserve_backend(self):
        for backend in BACKENDS:
            db = Database.from_facts({"A": [(1, 2)]})
            db = Database(db.atoms(), backend=backend)
            assert db.copy().backend == backend
            assert db.empty_like().backend == backend
            assert len(db.empty_like()) == 0
            assert atom_set(db.copy()) == atom_set(db)

    def test_contains_and_candidates_agree_across_backends(self):
        facts = {"A": [(1, 2), (2, 3), (1, 4)], "B": [("x", 1)]}
        rows = Database.from_facts(facts)
        cols = Database(rows.atoms(), backend="columnar")
        for atom in rows.atoms():
            assert atom in cols
        assert parse_atom("A(9, 9)") not in cols
        # candidates returns rows in storage representation; decoded
        # they must match the row backend's view.
        bound_term = cols.adapt_atom(parse_atom("A(1, 2)")).args[0]
        decoded = {cols.decode_row(r) for r in cols.candidates("A", {0: bound_term})}
        assert decoded == {r for r in rows.candidates("A", {0: Constant(1)})}

    def test_candidates_accepts_encoded_ints(self):
        cols = Database(Database.from_facts({"A": [(1, 2), (3, 4)]}).atoms(),
                        backend="columnar")
        encoded = cols.store_term(Constant(1))
        assert isinstance(encoded, int)
        hits = list(cols.candidates("A", {0: encoded}))
        assert len(hits) == 1

    def test_update_across_backends_decodes(self):
        cols = Database(Database.from_facts({"A": [(1, 2)]}).atoms(), backend="columnar")
        rows = Database()
        rows.update(cols)
        assert atom_set(rows) == atom_set(cols)

    def test_approximate_bytes_separates_backends(self):
        atoms = list(Database.from_facts({"A": [(i, i + 1) for i in range(100)]}).atoms())
        rows = Database(atoms, backend="rows")
        cols = Database(atoms, backend="columnar")
        assert cols.approximate_bytes() < rows.approximate_bytes()


# ---------------------------------------------------------------------------
# Differential: every suite, every applicable engine, rows == columnar
# ---------------------------------------------------------------------------

_SIZE = 8


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_fixpoint_engines_agree_across_backends(suite):
    workload = SUITES[suite]()
    reference = None
    for backend in BACKENDS:
        edb = workload.edb(_SIZE, backend=backend)
        assert edb.backend == backend
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
        edb = workload.edb(_SIZE, backend=backend)
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
        edb = workload.edb(_SIZE, backend=backend)
        atoms = sorted(edb.atoms(), key=lambda a: a.sort_key())
        holdout, base = atoms[-3:], atoms[:-3]
        view = MaterializedView(workload.program, Database(base, backend=backend))
        view.insert_all(holdout)
        after_insert = atom_set(view.database)
        stats = view.delete_all(holdout)
        outcomes.append((after_insert, atom_set(view.database),
                         stats.overdeleted, stats.rederived, stats.deleted))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# Fault injection: the seams fire identically on either backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("backend", BACKENDS)
def test_seeded_faults_retry_to_the_clean_fixpoint(seed, backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = workload.edb(_SIZE, backend=backend)
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
    edb = workload.edb(_SIZE, backend=backend)
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
    db = Database(Database.from_facts({"A": [(1, 2)]}).atoms(), backend=backend)
    wrapped = FaultPlan().wrap(db)
    assert wrapped.backend == backend
    assert wrapped.empty_like().backend == backend
    assert wrapped.copy().backend == backend


# ---------------------------------------------------------------------------
# Governed budgets: PARTIAL results stay sound subsets on both backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_memory_cap_degrades_to_sound_subset(backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = workload.edb(16, backend=backend)
    full = atom_set(evaluate(workload.program, edb, engine="seminaive").database)
    governor = ResourceGovernor(max_memory_bytes=1)
    result = evaluate(workload.program, edb, engine="seminaive", governor=governor)
    assert result.status is EvaluationStatus.PARTIAL
    assert atom_set(result.database) <= full


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_facts_cap_degrades_to_sound_subset(backend):
    workload = SUITES["tc+2atoms/chain"]()
    edb = workload.edb(16, backend=backend)
    full = atom_set(evaluate(workload.program, edb, engine="seminaive").database)
    governor = ResourceGovernor(max_facts=10)
    result = evaluate(workload.program, edb, engine="seminaive", governor=governor)
    assert result.status is EvaluationStatus.PARTIAL
    assert atom_set(result.database) <= full


def test_columnar_fits_where_rows_trips():
    """The storage-footprint split at a CI-sized scale: a cap between
    the two backends' footprints."""
    workload = SUITES["reach/random"]()
    sizes = {}
    for backend in BACKENDS:
        edb = workload.edb(20_000, backend=backend)
        sizes[backend] = edb.approximate_bytes()
    assert sizes["columnar"] < sizes["rows"]
    cap = (sizes["columnar"] + sizes["rows"]) // 2
    outcomes = {}
    for backend in BACKENDS:
        edb = workload.edb(20_000, backend=backend)
        result = evaluate(
            workload.program, edb, engine="seminaive",
            governor=ResourceGovernor(max_memory_bytes=cap),
        )
        outcomes[backend] = result.status
    assert outcomes["columnar"] is EvaluationStatus.COMPLETE
    assert outcomes["rows"] is EvaluationStatus.PARTIAL


# ---------------------------------------------------------------------------
# Cost model: interned-domain selectivity guard
# ---------------------------------------------------------------------------


def test_costs_use_interned_domain_on_columnar():
    atoms = list(Database.from_facts({"A": [(i, i % 3) for i in range(30)]}).atoms())
    cols = Database(atoms, backend="columnar")
    stats = collect_statistics(cols)
    assert stats["A"].domain == cols.symbol_cardinality() > 0
    # Distinct-count selectivity still wins where it exists; the domain
    # is the fallback for unseen positions, never a division by zero.
    assert 0 < stats["A"].selectivity(1) <= 1


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
        edb = workload.edb(_SIZE, backend=backend)
        compiled = seminaive_fixpoint(workload.program, edb)
        reference = seminaive_fixpoint(workload.program, edb, use_compiled=False)
        naive = evaluate(workload.program, edb, engine="naive")
        assert atom_set(compiled.database) == atom_set(naive.database)
        assert atom_set(reference.database) == atom_set(naive.database)


# ---------------------------------------------------------------------------
# Property tests: intern -> decode round-trips
# ---------------------------------------------------------------------------

ground_terms = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31).map(Constant),
    st.text(min_size=0, max_size=12).map(Constant),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(ground_terms, min_size=1, max_size=30))
def test_intern_decode_round_trip(terms):
    table = SymbolTable()
    idents = [table.intern(t) for t in terms]
    assert [table.decode(i) for i in idents] == terms
    # Idempotence: re-interning allocates nothing new.
    assert [table.intern(t) for t in terms] == idents


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                min_size=1, max_size=40))
def test_columnar_database_round_trips_facts(pairs):
    rows = Database.from_facts({"A": pairs})
    cols = Database(rows.atoms(), backend="columnar")
    assert atom_set(cols) == atom_set(rows)
    assert len(cols) == len(rows)
    for atom in rows.atoms():
        assert atom in cols
