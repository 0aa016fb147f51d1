"""Unit tests for the resilience layer: governor, faults, sessions, registry."""

from __future__ import annotations

import pytest

from repro import Database, parse_atom, parse_program
from repro.engine import engine_names, evaluate, get_engine
from repro.engine.incremental import MaterializedView
from repro.errors import ResourceLimitExceeded, TransientStorageError
from repro.resilience import (
    CancellationToken,
    DegradationReport,
    EvaluationSession,
    EvaluationStatus,
    FaultPlan,
    FaultyDatabase,
    InjectedFault,
    ResourceGovernor,
    RetryPolicy,
)

TC = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- E(x, y), T(y, z).
    """
)


def chain(n: int) -> Database:
    return Database.from_facts({"E": [(i, i + 1) for i in range(n)]})


class TestEngineRegistry:
    def test_all_engines_registered(self):
        assert set(engine_names("fixpoint")) == {"naive", "seminaive", "stratified"}
        assert set(engine_names("query")) == {"magic", "supplementary", "topdown"}
        assert set(engine_names("maintenance")) == {"incremental"}

    def test_unknown_engine_error_names_known(self):
        with pytest.raises(ValueError, match="seminaive"):
            get_engine("bogus")

    def test_evaluate_rejects_non_fixpoint_engine(self):
        with pytest.raises(ValueError, match="query"):
            evaluate(TC, chain(3), engine="magic")

    def test_specs_are_callable(self):
        spec = get_engine("seminaive")
        result = spec.run(TC, chain(3))
        assert result.database.count("T") == 6


class TestGovernorLimits:
    def test_ungoverned_run_is_complete(self):
        result = evaluate(TC, chain(10))
        assert result.status is EvaluationStatus.COMPLETE
        assert result.degradation is None
        assert not result.is_partial

    def test_max_facts_yields_sound_partial(self):
        full = evaluate(TC, chain(40)).database
        governor = ResourceGovernor(max_facts=50)
        result = evaluate(TC, chain(40), governor=governor)
        assert result.status is EvaluationStatus.PARTIAL
        assert result.degradation.limit == "max_facts"
        partial_atoms = set(result.database.atoms())
        assert partial_atoms < set(full.atoms())

    def test_max_rounds_reports_location(self):
        result = evaluate(
            TC, chain(30), governor=ResourceGovernor(max_rounds=3), engine="naive"
        )
        assert result.is_partial
        report = result.degradation
        assert report.limit == "max_rounds"
        assert report.engine == "naive"
        assert "max_rounds" in report.summary()

    def test_deadline_trips(self):
        governor = ResourceGovernor(deadline_s=0.0, check_stride=1)
        result = evaluate(TC, chain(60), governor=governor)
        assert result.is_partial
        assert result.degradation.limit == "deadline"

    def test_memory_cap_trips_at_round_boundary(self):
        governor = ResourceGovernor(max_memory_bytes=1)
        result = evaluate(TC, chain(20), governor=governor)
        assert result.is_partial
        assert result.degradation.limit == "max_memory"

    def test_on_limit_raise(self):
        governor = ResourceGovernor(max_facts=5)
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            evaluate(TC, chain(20), governor=governor, on_limit="raise")
        assert isinstance(excinfo.value.report, DegradationReport)

    def test_cancellation_token(self):
        token = CancellationToken()
        token.cancel()
        governor = ResourceGovernor(token=token, check_stride=1)
        result = evaluate(TC, chain(10), governor=governor)
        assert result.is_partial
        assert result.degradation.limit == "cancelled"

    def test_reset_clears_counters(self):
        governor = ResourceGovernor(max_facts=50)
        assert evaluate(TC, chain(40), governor=governor).is_partial
        governor.reset()
        complete = evaluate(TC, chain(4), governor=governor)
        assert complete.status is EvaluationStatus.COMPLETE


class TestGovernedQueryEngines:
    @pytest.mark.parametrize("method", ["magic", "supplementary", "topdown"])
    def test_partial_answers_are_subset(self, method):
        query = parse_atom("T(0, x)")
        spec = get_engine(method)
        full_answers, full = spec.answer(TC, chain(25), query)
        governor = ResourceGovernor(max_facts=20)
        answers, result = spec.answer(TC, chain(25), query, governor=governor)
        assert result.is_partial
        assert set(answers.atoms()) <= set(full_answers.atoms())

    def test_stratified_partial_is_subset(self):
        program = parse_program(
            """
            T(x, y) :- E(x, y).
            T(x, z) :- E(x, y), T(y, z).
            Iso(x) :- V(x), not Conn(x).
            Conn(x) :- T(x, y).
            """
        )
        edb = chain(20)
        for i in range(21):
            edb.add_fact("V", i)
        full = evaluate(program, edb, engine="stratified").database
        governed = evaluate(
            program,
            edb,
            engine="stratified",
            governor=ResourceGovernor(max_facts=30),
        )
        assert governed.is_partial
        assert set(governed.database.atoms()) <= set(full.atoms())


class TestIncrementalTransactionality:
    def test_build_under_tight_governor_raises(self):
        with pytest.raises(ResourceLimitExceeded):
            MaterializedView(TC, chain(20), governor=ResourceGovernor(max_facts=10))

    def test_insert_rolls_back_on_trip(self):
        view = MaterializedView(TC, chain(4), governor=ResourceGovernor(max_facts=500))
        before = set(view.database.atoms())
        view.governor.reset()
        view.governor.max_facts = 1
        with pytest.raises(ResourceLimitExceeded):
            view.insert_all([parse_atom('E(100, 101)'), parse_atom('E(101, 102)')])
        assert set(view.database.atoms()) == before

    @pytest.mark.parametrize("phase", ["_overdelete", "_rederive", "_propagate"])
    def test_delete_rolls_back_on_trip_in_each_phase(self, phase):
        # E(1, 3) shortcuts E(1, 2), E(2, 3): deleting E(2, 3) rederives
        # T(1, 3) in one step and T(0, 3) by propagation, so every phase
        # runs and reaches a governor check.
        edb = chain(6)
        edb.add_fact("E", 1, 3)
        token = CancellationToken()
        view = MaterializedView(
            TC, edb, governor=ResourceGovernor(token=token, check_stride=1)
        )
        before = (set(view.database.atoms()), set(view._base.atoms()))
        entered = []
        for name in ("_overdelete", "_rederive", "_propagate"):
            def spy(*args, _name=name, _method=getattr(view, name)):
                entered.append(_name)
                if _name == phase:
                    token.cancel()
                return _method(*args)

            setattr(view, name, spy)
        with pytest.raises(ResourceLimitExceeded) as excinfo:
            view.delete_all([parse_atom("E(2, 3)")])
        assert excinfo.value.report.limit == "cancelled"
        assert entered[-1] == phase
        assert (set(view.database.atoms()), set(view._base.atoms())) == before

    def test_governed_operations_copy_neither_view_nor_base(self, monkeypatch):
        edb = chain(6)
        edb.add_fact("E", 1, 3)
        view = MaterializedView(TC, edb, governor=ResourceGovernor(max_facts=10_000))
        copied = []
        original = Database.copy
        monkeypatch.setattr(
            Database, "copy", lambda self: copied.append(self) or original(self)
        )
        view.delete_all([parse_atom("E(2, 3)")])
        view.insert_all([parse_atom("E(2, 3)")])
        assert all(db is not view.database and db is not view._base for db in copied)


class TestFaultPlans:
    def test_invalid_operation_rejected(self):
        with pytest.raises(ValueError, match="unknown fault operation"):
            InjectedFault("explode", at=1)

    def test_positions_are_one_based(self):
        with pytest.raises(ValueError, match="1-based"):
            InjectedFault("add", at=0)

    def test_transient_fault_fires_once(self):
        plan = FaultPlan.transient_at("add", [2])
        db = plan.wrap(Database())
        db.add_fact("A", 1)
        with pytest.raises(TransientStorageError):
            db.add_fact("A", 2)
        db.add_fact("A", 2)  # consumed: same call count does not re-fire
        assert plan.injected == 1
        assert plan.pending == 0

    def test_persistent_fault_keeps_firing(self):
        plan = FaultPlan([InjectedFault("add", at=2, persistent=True)])
        db = plan.wrap(Database())
        db.add_fact("A", 1)
        for value in (2, 3):
            with pytest.raises(TransientStorageError):
                db.add_fact("A", value)

    def test_seeded_schedules_are_reproducible(self):
        a = FaultPlan.seeded(seed=11, faults_per_operation=4, horizon=100)
        b = FaultPlan.seeded(seed=11, faults_per_operation=4, horizon=100)
        c = FaultPlan.seeded(seed=12, faults_per_operation=4, horizon=100)
        assert a._onetime == b._onetime
        assert a._onetime != c._onetime

    def test_wrapped_copy_stays_faulty(self):
        plan = FaultPlan.transient_at("candidates", [1])
        copy = plan.wrap(chain(3)).copy()
        assert isinstance(copy, FaultyDatabase)
        with pytest.raises(TransientStorageError):
            list(copy.candidates("E", {}))

    def test_wrap_preserves_facts(self):
        db = chain(5)
        wrapped = FaultPlan().wrap(db)
        assert set(wrapped.atoms()) == set(db.atoms())


class TestRetryPolicy:
    def test_delays_are_deterministic(self):
        policy = RetryPolicy(max_retries=4, base_delay_s=0.5, seed=3)
        assert policy.delays() == policy.delays()

    def test_delays_grow_exponentially(self):
        delays = RetryPolicy(
            max_retries=3, base_delay_s=1.0, multiplier=2.0, jitter=0.0
        ).delays()
        assert delays == [1.0, 2.0, 4.0]

    def test_zero_base_never_sleeps(self):
        assert RetryPolicy(max_retries=5).delays() == [0.0] * 5


class TestEvaluationSession:
    def test_faultless_session_completes_first_attempt(self):
        result = EvaluationSession(TC, chain(6)).run()
        assert result.attempts == 1
        assert result.status is EvaluationStatus.COMPLETE
        assert result.database.count("T") == 21

    def test_transient_faults_are_retried_to_completion(self):
        clean = evaluate(TC, chain(10)).database
        plan = FaultPlan.transient_at("add", [5, 20])
        session = EvaluationSession(
            TC, chain(10), fault_plan=plan, retry_policy=RetryPolicy(max_retries=5)
        )
        result = session.run()
        assert result.status is EvaluationStatus.COMPLETE
        assert result.attempts == 3
        assert result.faults_seen == 2
        assert set(result.database.atoms()) == set(clean.atoms())

    def test_persistent_fault_exhausts_retries(self):
        plan = FaultPlan([InjectedFault("add", at=1, persistent=True)])
        session = EvaluationSession(
            TC, chain(5), fault_plan=plan, retry_policy=RetryPolicy(max_retries=2)
        )
        with pytest.raises(TransientStorageError):
            session.run()

    def test_query_session(self):
        result = EvaluationSession(
            TC,
            chain(8),
            engine="magic",
            query=parse_atom("T(0, x)"),
            fault_plan=FaultPlan.transient_at("candidates", [3]),
            retry_policy=RetryPolicy(max_retries=3),
        ).run()
        assert result.status is EvaluationStatus.COMPLETE
        assert len(result.database) == 8

    def test_session_on_limit_raise(self):
        session = EvaluationSession(
            TC, chain(30), governor=ResourceGovernor(max_facts=10), on_limit="raise"
        )
        with pytest.raises(ResourceLimitExceeded):
            session.run()

    def test_session_rejects_maintenance_engines(self):
        with pytest.raises(ValueError, match="maintenance"):
            EvaluationSession(TC, chain(3), engine="incremental").run()

    def test_session_requires_query_for_query_engines(self):
        with pytest.raises(ValueError, match="query atom"):
            EvaluationSession(TC, chain(3), engine="topdown").run()


class TestGovernedOptimizers:
    def test_minimize_degrades_but_stays_equivalent(self):
        from repro.core.containment import uniformly_equivalent
        from repro.core.minimize import minimize_program

        program = parse_program(
            "P(x, y) :- E(x, y), E(x, z), E(x, w).\n"
            "Q(x, y) :- E(x, y), E(y, z), E(y, w).\n"
        )
        governor = ResourceGovernor(deadline_s=0.0, check_stride=1)
        result = minimize_program(program, governor=governor)
        assert result.degradation is not None
        assert uniformly_equivalent(program, result.program)

    def test_containment_refuses_to_degrade(self):
        from repro.core.containment import uniformly_contains

        governor = ResourceGovernor(deadline_s=0.0, check_stride=1)
        with pytest.raises(ResourceLimitExceeded):
            uniformly_contains(TC, TC, governor=governor)
