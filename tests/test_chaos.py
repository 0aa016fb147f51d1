"""Chaos drills: seeded fault sweeps across every session-drivable engine.

Three invariants, checked over a matrix of engines and fault seeds:

1. **Typed failures only** -- under injection, an evaluation either
   succeeds or raises one of the resilience layer's typed exceptions
   (:class:`TransientStorageError`, :class:`ResourceLimitExceeded`);
   nothing else escapes, and no corrupt result is returned silently.
2. **Soundness of whatever completes** -- a run that does complete
   (possibly after retries) equals the unfaulted fixpoint, and a
   governed PARTIAL result is a subset of it (monotonicity).
3. **Bounded time** -- a deadline-governed run never outlives its
   budget by more than the per-attempt bound documented on
   :class:`EvaluationSession`.

A fourth invariant rides the ``crash`` seam
(:class:`TestCrashRecoverySweep`): an evaluation killed mid-round at a
seeded checkpoint-write stage is resumed from the latest durable
generation and converges to the **bitwise-identical** final database --
across every fixpoint engine, on an input read from a legacy columnar
document too, and with the latest generation deliberately corrupted
(checksum fallback).

A fifth covers incremental maintenance
(:class:`TestViewMaintenanceChaos`): on a fault-wrapped
``MaterializedView``, each insert/delete batch either equals
recomputation or fails typed and leaves the view and its base
untouched, on a base read from a legacy columnar document too.

Every schedule is derived from a seed, so any failure here replays
bit-for-bit from the parameters in the test id.
"""

from __future__ import annotations

import random
import time

import pytest

from repro import Database, parse_atom, parse_program
from repro.engine import evaluate, get_engine
from repro.engine.incremental import MaterializedView
from repro.errors import ResourceLimitExceeded, SimulatedCrash, TransientStorageError
from repro.lang.serialize import database_to_json
from repro.resilience import (
    CheckpointManager,
    EvaluationSession,
    EvaluationStatus,
    FaultPlan,
    ResourceGovernor,
    RetryPolicy,
    corrupt_checkpoint,
)

from .legacy import on_backend

TC = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- E(x, y), T(y, z).
    """
)
QUERY = parse_atom("T(0, x)")
SESSION_ENGINES = ("naive", "seminaive", "stratified", "magic", "supplementary", "topdown")
SEEDS = (1, 2, 3)


def chain(n: int) -> Database:
    return Database.from_facts({"E": [(i, i + 1) for i in range(n)]})


def _session(engine: str, **kwargs) -> EvaluationSession:
    query = QUERY if get_engine(engine).kind == "query" else None
    return EvaluationSession(TC, chain(12), engine=engine, query=query, **kwargs)


def _clean_result(engine: str) -> set:
    session = _session(engine)
    return set(session.run().database.atoms())


@pytest.mark.parametrize("engine", SESSION_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestFaultSweep:
    def test_typed_exceptions_and_sound_results(self, engine, seed):
        clean = _clean_result(engine)
        plan = FaultPlan.seeded(
            seed=seed,
            operations=("candidates", "add", "contains"),
            faults_per_operation=3,
            horizon=400,
        )
        session = _session(
            engine, fault_plan=plan, retry_policy=RetryPolicy(max_retries=2)
        )
        try:
            result = session.run()
        except TransientStorageError:
            return  # retries exhausted: the typed error is the contract
        assert result.status is EvaluationStatus.COMPLETE
        assert set(result.database.atoms()) == clean

    def test_enough_retries_always_complete(self, engine, seed):
        clean = _clean_result(engine)
        plan = FaultPlan.seeded(
            seed=seed,
            operations=("candidates", "add"),
            faults_per_operation=2,
            horizon=300,
        )
        # 4 one-shot faults total; 8 retries always outlast them.
        result = _session(
            engine, fault_plan=plan, retry_policy=RetryPolicy(max_retries=8)
        ).run()
        assert result.status is EvaluationStatus.COMPLETE
        assert set(result.database.atoms()) == clean
        assert result.attempts <= 1 + plan.injected


@pytest.mark.parametrize("engine", SESSION_ENGINES)
class TestGovernedDegradation:
    def test_partial_is_subset_of_unfaulted_fixpoint(self, engine):
        clean = _clean_result(engine)
        governor = ResourceGovernor(max_facts=15)
        result = _session(engine, governor=governor).run()
        assert result.status in (EvaluationStatus.PARTIAL, EvaluationStatus.COMPLETE)
        assert set(result.database.atoms()) <= clean
        if result.status is EvaluationStatus.PARTIAL:
            assert result.degradation is not None
            assert result.degradation.limit == "max_facts"

    def test_no_hang_past_deadline(self, engine):
        deadline = 0.05
        governor = ResourceGovernor(deadline_s=deadline, check_stride=1)
        started = time.perf_counter()
        result = _session(engine, governor=governor).run()
        elapsed = time.perf_counter() - started
        # One attempt, no retries: generous 20x slack absorbs slow CI.
        assert elapsed < deadline * 20 + 1.0
        assert result.status in (EvaluationStatus.PARTIAL, EvaluationStatus.COMPLETE)


class TestFaultsComposeWithGovernance:
    def test_latency_faults_trip_the_deadline(self):
        plan = FaultPlan.transient_at("candidates", [1, 2, 3], latency_s=0.05)
        governor = ResourceGovernor(deadline_s=0.01, check_stride=1)
        result = EvaluationSession(
            TC, chain(12), governor=governor, fault_plan=plan
        ).run()
        assert result.status is EvaluationStatus.PARTIAL
        assert result.degradation.limit == "deadline"

    def test_governor_resets_per_attempt(self):
        plan = FaultPlan.transient_at("add", [4])
        governor = ResourceGovernor(max_facts=5_000)
        result = EvaluationSession(
            TC,
            chain(10),
            governor=governor,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=3),
        ).run()
        assert result.status is EvaluationStatus.COMPLETE
        assert result.attempts == 2

    def test_partial_under_faults_still_subset(self):
        clean = set(evaluate(TC, chain(12)).database.atoms())
        plan = FaultPlan.seeded(seed=9, faults_per_operation=2, horizon=200)
        governor = ResourceGovernor(max_facts=12)
        session = EvaluationSession(
            TC,
            chain(12),
            governor=governor,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=6),
        )
        result = session.run()
        assert set(result.database.atoms()) <= clean


FIXPOINT_ENGINES = ("naive", "seminaive", "stratified")
#: ``columnar``: the input is read back from its legacy columnar document.
BACKENDS = ("rows", "columnar")


def backend_chain(n: int, backend: str) -> Database:
    return on_backend(Database.from_facts({"E": [(i, i + 1) for i in range(n)]}), backend)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("engine", FIXPOINT_ENGINES)
@pytest.mark.parametrize("seed", SEEDS)
class TestCrashRecoverySweep:
    """Kill mid-round at a seeded write stage; resume; demand equality.

    The crash position is drawn from the seed over the stages of
    checkpoint writes 3+, so the kill lands mid-fixpoint with at least
    two durable generations behind it -- every run is replayable from
    its test id.
    """

    def _crash_position(self, seed: int) -> int:
        # Writes 1..2 occupy crash counts 1..6; land inside writes 3..6.
        return random.Random(seed).randint(7, 18)

    def test_resume_equals_uninterrupted(self, tmp_path, engine, backend, seed):
        baseline = database_to_json(
            evaluate(TC, backend_chain(12, backend), engine=engine).database
        )
        path = tmp_path / "ck.json"
        plan = FaultPlan.crash_at([self._crash_position(seed)])
        crashed = EvaluationSession(
            TC,
            backend_chain(12, backend),
            engine=engine,
            checkpoint_manager=CheckpointManager(path, fault_plan=plan),
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        recovered = EvaluationSession(
            TC,
            backend_chain(12, backend),
            engine=engine,
            checkpoint_manager=CheckpointManager(path),
        )
        result = recovered.run()
        assert result.status is EvaluationStatus.COMPLETE
        assert database_to_json(result.database) == baseline

    def test_corrupt_latest_generation_still_recovers(
        self, tmp_path, engine, backend, seed
    ):
        baseline = database_to_json(
            evaluate(TC, backend_chain(12, backend), engine=engine).database
        )
        path = tmp_path / "ck.json"
        plan = FaultPlan.crash_at([self._crash_position(seed)])
        with pytest.raises(SimulatedCrash):
            EvaluationSession(
                TC,
                backend_chain(12, backend),
                engine=engine,
                checkpoint_manager=CheckpointManager(path, fault_plan=plan),
            ).run()
        # Flip a payload byte in the surviving latest generation: the
        # checksum must reject it and recovery fall back to .prev.
        corrupt_checkpoint(path, mode="flip")
        result = EvaluationSession(
            TC,
            backend_chain(12, backend),
            engine=engine,
            checkpoint_manager=CheckpointManager(path),
        ).run()
        assert result.status is EvaluationStatus.COMPLETE
        assert database_to_json(result.database) == baseline


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
class TestViewMaintenanceChaos:
    """A fifth invariant, on a maintained view: under a seeded fault
    plan every insert/delete batch either completes and equals
    recomputation, or raises a typed error and leaves the view and its
    base exactly as they were (the batch is then retried)."""

    def test_each_batch_is_exact_or_leaves_no_trace(self, backend, seed):
        rng = random.Random(seed)
        edb = Database()
        for _ in range(14):  # 14 random edges on 8 nodes: cycles included
            edb.add_fact("E", rng.randrange(8), rng.randrange(8))
        edb = on_backend(edb, backend)
        plan = FaultPlan.seeded(
            seed=seed,
            operations=("candidates", "add", "contains"),
            faults_per_operation=3,
            horizon=400,
        )
        while True:  # a fault in the build leaves no view to maintain
            try:
                view = MaterializedView(TC, plan.wrap(edb))
                break
            except TransientStorageError:
                pass
        given = set(edb.atoms())
        failures = 0
        for _ in range(12):
            if given and rng.random() < 0.5:
                kind = "delete"
                batch = rng.sample(sorted(given, key=str), min(len(given), rng.randint(1, 3)))
            else:
                kind = "insert"
                batch = [
                    parse_atom(f"E({rng.randrange(8)}, {rng.randrange(8)})")
                    for _ in range(rng.randint(1, 3))
                ]
            run = view.insert_all if kind == "insert" else view.delete_all
            while True:
                before = (set(view.database.atoms()), set(view._base.atoms()))
                try:
                    run(batch)
                    break
                except TransientStorageError:
                    failures += 1
                    assert (set(view.database.atoms()), set(view._base.atoms())) == before
            given = given | set(batch) if kind == "insert" else given - set(batch)
            expected = evaluate(TC, Database(given)).database
            assert set(view.database.atoms()) == set(expected.atoms())
        assert failures, "no fault reached the maintenance script"
