"""Durable checkpoints: write discipline, recovery, and resumed fixpoints.

The contract under test (see ``repro.resilience.checkpoint``):

1. **Atomic writes** -- a crash at *any* stage of a checkpoint write
   (before the temp write, mid-write leaving a torn temp file, after
   fsync but before the rename pair) leaves at least one loadable,
   checksum-valid generation.
2. **Corruption detection** -- a flipped byte is rejected by the
   SHA-256 checksum, a truncated file by the JSON parse; recovery skips
   the damaged generation and falls back to the previous one.
3. **Resume equivalence** -- continuing an interrupted fixpoint from a
   checkpoint converges to exactly the uninterrupted model (bitwise on
   the canonical serialization), for every generation and every
   fixpoint engine, also from files as versions with a ``columnar``
   storage backend wrote them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro import Database, parse_program
from repro.engine import evaluate
from repro.errors import CheckpointError, SimulatedCrash
from repro.lang.serialize import database_to_json
from repro.resilience import (
    Checkpoint,
    CheckpointManager,
    EvaluationSession,
    EvaluationStatus,
    FaultPlan,
    ResourceGovernor,
    corrupt_checkpoint,
    load_checkpoint,
    program_fingerprint,
    resume_evaluation,
)

from .legacy import HERE as LEGACY
from .legacy import columnar_checkpoint, write_sealed

TC = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- E(x, y), T(y, z).
    """
)
FIXPOINT_ENGINES = ("naive", "seminaive", "stratified")
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
#: ``columnar``: the checkpoint files are rewritten as versions with a
#: ``columnar`` storage backend wrote them before they are loaded.
BACKENDS = ("rows", "columnar")


def chain(n: int) -> Database:
    db = Database()
    for i in range(n):
        db.add_fact("E", i, i + 1)
    return db


def checkpointed_run(path, engine="seminaive", every=1, n=10):
    """Run TC to fixpoint writing checkpoints; return (manager, result)."""
    manager = CheckpointManager(path, program=TC, engine=engine, every=every)
    governor = ResourceGovernor(on_round=manager.on_round)
    result = evaluate(TC, chain(n), engine=engine, governor=governor)
    return manager, result


class TestCheckpointFile:
    def test_write_load_roundtrip(self, tmp_path):
        path = tmp_path / "ck.json"
        manager, result = checkpointed_run(path)
        loaded = load_checkpoint(path)
        assert loaded.engine == "seminaive"
        assert json.loads(path.read_text())["payload"]["backend"] == "rows"
        assert loaded.round is not None and loaded.round >= 2
        assert loaded.fingerprint == program_fingerprint(TC)
        assert loaded.delta is not None  # seminaive persists its frontier
        assert loaded.governor_state is not None
        # Whatever the last snapshot holds is a sound under-approximation.
        assert set(loaded.database.atoms()) <= set(result.database.atoms())

    def test_legacy_columnar_file_loads_as_its_rows_twin(self):
        """A file written on the removed ``columnar`` backend loads onto
        the one store, equal to its ``rows`` twin, and resumes."""
        columnar = load_checkpoint(LEGACY / "checkpoint_columnar.json")
        rows = load_checkpoint(LEGACY / "checkpoint_rows.json")
        assert (columnar.engine, columnar.round) == (rows.engine, rows.round) == ("seminaive", 3)
        assert columnar.fingerprint == rows.fingerprint == program_fingerprint(TC)
        assert columnar.database == rows.database and len(rows.database) == 12
        assert columnar.delta == rows.delta and len(rows.delta) > 0
        resumed = resume_evaluation(columnar, program=TC)
        assert resumed.database == evaluate(TC, chain(6)).database

    @pytest.mark.parametrize(
        "damage",
        [
            lambda payload: payload["database"]["facts"]["E"].append([0, 99]),
            lambda payload: payload["database"]["symbols"].__setitem__(0, {"var": "x"}),
            lambda payload: payload["database"].update(backend="quantum"),
            lambda payload: payload.update(backend="quantum"),
        ],
        ids=["symbol-index", "variable-symbol", "database-backend", "payload-backend"],
    )
    def test_malformed_legacy_file_is_a_checkpoint_error(self, tmp_path, damage):
        document = json.loads((LEGACY / "checkpoint_columnar.json").read_text())
        damage(document["payload"])
        path = tmp_path / "ck.json"
        write_sealed(path, document)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_generation_rotation(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path)
        current = load_checkpoint(path)
        previous = load_checkpoint(str(path) + ".prev")
        assert previous.round == current.round - 1

    def test_cadence_respected(self, tmp_path):
        path = tmp_path / "ck.json"
        manager, _ = checkpointed_run(path, every=3)
        assert load_checkpoint(path).round % 3 == 0
        every1 = CheckpointManager(tmp_path / "all.json", program=TC, engine="seminaive")
        governor = ResourceGovernor(on_round=every1.on_round)
        evaluate(TC, chain(10), governor=governor)
        assert manager.writes < every1.writes

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "absent.json")

    def test_flipped_byte_fails_checksum(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path)
        corrupt_checkpoint(path, mode="flip")
        # Still valid JSON: the checksum, not the parser, must reject it.
        json.loads(path.read_text())
        with pytest.raises(CheckpointError, match="checksum"):
            load_checkpoint(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path)
        corrupt_checkpoint(path, mode="truncate")
        with pytest.raises(CheckpointError, match="torn or truncated"):
            load_checkpoint(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"format": "repro.checkpoint/99", "payload": {}}))
        with pytest.raises(CheckpointError, match="format"):
            load_checkpoint(path)

    def test_checksum_independent_of_key_order(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path)
        document = json.loads(path.read_text())
        # Re-dump with reversed key order; the canonical checksum must
        # still verify (it is computed over sorted keys, not file bytes).
        shuffled = {k: document[k] for k in reversed(list(document))}
        path.write_text(json.dumps(shuffled, indent=2))
        assert load_checkpoint(path).round is not None


class TestAtomicWriteDiscipline:
    """A crash at every write stage leaves a valid previous generation."""

    @pytest.mark.parametrize("stage", [1, 2, 3])
    def test_crash_during_second_write_preserves_first(self, tmp_path, stage):
        path = tmp_path / "ck.json"
        # Stages are numbered per write: write 2 occupies counts 4..6.
        plan = FaultPlan.crash_at([3 + stage])
        manager = CheckpointManager(
            path, program=TC, engine="seminaive", fault_plan=plan
        )
        governor = ResourceGovernor(on_round=manager.on_round)
        with pytest.raises(SimulatedCrash):
            evaluate(TC, chain(10), governor=governor)
        assert manager.writes == 1
        survivor = load_checkpoint(path)  # first write, untouched
        assert survivor.round == 2
        recovered = manager.latest()
        assert recovered is not None and recovered.round == 2

    def test_mid_write_crash_leaves_torn_temp_only(self, tmp_path):
        path = tmp_path / "ck.json"
        plan = FaultPlan.crash_at([5])  # stage 2 of write 2: torn temp
        manager = CheckpointManager(
            path, program=TC, engine="seminaive", fault_plan=plan
        )
        governor = ResourceGovernor(on_round=manager.on_round)
        with pytest.raises(SimulatedCrash):
            evaluate(TC, chain(10), governor=governor)
        temp = str(path) + ".tmp"
        assert os.path.exists(temp)
        with pytest.raises(CheckpointError):
            load_checkpoint(temp)  # genuinely torn, not silently loadable
        assert load_checkpoint(path).round == 2

    def test_crash_between_fsync_and_rename_not_published(self, tmp_path):
        path = tmp_path / "ck.json"
        plan = FaultPlan.crash_at([6])  # stage 3 of write 2
        manager = CheckpointManager(
            path, program=TC, engine="seminaive", fault_plan=plan
        )
        governor = ResourceGovernor(on_round=manager.on_round)
        with pytest.raises(SimulatedCrash):
            evaluate(TC, chain(10), governor=governor)
        # The temp file is complete (durable even), but only the rename
        # publishes: recovery must still serve the first generation.
        assert load_checkpoint(str(path) + ".tmp").round == 3
        assert manager.latest().round == 2


class TestRecoveryFallback:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "ck.json"
        manager, _ = checkpointed_run(path)
        latest_round = load_checkpoint(path).round
        corrupt_checkpoint(path, mode="flip")
        recovered = manager.latest()
        assert recovered is not None
        assert recovered.round == latest_round - 1

    def test_truncated_latest_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "ck.json"
        manager, _ = checkpointed_run(path)
        corrupt_checkpoint(path, mode="truncate")
        assert manager.latest() is not None

    def test_undecodable_latest_falls_back_to_previous(self, tmp_path):
        # A byte >= 0x80 breaks the UTF-8 decode before JSON or the
        # checksum are reached; it is a torn write like any other.
        from repro.obs.metrics import metrics_registry

        path = tmp_path / "ck.json"
        manager, _ = checkpointed_run(path)
        previous_round = load_checkpoint(str(path) + ".prev").round
        data = bytearray(path.read_bytes())
        data[200] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
        skipped = metrics_registry().counter("checkpoint.corrupt_skipped")
        recovered = manager.latest()
        assert recovered is not None and recovered.round == previous_round
        assert metrics_registry().counter("checkpoint.corrupt_skipped") == skipped + 1

    def test_both_generations_corrupt_yields_none(self, tmp_path):
        path = tmp_path / "ck.json"
        manager, _ = checkpointed_run(path)
        corrupt_checkpoint(path, mode="flip")
        corrupt_checkpoint(str(path) + ".prev", mode="truncate")
        assert manager.latest() is None

    def test_no_files_yields_none(self, tmp_path):
        assert CheckpointManager(tmp_path / "never.json").latest() is None


class TestResumeEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("engine", FIXPOINT_ENGINES)
    def test_resume_equals_uninterrupted(self, tmp_path, engine, backend):
        baseline = database_to_json(evaluate(TC, chain(10), engine=engine).database)
        path = tmp_path / "ck.json"
        checkpointed_run(path, engine=engine)
        for generation in (path, str(path) + ".prev"):
            if backend == "columnar":
                columnar_checkpoint(generation)
            resumed = resume_evaluation(load_checkpoint(generation), program=TC)
            assert resumed.status is EvaluationStatus.COMPLETE
            assert database_to_json(resumed.database) == baseline, (
                f"{engine}/{backend} resume from {generation} diverged"
            )

    def test_resume_from_every_round(self, tmp_path):
        """Kill at round k for every k: each checkpoint resumes to the model."""
        baseline = database_to_json(evaluate(TC, chain(8)).database)
        snapshots = []

        def keep(db, round, delta=None, governor=None):
            snapshots.append(
                Checkpoint(
                    program=TC,
                    engine="seminaive",
                    database=db.copy(),
                    round=round,
                    delta=delta.copy() if delta is not None else None,
                )
            )

        evaluate(TC, chain(8), governor=ResourceGovernor(on_round=keep))
        assert len(snapshots) >= 3
        for checkpoint in snapshots:
            resumed = resume_evaluation(checkpoint, program=TC)
            assert database_to_json(resumed.database) == baseline, (
                f"resume from round {checkpoint.round} diverged"
            )

    def test_only_seminaive_snapshots_store_a_delta(self, tmp_path, capsys):
        """``resume_state`` reads a delta only from a ``seminaive``
        snapshot, so no other engine writes one.  ``eval --engine
        stratified --checkpoint`` over a 30-edge chain wrote 17 192 B
        while it stored the delta, naive 14 296 B."""
        from repro.cli import main

        program = str(EXAMPLES / "transitive_closure.dl")
        edb = tmp_path / "edb.dl"
        edb.write_text("".join(f"A({i}, {i + 1}).\n" for i in range(30)))
        assert main(["eval", program, "--edb", str(edb)]) == 0
        uninterrupted = capsys.readouterr().out
        sizes = {}
        for engine in FIXPOINT_ENGINES:
            ck = tmp_path / f"{engine}.json"
            argv = ["eval", program, "--edb", str(edb), "--engine", engine]
            assert main([*argv, "--checkpoint", str(ck)]) == 0
            assert capsys.readouterr().out == uninterrupted
            sizes[engine] = ck.stat().st_size
            for generation in (ck, tmp_path / f"{engine}.json.prev"):
                checkpoint = load_checkpoint(generation)
                assert (checkpoint.delta is not None) == (engine == "seminaive")
                assert main(["resume", str(generation), "--no-checkpoint"]) == 0
                assert capsys.readouterr().out == uninterrupted
        assert sizes["stratified"] < 17_192
        assert sizes["stratified"] - sizes["naive"] < 100  # the engine's name

    def test_fingerprint_mismatch_refused(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path)
        other = parse_program("T(x, y) :- E(y, x).")
        with pytest.raises(CheckpointError, match="fingerprint"):
            resume_evaluation(load_checkpoint(path), program=other)

    def test_resumed_governor_rounds_are_cumulative(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path, n=10)
        checkpoint = load_checkpoint(path)
        saved_rounds = checkpoint.governor_state["rounds"]
        assert saved_rounds > 0
        # A cumulative cap equal to the uninterrupted round count must
        # still admit the resumed tail...
        total_rounds = evaluate(
            TC, chain(10), governor=ResourceGovernor()
        ).stats.iterations
        governor = ResourceGovernor(max_rounds=total_rounds)
        governor.restore(rounds=saved_rounds)
        resumed = resume_evaluation(checkpoint, governor=governor, program=TC)
        assert resumed.status is EvaluationStatus.COMPLETE
        # ...while a cap already consumed before the crash trips at once.
        strict = ResourceGovernor(max_rounds=saved_rounds)
        strict.restore(rounds=saved_rounds)
        tripped = resume_evaluation(checkpoint, governor=strict, program=TC)
        assert tripped.status is EvaluationStatus.PARTIAL
        assert tripped.degradation.limit == "max_rounds"


class TestSessionRecovery:
    def test_crash_then_new_session_resumes_and_matches(self, tmp_path):
        path = tmp_path / "ck.json"
        baseline = database_to_json(evaluate(TC, chain(10)).database)
        plan = FaultPlan.crash_at([10])
        crashed = EvaluationSession(
            TC,
            chain(10),
            checkpoint_manager=CheckpointManager(path, fault_plan=plan),
        )
        with pytest.raises(SimulatedCrash):
            crashed.run()
        # A freshly constructed session (a new process, in production)
        # finds the durable generations and continues, not restarts.
        recovered = EvaluationSession(
            TC, chain(10), checkpoint_manager=CheckpointManager(path)
        )
        result = recovered.run()
        assert result.status is EvaluationStatus.COMPLETE
        assert database_to_json(result.database) == baseline

    def test_transient_fault_retry_resumes_from_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        baseline = database_to_json(evaluate(TC, chain(12)).database)
        # One transient storage fault late in the run: the retry must
        # pick up from the checkpoint, not re-derive from the EDB.
        plan = FaultPlan.transient_at("add", [40])
        session = EvaluationSession(
            TC,
            chain(12),
            fault_plan=plan,
            checkpoint_manager=CheckpointManager(path),
        )
        result = session.run()
        assert result.attempts == 2
        assert database_to_json(result.database) == baseline

    def test_stale_checkpoint_of_other_program_ignored(self, tmp_path):
        path = tmp_path / "ck.json"
        checkpointed_run(path)  # leaves a TC checkpoint behind
        other = parse_program("S(x) :- V(x). S(y) :- W(x, y), S(x).")
        edb = Database()
        edb.add_fact("V", 0)
        for i in range(4):
            edb.add_fact("W", i, i + 1)
        session = EvaluationSession(
            other, edb, checkpoint_manager=CheckpointManager(path)
        )
        result = session.run()
        assert database_to_json(result.database) == database_to_json(
            evaluate(other, edb).database
        )

    def test_query_engines_refuse_checkpointing(self, tmp_path):
        from repro import parse_atom

        with pytest.raises(ValueError, match="fixpoint"):
            EvaluationSession(
                TC,
                chain(4),
                engine="magic",
                query=parse_atom("T(0, x)"),
                checkpoint_manager=CheckpointManager(tmp_path / "ck.json"),
            )
