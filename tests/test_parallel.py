"""Differential and chaos tests for the parallel evaluation engine.

The parallel engine's contract is *observational equivalence*: for any
program, database, backend, and worker count, ``parallel_evaluate``
produces the same database, the same deterministic output ordering,
and the same work counters (minus execution-shaped ones) as the serial
engines.  Round barriers are the only synchronization points, so the
sweep below checks equality per worker count rather than sampling.

Chaos coverage rides the barrier hook seam
(:func:`repro.engine.parallel.set_barrier_chaos_hook`): a worker is
SIGKILLed mid-round, the crash surfaces as the retryable
:class:`~repro.errors.WorkerCrashError`, and a checkpointed session
retries from the last barrier generation to the bitwise-identical
fixpoint.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Database, evaluate, parse_program
from repro.data.columnar import (
    live_pool_count,
    note_pool_started,
    note_pool_stopped,
    reset_symbol_table,
)
from repro.engine import get_engine
from repro.engine.parallel import (
    DeltaShard,
    WorkerPool,
    parallel_evaluate,
    scc_waves,
    set_barrier_chaos_hook,
)
from repro.errors import ReproError, WorkerCrashError
from repro.lang.serialize import database_to_json
from repro.resilience import (
    CheckpointManager,
    EvaluationSession,
    EvaluationStatus,
    ResourceGovernor,
    RetryPolicy,
)

TC_LINEAR = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- E(x, y), T(y, z).
    """
)

TC_NONLINEAR = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), T(y, z).
    """
)

#: A head constant that never appears in the EDB: workers must agree
#: with the master on its interned id (the pre-interning seam).
CONSTED = parse_program(
    """
    T(x, y) :- E(x, y).
    T(x, z) :- T(x, y), T(y, z).
    Root(99, x) :- T(0, x).
    """
)

NEGATION = parse_program(
    """
    R(x, y) :- E(x, y).
    R(x, z) :- R(x, y), E(y, z).
    Un(x) :- N(x), not R(0, x).
    """
)

#: Two independent SCCs (P-chain, Q-chain) feeding a third: the wave
#: scheduler runs the first two concurrently.
WAVES = parse_program(
    """
    P(x, y) :- Ep(x, y).
    P(x, z) :- P(x, y), Ep(y, z).
    Q(x, y) :- Eq(x, y).
    Q(x, z) :- Q(x, y), Eq(y, z).
    Top(x, y) :- P(x, y), Q(x, y).
    """
)

#: Negated rules inside the two concurrent SCCs (fired in the workers)
#: and in the single-SCC wave above them (fired on the master).
NEGATED_WAVES = parse_program(
    """
    P(x, y) :- Ep(x, y).
    P(x, z) :- P(x, y), Ep(y, z), not Eq(x, z).
    Q(x, y) :- Eq(x, y).
    Q(x, z) :- Q(x, y), Eq(y, z), not Ep(z, x).
    Top(x, y) :- P(x, y), not Q(y, x).
    """
)

BACKENDS = ("rows", "columnar")
WORKER_COUNTS = (1, 2, 4)


def chain_db(n: int, backend: str = "rows", predicate: str = "E") -> Database:
    db = Database(backend=backend)
    for i in range(n):
        db.add_fact(predicate, i, i + 1)
    return db


def negation_db(n: int, backend: str = "rows") -> Database:
    db = chain_db(n, backend)
    for i in range(n + 3):
        db.add_fact("N", i)
    return db


def waves_db(n: int, backend: str = "rows") -> Database:
    db = chain_db(n, backend, "Ep")
    for i in range(n):
        db.add_fact("Eq", i, i + 1)
    return db


def canonical(db: Database) -> str:
    """Backend-independent canonical form for cross-run comparison."""
    return json.dumps(database_to_json(db), sort_keys=True)


# ---------------------------------------------------------------------------
# Differential sweep: parallel == serial, every engine x backend x N
# ---------------------------------------------------------------------------
class TestDifferential:
    CASES = (
        ("seminaive", TC_LINEAR, chain_db, 9),
        ("seminaive", TC_NONLINEAR, chain_db, 9),
        ("seminaive", CONSTED, chain_db, 7),
        ("stratified", NEGATION, negation_db, 8),
        ("stratified", WAVES, waves_db, 7),
        ("stratified", NEGATED_WAVES, waves_db, 7),
    )

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize(
        "engine,program,make_db,size",
        CASES,
        ids=[f"{e}-{i}" for i, (e, *_rest) in enumerate(CASES)],
    )
    def test_parallel_equals_serial(
        self, engine, program, make_db, size, backend, workers
    ):
        serial = get_engine(engine).run(program, make_db(size, backend))
        parallel = parallel_evaluate(
            program, make_db(size, backend), engine=engine, workers=workers
        )
        assert parallel.status is EvaluationStatus.COMPLETE
        assert canonical(parallel.database) == canonical(serial.database)
        assert parallel.stats.facts_derived == serial.stats.facts_derived

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_duplicates_avoided_matches_serial_exactly(self, backend):
        """Shard views delegate containment to the full delta, so the
        summed counter equals the serial engine's, not a partition-
        dependent undercount."""
        serial = get_engine("seminaive").run(TC_NONLINEAR, chain_db(9, backend))
        parallel = parallel_evaluate(
            TC_NONLINEAR, chain_db(9, backend), engine="seminaive", workers=3
        )
        assert parallel.stats.duplicates_avoided == serial.stats.duplicates_avoided
        assert parallel.stats.rule_firings == serial.stats.rule_firings
        assert parallel.stats.iterations == serial.stats.iterations

    def test_governed_partial_matches_serial(self):
        """A tripped cap degrades to the same sound under-approximation
        as a serial run: barriers are the sync points, so the surviving
        prefix of rounds is identical."""
        serial = get_engine("seminaive").run(
            TC_NONLINEAR, chain_db(12), governor=ResourceGovernor(max_facts=40)
        )
        parallel = parallel_evaluate(
            TC_NONLINEAR,
            chain_db(12),
            engine="seminaive",
            governor=ResourceGovernor(max_facts=40),
            workers=2,
        )
        assert serial.status is EvaluationStatus.PARTIAL
        assert parallel.status is EvaluationStatus.PARTIAL
        assert canonical(parallel.database) == canonical(serial.database)
        assert parallel.degradation.limit == serial.degradation.limit

    def test_workers_one_is_the_serial_engine(self):
        result = parallel_evaluate(TC_LINEAR, chain_db(6), workers=1)
        serial = get_engine("seminaive").run(TC_LINEAR, chain_db(6))
        assert canonical(result.database) == canonical(serial.database)

    def test_rejects_non_fixpoint_engines_and_bad_counts(self):
        with pytest.raises(ValueError):
            parallel_evaluate(TC_LINEAR, chain_db(4), engine="magic", workers=2)
        with pytest.raises(ValueError):
            parallel_evaluate(TC_LINEAR, chain_db(4), workers=0)


class TestSpawnStart:
    def test_spawn_workers_agree_with_serial(self, monkeypatch):
        """The spawn path ships a symbol-table snapshot instead of
        relying on fork inheritance; ids must still agree."""
        monkeypatch.setenv("REPRO_PARALLEL_START", "spawn")
        serial = get_engine("seminaive").run(CONSTED, chain_db(6, "columnar"))
        parallel = parallel_evaluate(
            CONSTED, chain_db(6, "columnar"), engine="seminaive", workers=2
        )
        assert canonical(parallel.database) == canonical(serial.database)


# ---------------------------------------------------------------------------
# SCC wave schedule
# ---------------------------------------------------------------------------
class TestWaves:
    def test_independent_sccs_share_a_wave(self):
        waves = scc_waves(WAVES)
        assert waves == [[("P",), ("Q",)], [("Top",)]]

    def test_waves_are_deterministic(self):
        assert scc_waves(WAVES) == scc_waves(WAVES)


# ---------------------------------------------------------------------------
# Fork-safety of the interning seam
# ---------------------------------------------------------------------------
class TestSymbolTableForkSafety:
    def test_reset_refused_while_pool_is_live(self):
        note_pool_started()
        try:
            with pytest.raises(ReproError, match="worker pool"):
                reset_symbol_table()
        finally:
            note_pool_stopped()

    def test_reset_allowed_after_pools_stop(self):
        assert live_pool_count() == 0

    def test_real_pool_registers_and_unregisters(self):
        pool = WorkerPool(2, TC_LINEAR, backend="rows")
        try:
            assert live_pool_count() == 1
            with pytest.raises(ReproError):
                reset_symbol_table()
        finally:
            pool.close()
        assert live_pool_count() == 0


# ---------------------------------------------------------------------------
# The satellite fix: shard views must not double-bill shared columns
# ---------------------------------------------------------------------------
class TestDeltaShardBytes:
    def test_approximate_bytes_counts_rows_not_columns(self):
        delta = chain_db(10, "columnar")
        rows = {"E": set(tuple(r) for r in [(0, 1), (1, 2), (2, 3)])}
        shard = DeltaShard(delta, rows)
        assert shard.approximate_bytes() == 3 * 24
        # Two shards of the same delta together cost their row counts,
        # not 2x the parent's column logs.
        other = DeltaShard(delta, {"E": {(4, 5)}})
        combined = shard.approximate_bytes() + other.approximate_bytes()
        assert combined == 4 * 24
        assert combined < delta.approximate_bytes()

    def test_empty_shard_is_falsy_and_free(self):
        shard = DeltaShard(chain_db(4), {})
        assert not shard
        assert shard.approximate_bytes() == 0


# ---------------------------------------------------------------------------
# Chaos: SIGKILL a worker mid-round, retry from the barrier checkpoint
# ---------------------------------------------------------------------------
class TestWorkerCrashRecovery:
    def test_crash_surfaces_as_worker_crash_error(self):
        fired = []

        def kill_one(pool, round_index):
            if round_index == 2 and not fired:
                fired.append(round_index)
                os.kill(pool.pids[0], signal.SIGKILL)

        set_barrier_chaos_hook(kill_one)
        try:
            with pytest.raises(WorkerCrashError):
                parallel_evaluate(
                    TC_NONLINEAR, chain_db(9), engine="seminaive", workers=2
                )
        finally:
            set_barrier_chaos_hook(None)
        assert fired == [2]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_session_retries_from_barrier_checkpoint(self, tmp_path, backend):
        serial = evaluate(TC_NONLINEAR, chain_db(9, backend)).database
        fired = []

        def kill_one(pool, round_index):
            if round_index == 3 and not fired:
                fired.append(round_index)
                os.kill(pool.pids[0], signal.SIGKILL)

        manager = CheckpointManager(tmp_path / "ck.json", every=1)
        session = EvaluationSession(
            TC_NONLINEAR,
            chain_db(9, backend),
            engine="seminaive",
            checkpoint_manager=manager,
            retry_policy=RetryPolicy(max_retries=2),
            workers=2,
        )
        set_barrier_chaos_hook(kill_one)
        try:
            result = session.run()
        finally:
            set_barrier_chaos_hook(None)
        assert fired == [3]
        assert result.attempts == 2
        assert result.status is EvaluationStatus.COMPLETE
        assert canonical(result.database) == canonical(serial)
        # The retry resumed from a durable generation, not the EDB.
        latest = manager.latest()
        assert latest is not None


# ---------------------------------------------------------------------------
# Deterministic CLI output, byte-for-byte across worker counts
# ---------------------------------------------------------------------------
def run_cli(tmp_path: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    root = Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
    )


@pytest.fixture
def tc_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text("T(x, y) :- E(x, y).\nT(x, z) :- T(x, y), T(y, z).\n")
    edb = tmp_path / "tc.edb"
    edb.write_text("".join(f"E({i}, {i + 1}).\n" for i in range(7)))
    return program, edb


class TestCliDeterminism:
    def test_eval_output_byte_identical_across_worker_counts(
        self, tmp_path, tc_files
    ):
        program, edb = tc_files
        outputs = {}
        for workers in ("1", "2", "4"):
            proc = run_cli(
                tmp_path, "eval", str(program), "--edb", str(edb), "--workers", workers
            )
            assert proc.returncode == 0, proc.stderr
            outputs[workers] = proc.stdout
        assert outputs["1"] == outputs["2"] == outputs["4"]

    def test_json_output_identical_modulo_execution_shape(self, tmp_path, tc_files):
        """``elapsed_s`` and ``subgoal_attempts`` are execution-shaped
        (wall clock; per-shard kernel probing); everything else --
        facts, ordering, status, derived counts -- must match."""
        program, edb = tc_files
        docs = {}
        for workers in ("1", "2"):
            proc = run_cli(
                tmp_path,
                "eval",
                str(program),
                "--edb",
                str(edb),
                "--json",
                "--workers",
                workers,
            )
            assert proc.returncode == 0, proc.stderr
            doc = json.loads(proc.stdout)
            doc["stats"].pop("elapsed_s", None)
            doc["stats"].pop("subgoal_attempts", None)
            docs[workers] = doc
        assert docs["1"] == docs["2"]
        assert docs["1"]["database"] == docs["2"]["database"]
