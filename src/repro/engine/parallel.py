"""Parallel evaluation: SCC-wave scheduling + hash-partitioned delta joins.

ROADMAP item 3.  The paper's optimizations (semi-naive Δ-splitting,
magic-style specialization) cut the *work per round*; this module does
that work on more than one core, at two granularities:

* **Inter-stratum parallelism** (:func:`parallel_stratified`): the
  stratified engine's dependence structure is refined to its SCC
  condensation, SCCs are grouped into *waves* by longest path, and the
  mutually independent SCCs of one wave are evaluated concurrently on
  the worker pool, merging derived relations at the dependence edges
  (i.e. at the wave barrier).  Stratification guarantees every negated
  predicate is complete before any wave that reads it.

* **Intra-stratum sharding** (:func:`parallel_seminaive_fixpoint`):
  within one semi-naive round, the delta is hash-partitioned by the
  join key the compiled :class:`~repro.engine.compile.JoinKernel`
  chose (the first delta-step slot the later steps read), each worker
  runs every rule variant against *its shard of Δ* plus replicas of
  the snapshot/full databases, and the emitted rows are unioned at the
  round barrier.

**Why any partition of Δ is correct.** Under the textbook discipline
only the Δ-pinned step of a kernel enumerates the delta; snapshot and
full positions are probed, never enumerated.  Partitioning the Δ rows
across workers therefore partitions the *derivations*: every body
instantiation touches exactly one Δ row at the pinned position, so it
is produced by exactly one worker.  The hash key only balances the
partition -- it can never change the result.  Rounds are the sync
point: after the barrier merge the master state is identical to the
serial engine's, which makes ``parallel == serial`` differentially
checkable round by round, keeps derived facts/firings/duplicates-
avoided counters exact, and lets durable checkpoints (which fire only
at barriers, through the same ``governor.checkpoint`` site as the
serial engine) resume independently of the worker count.
``subgoal_attempts`` and ``elapsed_s`` are execution-shaped (per-worker
suffix memos, wall clock) and may differ across worker counts.

**Budget discipline.**  The master's
:class:`~repro.resilience.ResourceGovernor` stays the single budget:
fact / round / memory caps are enforced at each barrier (worker
database footprints are aggregated into the memory estimate), while
the wall-clock deadline is *also* shipped to workers as the remaining
budget so a runaway join trips inside the round.  A worker trip
surfaces as the same ``PARTIAL`` degradation the serial engine
produces, with the interrupted round's delta discarded -- soundness by
monotonicity is unchanged.

**Fork-safety.**  Workers are forked (or spawned, with a
:class:`~repro.data.columnar.SymbolTable` snapshot shipped and
re-interned in id order) only *after* the master pre-interns every
ground term of the program, so kernel compilation in a worker can
never allocate a dense id the master does not know.  While a pool is
live, :func:`repro.data.columnar.reset_symbol_table` refuses to run.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from typing import Any, Iterable, Mapping, Sequence

from ..data.columnar import note_pool_started, note_pool_stopped, symbol_table
from ..data.database import Database
from ..errors import ReproError, ResourceLimitExceeded, UnsafeRuleError, WorkerCrashError
from ..lang.programs import Program
from ..lang.serialize import program_from_dict, program_to_dict
from ..lang.terms import Variable
from ..obs.metrics import metrics_registry
from ..obs.tracer import trace
from ..resilience.governor import (
    DegradationReport,
    EvaluationStatus,
    ResourceGovernor,
    approximate_database_bytes,
)
from .compile import SRC_DELTA, KernelCache, cardinality_hint_provider
from .fixpoint import EvaluationResult, get_engine
from .joins import delta_variant_positions
from .seminaive import _run_delta_kernels, seminaive_fixpoint
from .stats import EvaluationStats
from .stratified import saturate_stratum, stratify

#: Environment override for the multiprocessing start method ("fork" or
#: "spawn"); the default prefers fork where the platform offers it.
_START_ENV = "REPRO_PARALLEL_START"

#: Test seam: a callable ``hook(pool, round_index)`` invoked at the top
#: of every sharded round, *after* the barrier checkpoint is durable and
#: *before* work is dispatched.  The chaos suite uses it to SIGKILL a
#: worker mid-round and assert the session retries from the checkpoint.
_BARRIER_CHAOS_HOOK = None


def set_barrier_chaos_hook(hook) -> None:
    """Install (or clear, with ``None``) the barrier chaos hook."""
    global _BARRIER_CHAOS_HOOK
    _BARRIER_CHAOS_HOOK = hook


# ---------------------------------------------------------------------------
# Row transport: databases <-> plain {predicate: rows} payloads
# ---------------------------------------------------------------------------
def _relation_rows(db: Database, predicate: str):
    """The raw stored row set of one predicate (both backends)."""
    relation = db._relations.get(predicate)
    if relation is None:
        return ()
    rows = getattr(relation, "rows", None)
    return rows if rows is not None else relation


def _export_rows(db: Database) -> dict[str, list[tuple]]:
    """All facts as ``{predicate: [raw rows]}`` for pipe transport.

    Rows stay in storage representation (int tuples on columnar, Term
    tuples on the row backend); both pickle cheaply and re-import
    through ``_add_row`` without re-encoding.
    """
    return {
        pred: list(_relation_rows(db, pred))
        for pred in db._relations
        if _relation_rows(db, pred)
    }


def _import_rows(backend: str, facts: Mapping[str, Iterable[tuple]]) -> Database:
    db = Database(backend=backend)
    for pred, rows in facts.items():
        for row in rows:
            db._add_row(pred, tuple(row))
    return db


def _import_into(db: Database, facts: Mapping[str, Iterable[tuple]]) -> Database:
    new = db.empty_like()
    for pred, rows in facts.items():
        for row in rows:
            new._add_row(pred, tuple(row))
    return new


def _preintern_program(program: Program, db: Database) -> None:
    """Intern every ground term of *program* into the master table.

    Kernel compilation interns rule constants (``db.store_term``); by
    interning them all here, before the pool forks, worker- and
    master-side compilations agree on every dense id and int rows can
    cross the pipe without a remap.  Deterministic rule order makes the
    allocation order deterministic too.  No-op on the row backend.
    """
    if db.backend != "columnar":
        return
    store = db.store_term
    for rule in program.rules:
        for term in rule.head.args:
            if not isinstance(term, Variable):
                store(term)
        for literal in rule.body:
            for term in literal.atom.args:
                if not isinstance(term, Variable):
                    store(term)


# ---------------------------------------------------------------------------
# Delta shards
# ---------------------------------------------------------------------------
class DeltaShard:
    """A read-only hash shard of a round's delta.

    Wraps the full delta database plus the subset of rows this worker
    enumerates.  ``count``/``candidates`` serve only the shard (the
    Δ-pinned kernel step enumerates just these rows), while
    ``contains_tuple`` delegates to the *full* delta -- the
    duplicates-avoided counter asks "was this row in Δ at an enumerated
    full-side position?", a question about the whole round's delta, and
    delegation keeps the summed counter exactly equal to the serial
    engine's.
    """

    __slots__ = ("_delta", "_rows")

    def __init__(self, delta: Database, rows: Mapping[str, set]):
        self._delta = delta
        self._rows = {pred: selected for pred, selected in rows.items() if selected}

    @property
    def backend(self) -> str:
        return self._delta.backend

    def __bool__(self) -> bool:
        return any(self._rows.values())

    def count(self, predicate: str) -> int:
        rows = self._rows.get(predicate)
        return len(rows) if rows is not None else 0

    def contains_tuple(self, predicate: str, row: tuple) -> bool:
        return self._delta.contains_tuple(predicate, row)

    def candidates(self, predicate: str, bound: Mapping[int, object]) -> Iterable[tuple]:
        rows = self._rows.get(predicate)
        if not rows:
            return ()
        if not bound:
            return rows
        return [
            row
            for row in rows
            if all(row[pos] == value for pos, value in bound.items())
        ]

    def approximate_bytes(self) -> int:
        """Per-row bookkeeping only.

        The shard shares the parent delta's column logs; counting them
        here would double-bill every shard for the same arrays and
        inflate the cross-worker memory aggregate by ``workers x``.
        """
        return sum(len(rows) for rows in self._rows.values()) * 24


class ShardRouter:
    """Chooses the hash position per delta predicate and partitions rows.

    The key is read off the compiled kernels: for the first variant that
    pins a predicate's literal on Δ, take the first delta-step bind
    whose slot a later join step reads -- that is the slot array's join
    key.  Predicates never joined onward hash on position 0.  The choice
    only affects balance, never the result (see the module docstring).
    """

    def __init__(self, program: Program, db: Database, rule_indices: Sequence[int]):
        self._key_position: dict[str, int] = {}
        kernels = KernelCache(
            program.rules, db, hint_provider=cardinality_hint_provider(program, db)
        )
        for rule_index in rule_indices:
            rule = program.rules[rule_index]
            if rule.is_fact:
                continue
            for position in delta_variant_positions(rule.head, rule.body):
                predicate = rule.body[position].predicate
                if predicate in self._key_position:
                    continue
                kernel = kernels.kernel(rule_index, position)
                delta_step = next(
                    (s for s in kernel.steps if s.source == SRC_DELTA), None
                )
                if delta_step is None:
                    continue
                later_reads: set[int] = set()
                seen_delta = False
                for step in kernel.steps:
                    if step is delta_step:
                        seen_delta = True
                        continue
                    if not seen_delta:
                        continue
                    for _pos, slot in step.slot_bound:
                        later_reads.add(slot)
                    for _pos, slot in step.self_checks:
                        later_reads.add(slot)
                    for _pos, slot in step.neg_slots:
                        later_reads.add(slot)
                key = 0
                for pos, slot in delta_step.binds:
                    if slot in later_reads:
                        key = pos
                        break
                self._key_position[predicate] = key

    def key_position(self, predicate: str) -> int:
        return self._key_position.get(predicate, 0)

    def partition(
        self, delta_rows: Mapping[str, list[tuple]], shards: int
    ) -> list[dict[str, list[int]]]:
        """Row indices per shard; every row lands in exactly one shard."""
        out: list[dict[str, list[int]]] = [{} for _ in range(shards)]
        for pred, rows in delta_rows.items():
            key = self.key_position(pred)
            buckets = [out[s].setdefault(pred, []) for s in range(shards)]
            for index, row in enumerate(rows):
                value = row[key] if key < len(row) else 0
                shard = (value if type(value) is int else hash(value)) % shards
                buckets[shard].append(index)
        return out


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
class _WorkerState:
    """Per-process evaluation state living inside a worker."""

    def __init__(self, payload: dict[str, Any]):
        symbols = payload.get("symbols")
        if symbols:
            # Spawn start: replay the master's interning order so every
            # dense id means the same term on both sides of the pipe.
            symbol_table().preload(symbols)
        self.program = program_from_dict(payload["program"])
        self.backend = payload["backend"]
        self.variants = [
            () if rule.is_fact else delta_variant_positions(rule.head, rule.body)
            for rule in self.program.rules
        ]
        self.full: Database | None = None
        self.snapshot: Database | None = None
        self.kernels: KernelCache | None = None
        self.rule_indices: tuple[int, ...] = ()

    def begin(self, snapshot_rows, rule_indices) -> None:
        """Reset for one sharded fixpoint: state = pre-round snapshot."""
        self.snapshot = _import_rows(self.backend, snapshot_rows)
        self.full = self.snapshot.copy()
        self.kernels = KernelCache(
            self.program.rules,
            self.full,
            hint_provider=cardinality_hint_provider(self.program, self.full),
        )
        self.rule_indices = tuple(rule_indices)

    def round(self, round_index, delta_rows, shard_spec, deadline_s) -> dict[str, Any]:
        """One sharded semi-naive round; returns new rows + stat deltas."""
        started = time.perf_counter()
        delta = _import_into(self.full, delta_rows)
        # full := snapshot ⊎ Δ = F_{k-1}; the serial loop's invariant.
        self.full.update(delta)
        shard = DeltaShard(
            delta,
            {
                pred: {tuple(delta_rows[pred][i]) for i in indices}
                for pred, indices in shard_spec.items()
            },
        )
        governor = None
        if deadline_s is not None:
            governor = ResourceGovernor(deadline_s=deadline_s)
            governor.note(engine="seminaive", round=round_index)
        stats = EvaluationStats()
        derived_rows: dict[str, set] = {}
        report = None
        try:
            for rule_index in self.rule_indices:
                rule = self.program.rules[rule_index]
                if rule.is_fact:
                    continue
                if governor is not None:
                    governor.note(rule_index=rule_index)
                    governor.tick()
                derived = _run_delta_kernels(
                    rule,
                    self.kernels,
                    rule_index,
                    self.full,
                    shard,
                    self.snapshot,
                    stats,
                    governor,
                    self.variants[rule_index],
                )
                head = rule.head.predicate
                fresh = [r for r in derived if not self.full.contains_tuple(head, r)]
                if fresh:
                    derived_rows.setdefault(head, set()).update(fresh)
        except ResourceLimitExceeded as error:
            report = error.report.to_dict()
        # Advance the snapshot to F_{k-1} for the next round.
        self.snapshot.update(delta)
        return {
            "derived": derived_rows,
            "stats": {
                "rule_firings": stats.rule_firings,
                "subgoal_attempts": stats.subgoal_attempts,
                "duplicates_avoided": stats.duplicates_avoided,
            },
            "elapsed_s": time.perf_counter() - started,
            "bytes": approximate_database_bytes(self.full),
            "report": report,
        }

    def scc(self, rule_indices, facts, limits) -> dict[str, Any]:
        """Evaluate one SCC of a wave to fixpoint on shipped facts."""
        started = time.perf_counter()
        current = _import_rows(self.backend, facts)
        shipped = {pred: set(map(tuple, rows)) for pred, rows in facts.items()}
        governor = None
        if any(limits.get(k) is not None for k in ("deadline_s", "max_facts", "max_rounds")):
            governor = ResourceGovernor(
                deadline_s=limits.get("deadline_s"),
                max_facts=limits.get("max_facts"),
                max_rounds=limits.get("max_rounds"),
            )
            governor.restore(
                facts=limits.get("facts_seen", 0), rounds=limits.get("rounds_seen", 0)
            )
        stats = EvaluationStats()
        current, degradation = saturate_stratum(
            self.program, rule_indices, current, stats, governor
        )
        derived_out: dict[str, list[tuple]] = {}
        for pred in current._relations:
            known = shipped.get(pred, ())
            fresh = [row for row in _relation_rows(current, pred) if row not in known]
            if fresh:
                derived_out[pred] = fresh
        return {
            "derived": derived_out,
            "stats": stats.to_dict(),
            "elapsed_s": time.perf_counter() - started,
            "report": degradation.to_dict() if degradation is not None else None,
        }


def _worker_main(conn, worker_id: int) -> None:
    """Worker process entry point: a strict request/reply message loop."""
    state: _WorkerState | None = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        kind = message[0]
        if kind == "stop":
            break
        try:
            if kind == "init":
                state = _WorkerState(message[1])
                conn.send(("ready", os.getpid()))
            elif kind == "begin":
                state.begin(message[1], message[2])
                conn.send(("ok", None))
            elif kind == "round":
                conn.send(("round", state.round(*message[1:])))
            elif kind == "scc":
                conn.send(("scc", state.scc(*message[1:])))
            else:
                conn.send(("error", f"unknown message kind {kind!r}"))
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except Exception:
                break
    try:
        conn.close()
    except Exception:
        pass


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------
def _default_start_method() -> str:
    override = os.environ.get(_START_ENV)
    if override:
        return override
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class WorkerPool:
    """A fixed set of evaluation workers joined by one pipe each.

    The protocol is strict request/reply per worker, so sends and
    receives can never deadlock.  A worker death (crash, OOM-kill,
    chaos SIGKILL) surfaces as :class:`~repro.errors.WorkerCrashError`
    -- a retryable :class:`~repro.errors.TransientStorageError`,
    because round barriers are checkpoint sites and a session retry
    resumes from the last barrier.
    """

    def __init__(
        self,
        workers: int,
        program: Program,
        backend: str,
        start_method: str | None = None,
    ):
        if workers < 1:
            raise ValueError(f"worker pool needs at least 1 worker, got {workers}")
        method = start_method or _default_start_method()
        context = multiprocessing.get_context(method)
        payload: dict[str, Any] = {
            "program": program_to_dict(program),
            "backend": backend,
        }
        if method != "fork" and backend == "columnar":
            # Fork inherits the table; spawn must replay it in id order.
            payload["symbols"] = symbol_table().snapshot()
        self.start_method = method
        self._conns: list[Any] = []
        self._procs: list[Any] = []
        self._closed = False
        note_pool_started()
        try:
            for worker_id in range(workers):
                parent, child = context.Pipe()
                proc = context.Process(
                    target=_worker_main,
                    args=(child, worker_id),
                    daemon=True,
                    name=f"repro-worker-{worker_id}",
                )
                proc.start()
                child.close()
                self._conns.append(parent)
                self._procs.append(proc)
            for worker_id in range(workers):
                self.send(worker_id, ("init", payload))
            for worker_id in range(workers):
                self.recv(worker_id)
            metrics_registry().increment("parallel.pool_starts")
        except BaseException:
            self.close()
            raise

    @property
    def size(self) -> int:
        return len(self._procs)

    @property
    def pids(self) -> tuple[int, ...]:
        return tuple(proc.pid for proc in self._procs)

    def send(self, worker: int, message: tuple) -> None:
        try:
            self._conns[worker].send(message)
        except (BrokenPipeError, OSError) as error:
            raise WorkerCrashError(
                f"parallel worker {worker} pipe closed mid-send: {error}"
            ) from error

    def broadcast(self, message: tuple) -> None:
        for worker in range(self.size):
            self.send(worker, message)

    def recv(self, worker: int) -> tuple:
        conn = self._conns[worker]
        proc = self._procs[worker]
        while True:
            if conn.poll(0.05):
                try:
                    message = conn.recv()
                except (EOFError, OSError) as error:
                    raise WorkerCrashError(
                        f"parallel worker {worker} (pid {proc.pid}) died mid-round"
                    ) from error
                if message[0] == "error":
                    raise ReproError(
                        f"parallel worker {worker} failed:\n{message[1]}"
                    )
                return message
            if not proc.is_alive() and not conn.poll(0):
                raise WorkerCrashError(
                    f"parallel worker {worker} (pid {proc.pid}) died mid-round "
                    f"(exit code {proc.exitcode})"
                )

    def gather(self) -> list[tuple]:
        return [self.recv(worker) for worker in range(self.size)]

    def begin(self, snapshot_rows, rule_indices) -> None:
        self.broadcast(("begin", snapshot_rows, tuple(rule_indices)))
        self.gather()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=1.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        note_pool_stopped()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Sharded semi-naive fixpoint (master side)
# ---------------------------------------------------------------------------
def _deadline_remaining(governor: ResourceGovernor | None) -> float | None:
    if governor is None or governor.deadline_s is None:
        return None
    remaining = governor.deadline_s - governor.elapsed()
    # A spent budget still ships a hair of deadline so the worker trips
    # (and reports) rather than racing the master's own check.
    return max(remaining, 0.001)


def _master_report(
    worker_report: dict[str, Any],
    governor: ResourceGovernor | None,
    engine: str,
    stratum: int | None,
    round_index: int,
) -> DegradationReport:
    """A worker's trip re-anchored in the master's coordinates."""
    registry = metrics_registry()
    registry.increment("governor.trips")
    registry.increment(f"governor.trips.{worker_report['limit']}")
    return DegradationReport(
        limit=worker_report["limit"],
        detail=worker_report["detail"],
        engine=engine,
        stratum=stratum,
        rule_index=worker_report.get("rule_index"),
        round=round_index,
        elapsed_s=governor.elapsed() if governor is not None else worker_report.get("elapsed_s", 0.0),
        facts_seen=governor.facts_seen if governor is not None else worker_report.get("facts_seen", 0),
    )


def _sharded_fixpoint(
    pool: WorkerPool,
    program: Program,
    rule_indices: Sequence[int],
    db: Database,
    governor: ResourceGovernor | None,
    stats: EvaluationStats,
    resume_state=None,
    engine: str = "seminaive",
    stratum: int | None = None,
) -> tuple[Database, DegradationReport | None]:
    """The serial semi-naive loop with rounds fanned out over *pool*.

    Mirrors :func:`~repro.engine.seminaive.seminaive_fixpoint` exactly
    at every barrier: same round-0 seeding (fact heads fire once on the
    master), same ``governor.checkpoint(full, round=..., delta=...)``
    site (so durable checkpoints land on identical states), same
    PARTIAL discipline (a tripped round's delta is discarded).  Returns
    the full database and the degradation report, if any.
    """
    rule_indices = tuple(rule_indices)
    full = db.copy()
    if governor is not None:
        governor.note(engine="seminaive")
    if resume_state is not None:
        delta = resume_state.delta.copy()
        snapshot = full.copy()
        snapshot.discard_all(delta.atoms())
        stats.iterations = resume_state.round - 1
    else:
        delta = db.copy()
        snapshot = full.empty_like()
        stats.iterations += 1
        for rule_index in rule_indices:
            rule = program.rules[rule_index]
            if rule.is_fact:
                if full.add(rule.head):
                    stats.facts_derived += 1
                    delta.add(rule.head)

    pool.begin(_export_rows(snapshot), rule_indices)
    router = ShardRouter(program, full, rule_indices)
    registry = metrics_registry()
    worker_bytes = 0
    try:
        while delta:
            stats.iterations += 1
            if governor is not None:
                governor.checkpoint(
                    full, round=stats.iterations, delta=delta, extra_bytes=worker_bytes
                )
            hook = _BARRIER_CHAOS_HOOK
            if hook is not None:
                hook(pool, stats.iterations)
            delta_rows = _export_rows(delta)
            shards = router.partition(delta_rows, pool.size)
            deadline_s = _deadline_remaining(governor)
            with trace(
                "parallel.round",
                index=stats.iterations,
                workers=pool.size,
                delta=len(delta),
            ) as span:
                for worker in range(pool.size):
                    pool.send(
                        worker,
                        ("round", stats.iterations, delta_rows, shards[worker], deadline_s),
                    )
                replies = [pool.recv(worker)[1] for worker in range(pool.size)]
                registry.increment(
                    "parallel.shards",
                    sum(1 for shard in shards if any(shard.values())),
                )
                registry.increment("parallel.worker_rounds", pool.size)
                worker_bytes = 0
                slowest = 0.0
                for reply in replies:
                    counters = reply["stats"]
                    stats.rule_firings += counters["rule_firings"]
                    stats.subgoal_attempts += counters["subgoal_attempts"]
                    stats.duplicates_avoided += counters["duplicates_avoided"]
                    worker_bytes += reply["bytes"]
                    slowest = max(slowest, reply["elapsed_s"])
                    registry.observe("parallel.worker_elapsed_s", reply["elapsed_s"])
                    if governor is not None:
                        governor.tick()
                if span:
                    span.add("worker_elapsed_s", slowest)
                    span.add("worker_bytes", worker_bytes)
            for reply in replies:
                if reply["report"] is not None:
                    # Same discipline as a serial mid-round trip: the
                    # round's derivations are discarded, F_{k-1} stands.
                    return full, _master_report(
                        reply["report"], governor, engine, stratum, stats.iterations
                    )
            new_delta = full.empty_like()
            for reply in replies:
                for pred, rows in reply["derived"].items():
                    for row in rows:
                        if not full.contains_tuple(pred, row):
                            new_delta._add_row(pred, row)
            snapshot.update(delta)
            added = full.update(new_delta)
            stats.facts_derived += added
            if governor is not None:
                governor.add_facts(added)
            delta = new_delta
    except ResourceLimitExceeded as error:
        return full, error.report
    return full, None


def parallel_seminaive_fixpoint(
    program: Program,
    db: Database,
    governor: ResourceGovernor | None = None,
    workers: int = 2,
    resume_state=None,
) -> EvaluationResult:
    """Semi-naive evaluation with each round's delta sharded over *workers*.

    Same contract (and same result, firings, derived facts, rounds,
    duplicates-avoided counters) as
    :func:`~repro.engine.seminaive.seminaive_fixpoint`; the stats
    record ``engine="seminaive"`` so checkpoints written at the round
    barriers resume under any worker count.
    """
    if not program.is_positive:
        raise UnsafeRuleError(
            "semi-naive evaluation requires a positive program; "
            "use repro.engine.stratified for programs with negation"
        )
    if workers < 2:
        return seminaive_fixpoint(program, db, governor, resume_state=resume_state)
    stats = EvaluationStats(engine="seminaive")
    stats.start()
    _preintern_program(program, db)
    with trace("parallel.eval", engine="seminaive", workers=workers, rules=len(program.rules)) as root:
        root.watch(stats)
        pool = WorkerPool(workers, program, db.backend)
        try:
            full, degradation = _sharded_fixpoint(
                pool,
                program,
                range(len(program.rules)),
                db,
                governor,
                stats,
                resume_state=resume_state,
            )
        finally:
            pool.close()
        if root:
            root.add("index_probes", full.probe_count())
            root.add("full_scans", full.scan_count())
    stats.stop()
    status = EvaluationStatus.PARTIAL if degradation is not None else EvaluationStatus.COMPLETE
    return EvaluationResult(full, stats, status=status, degradation=degradation)


# ---------------------------------------------------------------------------
# SCC waves (inter-stratum parallelism)
# ---------------------------------------------------------------------------
def _dependence_sccs(program: Program) -> list[tuple[str, ...]]:
    """SCCs of the IDB dependence graph, in deterministic order."""
    idb = sorted(program.idb_predicates)
    edges: dict[str, set[str]] = {pred: set() for pred in idb}
    for rule in program.rules:
        head = rule.head.predicate
        for literal in rule.body:
            if literal.predicate in edges:
                edges[literal.predicate].add(head)
    # Iterative Tarjan over the deterministic node/edge order.
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: dict[str, bool] = {}
    stack: list[str] = []
    sccs: list[tuple[str, ...]] = []
    counter = [0]

    for start in idb:
        if start in index_of:
            continue
        work = [(start, iter(sorted(edges[start])))]
        index_of[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(sorted(edges[succ]))))
                    advanced = True
                    break
                if on_stack.get(succ):
                    low[node] = min(low[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    component.append(member)
                    if member == node:
                        break
                sccs.append(tuple(sorted(component)))
    return sccs


def scc_waves(program: Program) -> list[list[tuple[str, ...]]]:
    """SCCs grouped into longest-path waves over the condensation.

    SCCs in one wave have no dependence edge between them, so they can
    evaluate concurrently; every edge (positive or negative) crosses
    into a strictly later wave, so negated predicates are complete
    before they are read (the program must be stratifiable -- callers
    run :func:`~repro.engine.stratified.stratify` first).
    """
    sccs = _dependence_sccs(program)
    scc_of: dict[str, int] = {}
    for scc_index, component in enumerate(sccs):
        for pred in component:
            scc_of[pred] = scc_index
    preds_of: dict[int, set[int]] = {i: set() for i in range(len(sccs))}
    for rule in program.rules:
        head_scc = scc_of[rule.head.predicate]
        for literal in rule.body:
            body_scc = scc_of.get(literal.predicate)
            if body_scc is not None and body_scc != head_scc:
                preds_of[head_scc].add(body_scc)
    level: dict[int, int] = {}

    def resolve(scc_index: int) -> int:
        pending = [scc_index]
        while pending:
            node = pending[-1]
            if node in level:
                pending.pop()
                continue
            unresolved = [p for p in preds_of[node] if p not in level]
            if unresolved:
                pending.extend(unresolved)
                continue
            level[node] = 1 + max((level[p] for p in preds_of[node]), default=-1)
            pending.pop()
        return level[scc_index]

    depth = 0
    for scc_index in range(len(sccs)):
        depth = max(depth, resolve(scc_index))
    waves: list[list[tuple[str, ...]]] = [[] for _ in range(depth + 1)]
    for scc_index, component in enumerate(sccs):
        waves[level[scc_index]].append(component)
    for wave in waves:
        wave.sort()
    return waves


def _task_predicates(program: Program, rule_indices: Sequence[int]) -> set[str]:
    """Every predicate an SCC task reads or writes (for fact shipping)."""
    wanted: set[str] = set()
    for rule_index in rule_indices:
        rule = program.rules[rule_index]
        wanted.add(rule.head.predicate)
        for literal in rule.body:
            wanted.add(literal.predicate)
    return wanted


def _merge_scc_reply(
    reply: dict[str, Any],
    current: Database,
    stats: EvaluationStats,
    governor: ResourceGovernor | None,
) -> None:
    """Fold one SCC task's derived rows and counters into the master."""
    added = 0
    for pred, rows in reply["derived"].items():
        for row in rows:
            if current._add_row(pred, tuple(row)):
                added += 1
    worker = EvaluationStats()
    counters = reply["stats"]
    worker.iterations = counters["iterations"]
    worker.rule_firings = counters["rule_firings"]
    worker.subgoal_attempts = counters["subgoal_attempts"]
    worker.duplicates_avoided = counters["duplicates_avoided"]
    worker.elapsed = counters["elapsed_s"]
    stats.merge(worker)
    stats.facts_derived += added
    if governor is not None:
        governor.add_facts(added)
    metrics_registry().observe("parallel.worker_elapsed_s", reply["elapsed_s"])


def parallel_stratified(
    program: Program,
    db: Database,
    governor: ResourceGovernor | None = None,
    workers: int = 2,
) -> EvaluationResult:
    """The perfect model, with independent SCCs scheduled concurrently.

    Waves (see :func:`scc_waves`) replace the serial engine's strata:
    a wave holding several SCCs ships each as one task to the pool and
    merges the derived relations at the wave barrier; a wave holding a
    single SCC evaluates on the master, sharding its positive rules'
    delta over the pool.  Fact/memory caps are enforced on the master
    at the barriers; the deadline (and remaining fact/round budgets)
    ride along to the workers.
    """
    stratify(program)  # validates stratifiability; raises otherwise
    if workers < 2:
        return get_engine("stratified").run(program, db, governor=governor)
    stats = EvaluationStats(engine="stratified")
    stats.start()
    current = db.copy()
    status = EvaluationStatus.COMPLETE
    degradation = None
    _preintern_program(program, db)
    registry = metrics_registry()
    with trace("parallel.eval", engine="stratified", workers=workers, rules=len(program.rules)) as root:
        root.watch(stats)
        pool = WorkerPool(workers, program, db.backend)
        try:
            if governor is not None:
                governor.note(engine="stratified")
            waves = scc_waves(program)
            for wave_index, wave in enumerate(waves):
                if governor is not None:
                    governor.note(stratum=wave_index)
                    governor.checkpoint(current)
                tasks = [
                    [
                        i
                        for i, rule in enumerate(program.rules)
                        if rule.head.predicate in set(component)
                    ]
                    for component in wave
                ]
                tasks = [task for task in tasks if task]
                if not tasks:
                    continue
                if len(tasks) == 1:
                    current, degradation = _run_wave_on_master(
                        pool, program, tasks[0], current, governor, stats, wave_index
                    )
                else:
                    registry.increment("parallel.scc_tasks", len(tasks))
                    degradation = _run_wave_on_workers(
                        pool, program, tasks, current, governor, stats, wave_index
                    )
                if degradation is not None:
                    status = EvaluationStatus.PARTIAL
                    break
        except ResourceLimitExceeded as error:
            status = EvaluationStatus.PARTIAL
            degradation = error.report
        finally:
            pool.close()
    stats.stop()
    stats.elapsed = max(stats.elapsed, 0.0)
    return EvaluationResult(current, stats, status=status, degradation=degradation)


def _run_wave_on_master(
    pool: WorkerPool,
    program: Program,
    rule_indices: Sequence[int],
    current: Database,
    governor: ResourceGovernor | None,
    stats: EvaluationStats,
    wave_index: int,
) -> tuple[Database, DegradationReport | None]:
    """One single-SCC wave: the stratum loop, positive rules sharded."""

    def sharded(positive: Sequence[int], database: Database):
        sub_stats = EvaluationStats(engine="seminaive")
        sub_stats.start()
        database, report = _sharded_fixpoint(
            pool,
            program,
            positive,
            database,
            governor,
            sub_stats,
            engine="stratified",
            stratum=wave_index,
        )
        sub_stats.stop()
        stats.merge(sub_stats)
        return database, report

    return saturate_stratum(
        program, rule_indices, current, stats, governor, positive_fixpoint=sharded
    )


def _run_wave_on_workers(
    pool: WorkerPool,
    program: Program,
    tasks: Sequence[Sequence[int]],
    current: Database,
    governor: ResourceGovernor | None,
    stats: EvaluationStats,
    wave_index: int,
) -> DegradationReport | None:
    """One multi-SCC wave: each SCC is a task; merge at the barrier.

    Tasks in a wave are mutually independent (no dependence edge), so
    their inputs can all be snapshotted before any merge and their
    outputs merged in deterministic task order afterwards.
    """
    limits = {
        "deadline_s": _deadline_remaining(governor),
        "max_facts": governor.max_facts if governor is not None else None,
        "max_rounds": governor.max_rounds if governor is not None else None,
        "facts_seen": governor.facts_seen if governor is not None else 0,
        "rounds_seen": governor.rounds_seen if governor is not None else 0,
    }
    replies: list[dict[str, Any] | None] = [None] * len(tasks)
    with trace(
        "parallel.wave", index=wave_index, tasks=len(tasks), workers=pool.size
    ) as span:
        for chunk_start in range(0, len(tasks), pool.size):
            chunk = tasks[chunk_start : chunk_start + pool.size]
            for offset, task in enumerate(chunk):
                facts = _export_rows(
                    current.restrict_to(_task_predicates(program, task))
                )
                pool.send(offset, ("scc", tuple(task), facts, limits))
            for offset in range(len(chunk)):
                replies[chunk_start + offset] = pool.recv(offset)[1]
        if span:
            span.add("tasks", len(tasks))
    degradation = None
    for task_index, reply in enumerate(replies):
        _merge_scc_reply(reply, current, stats, governor)
        if degradation is None and reply["report"] is not None:
            degradation = _master_report(
                reply["report"], governor, "stratified", wave_index, reply["stats"]["iterations"]
            )
    return degradation


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def parallel_evaluate(
    program: Program,
    db: Database,
    engine: str = "seminaive",
    governor: ResourceGovernor | None = None,
    workers: int = 2,
    resume_state=None,
) -> EvaluationResult:
    """Evaluate ``P(db)`` on a worker pool; falls back to serial.

    ``seminaive`` runs the sharded fixpoint, ``stratified`` the SCC-wave
    scheduler.  Other fixpoint engines have no parallel variant; they
    run serially and count a ``parallel.serial_fallback`` metric so the
    fallback is observable rather than silent.
    """
    spec = get_engine(engine)
    if spec.kind != "fixpoint":
        raise ValueError(
            f"engine {engine!r} is a {spec.kind} engine; parallel_evaluate() "
            "accepts fixpoint engines only"
        )
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    if workers == 1:
        if resume_state is not None and engine == "seminaive":
            return seminaive_fixpoint(program, db, governor, resume_state=resume_state)
        return spec.run(program, db, governor=governor)
    if engine == "seminaive":
        return parallel_seminaive_fixpoint(
            program, db, governor=governor, workers=workers, resume_state=resume_state
        )
    if engine == "stratified":
        return parallel_stratified(program, db, governor=governor, workers=workers)
    metrics_registry().increment("parallel.serial_fallback")
    return spec.run(program, db, governor=governor)
