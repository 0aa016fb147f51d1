"""Retrying evaluation sessions: transient faults retried, limits honored.

:class:`EvaluationSession` is the production-shaped entry point that
composes the three resilience mechanisms:

* a :class:`~repro.resilience.governor.ResourceGovernor` bounding each
  attempt (reset per attempt -- the deadline is per-attempt, so a
  session's worst case is ``(max_retries + 1) * deadline`` plus
  backoff);
* a :class:`~repro.resilience.faults.FaultPlan` (tests/chaos drills)
  or any real backend raising
  :class:`~repro.errors.TransientStorageError`, retried under a
  :class:`RetryPolicy` with exponential backoff and *deterministic*
  seeded jitter;
* the engine registry (:mod:`repro.engine.fixpoint`), so one session
  class drives every engine, bottom-up or goal-directed.

Without a checkpoint manager, every attempt restarts from a pristine
copy of the input database -- a faulted attempt may have died mid-copy,
and Datalog evaluation is cheap to restart relative to reasoning about
resumable state.  With a
:class:`~repro.resilience.checkpoint.CheckpointManager` attached, the
session upgrades to **resume-from-checkpoint** retries: every attempt
writes durable round snapshots through the governor's ``on_round``
hook, and each attempt (including the first, which is how a freshly
constructed session recovers from a killed predecessor process) starts
from the latest valid checkpoint generation instead of the EDB -- work
done before a fault is never repeated.  Because the fault plan's
counters are shared across attempts, a one-shot (transient) fault
consumed in attempt *n* does not re-fire in attempt *n + 1*, while a
persistent fault keeps firing until retries are exhausted and then
surfaces as the typed error.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..errors import CheckpointError, ResourceLimitExceeded, TransientStorageError
from ..obs.metrics import metrics_registry
from ..obs.tracer import trace
from .checkpoint import CheckpointManager, resume_evaluation
from .faults import FaultPlan
from .governor import ResourceGovernor


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``delay(i) = base_delay_s * multiplier**i * (1 + jitter * u_i)``
    where ``u_i`` is the *i*-th draw of ``random.Random(seed)`` -- the
    same seed always produces the same backoff series, keeping chaos
    runs reproducible end-to-end.  The default base delay is 0 so test
    suites never sleep; production callers set a real base.
    """

    max_retries: int = 3
    base_delay_s: float = 0.0
    multiplier: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def delays(self) -> list[float]:
        """The full backoff series, one delay per permitted retry."""
        rng = random.Random(self.seed)
        return [
            self.base_delay_s * (self.multiplier**i) * (1.0 + self.jitter * rng.random())
            for i in range(self.max_retries)
        ]


@dataclass
class SessionResult:
    """What one :meth:`EvaluationSession.run` produced.

    ``database`` is the computed fixpoint for whole-database engines or
    the answer set for query engines; ``outcome`` is the underlying
    :class:`~repro.engine.fixpoint.EvaluationResult` carrying stats and
    the PARTIAL status/degradation, if any.  ``attempts`` counts the
    evaluations started (1 = no retry was needed).
    """

    database: object
    outcome: object
    attempts: int
    faults_seen: int

    @property
    def status(self):
        return self.outcome.status

    @property
    def degradation(self):
        return self.outcome.degradation


class EvaluationSession:
    """Run one evaluation under governance, fault wrapping, and retries.

    Args:
        program: the Datalog program.
        db: the input database (never mutated; each attempt copies it).
        engine: any registered engine name; query engines require
            *query*.
        query: goal atom for ``magic`` / ``supplementary`` / ``topdown``.
        governor: per-attempt resource limits (reset before each
            attempt); ``None`` = unlimited.
        retry_policy: how :class:`TransientStorageError` is retried.
        fault_plan: optional injection schedule -- when given, each
            attempt evaluates over ``fault_plan.wrap(db)``.
        on_limit: ``"partial"`` returns the PARTIAL outcome;
            ``"raise"`` re-raises the governor's
            :class:`ResourceLimitExceeded` instead.
        checkpoint_manager: when given (fixpoint engines only), every
            attempt writes durable round snapshots and starts from the
            latest valid checkpoint generation instead of the EDB.  The
            session fills in the manager's program/engine and wires its
            :meth:`~repro.resilience.checkpoint.CheckpointManager.on_round`
            into the governor (creating a limitless governor if none
            was given, so the hook has a carrier).
    """

    def __init__(
        self,
        program,
        db,
        engine: str = "seminaive",
        query=None,
        governor: ResourceGovernor | None = None,
        retry_policy: RetryPolicy = RetryPolicy(),
        fault_plan: FaultPlan | None = None,
        on_limit: str = "partial",
        checkpoint_manager: CheckpointManager | None = None,
    ):
        if on_limit not in ("partial", "raise"):
            raise ValueError(f"on_limit must be 'partial' or 'raise', got {on_limit!r}")
        self.program = program
        self.db = db
        self.engine = engine
        self.query = query
        self.governor = governor
        self.retry_policy = retry_policy
        self.fault_plan = fault_plan
        self.on_limit = on_limit
        self.checkpoint_manager = checkpoint_manager
        if checkpoint_manager is not None:
            from ..engine.fixpoint import get_engine

            if get_engine(engine).kind != "fixpoint":
                raise ValueError(
                    f"checkpointing requires a fixpoint engine, not {engine!r}"
                )
            if checkpoint_manager.program is None:
                checkpoint_manager.program = program
            if checkpoint_manager.engine is None:
                checkpoint_manager.engine = engine
            if self.governor is None:
                self.governor = ResourceGovernor()
            self.governor.on_round = checkpoint_manager.on_round

    # -- one attempt -----------------------------------------------------------
    def _resume_attempt(self):
        """Continue from the latest valid checkpoint, if one exists.

        Returns ``None`` (caller falls back to a fresh start) when there
        is no loadable generation, or the latest one belongs to another
        program or engine configuration (fingerprint mismatch) -- a
        stale file must never poison a new evaluation.
        """
        checkpoint = self.checkpoint_manager.latest()
        if checkpoint is None or checkpoint.engine != self.engine:
            return None
        source = (
            self.fault_plan.wrap(checkpoint.database)
            if self.fault_plan
            else checkpoint.database
        )
        if self.governor is not None:
            self.governor.reset()
            self.governor.note(engine=self.engine)
            state = checkpoint.governor_state or {}
            self.governor.restore(
                facts=state.get("facts", 0), rounds=state.get("rounds", 0)
            )
        metrics_registry().increment("checkpoint.resumed_attempts")
        try:
            result = resume_evaluation(
                checkpoint,
                governor=self.governor,
                database=source,
                program=self.program,
            )
        except CheckpointError:
            return None
        return result.database, result

    def _attempt(self):
        from ..engine.fixpoint import get_engine

        spec = get_engine(self.engine)
        if self.checkpoint_manager is not None and spec.kind == "fixpoint":
            resumed = self._resume_attempt()
            if resumed is not None:
                return resumed
        source = self.fault_plan.wrap(self.db) if self.fault_plan else self.db
        if self.governor is not None:
            self.governor.reset()
            self.governor.note(engine=self.engine)
        if spec.kind == "query":
            if self.query is None:
                raise ValueError(f"engine {self.engine!r} requires a query atom")
            return spec.answer(
                self.program, source, self.query, governor=self.governor
            )
        if spec.kind != "fixpoint":
            raise ValueError(
                f"engine {self.engine!r} is a {spec.kind} engine and cannot be "
                "driven by an EvaluationSession"
            )
        result = spec.run(self.program, source, governor=self.governor)
        return result.database, result

    def run(self) -> SessionResult:
        """Evaluate, retrying transient faults; see the class docstring."""
        registry = metrics_registry()
        delays = self.retry_policy.delays()
        attempts = 0
        with trace("resilience.session", engine=self.engine) as span:
            while True:
                attempts += 1
                try:
                    with trace("resilience.attempt", index=attempts):
                        database, outcome = self._attempt()
                except TransientStorageError:
                    registry.increment("resilience.transient_faults")
                    if attempts > len(delays):
                        registry.increment("resilience.retries_exhausted")
                        raise
                    registry.increment("resilience.retries")
                    delay = delays[attempts - 1]
                    if delay > 0.0:
                        time.sleep(delay)
                    continue
                if span:
                    span.add("attempts", attempts)
                    span.set(status=outcome.status.value)
                if self.on_limit == "raise" and outcome.degradation is not None:
                    raise ResourceLimitExceeded(
                        outcome.degradation.summary(), report=outcome.degradation
                    )
                faults = self.fault_plan.injected if self.fault_plan else 0
                return SessionResult(
                    database=database,
                    outcome=outcome,
                    attempts=attempts,
                    faults_seen=faults,
                )
