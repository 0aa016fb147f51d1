"""Resource governance for every evaluation entry point.

The paper's semi-decidable chase already imposes a robustness
discipline: a :class:`~repro.core.chase.ChaseBudget` plus a three-valued
:class:`~repro.core.chase.Verdict` turn a potentially non-terminating
procedure into one that always answers, if only with ``UNKNOWN``
(Section VIII).  This module promotes the same discipline to the
*decidable-but-expensive* side of the system -- the bottom-up and
top-down engines, whose fixpoints always terminate in theory but can
outlive any practical deadline on large or adversarial inputs.

The paper-grounded guarantee that makes graceful degradation sound:
positive Datalog is **monotone**, so every fact derived by an
interrupted fixpoint is in the minimal model ``M(P)``.  An interrupted
evaluation therefore returns a *sound under-approximation* -- exactly
the relationship ``[P, T]``'s budget-exhausted database bears to the
full chase result.  (For stratified programs the same holds stratum by
stratum: a rule with negation only fires once its negated predicates'
strata are complete, so every derived fact is in the perfect model.)

:class:`ResourceGovernor` carries the limits (wall-clock deadline,
max derived facts, max fixpoint rounds, approximate memory cap, and a
cooperative :class:`CancellationToken`) and is threaded through the
engines, which call :meth:`ResourceGovernor.tick` at rule/firing
granularity and :meth:`ResourceGovernor.checkpoint` at round
boundaries.  A tripped limit raises
:class:`~repro.errors.ResourceLimitExceeded` carrying a
:class:`DegradationReport`; the engine catches it and returns an
outcome with ``status=PARTIAL``.

Overhead discipline: every instrumentation site guards with
``if governor is not None`` (zero cost when ungoverned), and the
deadline clock is only consulted every ``check_stride`` ticks.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ResourceLimitExceeded
from ..obs.metrics import metrics_registry


class EvaluationStatus(enum.Enum):
    """Whether an evaluation ran to fixpoint or was degraded."""

    COMPLETE = "complete"
    PARTIAL = "partial"


@dataclass(frozen=True)
class DegradationReport:
    """Which limit tripped, and where the evaluation stood when it did.

    ``limit`` is one of ``"deadline"``, ``"max_facts"``, ``"max_rounds"``,
    ``"max_memory"``, ``"cancelled"``.  Location fields are best-effort:
    the engine keeps the governor's context up to date, so the report
    names the stratum / rule index / round in flight at the trip.
    """

    limit: str
    detail: str
    engine: Optional[str] = None
    stratum: Optional[int] = None
    rule_index: Optional[int] = None
    round: Optional[int] = None
    elapsed_s: float = 0.0
    facts_seen: int = 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, embedded in ``eval``/``query --json`` output."""
        return {
            "limit": self.limit,
            "detail": self.detail,
            "engine": self.engine,
            "stratum": self.stratum,
            "rule_index": self.rule_index,
            "round": self.round,
            "elapsed_s": self.elapsed_s,
            "facts_seen": self.facts_seen,
        }

    def summary(self) -> str:
        where = []
        if self.engine is not None:
            where.append(f"engine={self.engine}")
        if self.stratum is not None:
            where.append(f"stratum={self.stratum}")
        if self.round is not None:
            where.append(f"round={self.round}")
        if self.rule_index is not None:
            where.append(f"rule={self.rule_index}")
        location = f" at {' '.join(where)}" if where else ""
        return (
            f"PARTIAL: {self.limit} tripped{location} "
            f"({self.detail}; {self.elapsed_s * 1000:.1f}ms elapsed, "
            f"{self.facts_seen} facts)"
        )


class CancellationToken:
    """Cooperative cancellation: callers set it, the governor observes it.

    Thread-safe by construction (a single boolean flip); a controlling
    thread or signal handler may call :meth:`cancel` while an
    evaluation runs on the main thread.
    """

    __slots__ = ("_cancelled",)

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


def approximate_database_bytes(db: Any) -> int:
    """A cheap estimate of a database's memory footprint:
    :meth:`~repro.data.database.Database.approximate_bytes`, which reads
    relation and index sizes only, never the tuples themselves (see
    ``docs/STORAGE.md``).  The cap is a tripwire against runaway growth,
    not an accountant.
    """
    return db.approximate_bytes()


class ResourceGovernor:
    """Enforces resource limits over one evaluation (or retry attempt).

    Args:
        deadline_s: wall-clock budget in seconds (``None`` = unlimited).
        max_facts: cap on facts *derived* during the run.
        max_rounds: cap on fixpoint rounds / passes.
        max_memory_bytes: approximate cap on the working database size
            (checked at round boundaries via
            :func:`approximate_database_bytes`).
        token: cooperative :class:`CancellationToken`.
        check_stride: how many :meth:`tick` calls between deadline
            checks; the default keeps the clock off the hot path.
        on_round: optional round-boundary hook with signature
            ``on_round(db, round, delta=None, governor=None)``, invoked
            by :meth:`checkpoint` *before* limits are enforced (so the
            trip round's state is still captured).  This is the seam
            durable checkpoints hang off
            (:meth:`repro.resilience.checkpoint.CheckpointManager.on_round`);
            configuration, not state -- :meth:`reset` leaves it alone.
    """

    __slots__ = (
        "deadline_s",
        "max_facts",
        "max_rounds",
        "max_memory_bytes",
        "token",
        "check_stride",
        "on_round",
        "_started_at",
        "_ticks",
        "_facts",
        "_rounds",
        "_engine",
        "_stratum",
        "_rule_index",
        "_round",
    )

    def __init__(
        self,
        deadline_s: float | None = None,
        max_facts: int | None = None,
        max_rounds: int | None = None,
        max_memory_bytes: int | None = None,
        token: CancellationToken | None = None,
        check_stride: int = 64,
        on_round: Any = None,
    ):
        self.deadline_s = deadline_s
        self.max_facts = max_facts
        self.max_rounds = max_rounds
        self.max_memory_bytes = max_memory_bytes
        self.token = token
        self.check_stride = max(1, check_stride)
        self.on_round = on_round
        self.reset()

    # -- lifecycle -------------------------------------------------------------
    def reset(self) -> None:
        """Restart all counters and the deadline clock (one per attempt)."""
        self._started_at: float | None = None
        self._ticks = 0
        self._facts = 0
        self._rounds = 0
        self._engine: str | None = None
        self._stratum: int | None = None
        self._rule_index: int | None = None
        self._round: int | None = None

    def restore(self, facts: int = 0, rounds: int = 0) -> None:
        """Pre-credit counters from a checkpointed run being resumed.

        ``max_facts`` / ``max_rounds`` then bound the *cumulative*
        evaluation (pre-crash work included), not just the resumed
        attempt.  The deadline clock is deliberately **not** restored:
        a wall-clock budget is per attempt, matching the
        :class:`~repro.resilience.session.EvaluationSession` contract.
        """
        self._facts = max(0, facts)
        self._rounds = max(0, rounds)

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # -- context (cheap; engines keep it current for the report) ---------------
    def note(
        self,
        engine: str | None = None,
        stratum: int | None = None,
        rule_index: int | None = None,
        round: int | None = None,
    ) -> None:
        """Record where the evaluation currently stands (for reports)."""
        if engine is not None:
            self._engine = engine
        if stratum is not None:
            self._stratum = stratum
        if rule_index is not None:
            self._rule_index = rule_index
        if round is not None:
            self._round = round

    # -- enforcement -----------------------------------------------------------
    def _trip(self, limit: str, detail: str) -> None:
        report = DegradationReport(
            limit=limit,
            detail=detail,
            engine=self._engine,
            stratum=self._stratum,
            rule_index=self._rule_index,
            round=self._round,
            elapsed_s=self.elapsed(),
            facts_seen=self._facts,
        )
        registry = metrics_registry()
        registry.increment("governor.trips")
        registry.increment(f"governor.trips.{limit}")
        raise ResourceLimitExceeded(report.summary(), report=report)

    def _check_deadline_and_token(self) -> None:
        if self.token is not None and self.token.cancelled:
            self._trip("cancelled", "cancellation token set")
        if self.deadline_s is not None:
            if self._started_at is None:
                self._started_at = time.monotonic()
            elif time.monotonic() - self._started_at > self.deadline_s:
                self._trip("deadline", f"wall-clock deadline of {self.deadline_s}s")

    def tick(self, facts: int = 0) -> None:
        """Hot-path check: count work, check the clock every stride ticks.

        *facts* is the number of facts derived since the last tick (the
        engines pass 0 or small deltas; :meth:`add_facts` is equivalent).
        """
        if facts:
            self._facts += facts
            if self.max_facts is not None and self._facts > self.max_facts:
                self._trip("max_facts", f"derived more than {self.max_facts} facts")
        self._ticks += 1
        if self._ticks % self.check_stride == 0 or self._started_at is None:
            self._check_deadline_and_token()

    def add_facts(self, count: int) -> None:
        """Credit derived facts without paying for a clock check."""
        if count:
            self._facts += count
            if self.max_facts is not None and self._facts > self.max_facts:
                self._trip("max_facts", f"derived more than {self.max_facts} facts")

    @property
    def facts_seen(self) -> int:
        """Facts credited so far (for checkpoint capture)."""
        return self._facts

    @property
    def rounds_seen(self) -> int:
        """Round-boundary checks passed so far (for checkpoint capture)."""
        return self._rounds

    def checkpoint(
        self, db: Any = None, round: int | None = None, delta: Any = None
    ) -> None:
        """Round-boundary check: rounds, memory, deadline, cancellation.

        Engines call this once per fixpoint round / pass with the
        working database, so the (comparatively pricey) memory estimate
        runs at round granularity only.  *delta* is the semi-naive
        frontier in flight (``None`` on engines without one); it is not
        inspected here, only forwarded to the :attr:`on_round` hook so
        durable checkpoints can capture a resumable frontier.

        The hook runs **before** limits are enforced: when this very
        round boundary trips a limit, the state at the trip is already
        durable and ``resume`` can continue from it.
        """
        if round is not None:
            self._round = round
            self._rounds += 1
        if self.on_round is not None and db is not None:
            self.on_round(db, round, delta=delta, governor=self)
        if round is not None:
            if self.max_rounds is not None and self._rounds > self.max_rounds:
                self._trip("max_rounds", f"exceeded {self.max_rounds} fixpoint rounds")
        if self.max_memory_bytes is not None and db is not None:
            estimate = approximate_database_bytes(db)
            if estimate > self.max_memory_bytes:
                self._trip(
                    "max_memory",
                    f"~{estimate} bytes exceeds cap of {self.max_memory_bytes}",
                )
        self._check_deadline_and_token()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        limits = []
        if self.deadline_s is not None:
            limits.append(f"deadline={self.deadline_s}s")
        if self.max_facts is not None:
            limits.append(f"max_facts={self.max_facts}")
        if self.max_rounds is not None:
            limits.append(f"max_rounds={self.max_rounds}")
        if self.max_memory_bytes is not None:
            limits.append(f"max_memory={self.max_memory_bytes}")
        return f"<ResourceGovernor {' '.join(limits) or 'unlimited'}>"
