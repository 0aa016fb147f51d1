"""Deterministic fault injection at the database storage seams.

Every engine reads and writes through a handful of
:class:`~repro.data.database.Database` operations -- ``candidates``
(index probes / scans feeding the joins), ``_add_row`` (all fact
insertion; the bulk union of :meth:`Database.update` counts as one
``add`` per row), and ``contains_tuple`` (every membership test:
delta-novelty checks, negated subgoals, ``atom in db``).  Those are
exactly the operations that would touch a remote backend in a scaled
deployment, so they are the seams where this harness injects
:class:`~repro.errors.TransientStorageError` or artificial latency.

Determinism is the design center: a :class:`FaultPlan` schedules faults
at exact *operation counts* (optionally derived from a seed), never
from wall-clock time or global randomness, so every chaos run is
reproducible bit-for-bit and every failure a CI job finds can be
replayed locally from its seed.

Use :meth:`FaultPlan.wrap` to get a :class:`FaultyDatabase` view of an
input database; engines ``copy()`` their input, and the wrapper's copy
stays faulty (sharing the same plan and counters), so faults keep
firing throughout the evaluation.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..data.database import Database
from ..errors import SimulatedCrash, TransientStorageError
from ..obs.metrics import metrics_registry

#: Operations the harness can intercept.  The first three are the
#: documented Database storage seams; ``crash`` is the process-abort
#: seam advanced by the checkpoint writer's write stages (see
#: :meth:`repro.resilience.checkpoint.CheckpointManager.write`) -- a
#: fault scheduled there raises :class:`~repro.errors.SimulatedCrash`,
#: which nothing retries, simulating SIGKILL mid-write.
FAULT_OPERATIONS = ("candidates", "add", "contains", "crash")


@dataclass(frozen=True)
class InjectedFault:
    """One scheduled fault.

    Fires when *operation*'s call counter reaches *at* (1-based).  A
    ``transient`` fault raises :class:`TransientStorageError` once and
    is consumed; a ``persistent=True`` fault fires on *every* call from
    *at* onward (modelling a hard outage that retries cannot outlast).
    ``latency_s > 0`` sleeps instead of raising (a slow backend), which
    composes with the governor's deadline.
    """

    operation: str
    at: int
    persistent: bool = False
    latency_s: float = 0.0

    def __post_init__(self):
        if self.operation not in FAULT_OPERATIONS:
            raise ValueError(
                f"unknown fault operation {self.operation!r}; "
                f"expected one of {FAULT_OPERATIONS}"
            )
        if self.at < 1:
            raise ValueError("fault position 'at' is 1-based and must be >= 1")


class FaultPlan:
    """A deterministic schedule of injected faults with live counters.

    The plan owns one call counter per operation; every
    :class:`FaultyDatabase` bound to the plan shares them, so a
    transient fault consumed during attempt 1 does not re-fire during
    the retry -- which is precisely what makes it *transient* from the
    :class:`~repro.resilience.session.EvaluationSession`'s viewpoint.
    """

    def __init__(self, faults: Iterable[InjectedFault] = ()):
        self._onetime: dict[str, dict[int, InjectedFault]] = {}
        self._persistent: dict[str, list[InjectedFault]] = {}
        self.counters: dict[str, int] = {op: 0 for op in FAULT_OPERATIONS}
        self.injected = 0
        for fault in faults:
            if fault.persistent:
                self._persistent.setdefault(fault.operation, []).append(fault)
            else:
                self._onetime.setdefault(fault.operation, {})[fault.at] = fault

    @classmethod
    def transient_at(
        cls, operation: str, positions: Iterable[int], latency_s: float = 0.0
    ) -> "FaultPlan":
        """Explicit schedule: one-shot faults at the given call counts."""
        return cls(
            InjectedFault(operation, at, latency_s=latency_s) for at in positions
        )

    @classmethod
    def crash_at(cls, positions: Iterable[int]) -> "FaultPlan":
        """Schedule :class:`~repro.errors.SimulatedCrash` at the given
        crash-seam stages.  Each checkpoint write advances the ``crash``
        counter by one per write stage (see
        :meth:`~repro.resilience.checkpoint.CheckpointManager.write`),
        so positions address an exact write and stage within it."""
        return cls(InjectedFault("crash", at) for at in positions)

    @classmethod
    def seeded(
        cls,
        seed: int,
        operations: Iterable[str] = ("candidates", "add"),
        faults_per_operation: int = 3,
        horizon: int = 2_000,
        latency_s: float = 0.0,
    ) -> "FaultPlan":
        """Derive a reproducible schedule from *seed*.

        For each operation, ``faults_per_operation`` distinct one-shot
        positions are drawn uniformly from ``[1, horizon]`` by a
        dedicated :class:`random.Random` -- same seed, same schedule,
        on every platform.
        """
        rng = random.Random(seed)
        plan_faults = []
        for operation in operations:
            count = min(faults_per_operation, horizon)
            for at in sorted(rng.sample(range(1, horizon + 1), count)):
                plan_faults.append(
                    InjectedFault(operation, at, latency_s=latency_s)
                )
        return cls(plan_faults)

    def wrap(self, db: Database) -> "Database":
        """A faulty view of *db* (copies the facts; shares this plan)."""
        return FaultyDatabase.wrap(db, self)

    def before(self, operation: str) -> None:
        """Advance *operation*'s counter; fire any scheduled fault."""
        count = self.counters[operation] + 1
        self.counters[operation] = count
        fault = None
        for persistent in self._persistent.get(operation, ()):
            if count >= persistent.at:
                fault = persistent
                break
        if fault is None:
            fault = self._onetime.get(operation, {}).pop(count, None)
        if fault is None:
            return
        self.injected += 1
        metrics_registry().increment("resilience.faults_injected")
        if fault.latency_s > 0.0:
            time.sleep(fault.latency_s)
            return
        if operation == "crash":
            raise SimulatedCrash(
                f"injected crash at {operation} seam stage #{count}"
            )
        raise TransientStorageError(
            f"injected fault: {operation} call #{count} failed"
            + (" (persistent)" if fault.persistent else "")
        )

    @property
    def pending(self) -> int:
        """One-shot faults not yet consumed (persistent ones excluded)."""
        return sum(len(schedule) for schedule in self._onetime.values())


class FaultyDatabase(Database):
    """A :class:`Database` whose storage seams consult a :class:`FaultPlan`.

    ``copy()`` returns another faulty view bound to the same plan, so a
    wrapped input stays wrapped through the engines' defensive copies.
    """

    __slots__ = ("_plan",)

    def __init__(self, plan: FaultPlan, atoms=()):  # noqa: D107
        self._plan = plan
        Database.__init__(self, atoms)

    @classmethod
    def wrap(cls, db: Database, plan: FaultPlan) -> "FaultyDatabase":
        new = cls(plan)
        for pred, rows in db._relations.items():
            new._arities[pred] = db._arities[pred]
            new._relations[pred] = set(rows)
            new._size += len(rows)
        return new

    def copy(self) -> "FaultyDatabase":
        return FaultyDatabase.wrap(self, self._plan)

    def empty_like(self) -> "FaultyDatabase":
        """Snapshots allocated during evaluation stay fault-wrapped."""
        return FaultyDatabase(self._plan)

    # -- intercepted seams -----------------------------------------------------
    def _add_row(self, predicate: str, row: tuple) -> bool:
        self._plan.before("add")
        return Database._add_row(self, predicate, row)

    def candidates(self, predicate: str, bound: Mapping[int, object]):
        self._plan.before("candidates")
        return Database.candidates(self, predicate, bound)

    def contains_tuple(self, predicate: str, row: tuple) -> bool:
        self._plan.before("contains")
        return Database.contains_tuple(self, predicate, row)

    def _union_rows(self, predicate: str, rows) -> int:
        # The bulk union still is one "add" per row: a plan position
        # addresses the same row as when they were inserted one by one.
        for _ in rows:
            self._plan.before("add")
        return Database._union_rows(self, predicate, rows)
