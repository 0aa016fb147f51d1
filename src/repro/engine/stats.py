"""Evaluation statistics.

The paper's motivation for minimization is that "removing redundant
parts ... reduces the number of joins done during the evaluation"
(Section I).  To make that claim measurable, every fixpoint run records
its join work:

* ``iterations`` -- rounds of the fixpoint loop,
* ``rule_firings`` -- successful body matches (one per derived head
  instantiation, including duplicates),
* ``subgoal_attempts`` -- body-atom match attempts during join search
  (the dominant cost driver; proportional to join work),
* ``facts_derived`` -- new atoms added to the database,
* ``elapsed`` -- wall-clock seconds.

Every completed ``start()``/``stop()`` run also publishes its totals to
the process-wide metrics registry (:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..obs.metrics import metrics_registry


@dataclass
class EvaluationStats:
    """Mutable counters filled in by the engines."""

    iterations: int = 0
    rule_firings: int = 0
    subgoal_attempts: int = 0
    facts_derived: int = 0
    elapsed: float = 0.0
    #: Duplicate derivations the textbook semi-naive snapshot discipline
    #: suppressed (counted by the semi-naive delta kernels).
    duplicates_avoided: int = 0
    engine: str | None = field(default=None, repr=False, compare=False)
    _started: float | None = field(default=None, repr=False, compare=False)

    def start(self) -> None:
        self._started = time.perf_counter()

    def stop(self) -> None:
        """Close the current timing window; idempotent.

        Only a ``stop()`` matching an open ``start()`` accumulates into
        ``elapsed`` -- a stray second call neither clobbers nor inflates
        it.  Each effective stop publishes the run to the registry.
        """
        if self._started is None:
            return
        self.elapsed += time.perf_counter() - self._started
        self._started = None
        metrics_registry().record_evaluation(self, engine=self.engine)

    def to_dict(self) -> dict[str, float | int]:
        """The counters as a flat JSON-ready mapping (profile/``--json`` use)."""
        return {
            "iterations": self.iterations,
            "rule_firings": self.rule_firings,
            "subgoal_attempts": self.subgoal_attempts,
            "facts_derived": self.facts_derived,
            "duplicates_avoided": self.duplicates_avoided,
            "elapsed_s": self.elapsed,
        }

    def summary(self) -> str:
        return (
            f"iterations={self.iterations} firings={self.rule_firings} "
            f"subgoals={self.subgoal_attempts} derived={self.facts_derived} "
            f"elapsed={self.elapsed * 1000:.2f}ms"
        )
