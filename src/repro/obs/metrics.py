"""A process-wide metrics registry with a versioned JSON export.

Counters are monotone sums (``containment.tests``); observations are
value distributions summarized as count/total/min/max
(``evaluation.elapsed_s``).  Producers throughout the codebase feed the
shared registry:

* every :class:`~repro.engine.stats.EvaluationStats` publishes its
  totals when its run stops,
* the linter's :class:`~repro.core.minimize.ContainmentBudget` counts
  spent and skipped uniform-containment tests,
* the chase records rounds and nulls created.

The export schema is versioned (:data:`METRICS_SCHEMA`) so that saved
registry snapshots stay machine-diffable across releases;
:meth:`MetricsRegistry.from_export` round-trips an export and refuses
unknown versions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Mapping

#: Version marker embedded in every export.
METRICS_SCHEMA = "repro.metrics/1"


@dataclass
class ObservationSummary:
    """Running summary of an observed value series (no samples kept)."""

    count: int = 0
    total: float = 0.0
    minimum: float | None = None
    maximum: float | None = None

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float | int | None]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ObservationSummary":
        return cls(
            count=int(data["count"]),
            total=float(data["total"]),
            minimum=data["min"],
            maximum=data["max"],
        )


class MetricsRegistry:
    """Named counters and observation summaries.

    Not thread-safe by design: the evaluator is single-threaded, and a
    lost increment in a hypothetical racy caller costs telemetry, not
    correctness.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._observations: dict[str, ObservationSummary] = {}

    # -- producers -------------------------------------------------------------
    def increment(self, name: str, value: int | float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def observe(self, name: str, value: float) -> None:
        summary = self._observations.get(name)
        if summary is None:
            summary = self._observations[name] = ObservationSummary()
        summary.record(value)

    def record_evaluation(self, stats: Any, engine: str | None = None) -> None:
        """Publish one finished evaluation's counters.

        Called by :meth:`EvaluationStats.stop`; *stats* exposes the
        standard counter attributes.  With *engine* given, per-engine
        counters (``evaluation.<engine>.runs`` ...) are kept alongside
        the global ones.
        """
        prefixes = ["evaluation"]
        if engine:
            prefixes.append(f"evaluation.{engine}")
        for prefix in prefixes:
            self.increment(f"{prefix}.runs")
            self.increment(f"{prefix}.iterations", stats.iterations)
            self.increment(f"{prefix}.rule_firings", stats.rule_firings)
            self.increment(f"{prefix}.subgoal_attempts", stats.subgoal_attempts)
            self.increment(f"{prefix}.facts_derived", stats.facts_derived)
        avoided = getattr(stats, "duplicates_avoided", 0)
        if avoided:
            self.increment("delta.duplicate_derivations_avoided", avoided)
            if engine:
                self.increment(
                    f"delta.duplicate_derivations_avoided.{engine}", avoided
                )
        self.observe("evaluation.elapsed_s", stats.elapsed)

    def record_analysis(self, domain: str, iterations: int, widenings: int) -> None:
        """Publish one abstract-interpretation fixpoint run.

        Called by :func:`repro.analysis.absint.framework.analyze`;
        *domain* is the abstract domain's name (``sorts``,
        ``cardinality``, ...).  Per-domain counters sit alongside the
        ``analysis.*`` totals so registry snapshots show which lattices
        did the work.
        """
        self.increment("analysis.runs")
        self.increment(f"analysis.{domain}.runs")
        self.increment("analysis.fixpoint_iterations", iterations)
        self.increment(f"analysis.{domain}.fixpoint_iterations", iterations)
        if widenings:
            self.increment("analysis.widenings", widenings)
            self.increment(f"analysis.{domain}.widenings", widenings)

    # -- consumers -------------------------------------------------------------
    def counter(self, name: str) -> int | float:
        return self._counters.get(name, 0)

    def observation(self, name: str) -> ObservationSummary | None:
        return self._observations.get(name)

    def counters(self) -> dict[str, int | float]:
        return dict(self._counters)

    def reset(self) -> None:
        self._counters.clear()
        self._observations.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._observations)

    # -- export / import -------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """A JSON-ready snapshot under the versioned schema."""
        return {
            "schema": METRICS_SCHEMA,
            "counters": dict(sorted(self._counters.items())),
            "observations": {
                name: summary.to_dict()
                for name, summary in sorted(self._observations.items())
            },
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.export(), indent=indent, sort_keys=True)

    @classmethod
    def from_export(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`export` output (round-trip)."""
        schema = data.get("schema")
        if schema != METRICS_SCHEMA:
            raise ValueError(
                f"unsupported metrics schema {schema!r}; expected {METRICS_SCHEMA!r}"
            )
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry._counters[name] = value
        for name, summary in data.get("observations", {}).items():
            registry._observations[name] = ObservationSummary.from_dict(summary)
        return registry


_REGISTRY = MetricsRegistry()


def metrics_registry() -> MetricsRegistry:
    """The process-wide registry every producer feeds."""
    return _REGISTRY
