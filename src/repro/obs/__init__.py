"""Observability: span tracing, process metrics, profiling.

This package is the measurement substrate the benchmark in ``bench/``
reads from the outside.  Three pieces:

* :mod:`repro.obs.tracer` -- nested spans with wall time and work
  counters, wired into all engines and the paper's decision procedures;
  ~zero overhead while disabled.
* :mod:`repro.obs.metrics` -- a process-wide registry of counters and
  observation summaries with a versioned JSON export.
* :mod:`repro.obs.profiler` -- one-shot per-rule/per-span profiles of
  an evaluation (the ``repro-datalog profile`` verb).

Import note: this ``__init__`` loads only the dependency-free tracer
and metrics modules, because low layers (``engine.stats``,
``core.minimize``) import them at module load.  The profiler -- which
imports the engines back -- loads lazily via attribute access
(``repro.obs.profile_evaluation``) or explicit submodule import.
"""

from __future__ import annotations

from .metrics import METRICS_SCHEMA, MetricsRegistry, ObservationSummary, metrics_registry
from .tracer import (
    NULL_SPAN,
    Span,
    Tracer,
    aggregate_spans,
    render_spans,
    trace,
    tracer,
    tracing,
)

__all__ = [
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObservationSummary",
    "Span",
    "Tracer",
    "aggregate_spans",
    "metrics_registry",
    "profile_evaluation",
    "render_spans",
    "trace",
    "tracer",
    "tracing",
]

_LAZY = {
    "profile_evaluation": ("profiler", "profile_evaluation"),
    "ProfileReport": ("profiler", "ProfileReport"),
    "render_profile": ("profiler", "render_profile"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return getattr(module, attribute)
