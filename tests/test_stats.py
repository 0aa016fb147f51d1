"""Regression tests for :class:`repro.engine.stats.EvaluationStats`."""

from __future__ import annotations

import pytest

from repro.engine.stats import EvaluationStats
from repro.obs.metrics import metrics_registry


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics_registry().reset()
    yield
    metrics_registry().reset()


class TestStopIdempotence:
    def test_double_stop_does_not_inflate_elapsed(self):
        stats = EvaluationStats()
        stats.start()
        stats.stop()
        elapsed = stats.elapsed
        stats.stop()  # historically clobbered/inflated elapsed
        assert stats.elapsed == elapsed

    def test_stop_without_start_is_a_noop(self):
        stats = EvaluationStats()
        stats.stop()
        assert stats.elapsed == 0.0
        assert metrics_registry().counter("evaluation.runs") == 0

    def test_each_effective_stop_publishes_once(self):
        stats = EvaluationStats(engine="seminaive")
        stats.start()
        stats.stop()
        stats.stop()
        stats.stop()
        assert metrics_registry().counter("evaluation.runs") == 1
        assert metrics_registry().counter("evaluation.seminaive.runs") == 1

    def test_start_stop_can_reopen_and_accumulate(self):
        stats = EvaluationStats()
        stats.start()
        stats.stop()
        first = stats.elapsed
        stats.start()
        stats.stop()
        assert stats.elapsed >= first
        assert metrics_registry().counter("evaluation.runs") == 2


class TestToDict:
    def test_flat_json_ready_mapping(self):
        stats = EvaluationStats(
            iterations=1, rule_firings=2, subgoal_attempts=3, facts_derived=4, elapsed=0.5
        )
        assert stats.to_dict() == {
            "iterations": 1,
            "rule_firings": 2,
            "subgoal_attempts": 3,
            "facts_derived": 4,
            "duplicates_avoided": 0,
            "elapsed_s": 0.5,
        }

    def test_equality_ignores_engine_tag(self):
        assert EvaluationStats(engine="naive") == EvaluationStats(engine="seminaive")
