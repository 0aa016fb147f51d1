"""Unit tests for the observability layer: tracer, metrics."""

from __future__ import annotations

import json

import pytest

from repro import Database, evaluate, parse_program
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    ObservationSummary,
    metrics_registry,
)
from repro.obs.tracer import (
    NULL_SPAN,
    Span,
    aggregate_spans,
    render_spans,
    trace,
    tracer,
    tracing,
)


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics_registry().reset()
    yield
    metrics_registry().reset()


class TestSpanBasics:
    def test_disabled_by_default_returns_null_span(self):
        assert not tracer().enabled
        span = trace("anything")
        assert span is NULL_SPAN

    def test_null_span_is_falsy_and_inert(self):
        assert not NULL_SPAN
        with NULL_SPAN as span:
            span.set(a=1)
            span.add("c")
            span.watch(None)
        assert tracer().roots == []

    def test_disabled_mode_records_nothing(self):
        with trace("outer"):
            with trace("inner"):
                pass
        assert tracer().roots == []

    def test_nesting(self):
        with tracing() as spans:
            with trace("outer", kind="demo"):
                with trace("inner.a"):
                    pass
                with trace("inner.b"):
                    pass
        assert [s.name for s in spans] == ["outer"]
        outer = spans[0]
        assert [c.name for c in outer.children] == ["inner.a", "inner.b"]
        assert outer.attributes["kind"] == "demo"
        assert outer.elapsed >= 0.0

    def test_counters_and_walk(self):
        with tracing() as spans:
            with trace("outer") as outer:
                outer.add("hits", 2)
                with trace("inner") as inner:
                    inner.add("hits", 3)
        outer = spans[0]
        assert outer.counters["hits"] == 2
        assert outer.total("hits") == 5  # walk() sums the subtree
        assert [s.name for s in outer.walk()] == ["outer", "inner"]

    def test_tracing_restores_previous_state(self):
        before = tracer().enabled
        with tracing():
            assert tracer().enabled
            with trace("x"):
                pass
        assert tracer().enabled == before
        assert tracer().roots == []

    def test_to_dict_round_trips_through_json(self):
        with tracing() as spans:
            with trace("outer", kind="demo") as outer:
                outer.add("hits")
                with trace("inner"):
                    pass
        doc = json.loads(json.dumps(spans[0].to_dict()))
        assert doc["name"] == "outer"
        assert doc["counters"] == {"hits": 1}
        assert [c["name"] for c in doc["children"]] == ["inner"]


class TestWatch:
    def test_watch_attaches_stat_deltas(self):
        from repro.engine.stats import EvaluationStats

        stats = EvaluationStats()
        stats.subgoal_attempts = 10
        with tracing() as spans:
            with trace("work") as span:
                span.watch(stats)
                stats.subgoal_attempts += 7
                stats.rule_firings += 2
        counters = spans[0].counters
        assert counters["subgoal_attempts"] == 7
        assert counters["rule_firings"] == 2
        assert "iterations" not in counters  # zero deltas are dropped


class TestEngineSpans:
    def test_seminaive_emits_rule_spans(self, tc, ex2_edb):
        with tracing() as spans:
            evaluate(tc, ex2_edb)
        assert [s.name for s in spans] == ["seminaive.eval"]
        root = spans[0]
        names = {s.name for s in root.walk()}
        assert "seminaive.iteration" in names
        assert "seminaive.rule" in names
        # The root's watched counters agree with a fresh evaluation.
        result = evaluate(tc, ex2_edb)
        assert root.counters["subgoal_attempts"] == result.stats.subgoal_attempts
        assert root.counters["index_probes"] > 0

    def test_evaluation_outside_tracing_has_no_spans(self, tc, ex2_edb):
        evaluate(tc, ex2_edb)
        assert tracer().roots == []

    def test_aggregate_rule_spans(self, tc, ex2_edb):
        with tracing() as spans:
            evaluate(tc, ex2_edb)
        buckets = aggregate_spans(spans, "seminaive.rule", by="rule")
        assert set(buckets) == {0, 1}  # tc has two rules
        total = sum(b.get("subgoal_attempts", 0) for b in buckets.values())
        assert total == evaluate(tc, ex2_edb).stats.subgoal_attempts

    def test_render_spans_depth_filter(self, tc, ex2_edb):
        with tracing() as spans:
            evaluate(tc, ex2_edb)
        shallow = render_spans(spans, max_depth=0)
        assert "seminaive.eval" in shallow
        assert "seminaive.iteration" not in shallow
        deep = render_spans(spans, max_depth=2)
        assert "seminaive.rule" in deep


class TestMetricsRegistry:
    def test_evaluation_feeds_registry(self, tc, ex2_edb):
        registry = metrics_registry()
        result = evaluate(tc, ex2_edb)
        assert registry.counter("evaluation.runs") == 1
        assert registry.counter("evaluation.seminaive.runs") == 1
        assert (
            registry.counter("evaluation.subgoal_attempts")
            == result.stats.subgoal_attempts
        )
        assert registry.observation("evaluation.elapsed_s").count == 1

    def test_containment_feeds_registry(self, tc):
        from repro.core import check_uniform_containment

        registry = metrics_registry()
        check_uniform_containment(container=tc, contained=tc)
        assert registry.counter("containment.rule_tests") == len(tc.rules)

    def test_observation_summary(self):
        summary = ObservationSummary()
        for value in (2.0, 4.0, 6.0):
            summary.record(value)
        assert summary.count == 3
        assert summary.mean == 4.0
        assert summary.minimum == 2.0
        assert summary.maximum == 6.0

    def test_export_round_trip(self):
        registry = MetricsRegistry()
        registry.increment("a.b", 3)
        registry.observe("lat", 0.5)
        registry.observe("lat", 1.5)
        doc = registry.export()
        assert doc["schema"] == METRICS_SCHEMA
        clone = MetricsRegistry.from_export(json.loads(json.dumps(doc)))
        assert clone.counter("a.b") == 3
        assert clone.observation("lat").count == 2
        assert clone.export() == doc

    def test_from_export_rejects_unknown_schema(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_export({"schema": "bogus/9"})

    def test_reset(self):
        registry = MetricsRegistry()
        registry.increment("x")
        registry.reset()
        assert len(registry) == 0
