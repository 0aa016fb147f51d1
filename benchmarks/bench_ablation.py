"""Ablation benches for the engine's design choices (DESIGN.md §3).

Three decisions in the join machinery are load-bearing; each is ablated
against its naive alternative on the same workload:

* **greedy join ordering** (most-bound-first) vs the rule's written
  order;
* **existential witness cutoff** (stop at the first witness once all
  head variables are bound) vs full enumeration;
* **index probes** vs relation scans.

The assertions pin the *direction* (the chosen design never loses);
wall-clock magnitude is machine-dependent and recorded by the harness.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.engine.joins import plan_order
from repro.engine.stats import EvaluationStats
from repro.lang import parse_rule
from repro.lang.terms import Constant
from repro.testing import match_body
from repro.workloads import chain, random_graph


def _count_solutions(db, literals, **kwargs) -> tuple[int, EvaluationStats]:
    stats = EvaluationStats()
    n = sum(1 for _ in match_body(db, literals, stats=stats, **kwargs))
    return n, stats


@pytest.fixture(scope="module")
def graph():
    return random_graph(40, 80, seed=2, predicate="A")


# A body whose written order is hostile: the selective atom comes last.
HOSTILE = parse_rule("Q(x) :- A(y, z), A(x, y), A(0, x).").body


def test_ablation_join_order_greedy(benchmark, graph):
    def run():
        return _count_solutions(graph, HOSTILE)

    solutions, stats = benchmark(run)
    benchmark.extra_info["subgoals"] = stats.subgoal_attempts


def test_ablation_join_order_written(benchmark, graph):
    def run():
        return _count_solutions(graph, HOSTILE, order=[0, 1, 2])

    solutions, stats = benchmark(run)
    benchmark.extra_info["subgoals"] = stats.subgoal_attempts


def test_ablation_join_order_shape(graph):
    greedy_n, greedy = _count_solutions(graph, HOSTILE)
    written_n, written = _count_solutions(graph, HOSTILE, order=[0, 1, 2])
    assert greedy_n == written_n  # same semantics
    assert greedy.subgoal_attempts <= written.subgoal_attempts


# A body with three head-irrelevant existential atoms.
EXISTENTIAL = parse_rule("Q(x, z) :- A(x, y), A(y, z), A(x, s1), A(x, s2), A(y, s3).").body
HEAD_VARS = frozenset(parse_rule("Q(x, z) :- A(x, y), A(y, z), A(x, s1), A(x, s2), A(y, s3).").head.variables())


def test_ablation_witness_cutoff_on(benchmark, graph):
    def run():
        return _count_solutions(graph, EXISTENTIAL, witness_after=HEAD_VARS)

    solutions, stats = benchmark(run)
    benchmark.extra_info["solutions"] = solutions
    benchmark.extra_info["subgoals"] = stats.subgoal_attempts


def test_ablation_witness_cutoff_off(benchmark, graph):
    def run():
        return _count_solutions(graph, EXISTENTIAL)

    solutions, stats = benchmark(run)
    benchmark.extra_info["solutions"] = solutions
    benchmark.extra_info["subgoals"] = stats.subgoal_attempts


def test_ablation_witness_cutoff_shape(graph):
    on_n, _on = _count_solutions(graph, EXISTENTIAL, witness_after=HEAD_VARS)
    off_n, _off = _count_solutions(graph, EXISTENTIAL)
    # Same distinct head instantiations, far fewer solution tuples.
    def heads(literals, **kw):
        head = parse_rule("Q(x, z) :- A(x, y), A(y, z), A(x, s1), A(x, s2), A(y, s3).").head
        return {
            head.substitute(b)
            for b in match_body(graph, literals, **kw)
        }

    assert heads(EXISTENTIAL, witness_after=HEAD_VARS) == heads(EXISTENTIAL)
    assert on_n <= off_n


def test_ablation_index_probe(benchmark):
    db = chain(500)
    target = Constant(250)

    def indexed():
        return list(db.candidates("A", {0: target}))

    rows = benchmark(indexed)
    assert len(rows) == 1


def test_ablation_full_scan(benchmark):
    db = chain(500)
    target = Constant(250)

    def scan():
        return [row for row in db.tuples("A") if row[0] == target]

    rows = benchmark(scan)
    assert len(rows) == 1
