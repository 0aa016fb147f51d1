"""Query relevance: dead-rule elimination relative to a goal predicate.

Complementary to the paper's semantic minimization: a rule can be
useless for a *query* without being redundant in the program -- nothing
derivable from it ever reaches the query predicate.  Relevance is a
purely structural (dependence-graph) property, decidable in linear
time, and removing irrelevant rules preserves the query answer exactly.

This is the static skeleton of what magic sets does dynamically; the
optimizer pipeline runs it before the (much costlier) semantic passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.programs import Program
from ..lang.rules import Rule
from .graphs import ancestors


@dataclass
class RelevanceResult:
    """Predicates and rules that can influence the goal."""

    goal: str
    relevant_predicates: frozenset[str]
    program: Program
    removed_rules: tuple[Rule, ...]

    @property
    def changed(self) -> bool:
        return bool(self.removed_rules)


def relevant_predicates(program: Program, goal: str) -> frozenset[str]:
    """Predicates from which the *goal* predicate is reachable.

    Includes the goal itself.  Unknown goals are their own (singleton)
    answer -- querying a predicate the program never mentions is legal
    and returns only stored facts.

    The dependence-graph ancestors over bare successor lists, not a
    ``DependenceGraph``: uniform-containment tests call this once
    per test.
    """
    graph: dict[str, list[str]] = {}
    for rule in program.rules:
        for literal in rule.body:
            graph.setdefault(literal.predicate, []).append(rule.head.predicate)
    return frozenset(ancestors(graph, [goal])) | {goal}


def restrict_to_goal(program: Program, goal: str) -> RelevanceResult:
    """Drop every rule whose head cannot influence the *goal*.

    The result computes exactly the same relation for ``goal`` (and for
    every retained predicate) on every input database: removed rules
    only populate predicates the goal never reads.
    """
    relevant = relevant_predicates(program, goal)
    kept = [r for r in program.rules if r.head.predicate in relevant]
    removed = tuple(r for r in program.rules if r.head.predicate not in relevant)
    return RelevanceResult(
        goal=goal,
        relevant_predicates=relevant,
        program=Program(kept),
        removed_rules=removed,
    )


def unreachable_predicates(program: Program, goal: str) -> frozenset[str]:
    """IDB predicates that cannot influence the goal (diagnostics)."""
    return program.idb_predicates - relevant_predicates(program, goal)
