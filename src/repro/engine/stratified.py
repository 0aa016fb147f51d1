"""Stratified negation.

The paper's conclusion announces that "the results on uniform
containment and minimization can be extended to Datalog programs with
stratified negation"; this module supplies the evaluation substrate for
that extension: stratification of a program with negated body literals
and stratum-by-stratum semi-naive evaluation computing the perfect
(standard) model.

A program is stratifiable iff no cycle of its dependence graph contains
a negative edge.  Strata are computed by a longest-path style fixpoint:
``stratum(head) >= stratum(body predicate)`` for positive dependencies
and strictly greater for negative ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..data.database import Database
from ..errors import ResourceLimitExceeded, StratificationError
from ..lang.programs import Program
from ..resilience.governor import DegradationReport, EvaluationStatus, ResourceGovernor
from .compile import KernelCache
from .fixpoint import EvaluationResult
from .seminaive import seminaive_fixpoint
from .stats import EvaluationStats


@dataclass(frozen=True)
class Stratification:
    """An assignment of IDB predicates to strata ``0..n-1``."""

    stratum_of: dict[str, int]
    layers: tuple[frozenset[str], ...]

    @property
    def depth(self) -> int:
        return len(self.layers)


def stratify(program: Program) -> Stratification:
    """Compute a stratification or raise :class:`StratificationError`."""
    idb = program.idb_predicates
    stratum = {pred: 0 for pred in idb}
    # Relaxation: at most |idb| rounds; one more means a negative cycle.
    for round_number in range(len(idb) + 1):
        changed = False
        for rule in program.rules:
            head = rule.head.predicate
            for literal in rule.body:
                pred = literal.predicate
                if pred not in idb:
                    continue
                needed = stratum[pred] + (0 if literal.positive else 1)
                if stratum[head] < needed:
                    stratum[head] = needed
                    changed = True
        if not changed:
            break
    else:
        raise StratificationError(
            "program uses negation through recursion and cannot be stratified"
        )
    if not idb:
        return Stratification({}, ())
    depth = max(stratum.values()) + 1
    layers = tuple(
        frozenset(p for p, s in stratum.items() if s == i) for i in range(depth)
    )
    return Stratification(stratum, layers)


def saturate_stratum(
    program: Program,
    rule_indices: Sequence[int],
    current: Database,
    stats: EvaluationStats,
    governor: ResourceGovernor | None = None,
) -> tuple[Database, DegradationReport | None]:
    """Saturate one stratum of *program* over *current*.

    Semi-naive the positive rules, fire the negated ones, repeat until
    the negated ones add nothing.  Rules with negation only negate lower
    strata (guaranteed by stratification), so their negated subgoals
    are already final when they are read.

    *rule_indices* index ``program.rules``.  Negated rules run as
    compiled kernels over the whole database (no delta position): each
    outer pass re-reads everything.

    Returns the saturated database and ``None``, or -- when a limit
    trips -- the facts derived so far and the degradation report.
    """
    rules = program.rules
    positive = [i for i in rule_indices if rules[i].is_positive]
    negated = [i for i in rule_indices if not rules[i].is_positive]
    positive_program = Program([rules[i] for i in positive])
    kernels: KernelCache | None = None
    try:
        while True:
            if positive:
                result = seminaive_fixpoint(positive_program, current, governor)
                stats.merge(result.stats)
                current = result.database
                if result.degradation is not None:
                    # The sub-fixpoint already degraded gracefully;
                    # propagate its report and stop deriving.
                    return current, result.degradation
            if negated and kernels is None:
                # Compiled late so the join orders see this stratum's
                # positive facts rather than empty relations.
                kernels = KernelCache(current)
            added = False
            for rule_index in negated:
                if governor is not None:
                    governor.note(rule_index=rule_index)
                    governor.tick()
                rule = rules[rule_index]
                derived = kernels.kernel(rule).run(
                    current, stats=stats, governor=governor
                )
                head = rule.head.predicate
                for row in derived:
                    if current._add_row(head, row):
                        stats.facts_derived += 1
                        if governor is not None:
                            governor.add_facts(1)
                        added = True
            if not added:
                # Closed under the negated rules right after the positive
                # ones saturated: nothing is left to re-run.
                break
    except ResourceLimitExceeded as error:
        return current, error.report
    return current, None


def evaluate_stratified(
    program: Program, db: Database, governor: ResourceGovernor | None = None
) -> EvaluationResult:
    """Compute the perfect model of a stratified program over *db*.

    Each stratum is evaluated to fixpoint with the semi-naive engine;
    negated literals consult the database computed by lower strata,
    which is complete by the time they are read.

    With a *governor*, a tripped limit returns the facts derived so far
    as a ``PARTIAL`` result with the interrupted stratum in the
    :class:`~repro.resilience.DegradationReport`.  The partial database
    is a subset of the perfect model: a rule with negation only fires
    after its negated predicates' strata completed, so interruption can
    under-derive but never mis-derive.
    """
    stratification = stratify(program)
    stats = EvaluationStats(engine="stratified")
    stats.start()
    current = db.copy()
    degradation = None
    try:
        if governor is not None:
            governor.note(engine="stratified")
        for stratum_index, layer in enumerate(stratification.layers):
            if governor is not None:
                governor.note(stratum=stratum_index)
                governor.checkpoint(current)
            layer_rules = [
                i for i, r in enumerate(program.rules) if r.head.predicate in layer
            ]
            current, degradation = saturate_stratum(
                program, layer_rules, current, stats, governor
            )
            if degradation is not None:
                break
    except ResourceLimitExceeded as error:
        degradation = error.report
    stats.stop()
    stats.elapsed = max(stats.elapsed, 0.0)
    status = (
        EvaluationStatus.PARTIAL if degradation is not None else EvaluationStatus.COMPLETE
    )
    return EvaluationResult(current, stats, status=status, degradation=degradation)
