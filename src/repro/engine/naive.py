"""Naive bottom-up evaluation.

Section III: "Computing the output by repeatedly instantiating rules,
until no new ground atoms can be generated, is known as bottom-up
computation.  For a fixed program, this method runs in polynomial time
in the size of the EDB."

The naive engine re-derives everything every iteration; it exists as the
correctness baseline and as the slow end of the Q7 engine benchmark.
"""

from __future__ import annotations

from ..data.database import Database
from ..errors import ResourceLimitExceeded, UnsafeRuleError
from ..lang.programs import Program
from ..obs.tracer import trace
from ..resilience.governor import EvaluationStatus, ResourceGovernor
from .compile import KernelCache, cardinality_hint_provider
from .fixpoint import EvaluationResult
from .stats import EvaluationStats


def naive_fixpoint(
    program: Program,
    db: Database,
    governor: ResourceGovernor | None = None,
) -> EvaluationResult:
    """Iterate all rules over the full database until nothing is new.

    With a *governor*, a tripped limit stops iteration and the facts
    derived so far are returned as a ``PARTIAL`` result (a sound
    under-approximation of ``P(db)`` by monotonicity).
    """
    if not program.is_positive:
        raise UnsafeRuleError(
            "naive evaluation requires a positive program; "
            "use repro.engine.stratified for programs with negation"
        )
    stats = EvaluationStats(engine="naive")
    stats.start()
    result = db.copy()
    status = EvaluationStatus.COMPLETE
    degradation = None
    kernels = KernelCache(
        result, hint_provider=cardinality_hint_provider(program, result)
    )
    with trace("naive.eval", rules=len(program.rules)) as root:
        root.watch(stats)
        try:
            if governor is not None:
                governor.note(engine="naive")
            changed = True
            while changed:
                stats.iterations += 1
                if governor is not None:
                    governor.checkpoint(result, round=stats.iterations)
                changed = False
                with trace("naive.iteration", index=stats.iterations) as iteration:
                    iteration.watch(stats)
                    for rule_index, rule in enumerate(program.rules):
                        if governor is not None:
                            governor.note(rule_index=rule_index)
                            governor.tick()
                        with trace("naive.rule", rule=rule_index) as span:
                            span.watch(stats)
                            derived = kernels.kernel(rule).run(
                                result, stats=stats, governor=governor
                            )
                            head = rule.head.predicate
                            for row in derived:
                                if result._add_row(head, row):
                                    stats.facts_derived += 1
                                    if governor is not None:
                                        governor.add_facts(1)
                                    changed = True
        except ResourceLimitExceeded as error:
            status = EvaluationStatus.PARTIAL
            degradation = error.report
        if root:
            root.add("index_probes", result.probe_count())
            root.add("full_scans", result.scan_count())
    stats.stop()
    return EvaluationResult(result, stats, status=status, degradation=degradation)
