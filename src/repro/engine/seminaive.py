"""The round loop every whole-database engine runs.

Section III: "Computing the output by repeatedly instantiating rules,
until no new ground atoms can be generated, is known as bottom-up
computation."  That one computation is :func:`_saturate`: it saturates
a database in place under a list of ``(program index, rule)`` pairs.
Three engines run it:

* :func:`seminaive_fixpoint` -- the differential fixpoint (the default);
* :func:`naive_fixpoint` -- the same loop with the delta switched off:
  every round, each rule's whole-body kernel runs over the full
  database (the correctness baseline and the slow end of the Q7
  engine benchmark);
* :func:`~repro.engine.stratified.evaluate_stratified` -- the loop once
  per stratum, on one database with one kernel cache.

**Delta splitting.**  A rule can only derive a genuinely new fact if at
least one of its positive body subgoals matches a fact derived in the
*previous* round (the delta).  For each rule and each positive body
position, a variant is evaluated in which that position is forced onto
the delta relation.  The other positive positions follow the
**textbook** discipline: with the delta pinned at body position *i*,
positions before *i* read the pre-round snapshot ``F_{k-1}`` and
positions after *i* read the full database ``F_k = F_{k-1} ∪ Δ``.  A
body instantiation whose rows touch Δ at positions ``D`` is then
derived exactly once (by the variant pinned at ``min(D)``) instead of
``|D|`` times; the suppressed duplicates are counted as
``duplicates_avoided`` in the stats.  Negated subgoals read the full
database: stratification makes them name lower strata only, which are
saturated before the loop runs.

Each variant runs as a compiled :class:`~repro.engine.compile.JoinKernel`
(cached per rule/delta-position pair).  A round handles head *rows*:
novelty by ``contains_tuple``, insertion by ``_add_row``, and the
end-of-round commit (``snapshot ∪= Δ``, ``full ∪= Δ'``) is one bulk
union per predicate.  In the first round the delta is the entire
database (snapshot ``F_0 = ∅``), so initial IDB facts (Section III's
generalized inputs) participate.  Round 0 fires the rules without a
positive subgoal -- facts, and ground rules such as
``P(1) :- not Q(1).`` -- once, since no delta can ever wake them.

**Goal-directed runs.**  A uniform-containment test only asks whether
one ground atom is in ``P(bθ)``.  :class:`GoalRun` is the internal
hand-off from a :class:`~repro.core.containment.ContainmentSession`: a
kernel cache shared by every test of the session and, optionally, the
target atom.  The loop then stops at the end of the round that commits
the target (checked once per round), and works in the caller's freshly
built database in place instead of copying it.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ..data.database import Database
from ..errors import ResourceLimitExceeded, UnsafeRuleError
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.rules import Rule
from ..obs.tracer import trace
from ..resilience.governor import DegradationReport, EvaluationStatus, ResourceGovernor
from .compile import KernelCache, cardinality_hint_provider
from .fixpoint import EvaluationResult
from .stats import EvaluationStats


class GoalRun(NamedTuple):
    """What a containment session hands one :func:`seminaive_fixpoint` run.

    *kernels* outlives the run (it is the session's); *target*, when
    set, ends the loop after the round that commits it, so the result
    is a sound under-approximation of ``P(db)`` that holds the target
    whenever ``P(db)`` does.  The run owns the input database: it is
    evaluated in place, not copied.
    """

    kernels: KernelCache
    target: Atom | None = None


def seminaive_fixpoint(
    program: Program,
    db: Database,
    governor: ResourceGovernor | None = None,
    resume_state=None,
    *,
    _goal: GoalRun | None = None,
) -> EvaluationResult:
    """Compute ``P(db)`` with differential iteration.

    With a *governor*, a tripped limit stops iteration and the facts
    committed to the full database so far are returned as a ``PARTIAL``
    result (a sound under-approximation of ``P(db)`` by monotonicity;
    the interrupted round's uncommitted delta is discarded).

    *resume_state* (a
    :class:`~repro.resilience.checkpoint.ResumeState`-shaped object with
    ``delta`` and ``round``) re-enters the loop mid-fixpoint: *db* is
    taken as ``F_{k-1}`` verbatim (round 0 is skipped -- fact rules
    already fired before the checkpoint), the delta frontier is the
    saved ``Δ_{k-1}``, and the pre-round snapshot is reconstructed as
    ``F_{k-1} − Δ_{k-1}`` (the invariant ``full = snapshot ⊎ delta``
    holds at every checkpoint site, so no third database is persisted).
    Replaying round *k* on this exact state continues the original
    fixpoint unchanged.

    *_goal* is the internal containment-session path (see
    :class:`GoalRun`).
    """
    return _fixpoint("seminaive", program, db, governor, resume_state, _goal)


def naive_fixpoint(
    program: Program,
    db: Database,
    governor: ResourceGovernor | None = None,
) -> EvaluationResult:
    """Iterate all rules over the full database until nothing is new.

    New facts commit at the end of each round.  With a *governor*, a
    tripped limit stops iteration and the facts committed so far are
    returned as a ``PARTIAL`` result (a sound under-approximation of
    ``P(db)`` by monotonicity).
    """
    return _fixpoint("naive", program, db, governor)


def _fixpoint(
    engine: str,
    program: Program,
    db: Database,
    governor: ResourceGovernor | None,
    resume_state=None,
    goal: GoalRun | None = None,
) -> EvaluationResult:
    if not program.is_positive:
        raise UnsafeRuleError(
            f"{engine} evaluation requires a positive program; "
            "use repro.engine.stratified for programs with negation"
        )
    stats = EvaluationStats(engine=engine)
    stats.start()
    full = db if goal is not None else db.copy()
    target = None
    if goal is not None:
        kernels, target = goal
        kernels.bind(full, cardinality_hint_provider(program, full))
    else:
        kernels = KernelCache(full, cardinality_hint_provider(program, full))
    if governor is not None:
        governor.note(engine=engine)
    degradation = _saturate(
        full, list(enumerate(program.rules)), kernels, stats, governor,
        naive=engine == "naive", resume_state=resume_state, target=target,
    )
    return _finish(full, stats, degradation)


def _finish(
    full: Database, stats: EvaluationStats, degradation: DegradationReport | None
) -> EvaluationResult:
    stats.stop()
    status = EvaluationStatus.COMPLETE if degradation is None else EvaluationStatus.PARTIAL
    return EvaluationResult(full, stats, status=status, degradation=degradation)


def _saturate(
    full: Database,
    rules: Sequence[tuple[int, Rule]],
    kernels: KernelCache,
    stats: EvaluationStats,
    governor: ResourceGovernor | None,
    *,
    naive: bool = False,
    resume_state=None,
    target: Atom | None = None,
    **attrs,
) -> DegradationReport | None:
    """Saturate *full* in place under *rules*, ``(program index, rule)``
    pairs; the index is what spans and the governor's report name.

    Returns ``None``, or the report of the limit that tripped; the facts
    committed before the trip stay in *full*.  *naive* switches the
    delta off; *attrs* go on the ``.eval`` span.
    """
    name = "naive" if naive else "seminaive"
    #: Per rule: the body positions that need their own delta variant
    #: (symmetric redundant-atom positions collapse to the first).
    #: Rules with none have no positive subgoal and fire in round 0.
    plan = [(index, rule, kernels.variants(rule)) for index, rule in rules]
    degradation = None
    with trace(f"{name}.eval", rules=len(plan), **attrs) as root:
        root.watch(stats)
        probes, scans = (full.probe_count(), full.scan_count()) if root else (0, 0)
        try:
            if resume_state is not None:
                # Mid-fixpoint re-entry from a durable checkpoint: *full*
                # is F_{k-1}, the saved delta is Δ_{k-1}; reconstruct
                # snapshot = full − delta and rejoin at round k (the
                # loop header re-increments iterations to it).
                delta = resume_state.delta.copy()
                snapshot = full.copy()
                snapshot.subtract(delta)
                stats.iterations = resume_state.round - 1
            else:
                # Round 0: fire the rules without a positive subgoal and
                # seed the delta with the whole database, so every rule
                # sees it as "new".  The pre-round snapshot F_0 starts
                # empty; full == snapshot ∪ delta at the top of every round.
                delta = full.copy()
                snapshot = full.empty_like()
                stats.iterations += 1
                for index, rule, positions in plan:
                    if positions:
                        continue
                    if governor is not None:
                        governor.note(rule_index=index)
                    fired = rule.is_fact or kernels.kernel(rule).run(
                        full, stats=stats, governor=governor
                    )
                    if fired and full.add(rule.head):
                        stats.facts_derived += 1
                        delta.add(rule.head)
                        if governor is not None:
                            governor.add_facts(1)

            reached = target is not None and target in full
            while delta and not reached:
                stats.iterations += 1
                if governor is not None:
                    # Resume replays only a semi-naive frontier.
                    governor.checkpoint(
                        full, round=stats.iterations, delta=None if naive else delta
                    )
                with trace(
                    f"{name}.iteration", index=stats.iterations, delta=len(delta)
                ) as iteration:
                    iteration.watch(stats)
                    new_delta = full.empty_like()
                    for index, rule, positions in plan:
                        if not positions:
                            continue
                        if governor is not None:
                            governor.note(rule_index=index)
                            governor.tick()
                        with trace(f"{name}.rule", rule=index) as span:
                            span.watch(stats)
                            if naive:
                                derived = kernels.kernel(rule).run(
                                    full, stats=stats, governor=governor
                                )
                            else:
                                derived = set()
                                for variant, position in enumerate(positions):
                                    # First round: F_0 is empty, so only the
                                    # first variant can match (at position
                                    # 1+ if the body opens with a negation).
                                    if (variant and not snapshot) or not delta.count(
                                        rule.body[position].predicate
                                    ):
                                        continue
                                    derived.update(
                                        kernels.kernel(rule, position).run(
                                            full, delta=delta, before=snapshot,
                                            stats=stats, governor=governor,
                                            count_avoided=True,
                                        )
                                    )
                            # Every membership test, then every insert:
                            # the seam counts at any point then do not
                            # depend on the order a set yields its rows,
                            # so a FaultPlan fires at fixed positions.
                            head = rule.head.predicate
                            known = full.contains_tuple
                            for row in [r for r in derived if not known(head, r)]:
                                new_delta._add_row(head, row)
                    if not naive:
                        snapshot.update(delta)
                    added = full.update(new_delta)
                    stats.facts_derived += added
                    if governor is not None:
                        governor.add_facts(added)
                    delta = new_delta
                    if target is not None:
                        reached = target in new_delta
        except ResourceLimitExceeded as error:
            degradation = error.report
        if root:
            root.add("index_probes", full.probe_count() - probes)
            root.add("full_scans", full.scan_count() - scans)
    return degradation

