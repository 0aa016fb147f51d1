"""Semi-naive bottom-up evaluation with textbook delta splitting.

The standard differential fixpoint: a rule can only derive a genuinely
new fact if at least one of its body subgoals matches a fact derived in
the *previous* iteration (the delta).  For each rule and each body
position, a variant is evaluated in which that position is forced onto
the delta relation.

The non-delta positions follow the **textbook** discipline: with the
delta pinned at body position *i*, positions before *i* read the
pre-round snapshot ``F_{k-1}`` and positions after *i* read the full
database ``F_k = F_{k-1} ∪ Δ``.  A body instantiation whose rows touch
Δ at positions ``D`` is then derived exactly once (by the variant
pinned at ``min(D)``) instead of ``|D|`` times -- the re-derivations the
older "non-delta positions read everything" discipline produced are
what made this engine fire *more* rules than naive on multi-atom
bodies.  The suppressed duplicates are counted as
``duplicates_avoided`` in the stats.

Each variant runs as a compiled :class:`~repro.engine.compile.JoinKernel`
(one per rule/delta-position pair, cached across rounds).  A round
handles head *rows* (tuples of Terms): novelty by ``contains_tuple``,
insertion by ``_add_row``, and the end-of-round commit
(``snapshot ∪= Δ``, ``full ∪= Δ'``) is one bulk union per predicate; no
``Atom`` is built inside the loop.

In the first round the delta is the entire input database (snapshot
``F_0 = ∅``), which makes initial IDB facts (Section III's generalized
inputs) participate correctly.

**Goal-directed runs.**  A uniform-containment test only asks whether
one ground atom is in ``P(bθ)``.  :class:`GoalRun` is the internal
hand-off from a :class:`~repro.core.containment.ContainmentSession`: a
kernel cache shared by every test of the session and, optionally, the
target atom.  The loop then stops at the end of the round that commits
the target (checked once per round), and works in the caller's freshly
built database in place instead of copying it.
"""

from __future__ import annotations

from typing import NamedTuple

from ..data.database import Database
from ..errors import ResourceLimitExceeded, UnsafeRuleError
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..obs.tracer import trace
from ..resilience.governor import EvaluationStatus, ResourceGovernor
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
    taken as ``F_{k-1}`` verbatim (round 0 seeding is skipped -- fact
    rules already fired before the checkpoint), the delta frontier is
    the saved ``Δ_{k-1}``, and the pre-round snapshot is reconstructed
    as ``F_{k-1} − Δ_{k-1}`` (the invariant ``full = snapshot ⊎ delta``
    holds at every checkpoint site, so no third database is persisted).
    Replaying round *k* on this exact state continues the original
    fixpoint unchanged.

    *_goal* is the internal containment-session path (see
    :class:`GoalRun`).
    """
    if not program.is_positive:
        raise UnsafeRuleError(
            "semi-naive evaluation requires a positive program; "
            "use repro.engine.stratified for programs with negation"
        )
    stats = EvaluationStats(engine="seminaive")
    stats.start()
    full = db if _goal is not None else db.copy()
    status = EvaluationStatus.COMPLETE
    degradation = None
    target = None
    if _goal is not None:
        kernels, target = _goal
        kernels.bind(full, cardinality_hint_provider(program, full))
    else:
        kernels = KernelCache(full, cardinality_hint_provider(program, full))
    #: Per rule: the body positions that need their own delta variant
    #: (symmetric redundant-atom positions collapse to the first).
    variants = [kernels.variants(rule) for rule in program.rules]

    with trace("seminaive.eval", rules=len(program.rules)) as root:
        root.watch(stats)
        try:
            if governor is not None:
                governor.note(engine="seminaive")

            if resume_state is not None:
                # Mid-fixpoint re-entry from a durable checkpoint: *db*
                # is F_{k-1}, the saved delta is Δ_{k-1}; reconstruct
                # snapshot = full − delta and rejoin at round k (the
                # loop header re-increments iterations to it).
                delta = resume_state.delta.copy()
                snapshot = full.copy()
                snapshot.subtract(delta)
                stats.iterations = resume_state.round - 1
            else:
                # Round 0: fire ground facts (empty bodies) and seed the
                # delta with the whole input, so every rule sees the
                # input as "new".  The pre-round snapshot F_0 starts
                # empty; the invariant full == snapshot ∪ delta holds at
                # the top of every round.
                delta = db.copy()
                snapshot = full.empty_like()
                stats.iterations += 1
                for rule in program.rules:
                    if rule.is_fact:
                        if full.add(rule.head):
                            stats.facts_derived += 1
                            delta.add(rule.head)

            reached = target is not None and target in full
            while delta and not reached:
                stats.iterations += 1
                if governor is not None:
                    governor.checkpoint(full, round=stats.iterations, delta=delta)
                with trace(
                    "seminaive.iteration", index=stats.iterations, delta=len(delta)
                ) as iteration:
                    iteration.watch(stats)
                    new_delta = full.empty_like()
                    for rule_index, rule in enumerate(program.rules):
                        if rule.is_fact:
                            continue
                        if governor is not None:
                            governor.note(rule_index=rule_index)
                            governor.tick()
                        with trace("seminaive.rule", rule=rule_index) as span:
                            span.watch(stats)
                            derived = _run_delta_kernels(
                                rule, kernels, full, delta,
                                snapshot, stats, governor,
                                variants[rule_index],
                            )
                            # Every membership test, then every insert:
                            # the seam counts at any point then do not
                            # depend on the order a set yields its rows,
                            # so a FaultPlan fires at fixed positions.
                            head = rule.head.predicate
                            known = full.contains_tuple
                            for row in [r for r in derived if not known(head, r)]:
                                new_delta._add_row(head, row)
                    snapshot.update(delta)
                    added = full.update(new_delta)
                    stats.facts_derived += added
                    if governor is not None:
                        governor.add_facts(added)
                    delta = new_delta
                    if target is not None:
                        reached = target in new_delta
        except ResourceLimitExceeded as error:
            status = EvaluationStatus.PARTIAL
            degradation = error.report
        if root:
            root.add("index_probes", full.probe_count())
            root.add("full_scans", full.scan_count())
    stats.stop()
    return EvaluationResult(full, stats, status=status, degradation=degradation)


def _run_delta_kernels(
    rule,
    kernels: KernelCache,
    full: Database,
    delta: Database,
    snapshot: Database,
    stats: EvaluationStats,
    governor: ResourceGovernor | None,
    positions: tuple[int, ...],
) -> set[tuple]:
    """Union of the rule's delta-variants (at *positions*) under the
    textbook discipline, as head rows."""
    derived: set[tuple] = set()
    for position in positions:
        literal = rule.body[position]
        if delta.count(literal.predicate) == 0:
            continue
        if position and not snapshot:
            # First round: the snapshot F_0 is empty, so any variant
            # with a (positive) body literal before the delta position
            # cannot match -- only the position-0 variant can fire.
            continue
        derived.update(
            kernels.kernel(rule, position).run(
                full,
                delta=delta,
                before=snapshot,
                stats=stats,
                governor=governor,
                count_avoided=True,
            )
        )
    return derived
