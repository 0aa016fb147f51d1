"""Stratified negation.

The paper's conclusion announces that "the results on uniform
containment and minimization can be extended to Datalog programs with
stratified negation"; this module supplies the evaluation substrate for
that extension: stratification of a program with negated body literals
and stratum-by-stratum evaluation on the semi-naive round loop,
computing the perfect (standard) model.

A program is stratifiable iff no cycle of its dependence graph contains
a negative edge.  Strata are computed by a longest-path style fixpoint:
``stratum(head) >= stratum(body predicate)`` for positive dependencies
and strictly greater for negative ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.database import Database
from ..errors import StratificationError
from ..lang.programs import Program
from ..resilience.governor import ResourceGovernor
from .compile import KernelCache, cardinality_hint_provider
from .fixpoint import EvaluationResult
from .seminaive import _finish, _saturate
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


def evaluate_stratified(
    program: Program, db: Database, governor: ResourceGovernor | None = None
) -> EvaluationResult:
    """Compute the perfect model of a stratified program over *db*.

    The semi-naive round loop saturates each stratum in turn, in place
    on one database with one kernel cache.  A negated literal reads the
    full database, which is sound because it names a lower stratum, and
    lower strata are saturated by the time it is read.

    With a *governor*, a tripped limit returns the facts derived so far
    as a ``PARTIAL`` result; the :class:`~repro.resilience.DegradationReport`
    names the interrupted stratum and the rule by its index in
    *program*.  The partial database is a subset of the perfect model:
    a rule with negation only fires after its negated predicates'
    strata completed, so interruption can under-derive but never
    mis-derive.
    """
    stratification = stratify(program)
    stats = EvaluationStats(engine="stratified")
    stats.start()
    full = db.copy()
    kernels = KernelCache(full, cardinality_hint_provider(program, full))
    degradation = None
    if governor is not None:
        governor.note(engine="stratified")
    for stratum, layer in enumerate(stratification.layers):
        if governor is not None:
            governor.note(stratum=stratum)
        rules = [(i, r) for i, r in enumerate(program.rules) if r.head.predicate in layer]
        degradation = _saturate(full, rules, kernels, stats, governor, stratum=stratum)
        if degradation is not None:
            break
    return _finish(full, stats, degradation)
