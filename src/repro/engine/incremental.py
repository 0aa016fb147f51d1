"""Incremental maintenance of materialized Datalog views (DRed).

A database system that materializes a program's IDB must maintain it as
the EDB changes.  Insertions are easy -- semi-naive evaluation seeded
with the new facts.  Deletions are the classic hard case, solved by
Gupta--Mumick--Subrahmanian's *delete-and-rederive* (DRed):

1. **over-delete**: remove every fact with *some* derivation using a
   deleted fact (computed as a delta fixpoint over the rules);
2. **rederive**: re-prove over-deleted facts that still have an
   alternative derivation from the surviving database;
3. the net deletions are the over-deleted facts that failed step 2.

:class:`MaterializedView` wraps a program plus its computed database
and offers ``insert`` / ``delete`` with counters, asserting nothing
about negation (positive programs only -- the stratified extension
would maintain per-stratum, which is out of scope here).

Resource governance is **transactional** here, not degrading: an
interrupted over-delete has removed facts that a completed rederive
step would have restored, so a partial maintenance state is *not* a
sound under-approximation of anything.  When a governed operation trips
a limit, the view rolls back to its pre-operation state and the
:class:`~repro.errors.ResourceLimitExceeded` propagates -- the one
engine where ``PARTIAL`` would be a lie.

Protected facts: facts present in the *base* (given) database are never
deleted by maintenance unless explicitly deleted themselves, matching
the paper's convention that the EDB-part of the output equals the
input.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..data.database import Database
from ..errors import GroundnessError, ResourceLimitExceeded, UnsafeRuleError
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.terms import Variable
from ..obs.tracer import trace
from ..resilience.governor import ResourceGovernor
from .compile import KernelCache
from .joins import body_witness, delta_variant_positions, fire_rule, plan_order
from .stats import EvaluationStats


@dataclass
class MaintenanceStats:
    """Work counters for one maintenance operation."""

    inserted: int = 0
    deleted: int = 0
    overdeleted: int = 0
    rederived: int = 0


class MaterializedView:
    """A program's output kept up to date under fact insertions/deletions."""

    def __init__(
        self,
        program: Program,
        base: Database,
        governor: ResourceGovernor | None = None,
        use_compiled: bool = True,
    ):
        if not program.is_positive:
            raise UnsafeRuleError("incremental maintenance requires a positive program")
        from .fixpoint import evaluate

        self.program = program
        self.governor = governor
        #: The *given* facts (EDB plus any initial IDB facts): protected.
        self._base = base.copy()
        # A partially-materialized view cannot be maintained (deltas
        # against it would be wrong), so initial evaluation must finish.
        result = evaluate(program, base, governor=governor, on_limit="raise")
        self._materialized = result.database
        # Delta propagation here pins Δ at one position and reads the
        # materialized database everywhere else (before=None below):
        # during over-deletion there is no meaningful pre-round snapshot.
        self._kernels = (
            KernelCache(self._materialized) if use_compiled else None
        )
        # Join orders for goal-directed rederivation, cached per
        # (head predicate, rule): the initially-bound set (the head
        # variables) never varies, so the plan is stable across
        # delete operations.
        self._rederive_plans: dict[tuple[str, int], list[int]] = {}
        # Per rule: body positions needing their own delta variant
        # (symmetric redundant-atom positions collapse to the first).
        self._variant_positions = [
            () if rule.is_fact else delta_variant_positions(rule.head, rule.body)
            for rule in program.rules
        ]
        # Per (rule, position): argument positions of the pinned literal
        # holding a variable that occurs nowhere else in the rule.  Delta
        # rows differing only there drive identical variant joins, so
        # :meth:`_fire_variant` projects the delta down to one
        # representative per distinct non-private prefix.
        self._private_positions: dict[tuple[int, int], frozenset[int]] = {}
        for rule_index, rule in enumerate(program.rules):
            if rule.is_fact:
                continue
            counts: dict = {}
            for atom in (rule.head, *(lit.atom for lit in rule.body)):
                for term in atom.args:
                    if isinstance(term, Variable):
                        counts[term] = counts.get(term, 0) + 1
            for position in self._variant_positions[rule_index]:
                private = frozenset(
                    pos
                    for pos, term in enumerate(rule.body[position].atom.args)
                    if isinstance(term, Variable) and counts[term] == 1
                )
                if private:
                    self._private_positions[(rule_index, position)] = private

    # -- read access ---------------------------------------------------------
    @property
    def database(self) -> Database:
        """The maintained output (do not mutate; use insert/delete)."""
        return self._materialized

    def __contains__(self, atom: Atom) -> bool:
        return atom in self._materialized

    def __len__(self) -> int:
        return len(self._materialized)

    # -- insertions ----------------------------------------------------------
    def insert(self, atom: Atom) -> MaintenanceStats:
        """Add one given fact and propagate its consequences."""
        return self.insert_all([atom])

    def insert_all(self, atoms) -> MaintenanceStats:
        """Add several given facts; one semi-naive propagation pass.

        Governed runs are transactional: on a tripped limit the view
        rolls back and :class:`ResourceLimitExceeded` propagates.
        """
        stats = MaintenanceStats()
        snapshot = self._snapshot()
        try:
            with trace("incremental.insert") as span:
                governor = self.governor
                if governor is not None:
                    governor.note(engine="incremental")
                delta = self._materialized.empty_like()
                for atom in atoms:
                    if not atom.is_ground:
                        raise GroundnessError(f"cannot insert non-ground atom {atom}")
                    self._base.add(atom)
                    if self._materialized.add(atom):
                        delta.add(atom)
                        stats.inserted += 1
                work = EvaluationStats()
                span.watch(work)
                rounds = 0
                while delta:
                    rounds += 1
                    if governor is not None:
                        governor.checkpoint(self._materialized, round=rounds)
                    new_delta = self._materialized.empty_like()
                    for rule_index, rule in enumerate(self.program.rules):
                        if rule.is_fact:
                            continue
                        for position in self._variant_positions[rule_index]:
                            if delta.count(rule.body[position].predicate) == 0:
                                continue
                            derived = self._fire_variant(
                                rule_index, rule, position, delta, work, governor
                            )
                            head = rule.head.predicate
                            for row in derived:
                                if not self._materialized.contains_tuple(head, row):
                                    new_delta._add_row(head, row)
                    added = self._materialized.update(new_delta)
                    stats.inserted += added
                    if governor is not None:
                        governor.add_facts(added)
                    delta = new_delta
                if span:
                    span.add("inserted", stats.inserted)
        except ResourceLimitExceeded:
            self._rollback(snapshot)
            raise
        return stats

    # -- deletions -----------------------------------------------------------
    def delete(self, atom: Atom) -> MaintenanceStats:
        """Remove one given fact, DRed-maintaining the consequences."""
        return self.delete_all([atom])

    def delete_all(self, atoms) -> MaintenanceStats:
        """Remove several given facts (delete-and-rederive).

        An interrupted over-delete/rederive would leave the view
        unsound (over-deleted facts not yet re-proven), so a governed
        trip rolls back the whole operation and re-raises.
        """
        stats = MaintenanceStats()
        snapshot = self._snapshot()
        try:
            with trace("incremental.delete") as span:
                if self.governor is not None:
                    self.governor.note(engine="incremental")
                seed = self._materialized.empty_like()
                for atom in atoms:
                    if self._base.discard(atom):
                        seed.add(atom)
                if not seed:
                    return stats

                # Step 1: over-delete everything with a derivation through a
                # deleted fact.
                with trace("incremental.overdelete"):
                    overdeleted = self._overdelete(seed)
                stats.overdeleted = len(overdeleted)

                survivor = self._materialized.copy()
                survivor.discard_all(overdeleted.atoms())

                # Step 2: rederive from the surviving database plus the
                # protected base facts that were not themselves deleted.
                with trace("incremental.rederive"):
                    rederived = self._rederive(overdeleted, survivor)
                stats.rederived = len(rederived)

                stats.deleted = len(overdeleted) - len(rederived)
                self._materialized = survivor
                self._materialized.update(rederived)
                if span:
                    span.add("overdeleted", stats.overdeleted)
                    span.add("rederived", stats.rederived)
                    span.add("deleted", stats.deleted)
        except ResourceLimitExceeded:
            self._rollback(snapshot)
            raise
        return stats

    def _fire_variant(
        self,
        rule_index: int,
        rule,
        position: int,
        delta: Database,
        work: EvaluationStats,
        governor: ResourceGovernor | None,
    ) -> set[tuple]:
        """One delta-variant against the materialized database, as head rows."""
        private = self._private_positions.get((rule_index, position))
        if private is not None:
            delta = self._project_delta(
                delta, rule.body[position].predicate, private
            )
        if self._kernels is not None:
            return self._kernels.kernel(rule, position).run(
                self._materialized, delta=delta, stats=work, governor=governor
            )
        return {
            atom.args
            for atom in fire_rule(
                self._materialized,
                rule.head,
                rule.body,
                stats=work,
                source_for={position: delta},
                governor=governor,
            )
        }

    @staticmethod
    def _project_delta(
        delta: Database, predicate: str, private: frozenset[int]
    ) -> Database:
        """One delta row per distinct value of the non-private positions.

        The pinned literal's private variables bind values no other
        subgoal (and not the head) reads, so delta rows that agree
        everywhere else drive the exact same join and derive the exact
        same heads -- keeping one representative is a sound projection
        pushdown.  Returns *delta* itself when there is nothing to drop.
        """
        rows = delta.tuples(predicate)
        keep: dict[tuple, tuple] = {}
        for row in rows:
            key = tuple(v for pos, v in enumerate(row) if pos not in private)
            keep.setdefault(key, row)
        if len(keep) == len(rows):
            return delta
        reduced = delta.empty_like()
        for row in keep.values():
            reduced._add_row(predicate, row)
        return reduced

    # -- governed-transaction helpers ----------------------------------------
    def _snapshot(self):
        """Pre-operation state, captured only when a governor is active."""
        if self.governor is None:
            return None
        return (self._base.copy(), self._materialized.copy())

    def _rollback(self, snapshot) -> None:
        if snapshot is not None:
            self._base, self._materialized = snapshot

    def _overdelete(self, seed: Database) -> Database:
        """Facts with some derivation using a seed fact (incl. the seed)."""
        overdeleted = seed.copy()
        delta = seed.copy()
        work = EvaluationStats()
        while delta:
            if self.governor is not None:
                self.governor.checkpoint(self._materialized)
            new_delta = self._materialized.empty_like()
            for rule_index, rule in enumerate(self.program.rules):
                if rule.is_fact:
                    continue
                for position in self._variant_positions[rule_index]:
                    if delta.count(rule.body[position].predicate) == 0:
                        continue
                    derived = self._fire_variant(
                        rule_index, rule, position, delta, work, self.governor
                    )
                    head = rule.head.predicate
                    for row in derived:
                        # Base facts not explicitly deleted are protected.
                        if self._base.contains_tuple(head, row):
                            continue
                        if not overdeleted.contains_tuple(head, row):
                            new_delta._add_row(head, row)
            overdeleted.update(new_delta)
            delta = new_delta
        return overdeleted

    def _rederive(self, overdeleted: Database, survivor: Database) -> Database:
        """Over-deleted facts still derivable from the survivors.

        Goal-directed: each over-deleted fact is unified with the heads
        of its predicate's rules and the body is probed with the head
        bindings pre-seeded -- a bound existence check, not a full join
        of every rule body against the whole database.  Rederived facts
        re-enter ``current``, and the pass loop repeats so facts whose
        alternative derivations go through other over-deleted facts are
        restored in dependency order.
        """
        rederived = self._materialized.empty_like()
        work = EvaluationStats()
        current = survivor.copy()
        # Fact rules are unconditionally derivable; restore them up front.
        for rule in self.program.rules:
            if rule.is_fact and rule.head in overdeleted and rule.head not in rederived:
                rederived.add(rule.head)
                current.add(rule.head)
        pending = [
            (pred, row)
            for pred in sorted(overdeleted.predicates)
            for row in overdeleted.tuples(pred)
            if not rederived.contains_tuple(pred, row)
        ]
        changed = True
        while changed and pending:
            if self.governor is not None:
                self.governor.checkpoint(current)
            changed = False
            still: list[tuple[str, tuple]] = []
            for pred, row in pending:
                if self._rederivable(pred, row, current, work):
                    rederived._add_row(pred, row)
                    current._add_row(pred, row)
                    changed = True
                else:
                    still.append((pred, row))
            pending = still
        return rederived

    def _rederivable(
        self, predicate: str, row: tuple, current: Database, work: EvaluationStats
    ) -> bool:
        """Does some rule derive *row* from *current*?

        *row* is in ``current``'s storage representation (it came out of
        a database sharing the same backend), so head constants are
        compared through ``store_term`` and the seeded bindings probe
        indexes directly.  With every head variable bound up front the
        body walk is a pure existence check
        (:func:`~repro.engine.joins.body_witness`) that stops at the
        first witness.
        """
        store = current.store_term
        for rule_index, rule in enumerate(self.program.rules_for(predicate)):
            if rule.is_fact:
                continue
            bindings: dict = {}
            consistent = True
            for position, term in enumerate(rule.head.args):
                value = row[position]
                if isinstance(term, Variable):
                    existing = bindings.get(term)
                    if existing is None:
                        bindings[term] = value
                    elif existing != value:
                        consistent = False
                        break
                elif store(term) != value:
                    consistent = False
                    break
            if not consistent:
                continue
            if self.governor is not None:
                self.governor.tick()
            bound_vars = frozenset(bindings)
            plan_key = (predicate, rule_index)
            order = self._rederive_plans.get(plan_key)
            if order is None:
                order = plan_order(
                    rule.body, current, bound_vars, prefer_vars=bound_vars
                )
                self._rederive_plans[plan_key] = order
            if body_witness(current, rule.body, bindings, order, stats=work):
                return True
        return False
