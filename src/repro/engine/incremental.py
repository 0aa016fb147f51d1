"""Incremental maintenance of materialized Datalog views (DRed).

A database system that materializes a program's IDB must maintain it as
the EDB changes.  Insertions are easy -- semi-naive evaluation seeded
with the new facts.  Deletions are the classic hard case, solved by
Gupta--Mumick--Subrahmanian's *delete-and-rederive* (DRed), done here
on the live view in three steps:

1. **over-delete**: find every fact with *some* derivation using a
   deleted fact (a delta fixpoint of the rules' join kernels) and remove
   those rows from the view in place -- index views already built on
   it stay built;
2. **rederive**: for each rule ``h :- b1, ..., bn``, run the kernel of
   its guarded twin ``h :- h, b1, ..., bn`` once, with Δ = the
   over-deleted facts pinned at the guard and the surviving view
   everywhere else.  The guard binds every head variable, so the body
   is a memoised existence check, and the output is exactly the
   over-deleted facts derivable in one step;
3. **propagate**: add those facts and run the semi-naive loop an
   insertion runs.  The EDB only shrank, so everything it adds was
   over-deleted; the net deletions are the over-deleted facts it does
   not bring back.

:class:`MaterializedView` wraps a program plus its computed database
and offers ``insert`` / ``delete`` with counters, asserting nothing
about negation (positive programs only -- the stratified extension
would maintain per-stratum, which is out of scope here).

Every operation is a **transaction**.  It logs each bulk change it makes
to the view or the base (rows added, rows removed) before making it,
and on *any* exception -- an injected storage fault, a tripped resource
governor, an interrupt -- replays the log backwards through the storage
primitives below the fault seams, then re-raises.  An interrupted
over-delete has removed facts that a completed rederive step would have
restored, so a partial maintenance state is *not* a sound
under-approximation of anything: this is the one engine where
``PARTIAL`` would be a lie.  Nothing is copied to make the rollback
possible.

Protected facts: facts present in the *base* (given) database are never
deleted by maintenance unless explicitly deleted themselves, matching
the paper's convention that the EDB-part of the output equals the
input.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

from ..data.database import Database
from ..errors import GroundnessError, UnsafeRuleError
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.rules import Rule
from ..lang.terms import Variable
from ..obs.tracer import trace
from ..resilience.governor import ResourceGovernor
from .compile import KernelCache
from .joins import delta_variant_positions
from .stats import EvaluationStats


@dataclass
class MaintenanceStats:
    """Work counters for one maintenance operation."""

    inserted: int = 0
    deleted: int = 0
    overdeleted: int = 0
    rederived: int = 0


def _delta_variants(rule: Rule) -> tuple[tuple[int, frozenset[int]], ...]:
    """``(body position, private argument positions)`` per delta variant.

    The positions are :func:`~repro.engine.joins.delta_variant_positions`
    (symmetric redundant-atom positions collapse to the first).  A
    private argument position of the pinned literal holds a variable
    that occurs nowhere else in the rule: delta rows differing only there
    drive identical joins, so :meth:`MaterializedView._fire` projects the
    delta down to one representative per distinct rest.
    """
    if rule.is_fact:
        return ()
    counts: dict = {}
    for atom in (rule.head, *(lit.atom for lit in rule.body)):
        for term in atom.args:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    return tuple(
        (
            position,
            frozenset(
                pos
                for pos, term in enumerate(rule.body[position].atom.args)
                if isinstance(term, Variable) and counts[term] == 1
            ),
        )
        for position in delta_variant_positions(rule.head, rule.body)
    )


class MaterializedView:
    """A program's output kept up to date under fact insertions/deletions."""

    def __init__(
        self,
        program: Program,
        base: Database,
        governor: ResourceGovernor | None = None,
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
        self._kernels = KernelCache(self._materialized)
        self._variants = [_delta_variants(rule) for rule in program.rules]
        # Per rule, the guarded twin rederivation runs (None for a fact).
        self._guarded = [
            None if rule.is_fact else Rule(rule.head, (rule.head, *rule.body))
            for rule in program.rules
        ]
        #: The running operation's changes, in the order they were made:
        #: ``(database, change, added)`` (see :meth:`_transaction`).
        self._undo: list[tuple[Database, Database, bool]] = []

    # -- read access ---------------------------------------------------------
    @property
    def database(self) -> Database:
        """The maintained output.

        The same object for the view's whole life: maintenance changes
        it in place, so a reference taken once stays current, and the
        index views built on it survive every operation.  Do not mutate
        it; use insert/delete.
        """
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

        Transactional: on any exception the view and the base are put
        back as they were and the exception propagates.
        """
        stats = MaintenanceStats()
        view = self._materialized
        with self._transaction(), trace("incremental.insert") as span:
            if self.governor is not None:
                self.governor.note(engine="incremental")
            fresh = view.empty_like()  # new to the base
            delta = view.empty_like()  # new to the view
            for atom in atoms:
                if not atom.is_ground:
                    raise GroundnessError(f"cannot insert non-ground atom {atom}")
                if atom not in self._base:
                    fresh.add(atom)
                    if atom not in view:
                        delta.add(atom)
            self._change(self._base, fresh, added=True)
            stats.inserted = self._change(view, delta, added=True)
            work = EvaluationStats()
            span.watch(work)
            stats.inserted += self._propagate(delta, work)
            if span:
                span.add("inserted", stats.inserted)
        return stats

    # -- deletions -----------------------------------------------------------
    def delete(self, atom: Atom) -> MaintenanceStats:
        """Remove one given fact, DRed-maintaining the consequences."""
        return self.delete_all([atom])

    def delete_all(self, atoms) -> MaintenanceStats:
        """Remove several given facts (delete-and-rederive, in place).

        Transactional like :meth:`insert_all`: an interrupted
        over-delete or rederive would leave the view unsound, so any
        exception restores the view and the base before it propagates.
        """
        stats = MaintenanceStats()
        view = self._materialized
        with self._transaction(), trace("incremental.delete") as span:
            if self.governor is not None:
                self.governor.note(engine="incremental")
            seed = view.empty_like()
            for atom in atoms:
                if atom in self._base:
                    seed.add(atom)
            if not seed:
                return stats
            self._change(self._base, seed, added=False)
            work = EvaluationStats()
            span.watch(work)

            # Step 1: over-delete everything with a derivation through a
            # deleted fact.
            with trace("incremental.overdelete"):
                overdeleted = self._overdelete(seed, work)
                stats.overdeleted = self._change(view, overdeleted, added=False)

            # Steps 2-3: rederive from the surviving view, which still
            # holds every protected base fact, then propagate.
            with trace("incremental.rederive"):
                rederived = self._rederive(overdeleted, work)
                stats.rederived = self._change(view, rederived, added=True)
                stats.rederived += self._propagate(rederived, work)

            stats.deleted = stats.overdeleted - stats.rederived
            if span:
                span.add("overdeleted", stats.overdeleted)
                span.add("rederived", stats.rederived)
                span.add("deleted", stats.deleted)
        return stats

    # -- the three steps -----------------------------------------------------
    def _overdelete(self, seed: Database, work: EvaluationStats) -> Database:
        """Facts with some derivation using a seed fact (incl. the seed)."""
        overdeleted = seed.copy()
        delta = seed
        while delta:
            if self.governor is not None:
                self.governor.checkpoint(self._materialized)
            new_delta = self._materialized.empty_like()
            for head, rows in self._consequences(delta, work):
                for row in rows:
                    # Base facts not explicitly deleted are protected.
                    if self._base.contains_tuple(head, row):
                        continue
                    if not overdeleted.contains_tuple(head, row):
                        new_delta._add_row(head, row)
            overdeleted.update(new_delta)
            delta = new_delta
        return overdeleted

    def _rederive(self, overdeleted: Database, work: EvaluationStats) -> Database:
        """The over-deleted facts derivable in one step from the view.

        One run per rule, of its guarded twin pinned at the guard:
        Δ = *overdeleted* binds the head, and the body is checked against
        the view, which no longer holds *overdeleted*.
        """
        rederived = self._materialized.empty_like()
        for rule, guarded in zip(self.program.rules, self._guarded):
            head = rule.head.predicate
            if guarded is None:
                # A fact rule re-proves its head unconditionally.
                if rule.head in overdeleted:
                    rederived.add(rule.head)
            elif overdeleted.count(head):
                for row in self._fire(guarded, 0, overdeleted, work):
                    rederived._add_row(head, row)
        return rederived

    def _propagate(self, delta: Database, work: EvaluationStats) -> int:
        """Semi-naive closure of the view from *delta*, which it already
        holds; returns how many facts were added."""
        view = self._materialized
        governor = self.governor
        added = rounds = 0
        while delta:
            rounds += 1
            if governor is not None:
                governor.checkpoint(view, round=rounds)
            new_delta = view.empty_like()
            for head, rows in self._consequences(delta, work):
                for row in rows:
                    if not view.contains_tuple(head, row):
                        new_delta._add_row(head, row)
            count = self._change(view, new_delta, added=True)
            added += count
            if governor is not None:
                governor.add_facts(count)
            delta = new_delta
        return added

    # -- joins ---------------------------------------------------------------
    def _consequences(self, delta: Database, work: EvaluationStats):
        """``(head predicate, rows)`` of every delta variant Δ reaches."""
        for rule, variants in zip(self.program.rules, self._variants):
            for position, private in variants:
                if delta.count(rule.body[position].predicate):
                    rows = self._fire(rule, position, delta, work, private)
                    yield rule.head.predicate, rows

    def _fire(
        self,
        rule: Rule,
        position: int,
        delta: Database,
        work: EvaluationStats,
        private: frozenset[int] = frozenset(),
    ) -> set[tuple]:
        """Head rows of *rule* with *delta* pinned at body *position* and
        the view read everywhere else."""
        if private:
            delta = self._project_delta(
                delta, rule.body[position].predicate, private
            )
        return self._kernels.kernel(rule, position).run(
            self._materialized, delta=delta, stats=work, governor=self.governor
        )

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

    # -- transactions --------------------------------------------------------
    def _change(self, db: Database, change: Database, added: bool) -> int:
        """Log, then apply, one bulk change to *db* (*change* must not be
        mutated afterwards); returns how many rows it added or removed."""
        self._undo.append((db, change, added))
        return db.update(change) if added else db.subtract(change)

    @contextmanager
    def _transaction(self):
        """Run one operation; on any exception undo its logged changes.

        Every logged ``added`` row was absent before the operation and
        every removed one present, so undoing a change that was only
        partly applied is still exact.  The undo writes through
        ``_insert_rows`` / ``_remove_rows``, which no fault harness
        intercepts, so the rollback itself cannot fault.
        """
        self._undo = []
        try:
            yield
        except BaseException:
            for db, change, added in reversed(self._undo):
                for predicate in change.predicates:
                    rows = change.tuples(predicate)
                    if added:
                        db._remove_rows(predicate, rows)
                    else:
                        db._insert_rows(predicate, rows)
            raise
        finally:
            self._undo = []
