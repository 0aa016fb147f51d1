"""Compiled join kernels: rule bodies flattened to slot-array programs.

Every production join -- the fixpoint engines, incremental maintenance,
``Pⁿ(d)``, provenance, tgd triggers and conjunctive-query homomorphisms
-- runs on a :class:`JoinKernel`.  The interpreted matcher kernels
replaced is kept only as the differential-test reference, in
:mod:`repro.testing`.

This module compiles each (rule, delta-position) variant **once** into a
flat :class:`JoinKernel` that operates on raw tuples and an integer slot
array, so no probe re-derives its bound positions and no matched row is
re-verified where the index bucket already guarantees it:

* variables become *slots* (dense integers assigned in join order);
* each body literal becomes a :class:`_Step` carrying precomputed
  ``(position -> slot)`` templates -- positions already bound feed the
  index probe (and need no per-row re-check, because
  :meth:`~repro.data.database.Database.candidates` guarantees them),
  first occurrences write their slot, and intra-atom repeats are the
  only per-row equality checks left;
* the head (and each negated subgoal) is a projection of the slot
  array fixed at compile time (ground terms sit in the array after the
  variable slots; one ``operator.itemgetter`` call builds the row), so
  no substitution dictionaries are built on the hot path;
* the *witness cutoff* (stop enumerating once every head variable is
  bound; the rest of the body is an existence check) is a compile-time
  ``witness_depth``;
* *pre-bound variables* (``compile_kernel(..., bound=vars)``) take the
  first slots and are planned as bound; ``run(..., seed=values)`` writes
  them once per run.  A tgd's right-hand side seeded with θ, or a query
  body seeded with a head match, is one such kernel.

**Textbook semi-naive splitting.**  A kernel compiled with a
``delta_position`` tags every body position with a source:

* the delta position reads Δ (the facts new in the previous round);
* positions *before* it (in body order) read the **pre-round snapshot**
  ``F_{k-1}``;
* positions *after* it read the full database ``F_k = F_{k-1} ∪ Δ``.

A body instantiation whose rows touch Δ at positions ``D ≠ ∅`` is then
derived exactly once -- by the variant pinned at ``min(D)`` -- instead of
``|D|`` times as under the naive "non-delta positions read everything"
discipline.  The duplicates that discipline would have produced are
counted per emission (each later position whose matched row is in Δ)
and surface as the ``delta.duplicate_derivations_avoided`` metric.

**Redundant-delta prune.**  When the Δ-pinned atom carries a variable
exclusive to it (it appears nowhere else in the rule -- the planted
redundant atoms ``G(x, s)`` of the benchmark workloads are the extreme
case), a Δ row with a *snapshot* witness agreeing on all shared
positions derives nothing new: swapping the witness in yields the same
head with strictly older facts at this position, so the head either was
derived in an earlier round (all-snapshot body) or is found by the
variant pinned at the next Δ position.  Such rows are skipped before
any sub-enumeration, which is what makes the semi-naive engine beat
naive on rules with redundant existential atoms instead of losing 5× to
it.

**Rows out, not Atoms.**  :meth:`JoinKernel.run` returns head *rows*
(tuples of Terms).  The engines test them for
novelty with ``contains_tuple``, insert them with ``_add_row`` and union
whole deltas in bulk (``Database.update``); an ``Atom`` is built only at
the output boundary (``atoms()``, ``atoms_for``, result documents).
Over 95% of the firings of a dense join are duplicates, so what one
emission costs is what the join costs.  Kernels stay interpreted slot
programs: per-kernel generated source was measured and left out, because
compiling it is paid once per kernel built, hundreds of times inside the
set-up of the ``optimize-corpus`` benchmark (docs/ARCHITECTURE.md has the
numbers).

**Fault seams and governance.**  Kernels read storage only through the
documented seams -- every probe goes through ``candidates``, every
negated check and duplicate count through ``contains_tuple`` -- and tick
the resource governor per emitted head, so fault injection and graceful
degradation see every join the same way.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping, Sequence

from ..data.database import Database
from ..errors import UnsafeRuleError
from ..lang.atoms import Atom, Literal
from ..lang.terms import Term, Variable
from ..obs.metrics import metrics_registry
from .joins import delta_variant_positions, plan_order
from .stats import EvaluationStats

#: Source tags for body positions (resolved to databases per run).
SRC_DB = 0  #: the evaluation database (no delta splitting / negation)
SRC_DELTA = 1  #: Δ -- the delta-pinned position
SRC_BEFORE = 2  #: the pre-round snapshot ``F_{k-1}`` (positions before Δ)
SRC_AFTER = 3  #: ``F_{k-1} ∪ Δ`` == the full database (positions after Δ)

_NO_BOUND: dict = {}


class _Step:
    """One compiled body literal (in join order)."""

    __slots__ = (
        "predicate",
        "positive",
        "source",
        "const_bound",
        "slot_bound",
        "binds",
        "self_checks",
        "neg_row",
        "neg_slots",
        "body_position",
        "prune",
    )

    def __init__(
        self,
        predicate: str,
        positive: bool,
        source: int,
        const_bound: dict[int, object],
        slot_bound: tuple[tuple[int, int], ...],
        binds: tuple[tuple[int, int], ...],
        self_checks: tuple[tuple[int, int], ...],
        neg_row,
        neg_slots: tuple[tuple[int, int], ...],
        body_position: int,
        prune: tuple[int, ...] | None = None,
    ):
        self.predicate = predicate
        self.positive = positive
        self.source = source
        self.const_bound = const_bound
        self.slot_bound = slot_bound
        self.binds = binds
        self.self_checks = self_checks
        #: Negated literal only: the projection of the slot array onto
        #: the row to test (*neg_row*, see :func:`_projection`) and the
        #: ``(position, slot)`` pairs it reads (*neg_slots*).
        self.neg_row = neg_row
        self.neg_slots = neg_slots
        self.body_position = body_position
        #: For the Δ-pinned step only: the positions a snapshot witness
        #: must agree on (shared variables + constants).  Set when the
        #: atom has at least one variable exclusive to it, enabling the
        #: redundant-delta prune (see :meth:`JoinKernel.run`).
        self.prune = prune


class JoinKernel:
    """A rule body compiled to a flat slot program.

    Build with :func:`compile_kernel`; execute with :meth:`run`.  A
    kernel is immutable and reusable across fixpoint rounds -- the
    engines cache one per (rule, delta-position) pair in a
    :class:`KernelCache`.
    """

    __slots__ = (
        "head_predicate",
        "project",
        "slot_template",
        "steps",
        "witness_depth",
        "delta_position",
        "order",
        "bound",
        "_suffix_key",
        "_after_prefix",
    )

    def __init__(
        self,
        head_predicate: str,
        project,
        slot_template: tuple,
        steps: tuple[_Step, ...],
        witness_depth: int,
        delta_position: int | None,
        order: tuple[int, ...],
        bound: tuple[Variable, ...] = (),
    ):
        self.head_predicate = head_predicate
        #: Slot array -> head row (see :func:`_projection`).  A run's
        #: slot array starts as *slot_template*: one ``None`` per
        #: variable, then the ground terms of the head and the negated
        #: literals.
        self.project = project
        self.slot_template = slot_template
        self.steps = steps
        self.witness_depth = witness_depth
        self.delta_position = delta_position
        self.order = order
        #: The pre-bound variables, in slots ``0 .. len(bound)-1``.
        self.bound = bound
        #: Enumerated (pre-cutoff) steps reading snapshot ∪ Δ -- the rows
        #: matched there decide the duplicate-derivations-avoided count.
        self._after_prefix = tuple(
            (d, steps[d].predicate)
            for d in range(witness_depth)
            if steps[d].positive and steps[d].source == SRC_AFTER
        )
        #: The slots the post-cutoff suffix *reads* (probe bindings,
        #: intra-atom self-checks, negated projections).  Two cutoff
        #: states agreeing on these slots have identical suffix
        #: satisfiability, so :meth:`run` memoizes ``exists`` per
        #: distinct read-slot valuation -- the existential-suffix memo
        #: that collapses the witness search on wide redundant bodies.
        reads: set[int] = set()
        for step in steps[witness_depth:]:
            for _pos, slot in step.slot_bound:
                reads.add(slot)
            for _pos, slot in step.self_checks:
                reads.add(slot)
            for _pos, slot in step.neg_slots:
                reads.add(slot)
        self._suffix_key = _projection(sorted(reads))

    def run(
        self,
        db: Database,
        delta: Database | None = None,
        before: Database | None = None,
        stats: EvaluationStats | None = None,
        governor=None,
        count_avoided: bool = False,
        seed: Sequence = (),
    ) -> set[tuple]:
        """All head rows derivable through this kernel.

        The rows are tuples of Terms and belong to
        :attr:`head_predicate`; callers test novelty with
        ``contains_tuple`` and insert with ``_add_row``, so no ``Atom``
        is built between the join and the insert.

        Args:
            db: the full database (``SRC_DB`` / ``SRC_AFTER`` positions
                and every negated check).
            delta: Δ; required when the kernel was compiled with a
                delta position.
            before: the pre-round snapshot for ``SRC_BEFORE`` positions;
                ``None`` makes them read *db* (the non-textbook
                discipline used by incremental maintenance, where the
                materialized database is the only consistent source).
            stats: join-work counters (``rule_firings``,
                ``subgoal_attempts``, ``duplicates_avoided``); they are
                accumulated in locals and flushed on the way out, so an
                interrupted run (governor trip, injected fault) still
                reports exactly the work it did.
            governor: optional resource governor, ticked per emission.
            count_avoided: account duplicate derivations avoided by the
                snapshot discipline (needs *delta*; a lower bound -- only
                enumerated positions are inspected).
            seed: the values of the kernel's pre-bound variables
                (:attr:`bound`), in the same order.
        """
        steps = self.steps
        if self.delta_position is not None and delta is None:
            raise ValueError("kernel compiled with a delta position needs delta=")
        sources: list[Database] = []
        for step in steps:
            if step.source == SRC_DELTA:
                sources.append(delta)  # type: ignore[arg-type]
            elif step.source == SRC_BEFORE:
                sources.append(before if before is not None else db)
            else:
                sources.append(db)

        slots = list(self.slot_template)
        if len(seed) != len(self.bound):
            raise ValueError(f"kernel pre-binds {len(self.bound)} variables, not {len(seed)}")
        slots[: len(seed)] = seed
        rows_at: list[tuple | None] = [None] * len(steps)
        derived: set[tuple] = set()
        add = derived.add
        project = self.project
        present = db.contains_tuple
        tick = governor.tick if governor is not None else None
        wd = self.witness_depth
        n = len(steps)
        counting = (
            self._after_prefix if count_avoided and delta is not None else ()
        )
        firings = attempts = avoided = 0
        # Existential-suffix memo: suffix satisfiability keyed by the
        # slots the suffix reads.  Sound because the sources are fixed
        # for the whole run (engines update databases between runs).
        suffix_key = self._suffix_key
        suffix_memo: dict[tuple, bool] = {}

        def probe(step: _Step, depth: int):
            if step.slot_bound:
                bound = dict(step.const_bound)
                for pos, slot in step.slot_bound:
                    bound[pos] = slots[slot]
            else:
                bound = step.const_bound
            return sources[depth].candidates(step.predicate, bound)

        def exists(depth: int) -> bool:
            """Satisfiability of the suffix: stop at the first witness."""
            nonlocal attempts, avoided
            if depth == n:
                return True
            step = steps[depth]
            attempts += 1
            if not step.positive:
                return not present(step.predicate, step.neg_row(slots)) and exists(
                    depth + 1
                )
            binds = step.binds
            self_checks = step.self_checks
            prune = step.prune if before is not None else None
            for row in probe(step, depth):
                if prune is not None and _has_witness(
                    before, step.predicate, row, prune
                ):
                    avoided += 1
                    continue
                for pos, slot in binds:
                    slots[slot] = row[pos]
                if self_checks:
                    ok = True
                    for pos, slot in self_checks:
                        if row[pos] != slots[slot]:
                            ok = False
                            break
                    if not ok:
                        continue
                if exists(depth + 1):
                    return True
            return False

        def search(depth: int) -> None:
            """Enumerate steps ``depth .. wd-1``; the last one emits."""
            nonlocal firings, attempts, avoided
            step = steps[depth]
            attempts += 1
            if not step.positive:
                # Binds nothing, so it is never the last enumerated step.
                if not present(step.predicate, step.neg_row(slots)):
                    search(depth + 1)
                return
            binds = step.binds
            self_checks = step.self_checks
            prune = step.prune if before is not None else None
            last = depth + 1 == wd
            for row in probe(step, depth):
                if prune is not None and _has_witness(
                    before, step.predicate, row, prune
                ):
                    avoided += 1
                    continue
                for pos, slot in binds:
                    slots[slot] = row[pos]
                if self_checks:
                    ok = True
                    for pos, slot in self_checks:
                        if row[pos] != slots[slot]:
                            ok = False
                            break
                    if not ok:
                        continue
                rows_at[depth] = row
                if not last:
                    search(depth + 1)
                    continue
                if wd != n:
                    key = suffix_key(slots)
                    hit = suffix_memo.get(key)
                    if hit is None:
                        suffix_memo[key] = hit = exists(wd)
                    if not hit:
                        continue
                firings += 1
                if tick is not None:
                    tick()
                add(project(slots))
                for d, predicate in counting:
                    if delta.contains_tuple(predicate, rows_at[d]):
                        avoided += 1

        try:
            if wd:
                search(0)
            elif exists(0):
                # Variable-free head: one emission if the body holds.
                firings += 1
                if tick is not None:
                    tick()
                add(project(slots))
        finally:
            if stats is not None:
                stats.rule_firings += firings
                stats.subgoal_attempts += attempts
                stats.duplicates_avoided += avoided
        return derived


def _projection(indices: Sequence[int]):
    """``slots -> tuple(slots[i] for i in indices)``, fixed at compile time.

    ``operator.itemgetter`` does it in one C call, but returns a bare
    value for one index and rejects none; rows are always tuples.
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda slots: (slots[only],)
    return lambda slots: ()


def _has_witness(
    snapshot: Database, predicate: str, row: tuple, positions: tuple[int, ...]
) -> bool:
    """Does *snapshot* hold a row agreeing with *row* on *positions*?"""
    bound = {pos: row[pos] for pos in positions} if positions else _NO_BOUND
    for _ in snapshot.candidates(predicate, bound):
        return True
    return False


def _prune_template(
    head: Atom, body: Sequence[Literal], delta_position: int
) -> tuple[int, ...] | None:
    """The shared positions of the Δ-pinned atom, or ``None``.

    Returns the positions a snapshot witness must agree on (constants
    plus variables occurring more than once in the rule) when the atom
    has at least one *exclusive* variable -- one appearing exactly once
    in the whole rule.  Without an exclusive variable a snapshot witness
    would have to equal the Δ row itself (impossible: Δ is disjoint
    from the snapshot), so the prune is compiled out.
    """
    occurrences: dict[Variable, int] = {}
    for term in head.args:
        if isinstance(term, Variable):
            occurrences[term] = occurrences.get(term, 0) + 1
    for literal in body:
        for term in literal.atom.args:
            if isinstance(term, Variable):
                occurrences[term] = occurrences.get(term, 0) + 1
    shared: list[int] = []
    exclusive = 0
    for pos, term in enumerate(body[delta_position].atom.args):
        if isinstance(term, Variable) and occurrences[term] == 1:
            exclusive += 1
        else:
            shared.append(pos)
    return tuple(shared) if exclusive else None


def compile_kernel(
    head: Atom,
    body: Sequence[Literal],
    db: Database,
    delta_position: int | None = None,
    order: Sequence[int] | None = None,
    hints: Mapping[str, int] | None = None,
    bound: Sequence[Variable] = (),
) -> JoinKernel:
    """Compile one rule variant into a :class:`JoinKernel`.

    The join order is chosen once by :func:`~repro.engine.joins.plan_order`
    (delta-pinned when *delta_position* is given) against the relation
    sizes of *db* at compile time; re-planning per round never changes
    correctness, only tie-breaks, so the compiled order is kept for the
    kernel's lifetime.  *hints* are static size estimates consulted for
    predicates *db* holds no facts of (see ``plan_order``) -- kernels
    are compiled against the *initial* database, where every IDB
    relation is empty and the size tie-break is otherwise blind.

    *bound* names distinct variables whose values each run supplies
    (``run(..., seed=values)``): they take the first slots and the plan
    treats them as bound from the start.  The head may use them, and a
    kernel whose head variables are all pre-bound only checks that the
    body has a witness (it yields ``{head}`` or nothing).
    """
    bound = tuple(bound)
    if len(set(bound)) != len(bound):
        raise ValueError("pre-bound variables must be distinct")
    if delta_position is not None:
        if not (0 <= delta_position < len(body)):
            raise ValueError(f"delta position {delta_position} out of range")
        if not body[delta_position].positive:
            raise ValueError("the delta-pinned body literal must be positive")
    head_vars = frozenset(head.variables())
    if order is None:
        order = plan_order(
            body,
            db,
            initially_bound=frozenset(bound),
            prefer_vars=head_vars,
            first=delta_position,
            hints=hints,
        )
    order = tuple(order)

    slot_of: dict[Variable, int] = {var: slot for slot, var in enumerate(bound)}
    # Every variable is pre-bound or bound by a positive literal, so the
    # slot count is known up front and ground terms can be given slots
    # after them.
    n_slots = len(
        set(bound)
        | {t for lit in body if lit.positive for t in lit.atom.args if isinstance(t, Variable)}
    )
    constants: list = []

    def row_of(atom: Atom):
        """The projection of the slot array onto *atom*'s (bound) row."""
        indices = []
        for term in atom.args:
            if isinstance(term, Variable):
                indices.append(slot_of[term])
            else:
                indices.append(n_slots + len(constants))
                constants.append(term)
        return _projection(indices)

    steps: list[_Step] = []
    bound_vars: set[Variable] = set(bound)
    witness_depth = len(order)
    witness_found = head_vars <= bound_vars
    if witness_found:
        witness_depth = 0

    for depth, body_index in enumerate(order):
        literal = body[body_index]
        atom = literal.atom
        if not witness_found and head_vars <= bound_vars:
            witness_depth = depth
            witness_found = True
        if literal.positive:
            if delta_position is None:
                source = SRC_DB
            elif body_index == delta_position:
                source = SRC_DELTA
            elif body_index < delta_position:
                source = SRC_BEFORE
            else:
                source = SRC_AFTER
            prune = (
                _prune_template(head, body, delta_position)
                if source == SRC_DELTA
                else None
            )
            const_bound: dict[int, object] = {}
            slot_bound: list[tuple[int, int]] = []
            binds: list[tuple[int, int]] = []
            self_checks: list[tuple[int, int]] = []
            fresh_here: set[Variable] = set()
            for pos, term in enumerate(atom.args):
                if not isinstance(term, Variable):
                    const_bound[pos] = term
                elif term in fresh_here:
                    # Repeated within this atom, first bound here: the
                    # index cannot enforce it, check per row.
                    self_checks.append((pos, slot_of[term]))
                elif term in slot_of:
                    slot_bound.append((pos, slot_of[term]))
                else:
                    slot = slot_of[term] = len(slot_of)
                    binds.append((pos, slot))
                    fresh_here.add(term)
            steps.append(
                _Step(
                    atom.predicate,
                    True,
                    source,
                    const_bound,
                    tuple(slot_bound),
                    tuple(binds),
                    tuple(self_checks),
                    None,
                    (),
                    body_index,
                    prune,
                )
            )
            bound_vars.update(fresh_here)
        else:
            # plan_order schedules a negated literal only once fully
            # bound, so every variable already has a slot.
            neg_slots = tuple(
                (pos, slot_of[t])
                for pos, t in enumerate(atom.args)
                if isinstance(t, Variable)
            )
            steps.append(
                _Step(
                    atom.predicate,
                    False,
                    SRC_DB,
                    _NO_BOUND,
                    (),
                    (),
                    (),
                    row_of(atom),
                    neg_slots,
                    body_index,
                )
            )
    if not witness_found and head_vars <= bound_vars:
        witness_depth = len(order)
        witness_found = True
    if not witness_found:
        missing = sorted(v.name for v in head_vars - bound_vars)
        raise UnsafeRuleError(
            f"head variables {missing} never bound by the body (unsafe rule)"
        )

    project = row_of(head)
    metrics_registry().increment("compile.kernels_built")
    return JoinKernel(
        head.predicate,
        project,
        (None,) * n_slots + tuple(constants),
        tuple(steps),
        witness_depth,
        delta_position,
        order,
        bound,
    )


#: Planner hints installed from a plan certificate, keyed by the
#: program's canonical isomorphism class (``canonical_program_key``).
#: Consulted *before* the interval analysis, so ``query --certificate``
#: skips re-analysis entirely.
_certificate_hints: dict[str, Mapping[str, int]] = {}


def install_certificate_hints(program_key: str, hints: Mapping[str, int]) -> None:
    """Register precomputed per-predicate size estimates for a program.

    Subsequent :func:`cardinality_hint_provider` calls for a program
    with this canonical key return *hints* without running the
    cardinality analysis (``compile.certificate_hints`` counts the
    hits).
    """
    _certificate_hints[program_key] = dict(hints)


def clear_certificate_hints() -> None:
    _certificate_hints.clear()


def cardinality_hint_provider(program, db: Database):
    """A :class:`KernelCache` *hint_provider* backed by interval analysis.

    Deferred import: the absint package reaches the engines through the
    groundness/magic coupling, so importing it at module load would
    cycle.  The provider is only ever called when a kernel actually
    needs an estimate (see :meth:`KernelCache._hints_for`).  Hints
    installed from a plan certificate (:func:`install_certificate_hints`)
    short-circuit the analysis.
    """

    def provider() -> Mapping[str, int]:
        if _certificate_hints:
            from ..lang.canonical import canonical_program_key

            installed = _certificate_hints.get(canonical_program_key(program))
            if installed is not None:
                metrics_registry().increment("compile.certificate_hints")
                return installed
        from ..analysis.absint.cardinality import cardinality_hints

        return cardinality_hints(program, db)

    return provider


class KernelCache:
    """Compiled kernels keyed by ``(rule, delta_position)``.

    The key is the :class:`~repro.lang.rules.Rule` *value*, not its
    index in a program, so one cache can serve every evaluation of every
    program that shares a rule: compilation is amortized across the
    fixpoint rounds of one evaluation and, in a uniform-containment
    session (:class:`repro.core.containment.ContainmentSession`), across
    the container programs of Figs. 1-2, which differ by one rule.  The
    per-rule delta-variant positions (:meth:`variants`) are memoized the
    same way.

    A kernel's join order is planned against the database the cache is
    bound to when the kernel is first needed (:meth:`bind` moves it) and
    then kept: an order only changes how many subgoals are tried, never
    which rows a kernel derives.  Sharing across databases is sound
    because compiled constants are the terms themselves, which mean the
    same thing in every database.

    *hint_provider* supplies static per-predicate size estimates (a
    ``() -> dict[str, int]``, typically closing over
    :func:`repro.analysis.absint.cardinality.cardinality_hints`).  It is
    called **lazily**, the first time a kernel's body references a
    predicate the database holds no facts of -- programs whose bodies
    are covered by real statistics never pay for the analysis.
    """

    __slots__ = ("_db", "_kernels", "_variants", "_hint_provider", "_hints")

    def __init__(self, db: Database | None = None, hint_provider=None):
        self._kernels: dict[tuple, JoinKernel] = {}
        self._variants: dict = {}
        self.bind(db, hint_provider)

    def bind(self, db: Database | None, hint_provider=None) -> None:
        """Plan kernels compiled from now on against *db* (and its hints)."""
        self._db = db
        self._hint_provider = hint_provider
        self._hints: Mapping[str, int] | None = None

    def _hints_for(self, rule) -> Mapping[str, int] | None:
        if self._hint_provider is None:
            return None
        if not any(
            literal.positive and self._db.count(literal.predicate) == 0
            for literal in rule.body
        ):
            return None  # real statistics cover every joined relation
        if self._hints is None:
            self._hints = self._hint_provider() or {}
        return self._hints

    def kernel(self, rule, delta_position: int | None = None) -> JoinKernel:
        key = (rule, delta_position)
        kernel = self._kernels.get(key)
        if kernel is None:
            hints = self._hints_for(rule)
            if hints:
                metrics_registry().increment("compile.hinted_plans")
            kernel = compile_kernel(
                rule.head,
                rule.body,
                self._db,
                delta_position=delta_position,
                hints=hints,
            )
            self._kernels[key] = kernel
        return kernel

    def variants(self, rule) -> tuple[int, ...]:
        """The body positions needing their own semi-naive delta variant
        (:func:`~repro.engine.joins.delta_variant_positions`); none for a
        fact."""
        positions = self._variants.get(rule)
        if positions is None:
            positions = self._variants[rule] = (
                () if rule.is_fact else delta_variant_positions(rule.head, rule.body)
            )
        return positions

    def __len__(self) -> int:
        return len(self._kernels)
