"""Backtracking index-nested-loop joins over rule bodies.

Matching a rule body against a database is a conjunctive query: each
body literal is a subgoal, and a solution is a substitution making every
positive subgoal a stored fact and every negated subgoal absent.

The join order is chosen greedily (most-bound-first): simulate the
binding of variables as literals are picked, always choosing a positive
literal with the largest number of bound argument positions next
(breaking ties toward smaller relations), and scheduling negated
literals as soon as they are fully bound.  Safety validation guarantees
an order in which every negated literal eventually becomes fully bound.

The inner loop works on plain ``dict`` bindings (not the immutable
:class:`~repro.lang.substitution.Substitution`) for speed; solutions are
yielded as dicts that callers must not mutate across iterations --
each yielded dict is a fresh copy.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Sequence

from ..data.database import Database
from ..lang.atoms import Atom, Literal
from ..lang.terms import Term, Variable
from .stats import EvaluationStats


def plan_order(
    literals: Sequence[Literal],
    db: Database,
    initially_bound: frozenset[Variable] = frozenset(),
    prefer_vars: frozenset[Variable] = frozenset(),
    first: int | None = None,
    hints: Mapping[str, int] | None = None,
) -> list[int]:
    """Choose an evaluation order over body literal indexes.

    Greedy most-bound-first over positive literals; each negated literal
    is placed at the earliest point where all of its variables are
    bound.  When *prefer_vars* is given (typically the head variables),
    literals binding them are favoured so that the witness cutoff of
    :func:`match_body` engages as early as possible.  When *first* is
    given, that (positive) literal leads the order unconditionally --
    semi-naive evaluation pins its delta subgoal there, since the delta
    relation is the most selective starting point.

    *hints* maps predicates to **static** size estimates (from the
    cardinality interval analysis,
    :func:`repro.analysis.absint.cardinality.cardinality_hints`).  A
    hint substitutes for ``db.count`` in the size tie-break only when
    the database holds no facts of the predicate -- the situation of a
    kernel compiled before any IDB fact exists, where every IDB
    relation otherwise ties at size 0 and the tie-break degenerates to
    body order.  Real statistics always win over estimates.
    """
    sizes: dict[str, int] = {}

    def size(predicate: str) -> int:
        count = sizes.get(predicate)
        if count is None:
            count = db.count(predicate)
            if count == 0 and hints:
                count = hints.get(predicate, 0)
            sizes[predicate] = count
        return count

    # Per literal, once per call: its variable occurrences, its distinct
    # variables, the preferred ones among them, and how many argument
    # positions hold a ground term (bound from the start).
    occurrences: list[tuple[Variable, ...]] = []
    distinct: list[frozenset[Variable]] = []
    preferred: list[frozenset[Variable]] = []
    ground: list[int] = []
    for literal in literals:
        variables = tuple(literal.atom.variables())
        occurrences.append(variables)
        distinct.append(frozenset(variables))
        preferred.append(distinct[-1] & prefer_vars)
        ground.append(len(literal.atom.args) - len(variables))

    remaining = set(range(len(literals)))
    bound: set[Variable] = set(initially_bound)
    order: list[int] = []
    negatives = [i for i, literal in enumerate(literals) if not literal.positive]

    def emit_ready_negatives() -> None:
        for i in negatives:
            if i in remaining and distinct[i] <= bound:
                order.append(i)
                remaining.discard(i)

    if first is not None:
        order.append(first)
        remaining.discard(first)
        bound.update(distinct[first])
    if negatives:
        emit_ready_negatives()
    while remaining:
        best = None
        best_key = None
        for i in remaining:
            literal = literals[i]
            if not literal.positive:
                continue
            bound_positions = ground[i] + sum(1 for v in occurrences[i] if v in bound)
            new_preferred = len(preferred[i] - bound)
            # Prefer more bound positions, then binding head variables,
            # then smaller relations, then stable original order.
            key = (-bound_positions, -new_preferred, size(literal.atom.predicate), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        if best is None:
            # Only negated literals remain but none is fully bound; the
            # rule failed safety validation upstream, so this is a bug.
            raise AssertionError("unbound negated literal survived safety checking")
        order.append(best)
        remaining.discard(best)
        bound.update(distinct[best])
        if negatives:
            emit_ready_negatives()
    return order


def delta_variant_positions(head: Atom, literals: Sequence[Literal]) -> tuple[int, ...]:
    """Body positions that need their own semi-naive delta variant.

    Every positive literal gets a variant, except one identical to an
    *earlier* positive literal up to renaming variables that occur
    nowhere else in the rule (the paper's redundant-atom pattern,
    ``G(x,s1), G(x,s2)``): swapping the two literals' private variables
    is a rule automorphism fixing the head, so a body instantiation
    with Δ pinned at the later literal maps to one with Δ pinned at the
    earlier literal deriving the same head.  Dropping the later variant
    leaves the per-round derived-head set unchanged (under both the
    read-everything and the textbook snapshot disciplines) while
    skipping its join entirely.
    """
    counts: dict[Variable, int] = {}
    for atom in (head, *(literal.atom for literal in literals)):
        for term in atom.args:
            if isinstance(term, Variable):
                counts[term] = counts.get(term, 0) + 1
    seen: set[tuple] = set()
    positions: list[int] = []
    for index, literal in enumerate(literals):
        if not literal.positive:
            continue
        atom = literal.atom
        signature = (
            atom.predicate,
            tuple(
                None if isinstance(term, Variable) and counts[term] == 1 else term
                for term in atom.args
            ),
        )
        if signature in seen:
            continue
        seen.add(signature)
        positions.append(index)
    return tuple(positions)


def _bound_positions(atom: Atom, bindings: Mapping[Variable, Term]) -> dict[int, Term]:
    """Map argument positions that are ground under *bindings* to values."""
    out: dict[int, Term] = {}
    for pos, term in enumerate(atom.args):
        if isinstance(term, Variable):
            value = bindings.get(term)
            if value is not None:
                out[pos] = value
        else:
            out[pos] = term
    return out


def match_body(
    db: Database,
    literals: Sequence[Literal],
    stats: EvaluationStats | None = None,
    initial: Mapping[Variable, Term] | None = None,
    order: Sequence[int] | None = None,
    source_for: Mapping[int, Database] | None = None,
    witness_after: frozenset[Variable] | None = None,
) -> Iterator[dict[Variable, Term]]:
    """Yield all substitutions making the body true in *db*.

    Args:
        db: database answering positive subgoals (and all negated ones).
        literals: the rule body.
        stats: optional join-work counters.
        initial: variable pre-bindings (used by magic/derived contexts).
        order: explicit evaluation order (defaults to :func:`plan_order`).
        source_for: optional override mapping a body-literal *index* to
            the database it must match against -- semi-naive evaluation
            uses this to force one subgoal onto the delta relation.
            Negated literals always consult *db*.
        witness_after: *existential cutoff* -- once every variable in
            this set is bound, the remaining subgoals are checked for
            satisfiability only and a single witness is produced instead
            of enumerating all completions.  Rule firing passes the head
            variables here: distinct bindings of head-irrelevant body
            variables cannot change the derived fact, and enumerating
            them is the classic exponential trap (e.g. the body
            ``G(x,s1), G(x,s2), G(x,s3)`` has ``|G(x,·)|³`` witnesses).
            Solutions may still repeat on the cutoff variables; callers
            deduplicate derived heads as usual.
    """
    if order is None:
        initially_bound = frozenset(initial) if initial else frozenset()
        # A single delta-pinned subgoal (semi-naive) leads the order:
        # the delta is the most selective relation in the join.
        first = None
        if source_for is not None and len(source_for) == 1:
            (candidate_first,) = source_for
            if literals[candidate_first].positive:
                first = candidate_first
        order = plan_order(
            literals,
            db,
            initially_bound,
            prefer_vars=witness_after or frozenset(),
            first=first,
        )
    bindings: dict[Variable, Term] = dict(initial) if initial else {}

    def bind_row(atom: Atom, row: tuple, guaranteed: Mapping[int, Term]) -> list[Variable] | None:
        """Extend *bindings* to match *atom* against *row*.

        *guaranteed* is the bound-position map the row was probed with:
        ``candidates`` guarantees those positions match, so they are
        skipped here.  Every remaining position is an unbound-or-repeated
        variable.

        Returns the newly bound variables (to undo later), or ``None``
        on mismatch (nothing left bound).
        """
        added: list[Variable] = []
        for pos, term in enumerate(atom.args):
            if pos in guaranteed:
                continue
            value = bindings.get(term)
            if value is None:
                bindings[term] = row[pos]
                added.append(term)
            elif value != row[pos]:
                for var in added:
                    del bindings[var]
                return None
        return added

    def rows_for(depth: int):
        index = order[depth]
        literal = literals[index]
        source = db
        if literal.positive and source_for is not None:
            source = source_for.get(index, db)
        return literal, source

    def satisfiable(depth: int) -> bool:
        """Existence check: does any completion of the suffix match?"""
        if depth == len(order):
            return True
        literal, source = rows_for(depth)
        atom = literal.atom
        if stats is not None:
            stats.subgoal_attempts += 1
        if not literal.positive:
            ground = atom.substitute(bindings)
            return ground not in db and satisfiable(depth + 1)
        bound = _bound_positions(atom, bindings)
        for row in source.candidates(atom.predicate, bound):
            added = bind_row(atom, row, bound)
            if added is None:
                continue
            if satisfiable(depth + 1):
                for var in added:
                    del bindings[var]
                return True
            for var in added:
                del bindings[var]
        return False

    def search(depth: int) -> Iterator[dict[Variable, Term]]:
        if depth == len(order):
            yield dict(bindings)
            return
        if witness_after is not None and all(v in bindings for v in witness_after):
            if satisfiable(depth):
                yield dict(bindings)
            return
        literal, source = rows_for(depth)
        atom = literal.atom
        if stats is not None:
            stats.subgoal_attempts += 1
        if not literal.positive:
            ground = atom.substitute(bindings)
            if ground not in db:
                yield from search(depth + 1)
            return
        bound = _bound_positions(atom, bindings)
        for row in source.candidates(atom.predicate, bound):
            added = bind_row(atom, row, bound)
            if added is None:
                continue
            yield from search(depth + 1)
            for var in added:
                del bindings[var]

    yield from search(0)


def fire_rule(
    db: Database,
    head: Atom,
    literals: Sequence[Literal],
    stats: EvaluationStats | None = None,
    source_for: Mapping[int, Database] | None = None,
    order: Sequence[int] | None = None,
    governor=None,
) -> set[Atom]:
    """All head instantiations derivable from *db* through this body.

    Returns the set of (ground) head atoms; the caller decides which are
    new.  A rule with an empty body yields its (ground) head.  Pass a
    precomputed *order* (see :func:`plan_order`) to skip per-call
    planning -- the semi-naive engine caches one plan per
    (rule, delta-position) pair across iterations.

    With a *governor* (a :class:`~repro.resilience.ResourceGovernor`),
    the firing loop ticks it so a wall-clock deadline or cancellation
    can interrupt even a single explosive rule; the resulting
    :class:`~repro.errors.ResourceLimitExceeded` propagates to the
    engine, which returns the facts committed so far as a PARTIAL
    outcome.
    """
    derived: set[Atom] = set()
    if not literals:
        derived.add(head)
        if stats is not None:
            stats.rule_firings += 1
        return derived
    head_vars = frozenset(head.variables())
    for bindings in match_body(
        db,
        literals,
        stats=stats,
        source_for=source_for,
        witness_after=head_vars,
        order=order,
    ):
        if stats is not None:
            stats.rule_firings += 1
        if governor is not None:
            governor.tick()
        derived.add(head.substitute(bindings))
    return derived
