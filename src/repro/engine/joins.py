"""Join planning for rule bodies.

Matching a rule body against a database is a conjunctive query: each
body literal is a subgoal, and a solution is a substitution making every
positive subgoal a stored fact and every negated subgoal absent.  The
compiled kernels (:mod:`repro.engine.compile`) run every such join; this
module holds the two planning decisions they are compiled from.

:func:`plan_order` chooses the join order greedily (most-bound-first):
simulate the binding of variables as literals are picked, always
choosing a positive literal with the largest number of bound argument
positions next (breaking ties toward smaller relations), and scheduling
negated literals as soon as they are fully bound.  Safety validation
guarantees an order in which every negated literal eventually becomes
fully bound.

:func:`delta_variant_positions` picks the body positions that need their
own semi-naive delta variant.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..data.database import Database
from ..lang.atoms import Atom, Literal
from ..lang.terms import Variable


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
    literals binding them are favoured so that a kernel's witness cutoff
    engages as early as possible.  When *first* is
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
