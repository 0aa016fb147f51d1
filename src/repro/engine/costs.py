"""A lightweight cost model: cardinalities, selectivities, join sizes.

The paper's introduction notes that whether adding a redundant conjunct
pays off "depends upon the sizes of the three relations, the size of
their intersection, and the available indices".  This module supplies
exactly that arithmetic: textbook System-R style estimates over the
statistics of a concrete database, used to *rank* the provably-safe
rewrites produced by :mod:`repro.core.augment` and to explain engine
behaviour in the examples.

Estimates are heuristics, not guarantees; everything here is advisory.
The semantic layers (containment, minimization, the §X recipe) never
depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..data.database import Database
from ..lang.atoms import Atom, Literal
from ..lang.rules import Rule
from ..lang.terms import Variable

#: Selectivity assumed when the statistics carry no information -- an
#: empty relation or a position with zero recorded distinct values.
#: 1.0 is the conservative "filters nothing" answer: it never makes a
#: rewrite look cheaper than the baseline on evidence that isn't there.
DEFAULT_SELECTIVITY = 1.0


@dataclass(frozen=True)
class PredicateStatistics:
    """Cardinality and per-position distinct counts for one predicate."""

    predicate: str
    cardinality: int
    distinct: tuple[int, ...]  # distinct values per argument position

    def selectivity(self, position: int) -> float:
        """Estimated fraction of rows matching one value at *position*.

        An empty relation (or a position whose distinct count is zero)
        supports no estimate at all; both fall back to
        :data:`DEFAULT_SELECTIVITY` -- never a division by zero or a
        silent 0.0 that would collapse every downstream product.
        Callers that care about emptiness test ``cardinality`` directly
        (as :func:`estimate_rule` does before multiplying).
        """
        if self.cardinality == 0 or not self.distinct[position]:
            return DEFAULT_SELECTIVITY
        return 1.0 / self.distinct[position]


def collect_statistics(db: Database) -> dict[str, PredicateStatistics]:
    """Scan *db* once and summarize every stored predicate."""
    stats: dict[str, PredicateStatistics] = {}
    for pred in db.predicates:
        rows = db.tuples(pred)
        arity = db.arity(pred)
        distinct = tuple(
            len({row[i] for row in rows}) for i in range(arity)
        )
        stats[pred] = PredicateStatistics(pred, len(rows), distinct)
    return stats


@dataclass
class JoinEstimate:
    """Predicted work and output size for one rule body."""

    rule: Rule
    result_rows: float
    intermediate_rows: float  # sum over join prefix sizes (work proxy)
    per_atom_rows: tuple[float, ...]

    def __str__(self) -> str:
        return (
            f"~{self.result_rows:.0f} result rows, "
            f"~{self.intermediate_rows:.0f} intermediate rows for '{self.rule}'"
        )


def estimate_rule(
    rule: Rule,
    statistics: Mapping[str, PredicateStatistics],
    order: Sequence[int] | None = None,
) -> JoinEstimate:
    """Estimate the join work of evaluating *rule* once, left to right.

    Standard independence-assumption arithmetic: each new atom
    multiplies by its cardinality, then divides by the distinct count of
    every already-bound variable position (equi-join selectivity) and of
    every constant position.  Unknown predicates count as empty.
    """
    body = [rule.body[i] for i in order] if order is not None else list(rule.body)
    bound: set[Variable] = set()
    current = 1.0
    total_intermediate = 0.0
    per_atom: list[float] = []
    for literal in body:
        if not literal.positive:
            # A negated check never grows the result; model as 0.5 filter.
            current *= 0.5
            per_atom.append(current)
            continue
        atom = literal.atom
        info = statistics.get(atom.predicate)
        if info is None or info.cardinality == 0:
            current = 0.0
            per_atom.append(0.0)
            break
        current *= info.cardinality
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable):
                if term in bound:
                    current *= info.selectivity(position)
                else:
                    bound.add(term)
            else:
                current *= info.selectivity(position)
        # Repeated variables within the atom: each extra occurrence
        # filters once more.
        seen_here: set[Variable] = set()
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable):
                if term in seen_here:
                    current *= info.selectivity(position)
                seen_here.add(term)
        total_intermediate += current
        per_atom.append(current)
    return JoinEstimate(
        rule=rule,
        result_rows=current,
        intermediate_rows=total_intermediate,
        per_atom_rows=tuple(per_atom),
    )


def estimate_guard_benefit(
    rule: Rule,
    guard: Atom,
    statistics: Mapping[str, PredicateStatistics],
) -> float:
    """Predicted work ratio of adding *guard* to the front of the body.

    Values below 1.0 predict a win (the guard prunes more than it
    costs); above 1.0, a loss.  Combine with
    :func:`repro.core.augment.atom_is_addable` -- this function says
    *profitable*, that one says *safe*.
    """
    baseline = estimate_rule(rule, statistics)
    guarded = Rule(rule.head, [Literal(guard), *rule.body])
    with_guard = estimate_rule(guarded, statistics)
    if baseline.intermediate_rows == 0:
        return 1.0
    return with_guard.intermediate_rows / baseline.intermediate_rows


def rank_guards(
    rule: Rule,
    guards: Sequence[Atom],
    statistics: Mapping[str, PredicateStatistics],
) -> list[tuple[Atom, float]]:
    """Sort candidate guards by predicted benefit (best first)."""
    scored = [
        (guard, estimate_guard_benefit(rule, guard, statistics)) for guard in guards
    ]
    scored.sort(key=lambda pair: pair[1])
    return scored
