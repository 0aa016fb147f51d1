"""Datalog rules.

A :class:`Rule` is ``head :- body`` where the head is a single atom and
the body is a conjunction of literals (all positive in the paper's core
fragment).  Rules validate the paper's standing assumption on
construction: *every variable in the head must also appear in the body*
(Section II).  Rules with an empty body are allowed only when the head
is ground, matching the paper's convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from ..errors import UnsafeRuleError
from .atoms import Atom, Literal
from .terms import Term, Variable


def _as_literal(item: Atom | Literal) -> Literal:
    if isinstance(item, Literal):
        return item
    return Literal(item)


@dataclass(frozen=True)
class Rule:
    """A Horn rule ``head :- body``.

    ``body`` stores :class:`Literal` objects so the stratified-negation
    extension can reuse the same type; the positive-program algorithms
    access :meth:`body_atoms`, which requires all literals positive.
    """

    head: Atom
    body: tuple[Literal, ...]
    _variables: frozenset[Variable] = field(init=False, repr=False, compare=False, hash=False)
    #: Rules key kernel caches and program rule sets, so the hash is
    #: computed once.
    _hash: int = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, head: Atom, body: Sequence[Atom | Literal] = ()):
        literals = tuple(_as_literal(b) for b in body) if body else ()
        # The class is frozen, so fields go straight into the instance dict.
        fields = self.__dict__
        fields["head"] = head
        fields["body"] = literals
        fields["_hash"] = hash((head, literals))
        if not literals and head.is_ground:
            # A fact, the bulk of every EDB: no variables and nothing to check.
            fields["_variables"] = frozenset()
            return
        fields["_variables"] = self._collect_variables()
        self._check_safety()

    def _collect_variables(self) -> frozenset[Variable]:
        out: set[Variable] = set(self.head.variables())
        for literal in self.body:
            out.update(literal.atom.variables())
        return frozenset(out)

    def _check_safety(self) -> None:
        positive_vars: set[Variable] = set()
        for literal in self.body:
            if literal.positive:
                positive_vars.update(literal.atom.variables())
        missing = set(self.head.variables()) - positive_vars
        if missing:
            names = ", ".join(sorted(v.name for v in missing))
            raise UnsafeRuleError(
                f"head variable(s) {names} of rule '{self}' do not appear in a positive body atom"
            )
        for literal in self.body:
            if not literal.positive:
                loose = literal.atom.variable_set() - positive_vars
                if loose:
                    names = ", ".join(sorted(v.name for v in loose))
                    raise UnsafeRuleError(
                        f"variable(s) {names} of negated literal '{literal}' are not bound "
                        f"by a positive body atom in rule '{self}'"
                    )

    # -- basic accessors -----------------------------------------------------
    @property
    def is_fact(self) -> bool:
        """``True`` iff the rule has an empty body (hence a ground head)."""
        return not self.body

    @property
    def is_positive(self) -> bool:
        """``True`` iff no body literal is negated."""
        return all(lit.positive for lit in self.body)

    def body_atoms(self) -> tuple[Atom, ...]:
        """The body as plain atoms; requires a positive rule."""
        if not self.is_positive:
            raise UnsafeRuleError(f"rule '{self}' has negated literals; body_atoms() requires a positive rule")
        return tuple(lit.atom for lit in self.body)

    def positive_atoms(self) -> Iterator[Atom]:
        """Yield the atoms of positive body literals."""
        for literal in self.body:
            if literal.positive:
                yield literal.atom

    def negative_atoms(self) -> Iterator[Atom]:
        """Yield the atoms of negated body literals."""
        for literal in self.body:
            if not literal.positive:
                yield literal.atom

    def variables(self) -> frozenset[Variable]:
        """All distinct variables of the rule."""
        return self._variables

    def predicates(self) -> frozenset[str]:
        """All predicate names used in the rule (head and body)."""
        return frozenset(itertools.chain((self.head.predicate,), (lit.predicate for lit in self.body)))

    def body_predicates(self) -> frozenset[str]:
        return frozenset(lit.predicate for lit in self.body)

    # -- transformation --------------------------------------------------------
    def substitute(self, mapping: Mapping[Variable, Term]) -> "Rule":
        """Apply a variable mapping to the whole rule.

        The result must still be safe; substituting every head variable
        by a ground term always is.
        """
        return Rule(self.head.substitute(mapping), [lit.substitute(mapping) for lit in self.body])

    def rename_variables(self, suffix: str) -> "Rule":
        """Rename every variable ``v`` to ``v<suffix>`` (renaming apart)."""
        mapping = {v: Variable(v.name + suffix) for v in self._variables}
        return self.substitute(mapping)

    def without_body_literal(self, index: int) -> "Rule":
        """The rule with the *index*-th body literal removed.

        Raises :class:`UnsafeRuleError` if the removal would strand a
        head variable -- by the paper's assumption such an atom can
        never be redundant, and the minimization algorithm skips it.
        """
        if not 0 <= index < len(self.body):
            raise IndexError(f"rule has {len(self.body)} body literals, no index {index}")
        new_body = self.body[:index] + self.body[index + 1:]
        return Rule(self.head, new_body)

    def can_drop_body_literal(self, index: int) -> bool:
        """Whether dropping the literal keeps the rule safe."""
        remaining: set[Variable] = set()
        for i, literal in enumerate(self.body):
            if i != index and literal.positive:
                remaining.update(literal.atom.variables())
        if not set(self.head.variables()) <= remaining:
            return False
        for i, literal in enumerate(self.body):
            if i != index and not literal.positive:
                if not literal.atom.variable_set() <= remaining:
                    return False
        return True

    def with_body(self, body: Iterable[Atom | Literal]) -> "Rule":
        """A copy of the rule with a replaced body."""
        return Rule(self.head, list(body))

    # -- presentation -----------------------------------------------------------
    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        inner = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {inner}."

    def __repr__(self) -> str:
        return f"Rule({self.head!r}, {list(self.body)!r})"

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Rule):
            return NotImplemented
        return self.head == other.head and self.body == other.body
