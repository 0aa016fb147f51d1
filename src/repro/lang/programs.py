"""Datalog programs.

A :class:`Program` is an ordered collection of rules (order matters only
for deterministic iteration; semantics are set-based).  On construction
a program validates:

* **arity consistency** -- each predicate is used with one arity
  throughout (:class:`~repro.errors.ArityError` otherwise);
* **rule safety** -- delegated to :class:`~repro.lang.rules.Rule`.

Programs expose the paper's predicate classification (Section III):
*intensional* predicates appear in some rule head, *extensional*
predicates do not; *initialization rules* have only extensional
predicates in the body (Section X).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ArityError
from .atoms import Atom, Literal
from .rules import Rule


class Program:
    """An immutable set of Datalog rules with cached classification."""

    __slots__ = ("_rules", "_arities", "_idb", "_edb")

    def __init__(self, rules: Sequence[Rule] = ()):
        # Preserve first-occurrence order but drop duplicates: a program
        # is semantically a set of rules.
        self._rules: tuple[Rule, ...] = tuple(dict.fromkeys(rules))
        self._arities: dict[str, int] = {}
        self._check_arities()
        self._idb: frozenset[str] = frozenset(r.head.predicate for r in self._rules)
        body_preds = {lit.atom.predicate for rule in self._rules for lit in rule.body}
        self._edb: frozenset[str] = frozenset(body_preds - self._idb)

    def _check_arities(self) -> None:
        def note(atom: Atom) -> None:
            known = self._arities.get(atom.predicate)
            if known is None:
                self._arities[atom.predicate] = atom.arity
            elif known != atom.arity:
                raise ArityError(
                    f"predicate {atom.predicate} used with arity {known} and {atom.arity}"
                )

        for rule in self._rules:
            note(rule.head)
            for literal in rule.body:
                note(literal.atom)

    # -- construction ------------------------------------------------------
    @classmethod
    def of(cls, *rules: Rule) -> "Program":
        return cls(rules)

    @classmethod
    def from_source(cls, source: str) -> "Program":
        """Parse a program from Datalog source text (see ``repro.lang.parser``)."""
        from .parser import parse_program

        return parse_program(source)

    # -- collection protocol -------------------------------------------------
    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __contains__(self, rule: Rule) -> bool:
        return rule in self._rules

    def __eq__(self, other) -> bool:
        """Syntactic equality as rule *sets* (order-insensitive)."""
        if not isinstance(other, Program):
            return NotImplemented
        return set(self._rules) == set(other._rules)

    def __hash__(self) -> int:
        return hash(frozenset(self._rules))

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self._rules)

    def __repr__(self) -> str:
        return f"Program({list(self._rules)!r})"

    # -- classification (Section III / X) -----------------------------------
    @property
    def idb_predicates(self) -> frozenset[str]:
        """Predicates appearing as some rule head (intensional)."""
        return self._idb

    @property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates appearing only in rule bodies (extensional)."""
        return self._edb

    @property
    def predicates(self) -> frozenset[str]:
        return self._idb | self._edb

    def arity(self, predicate: str) -> int:
        """The arity of *predicate*; raises ``KeyError`` if unused."""
        return self._arities[predicate]

    @property
    def arities(self) -> dict[str, int]:
        return dict(self._arities)

    def rules_for(self, predicate: str) -> tuple[Rule, ...]:
        """The rules whose head predicate is *predicate*."""
        return tuple(r for r in self._rules if r.head.predicate == predicate)

    def initialization_rules(self) -> tuple[Rule, ...]:
        """Rules whose body mentions only extensional predicates (Section X).

        Ground facts (empty-body rules) also count: their body trivially
        has only extensional predicates.
        """
        return tuple(r for r in self._rules if r.body_predicates() <= self._edb)

    def initialization_program(self) -> "Program":
        """``P^i`` -- the non-recursive program of initialization rules."""
        return Program(self.initialization_rules())

    @property
    def is_positive(self) -> bool:
        return all(r.is_positive for r in self._rules)

    def size(self) -> int:
        """Total number of atoms (heads plus body literals)."""
        return sum(1 + len(r.body) for r in self._rules)

    # -- functional updates ----------------------------------------------------
    def with_rule(self, rule: Rule) -> "Program":
        """A program with *rule* appended (no-op if already present)."""
        if rule in self._rules:
            return self
        return Program(self._rules + (rule,))

    def without_rule(self, rule: Rule) -> "Program":
        """A program with *rule* removed (the paper's ``P̂``)."""
        return Program(tuple(r for r in self._rules if r != rule))

    def replace_rule(self, old: Rule, new: Rule) -> "Program":
        """A program with *old* replaced by *new*, preserving position."""
        return Program(tuple(new if r == old else r for r in self._rules))

    def map_rules(self, fn: Callable[[Rule], Rule]) -> "Program":
        return Program(tuple(fn(r) for r in self._rules))

    def union(self, other: "Program") -> "Program":
        return Program(self._rules + other.rules)

    # -- helpers used by the paper's procedures ---------------------------------
    def with_trivial_rules(self) -> "Program":
        """Augment with ``Q(x1..xn) :- Q(x1..xn)`` for each IDB predicate.

        Section IX: "we will assume that each program is augmented with
        these trivial rules" when enumerating unification combinations
        in the preservation test.
        """
        from .terms import Variable

        extra: list[Rule] = []
        for pred in sorted(self._idb):
            n = self._arities[pred]
            args = tuple(Variable(f"x{i + 1}") for i in range(n))
            atom = Atom(pred, args)
            trivial = Rule(atom, [Literal(atom)])
            if trivial not in self._rules:
                extra.append(trivial)
        return Program(self._rules + tuple(extra))


def program_from_rules(rules: Iterable[Rule]) -> Program:
    """Convenience constructor accepting any iterable of rules."""
    return Program(tuple(rules))
