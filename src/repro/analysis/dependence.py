"""Dependence graphs and recursion analysis (Section III).

"A program P has an associated directed graph, called the dependence
graph, that has a node for each predicate of the program, and an edge
from predicate Q to predicate R whenever predicate Q is in the body of
some rule and predicate R is in the head of that same rule."

* ``P`` is *recursive* if the graph has a cycle.
* A *predicate* is recursive if it lies on a cycle through itself.
* A *rule* is recursive if some cycle includes the head predicate and a
  body predicate of that rule -- in particular whenever the head
  predicate also occurs in the body.
* A program is *linear* if each rule's body contains at most one
  recursive predicate (the class for which the paper notes the
  undecidability results already hold).
"""

from __future__ import annotations

from functools import cached_property

from ..lang.programs import Program
from ..lang.rules import Rule
from .graphs import strongly_connected_components, topological_components


class DependenceGraph:
    """The paper's dependence graph, with recursion queries.

    ``graph`` maps each predicate to its successors, and each edge to
    the polarity of the body occurrences that induced it (``True`` --
    negative -- if *any* inducing occurrence is negated), which the
    stratified extension uses.
    """

    def __init__(self, program: Program):
        self.program = program
        graph: dict[str, dict[str, bool]] = {pred: {} for pred in program.predicates}
        for rule in program.rules:
            head = rule.head.predicate
            for literal in rule.body:
                successors = graph[literal.predicate]
                successors[head] = successors.get(head, False) or not literal.positive
        self.graph = graph

    @cached_property
    def _cyclic_components(self) -> tuple[frozenset[str], ...]:
        out = []
        for component in strongly_connected_components(self.graph):
            node = next(iter(component))
            if len(component) > 1 or node in self.graph[node]:
                out.append(component)
        return tuple(out)

    @cached_property
    def recursive_predicates(self) -> frozenset[str]:
        """Predicates lying on some cycle (necessarily intensional)."""
        out: set[str] = set()
        for component in self._cyclic_components:
            out.update(component)
        return frozenset(out)

    @property
    def is_recursive(self) -> bool:
        """Whether the *program* is recursive (graph has a cycle)."""
        return bool(self._cyclic_components)

    def is_recursive_rule(self, rule: Rule) -> bool:
        """Whether some cycle joins the rule's head and a body predicate."""
        head = rule.head.predicate
        for component in self._cyclic_components:
            if head in component and any(
                lit.predicate in component for lit in rule.body
            ):
                return True
        return False

    def recursive_rules(self) -> tuple[Rule, ...]:
        return tuple(r for r in self.program.rules if self.is_recursive_rule(r))

    @property
    def is_linear(self) -> bool:
        """At most one recursive-predicate occurrence per rule body."""
        recursive = self.recursive_predicates
        for rule in self.program.rules:
            count = sum(1 for lit in rule.body if lit.predicate in recursive)
            if count > 1:
                return False
        return True

    def condensation_order(self) -> tuple[frozenset[str], ...]:
        """SCCs in a topological order (useful for stratified planning)."""
        return tuple(topological_components(self.graph))

    def has_negative_cycle(self) -> bool:
        """Whether any cycle contains a negative edge (unstratifiable)."""
        return bool(self.negative_cycle_predicates())

    def negative_cycle_predicates(self) -> frozenset[str]:
        """The predicates of every SCC whose cycle crosses a negative edge.

        Non-empty exactly when the program is unstratifiable; the linter
        names these predicates in its ``unstratifiable`` diagnostic.
        """
        out: set[str] = set()
        for component in self._cyclic_components:
            if any(
                negative and v in component
                for u in component
                for v, negative in self.graph[u].items()
            ):
                out.update(component)
        return frozenset(out)
