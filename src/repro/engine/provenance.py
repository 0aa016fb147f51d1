"""Why-provenance: derivation tracking and proof trees.

The paper's procedures are all justified by *derivations* -- "there is a
sequence of substitutions φ1, ..., φn that shows hθ ∈ [P, T](bθ)"
(Theorem 1's proof).  This module makes such sequences first-class: the
provenance-tracking evaluator records, for every derived fact, one rule
instantiation that produced it, and :func:`derivation_tree` /
:func:`explain` unfold the recorded justifications into a readable
proof.

One justification per fact is kept (the first found), which is exactly
what the existence arguments in the paper need; full provenance
semirings are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..data.database import Database
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.rules import Rule
from ..errors import UnsafeRuleError
from .compile import compile_kernel
from .stats import EvaluationStats


@dataclass(frozen=True)
class Justification:
    """Why one fact holds: the rule and premises that produced it.

    ``rule is None`` marks an input fact (its own justification).
    """

    fact: Atom
    rule: Optional[Rule]
    premises: tuple[Atom, ...]

    @property
    def is_input(self) -> bool:
        return self.rule is None

    def __str__(self) -> str:
        if self.is_input:
            return f"{self.fact}  [given]"
        inner = ", ".join(str(p) for p in self.premises)
        return f"{self.fact}  [by '{self.rule}' from {inner}]"


@dataclass
class ProvenanceResult:
    """A computed database plus one justification per fact."""

    database: Database
    justifications: dict[Atom, Justification]
    stats: EvaluationStats


def evaluate_with_provenance(program: Program, db: Database) -> ProvenanceResult:
    """Compute ``P(db)`` recording one derivation per new fact.

    Uses a (naive-flavoured) fixpoint so that the recorded premises are
    always facts established in an earlier round -- guaranteeing the
    justification graph is acyclic and proof trees are finite.
    """
    if not program.is_positive:
        raise UnsafeRuleError("provenance evaluation requires a positive program")
    stats = EvaluationStats()
    stats.start()
    result = db.copy()
    justifications: dict[Atom, Justification] = {
        atom: Justification(atom, None, ()) for atom in db.atoms()
    }
    # Per rule: a kernel whose head lists the body variables, so each
    # row it yields is one body instantiation (None for a fact).
    kernels = []
    for rule in program.rules:
        if rule.is_fact:
            kernels.append(None)
            continue
        variables = tuple(sorted(rule.variables(), key=lambda v: v.name))
        kernels.append(
            (variables, compile_kernel(Atom("_", variables), rule.body, result))
        )
    changed = True
    while changed:
        stats.iterations += 1
        changed = False
        pending: dict[Atom, Justification] = {}
        for rule, compiled in zip(program.rules, kernels):
            if compiled is None:
                if rule.head not in result:
                    pending.setdefault(rule.head, Justification(rule.head, rule, ()))
                continue
            # The first rule to derive a fact justifies it; among one
            # rule's derivations the least premises win, so the proof
            # does not depend on the order the database yields rows.
            variables, kernel = compiled
            found: dict[Atom, tuple[Atom, ...]] = {}
            for row in kernel.run(result, stats=stats):
                bindings = dict(zip(variables, row))
                head = rule.head.substitute(bindings)
                if head in result or head in pending:
                    continue
                premises = tuple(
                    lit.atom.substitute(bindings) for lit in rule.body
                )
                best = found.get(head)
                if best is None or _premises_key(premises) < _premises_key(best):
                    found[head] = premises
            for head, premises in found.items():
                pending[head] = Justification(head, rule, premises)
        for fact, justification in pending.items():
            if result.add(fact):
                stats.facts_derived += 1
                changed = True
                justifications[fact] = justification
    stats.stop()
    return ProvenanceResult(result, justifications, stats)


def _premises_key(premises: tuple[Atom, ...]) -> tuple:
    return tuple(atom.sort_key() for atom in premises)


@dataclass(frozen=True)
class ProofNode:
    """A node of an unfolded proof tree."""

    fact: Atom
    rule: Optional[Rule]
    children: tuple["ProofNode", ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def depth(self) -> int:
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)


def derivation_tree(provenance: ProvenanceResult, fact: Atom) -> ProofNode:
    """Unfold the recorded justifications into a proof tree for *fact*.

    Raises ``KeyError`` when the fact is not in the computed database.
    """
    justification = provenance.justifications.get(fact)
    if justification is None:
        raise KeyError(f"{fact} was not derived (and was not an input fact)")

    def build(j: Justification) -> ProofNode:
        children = tuple(
            build(provenance.justifications[premise]) for premise in j.premises
        )
        return ProofNode(j.fact, j.rule, children)

    return build(justification)


def explain(provenance: ProvenanceResult, fact: Atom) -> str:
    """A human-readable proof of *fact*, one indented line per step.

    >>> # G(1, 3) because G(1, 2) and G(2, 3), which are edges.
    """
    tree = derivation_tree(provenance, fact)
    lines: list[str] = []

    def render(node: ProofNode, indent: int) -> None:
        pad = "  " * indent
        if node.is_leaf and node.rule is None:
            lines.append(f"{pad}{node.fact}   (given)")
        else:
            lines.append(f"{pad}{node.fact}   (by: {node.rule})")
            for child in node.children:
                render(child, indent + 1)

    render(tree, 0)
    return "\n".join(lines)
