"""Built-in lint passes (imported by the registry on first use).

Nine paper-grounded rules, cheapest first:

===================== ========= ==================================================
id                    severity  grounding
===================== ========= ==================================================
``duplicate-rule``    warning   canonical renaming (:mod:`repro.lang.canonical`)
``cartesian-product`` warning   disconnected join graph in a rule body
``singleton-variable`` hint     existential variable used exactly once
``undefined-predicate`` warning near-miss of a defined predicate (likely typo)
``unused-idb``        warning   unreachable from any exported predicate
                                (:mod:`repro.analysis.relevance`)
``unstratifiable``    error     negation through recursion
                                (:mod:`repro.analysis.dependence`)
``redundant-atom``    warning   Fig. 1 uniform-containment test (Section VII)
``redundant-rule``    warning   Fig. 2 uniform-containment test (Section VII)
``tgd-candidate``     info      Section XI syntactic properties
                                (:mod:`repro.core.heuristics`)
===================== ========= ==================================================

The two containment-backed rules draw from the context's shared
:class:`~repro.core.minimize.ContainmentBudget`.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from ..lang.canonical import modulo_body_order
from ..lang.pretty import format_rule
from ..lang.rules import Rule
from .lint import Diagnostic, Fix, LintContext, LintRule, register


@register
class DuplicateRuleLint(LintRule):
    rule_id = "duplicate-rule"
    severity = "warning"
    description = "rule is a variable-renaming/body-reordering variant of an earlier rule"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        seen: dict[Rule, int] = {}
        for index, rule in enumerate(context.program.rules):
            key = modulo_body_order(rule)
            if key in seen:
                yield context.diagnostic(
                    self.rule_id,
                    self.severity,
                    f"rule '{rule}' duplicates rule {seen[key]} up to variable "
                    "renaming and body order",
                    rule=rule,
                    fix=Fix("delete the duplicate rule"),
                )
            else:
                seen[key] = index


@register
class CartesianProductLint(LintRule):
    rule_id = "cartesian-product"
    severity = "warning"
    description = "rule body joins disconnected groups of atoms (cross product)"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        for rule in context.program.rules:
            # The join-graph components come from the shared ProgramFacts
            # (one memoised computation per rule, reused by the abstract
            # domains); ground guards are exempt there -- they contribute
            # a factor of 0 or 1, not a cross product.
            components = context.facts.join_components(rule)
            if len(components) > 1:
                groups = " x ".join(
                    "{" + ", ".join(str(rule.body[i].atom) for i in sorted(c)) + "}"
                    for c in components
                )
                yield context.diagnostic(
                    self.rule_id,
                    self.severity,
                    f"body of '{rule}' is a cartesian product of variable-disjoint "
                    f"groups {groups}; the join computes every combination",
                    rule=rule,
                )


@register
class SingletonVariableLint(LintRule):
    rule_id = "singleton-variable"
    severity = "hint"
    description = "variable occurs exactly once (existential guard or typo)"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        for rule in context.program.rules:
            counts = context.facts.variable_occurrences(rule)
            singles = sorted(v.name for v, n in counts.items() if n == 1)
            if singles:
                names = ", ".join(singles)
                yield context.diagnostic(
                    self.rule_id,
                    self.severity,
                    f"variable(s) {names} of '{rule}' occur only once; fine as an "
                    "existential guard, suspicious if a join was intended",
                    rule=rule,
                )


@register
class UndefinedPredicateLint(LintRule):
    rule_id = "undefined-predicate"
    severity = "warning"
    description = "used-but-undefined predicate that is a near-miss of a defined one"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        program = context.program
        # Body-only predicates are EDB by convention, so "undefined" alone
        # is not a finding -- a near-miss of a *defined* predicate is: the
        # misspelling silently reads an empty relation instead of the IDB.
        for rule in program.rules:
            flagged: set[str] = set()
            for literal in rule.body:
                name = literal.predicate
                if name in program.idb_predicates or name in flagged:
                    continue
                suggestion = self._best_match(name, program.idb_predicates)
                if suggestion is not None:
                    flagged.add(name)
                    yield context.diagnostic(
                        self.rule_id,
                        self.severity,
                        f"predicate {name} in '{rule}' has no defining rule; "
                        f"did you mean {suggestion}?",
                        rule=rule,
                    )

    @staticmethod
    def _best_match(name: str, defined) -> str | None:
        candidates = []
        for other in sorted(defined):
            if other == name:
                continue
            # Distance-1 matches are only meaningful for names long enough
            # that a collision is unlikely to be intentional (A vs G is not
            # a typo; Addr vs Adr almost certainly is).
            close = (
                min(len(other), len(name)) >= 3 and _edit_distance(other, name) <= 1
            )
            if other.lower() == name.lower() or close:
                candidates.append(other)
        return candidates[0] if candidates else None


def _edit_distance(a: str, b: str) -> int:
    """Plain Levenshtein distance (names are short; O(len*len) is fine)."""
    if abs(len(a) - len(b)) > 1:
        return 2  # callers only care about <= 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(
                    previous[j] + 1,
                    current[j - 1] + 1,
                    previous[j - 1] + (ca != cb),
                )
            )
        previous = current
    return previous[-1]


@register
class UnusedIdbLint(LintRule):
    rule_id = "unused-idb"
    severity = "warning"
    description = "IDB predicate unreachable from any exported predicate"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        exported = context.config.exported
        if exported is None:
            # Without export declarations any sink predicate could be the
            # intended output, so there is nothing sound to report.
            return
        program = context.program
        # One traversal of the shared dependence graph covers all goals
        # (previously one full relevant_predicates graph build per goal).
        relevant = context.facts.reachable_from(frozenset(exported))
        for pred in sorted(program.idb_predicates - relevant):
            rule = next(r for r in program.rules if r.head.predicate == pred)
            yield context.diagnostic(
                self.rule_id,
                self.severity,
                f"IDB predicate {pred} cannot reach any exported predicate "
                f"({', '.join(sorted(exported))}); its rules are dead code",
                rule=rule,
                fix=Fix(f"delete the rules defining {pred}"),
            )


@register
class UnstratifiableLint(LintRule):
    rule_id = "unstratifiable"
    severity = "error"
    description = "negation through recursion (no stratified evaluation exists)"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        program = context.program
        if program.is_positive:
            return
        offenders = context.facts.dependence.negative_cycle_predicates()
        if not offenders:
            return
        names = ", ".join(sorted(offenders))
        rule = next((r for r in program.rules if r.head.predicate in offenders), None)
        yield context.diagnostic(
            self.rule_id,
            self.severity,
            f"negation through recursion among {{{names}}}: the program has no "
            "stratification and cannot be evaluated with stratified semantics",
            rule=rule,
        )


@register
class RedundantAtomLint(LintRule):
    rule_id = "redundant-atom"
    severity = "warning"
    description = "body atom provably redundant under uniform equivalence (Fig. 1)"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        from ..core.minimize import scan_redundancy

        program = context.program
        if not program.is_positive:
            return
        scan = scan_redundancy(
            program,
            engine=context.config.engine,
            atoms=True,
            rules=False,
            budget=context.containment_budget,
            session=context.containment_session,
        )
        for finding in scan.redundant_atoms:
            yield context.diagnostic(
                self.rule_id,
                self.severity,
                f"body atom {finding.atom} of '{finding.rule}' is redundant: the "
                "rule without it is uniformly contained in the program "
                "(Section VII, Fig. 1)",
                rule=finding.rule,
                fix=Fix(
                    f"drop {finding.atom} from the body",
                    replacement=format_rule(finding.reduced),
                ),
            )


@register
class RedundantRuleLint(LintRule):
    rule_id = "redundant-rule"
    severity = "warning"
    description = "whole rule provably redundant under uniform equivalence (Fig. 2)"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        from ..core.minimize import scan_redundancy

        program = context.program
        if not program.is_positive or len(program) < 2:
            return
        scan = scan_redundancy(
            program,
            engine=context.config.engine,
            atoms=False,
            rules=True,
            budget=context.containment_budget,
            session=context.containment_session,
        )
        for rule in scan.redundant_rules:
            yield context.diagnostic(
                self.rule_id,
                self.severity,
                f"rule '{rule}' is redundant: it is uniformly contained in "
                "the rest of the program (Section VII, Fig. 2)",
                rule=rule,
                fix=Fix("delete the rule"),
            )


@register
class TgdCandidateLint(LintRule):
    rule_id = "tgd-candidate"
    severity = "info"
    description = "candidate tgd satisfying the Section XI syntactic properties"

    def check(self, context: LintContext) -> Iterator[Diagnostic]:
        from ..core.heuristics import candidate_tgds

        program = context.program
        if not program.is_positive:
            return
        limit = context.config.max_tgd_candidates_per_rule
        if limit <= 0:
            return
        for rule in program.rules:
            if len(rule.body) < 2:
                continue
            for candidate in itertools.islice(candidate_tgds(rule), limit):
                positions = ", ".join(str(i) for i in candidate.rhs_body_positions)
                yield context.diagnostic(
                    self.rule_id,
                    self.severity,
                    f"candidate tgd {candidate.tgd} satisfies the Section XI "
                    f"properties for '{rule}'; if it holds in your data, body "
                    f"position(s) {positions} become removable under plain "
                    "equivalence (try `repro-datalog prove`)",
                    rule=rule,
                )


__all__ = [
    "CartesianProductLint",
    "DuplicateRuleLint",
    "RedundantAtomLint",
    "RedundantRuleLint",
    "SingletonVariableLint",
    "TgdCandidateLint",
    "UndefinedPredicateLint",
    "UnstratifiableLint",
    "UnusedIdbLint",
]
