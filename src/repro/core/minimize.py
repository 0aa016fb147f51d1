"""Minimization under uniform equivalence (Section VII, Figs. 1 and 2).

Two algorithms, faithful to the paper's figures:

* :func:`minimize_rule` (Fig. 1) -- delete redundant atoms from a single
  rule: for each body atom ``α`` (considered exactly once), let ``r̂``
  be the rule without ``α``; if ``r̂ ⊑u r`` replace ``r`` by ``r̂``.

* :func:`minimize_program` (Fig. 2) -- first minimize every rule's body
  against the *whole current program* (an atom may be redundant in the
  context of ``P`` even if not within its own rule alone), then delete
  redundant rules: if ``r ⊑u P̂`` where ``P̂ = P - r``, drop ``r``.

Theorem 2 (appendix) proves that considering each atom and each rule
exactly once suffices, *provided atoms are removed before rules* --
the implementation preserves that order.  The result is uniformly
equivalent to the input and has no redundant atom or rule, but is not
necessarily unique: it may depend on consideration order, which both
functions accept as a parameter to make that explicit (and testable).

Atoms whose deletion would strand a head variable are skipped: by the
paper's standing assumption (head variables must appear in the body) the
truncated rule would not be a Datalog rule, and such atoms can never be
redundant (a program cannot invent the frozen constant standing for the
stranded variable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..engine.fixpoint import EngineName
from ..errors import ResourceLimitExceeded
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.rules import Rule
from ..obs.metrics import metrics_registry
from ..obs.tracer import trace
from ..resilience.governor import DegradationReport
from .containment import ContainmentSession, rule_uniformly_contained_in

#: An atom-consideration order: given a rule, the body indexes to try, in order.
AtomOrder = Callable[[Rule], Sequence[int]]
#: A rule-consideration order: given a program, the rules to try, in order.
RuleOrder = Callable[[Program], Sequence[Rule]]


def natural_atom_order(rule: Rule) -> Sequence[int]:
    """Body atoms in their written order (the default)."""
    return range(len(rule.body))


def natural_rule_order(program: Program) -> Sequence[Rule]:
    """Rules in their written order (the default)."""
    return program.rules


@dataclass(frozen=True)
class AtomRemoval:
    """One successful body-atom deletion."""

    rule_before: Rule
    atom: Atom
    rule_after: Rule

    def __str__(self) -> str:
        return f"removed {self.atom} from '{self.rule_before}'"


@dataclass(frozen=True)
class RuleRemoval:
    """One successful whole-rule deletion."""

    rule: Rule

    def __str__(self) -> str:
        return f"removed rule '{self.rule}'"


@dataclass
class MinimizationResult:
    """The outcome of Fig. 2 minimization with a full audit trail.

    ``degradation`` is set when a governed run's limit tripped before
    all candidates were considered.  The returned program is still
    uniformly equivalent to the input (every applied removal was
    individually verified); it just may not be *minimal*.
    """

    original: Program
    program: Program
    atom_removals: list[AtomRemoval] = field(default_factory=list)
    rule_removals: list[RuleRemoval] = field(default_factory=list)
    containment_tests: int = 0
    degradation: DegradationReport | None = None

    @property
    def changed(self) -> bool:
        return bool(self.atom_removals or self.rule_removals)

    def summary(self) -> str:
        suffix = ""
        if self.degradation is not None:
            suffix = f"; INCOMPLETE ({self.degradation.limit} tripped)"
        return (
            f"{len(self.atom_removals)} atom(s) and {len(self.rule_removals)} rule(s) removed; "
            f"{self.original.size()} -> {self.program.size()} atoms "
            f"({self.containment_tests} containment tests){suffix}"
        )


def minimize_rule(
    rule: Rule,
    within: Program | None = None,
    engine: EngineName = "seminaive",
    atom_order: AtomOrder = natural_atom_order,
) -> Rule:
    """Fig. 1: remove all redundant atoms from one rule.

    Args:
        rule: the rule to minimize.
        within: the program context for the containment test.  ``None``
            (the single-rule case of Fig. 1) tests ``r̂ ⊑u r``;
            a program tests ``r̂ ⊑u P`` as in the first loop of Fig. 2.
            When a program is given it must contain *rule*; the test is
            against the program with the current (partially minimized)
            version of the rule, exactly as Fig. 2 specifies.
        engine: evaluation engine for the containment tests.
        atom_order: the order in which atoms are considered (the final
            result may legitimately depend on it; see Section VII).
    """
    context = within if within is not None else Program.of(rule)
    if rule not in context:
        raise ValueError("rule being minimized must be part of the given program context")
    minimized, _removals, _tests = _minimize_rule_within(
        context, rule, engine, atom_order, ContainmentSession()
    )
    return minimized


def minimize_program(
    program: Program,
    engine: EngineName = "seminaive",
    atom_order: AtomOrder = natural_atom_order,
    rule_order: RuleOrder = natural_rule_order,
    governor=None,
) -> MinimizationResult:
    """Fig. 2: minimize a whole program under uniform equivalence.

    Phase 1 removes redundant atoms from every rule, testing against
    the *current whole program*; phase 2 removes redundant rules.  The
    output has neither redundant atoms nor redundant rules (Theorem 2)
    and is uniformly equivalent to the input.

    With a *governor*, a tripped limit ends minimization early: the
    result carries the removals verified so far (still an equivalent
    program -- just possibly non-minimal) plus the degradation report.
    """
    result = MinimizationResult(original=program, program=program)
    current = program
    session = ContainmentSession()

    with trace("minimize.program", rules=len(program.rules)) as root:
        try:
            if governor is not None:
                governor.note(engine="minimize")
            # Phase 1: atom deletions, each atom considered once, context = whole program.
            with trace("minimize.atom_phase"):
                for rule in rule_order(program):
                    if rule not in current:  # pragma: no cover - defensive; orders must yield program rules
                        continue
                    minimized, removals, tests = _minimize_rule_within(
                        current, rule, engine, atom_order, session, governor
                    )
                    result.containment_tests += tests
                    if removals:
                        result.atom_removals.extend(removals)
                        current = current.replace_rule(rule, minimized)

            # Phase 2: rule deletions, each rule considered once.
            with trace("minimize.rule_phase"):
                for rule in rule_order(current):
                    if rule not in current:
                        # The rule object from the order may predate phase-1 edits;
                        # phase 2 must consider the *minimized* rules, which
                        # rule_order(current) already yields for the default order.
                        continue
                    if governor is not None:
                        governor.tick()
                    candidate_program = current.without_rule(rule)
                    result.containment_tests += 1
                    if rule_uniformly_contained_in(
                        rule, candidate_program, engine, governor, session
                    ):
                        result.rule_removals.append(RuleRemoval(rule))
                        current = candidate_program
        except ResourceLimitExceeded as error:
            result.degradation = error.report
            metrics_registry().increment("minimize.degraded")

        if root:
            root.add("atom_removals", len(result.atom_removals))
            root.add("rule_removals", len(result.rule_removals))
            root.add("containment_tests", result.containment_tests)

    result.program = current
    return result


def _minimize_rule_within(
    program: Program,
    rule: Rule,
    engine: EngineName,
    atom_order: AtomOrder,
    session: ContainmentSession,
    governor=None,
) -> tuple[Rule, list[AtomRemoval], int]:
    """Minimize one rule's body against the evolving program."""
    removals: list[AtomRemoval] = []
    tests = 0
    current_rule = rule
    current_program = program
    pending = list(atom_order(rule))
    position_map = list(range(len(rule.body)))
    for original_index in pending:
        try:
            current_index = position_map.index(original_index)
        except ValueError:  # pragma: no cover
            continue
        if not current_rule.can_drop_body_literal(current_index):
            continue
        if governor is not None:
            governor.tick()
        candidate = current_rule.without_body_literal(current_index)
        tests += 1
        if rule_uniformly_contained_in(
            candidate, current_program, engine, governor, session
        ):
            removals.append(
                AtomRemoval(
                    rule_before=current_rule,
                    atom=current_rule.body[current_index].atom,
                    rule_after=candidate,
                )
            )
            current_program = current_program.replace_rule(current_rule, candidate)
            current_rule = candidate
            del position_map[current_index]
    return current_rule, removals, tests


class ContainmentBudget:
    """A cap on the number of uniform-containment tests a scan may run.

    Each Fig. 1/2 test is a bottom-up evaluation over a canonical
    database (goal-directed: it stops once the frozen head is derived,
    see :class:`~repro.core.containment.ContainmentSession`), so callers
    that want *diagnostics* rather than a minimized program (the linter)
    bound how many they run.  ``limit=None`` means unlimited.

    Every decision also feeds the process-wide metrics registry
    (``containment.budget_spent`` / ``containment.budget_skipped``),
    so lint runs show up in registry snapshots.
    """

    __slots__ = ("limit", "spent", "skipped")

    def __init__(self, limit: int | None = None):
        self.limit = limit
        self.spent = 0
        self.skipped = 0

    def take(self) -> bool:
        """Reserve one test; ``False`` (and counted as skipped) if exhausted."""
        if self.limit is not None and self.spent >= self.limit:
            self.skipped += 1
            metrics_registry().increment("containment.budget_skipped")
            return False
        self.spent += 1
        metrics_registry().increment("containment.budget_spent")
        return True


@dataclass(frozen=True)
class RedundantAtom:
    """A body atom whose single deletion preserves uniform equivalence."""

    rule: Rule
    body_index: int
    reduced: Rule

    @property
    def atom(self) -> Atom:
        return self.rule.body[self.body_index].atom


@dataclass
class RedundancyScan:
    """Read-only findings of the Fig. 1/2 tests over a whole program.

    Unlike :func:`minimize_program` this never rewrites the program:
    each finding is an independent single-deletion witness against the
    *original* program, which is exactly what a diagnostic needs (the
    reported rule text matches the source).
    """

    redundant_atoms: list[RedundantAtom] = field(default_factory=list)
    redundant_rules: list[Rule] = field(default_factory=list)
    containment_tests: int = 0
    tests_skipped: int = 0
    degradation: DegradationReport | None = None

    @property
    def budget_exhausted(self) -> bool:
        return self.tests_skipped > 0 or self.degradation is not None


def scan_redundancy(
    program: Program,
    engine: EngineName = "seminaive",
    max_checks: int | None = None,
    atoms: bool = True,
    rules: bool = True,
    budget: ContainmentBudget | None = None,
    governor=None,
    session: ContainmentSession | None = None,
) -> RedundancyScan:
    """Find redundant atoms (Fig. 1) and rules (Fig. 2) without mutating.

    An atom finding means ``r̂ ⊑u P`` where ``r̂`` drops one body atom;
    a rule finding means ``r ⊑u P - r``.  Both are sound deletion
    witnesses taken one at a time; applying several at once is *not*
    justified by this scan (use :func:`minimize_program` for that).
    ``max_checks`` caps the total number of containment tests; findings
    past the cap are silently skipped and counted in ``tests_skipped``.
    Callers sharing a cap across several scans pass a *budget* instead
    (then ``containment_tests``/``tests_skipped`` report the budget's
    running totals), and share compiled kernels by passing one
    *session* (the linter keeps both on its ``LintContext``).
    """
    if budget is None:
        budget = ContainmentBudget(max_checks)
    if session is None:
        session = ContainmentSession()
    scan = RedundancyScan()
    try:
        if atoms:
            for rule in program.rules:
                for index in range(len(rule.body)):
                    if not rule.can_drop_body_literal(index):
                        continue
                    if not budget.take():
                        continue
                    candidate = rule.without_body_literal(index)
                    if rule_uniformly_contained_in(
                        candidate, program, engine, governor, session
                    ):
                        scan.redundant_atoms.append(RedundantAtom(rule, index, candidate))
        if rules:
            for rule in program.rules:
                if not budget.take():
                    continue
                if rule_uniformly_contained_in(
                    rule, program.without_rule(rule), engine, governor, session
                ):
                    scan.redundant_rules.append(rule)
    except ResourceLimitExceeded as error:
        # Findings so far are each individually verified; report the
        # trip so callers know the scan is incomplete, not clean.
        scan.degradation = error.report
    scan.containment_tests = budget.spent
    scan.tests_skipped = budget.skipped
    return scan


def is_minimal(program: Program, engine: EngineName = "seminaive") -> bool:
    """Whether no single atom or rule deletion preserves uniform equivalence.

    Used by tests and benchmarks to verify the guarantee of Theorem 2 on
    the output of :func:`minimize_program`.
    """
    session = ContainmentSession()
    for rule in program.rules:
        for index in range(len(rule.body)):
            if not rule.can_drop_body_literal(index):
                continue
            candidate = rule.without_body_literal(index)
            if rule_uniformly_contained_in(candidate, program, engine, session=session):
                return False
    for rule in program.rules:
        if rule_uniformly_contained_in(
            rule, program.without_rule(rule), engine, session=session
        ):
            return False
    return True
