"""Non-recursive preservation of tgds (Section IX, Fig. 3).

``P`` *preserves* ``T`` if ``P(d) ∈ SAT(T)`` whenever ``d ∈ SAT(T)``.
The paper certifies this through the stronger *non-recursive*
preservation: ``⟨d, Pⁿ(d)⟩ ∈ SAT(T)`` for all ``d ∈ SAT(T)`` -- if one
bottom-up round preserves ``T``, induction gives preservation outright.

The procedure (a Klug--Price-style chase) attempts to build a
counterexample for each tgd ``τ``:

1. instantiate the LHS of ``τ`` with distinct fresh constants;
2. atoms of extensional predicates join the hypothetical database
   ``d``; each atom of an intensional predicate must have been produced
   by some rule, so it is unified with the head of a *chosen* rule --
   including the trivial rules ``Q(x̄) :- Q(x̄)`` standing for "the atom
   was already in d" -- and the chosen rule's instantiated body joins
   ``d``;
3. every combination of choices is examined; for each, ``d`` is chased
   with ``T`` (it must satisfy ``T``), ``Pⁿ(d)`` is recomputed, and the
   distinguished LHS instantiation is checked for a violation in
   ``⟨d, Pⁿ(d)⟩``.  The chase and the check are interleaved so the
   procedure stops as soon as the violation disappears, exactly as the
   paper prescribes for termination in the positive case.

A combination whose head unification is impossible (e.g. ground atom
``G(x0, y0)`` against head ``G(x, x)``) cannot occur and passes
vacuously.

Outcomes are three-valued: ``PROVED`` (preserves non-recursively),
``DISPROVED`` (a finite counterexample database was constructed),
``UNKNOWN`` (embedded tgds exhausted the budget while a violation
persisted).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from ..data.database import Database
from ..engine.compile import KernelCache
from ..engine.fixpoint import apply_once
from ..lang.atoms import Atom
from ..lang.freeze import freeze_atoms
from ..lang.programs import Program
from ..lang.rules import Rule
from ..lang.substitution import Substitution, match_atom
from ..lang.terms import FrozenConstant, NullFactory, Variable
from .chase import ChaseBudget, DEFAULT_BUDGET, Verdict, certified_budget
from .tgds import Tgd

#: Serial offset so freezing inside the procedure never collides with
#: the serial-0 constants used to instantiate the tgd's left-hand side.
_BODY_SERIAL_BASE = 1


@dataclass(frozen=True)
class UnificationChoice:
    """One way an intensional LHS atom may have been derived."""

    atom: Atom          # the instantiated (ground) LHS atom
    rule: Rule          # the chosen rule, variables renamed apart
    body_atoms: tuple[Atom, ...]  # the rule's instantiated body, to join d
    is_trivial: bool    # True when the choice is the trivial rule


@dataclass
class CombinationEvidence:
    """Transcript for one combination of unification choices."""

    tgd: Tgd
    choices: tuple[UnificationChoice, ...]
    verdict: Verdict
    rounds: int = 0
    counterexample: Optional[frozenset[Atom]] = None
    #: Which budget limit tripped when the verdict is ``UNKNOWN``.
    exhausted: Optional[str] = None


@dataclass
class PreservationReport:
    """Outcome of the Fig. 3 procedure over a whole tgd set."""

    verdict: Verdict
    evidence: list[CombinationEvidence] = field(default_factory=list)
    combinations_examined: int = 0

    def __bool__(self) -> bool:
        return bool(self.verdict)

    @property
    def exhausted(self) -> Optional[str]:
        """The first budget limit that tripped across the evidence."""
        for item in self.evidence:
            if item.exhausted:
                return item.exhausted
        return None

    @property
    def counterexample(self) -> Optional[frozenset[Atom]]:
        for item in self.evidence:
            if item.verdict is Verdict.DISPROVED:
                return item.counterexample
        return None


def _instantiate_choices(
    alpha: Atom,
    rules: Sequence[Rule],
    serial: int,
) -> Iterator[UnificationChoice]:
    """All rules whose head unifies with the ground atom *alpha*.

    The chosen rule's variables are renamed apart, its head is matched
    against *alpha*, and body variables not bound by the head are
    instantiated to fresh frozen constants (the paper's "the rest of the
    variables of r are instantiated to new distinct constants").
    """
    for rule_index, rule in enumerate(rules):
        renamed = rule.rename_variables(f"_r{serial}_{rule_index}")
        sigma = match_atom(renamed.head, alpha)
        if sigma is None:
            continue
        leftover = {
            var: FrozenConstant(var.name, serial)
            for var in renamed.variables()
            if var not in sigma
        }
        full = sigma.bind_many(leftover)
        body_atoms = tuple(full.apply_atom(a) for a in renamed.body_atoms())
        is_trivial = len(renamed.body) == 1 and renamed.body[0].atom == renamed.head
        yield UnificationChoice(alpha, renamed, body_atoms, is_trivial)


def _examine_combination(
    program: Program,
    tgds: Sequence[Tgd],
    tgd: Tgd,
    theta: Substitution,
    extensional_atoms: Sequence[Atom],
    combination: tuple[UnificationChoice, ...],
    budget: ChaseBudget,
    kernels: KernelCache,
) -> CombinationEvidence:
    """Run the interleaved chase-and-check loop for one combination."""
    d = Database(extensional_atoms)
    for choice in combination:
        d.add_all(choice.body_atoms)
    kernels.bind(d)
    nulls = NullFactory()
    rounds = 0
    while True:
        pn = apply_once(program, d, kernels=kernels)
        combined = d.copy()
        combined.add_all(pn)
        if not tgd.exhibits_violation(combined, theta):
            return CombinationEvidence(tgd, combination, Verdict.PROVED, rounds)
        rounds += 1
        if rounds > budget.max_rounds:
            return CombinationEvidence(
                tgd, combination, Verdict.UNKNOWN, rounds, exhausted="rounds"
            )
        if nulls.issued > budget.max_nulls:
            return CombinationEvidence(
                tgd, combination, Verdict.UNKNOWN, rounds, exhausted="nulls"
            )
        if len(d) > budget.max_atoms:
            return CombinationEvidence(
                tgd, combination, Verdict.UNKNOWN, rounds, exhausted="atoms"
            )
        added = 0
        for dependency in tgds:
            added += dependency.apply_all_once(d, nulls)
        if added == 0:
            # d satisfies T, yet ⟨d, Pⁿ(d)⟩ still violates τ: a genuine
            # finite counterexample.
            return CombinationEvidence(
                tgd, combination, Verdict.DISPROVED, rounds, frozenset(combined.atoms())
            )


def preserves_nonrecursively(
    program: Program,
    tgds: Sequence[Tgd],
    budget: ChaseBudget = DEFAULT_BUDGET,
    stop_at_violation: bool = True,
    certificate=None,
) -> PreservationReport:
    """Fig. 3: does *program* preserve *tgds* non-recursively?

    ``PROVED`` implies the program preserves ``T`` outright (condition
    (2) of the Section X recipe).  Note the one-way implication the
    paper stresses: a program may preserve ``T`` without preserving it
    non-recursively, so ``DISPROVED`` here does not refute preservation
    itself.

    A terminating termination *certificate* widens *budget* (see
    :func:`~repro.core.chase.certified_budget`) so the per-combination
    chase saturates rather than answering ``UNKNOWN``.
    """
    tgds = list(tgds)
    budget = certified_budget(budget, certificate, None, program, tgds)
    idb = program.idb_predicates
    augmented_rules = program.with_trivial_rules().rules
    report = PreservationReport(verdict=Verdict.PROVED)
    kernels = KernelCache()  # shared by every combination: each rule compiles once

    for tgd in tgds:
        frozen_lhs, theta_full = freeze_atoms(tgd.lhs, serial=0)
        theta = theta_full.restrict(tgd.universal_variables)
        extensional = [a for a in frozen_lhs if a.predicate not in idb]
        intensional = [a for a in frozen_lhs if a.predicate in idb]

        per_atom_choices: list[list[UnificationChoice]] = []
        for serial, alpha in enumerate(intensional, start=_BODY_SERIAL_BASE):
            matching = [
                r for r in augmented_rules if r.head.predicate == alpha.predicate
            ]
            choices = list(_instantiate_choices(alpha, matching, serial))
            per_atom_choices.append(choices)

        for combination in itertools.product(*per_atom_choices):
            report.combinations_examined += 1
            evidence = _examine_combination(
                program, tgds, tgd, theta, extensional, combination, budget, kernels
            )
            report.evidence.append(evidence)
            if evidence.verdict is Verdict.DISPROVED:
                report.verdict = Verdict.DISPROVED
                if stop_at_violation:
                    return report
            elif evidence.verdict is Verdict.UNKNOWN and report.verdict is Verdict.PROVED:
                report.verdict = Verdict.UNKNOWN
    return report


def preliminary_db_satisfies(
    program: Program,
    tgds: Sequence[Tgd],
) -> PreservationReport:
    """Condition (3′) of Section X: the preliminary DB satisfies ``T``.

    The preliminary DB for an EDB ``d`` is ``⟨d, Pⁱ(d)⟩`` where ``Pⁱ``
    is the program's initialization rules.  The Fig. 3 procedure is
    modified exactly as the paper describes (Example 18):

    * ``d`` is an EDB, so intensional LHS atoms unify only with
      initialization-rule heads -- **no trivial rules**;
    * ``d`` is arbitrary, not assumed in ``SAT(T)``, so **no tgds are
      applied** to ``d``.

    Without tgd application the check is a single round per combination
    and always terminates: the verdict is never ``UNKNOWN``.  An
    intensional LHS atom that no initialization rule can produce makes
    the combination impossible (vacuously satisfied).
    """
    tgds = list(tgds)
    idb = program.idb_predicates
    init_program = program.initialization_program()
    report = PreservationReport(verdict=Verdict.PROVED)

    for tgd in tgds:
        frozen_lhs, theta_full = freeze_atoms(tgd.lhs, serial=0)
        theta = theta_full.restrict(tgd.universal_variables)
        extensional = [a for a in frozen_lhs if a.predicate not in idb]
        intensional = [a for a in frozen_lhs if a.predicate in idb]

        per_atom_choices: list[list[UnificationChoice]] = []
        impossible = False
        for serial, alpha in enumerate(intensional, start=_BODY_SERIAL_BASE):
            matching = [
                r for r in init_program.rules if r.head.predicate == alpha.predicate
            ]
            choices = list(_instantiate_choices(alpha, matching, serial))
            if not choices:
                impossible = True
                break
            per_atom_choices.append(choices)
        if impossible:
            continue

        for combination in itertools.product(*per_atom_choices):
            report.combinations_examined += 1
            d = Database(extensional)
            for choice in combination:
                d.add_all(choice.body_atoms)
            pn = apply_once(init_program, d)
            combined = d.copy()
            combined.add_all(pn)
            if tgd.exhibits_violation(combined, theta):
                evidence = CombinationEvidence(
                    tgd, combination, Verdict.DISPROVED, 0, frozenset(combined.atoms())
                )
                report.evidence.append(evidence)
                report.verdict = Verdict.DISPROVED
                return report
            report.evidence.append(CombinationEvidence(tgd, combination, Verdict.PROVED))
    return report
