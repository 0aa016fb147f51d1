"""Uniform containment and uniform equivalence (Sections IV and VI).

The paper's key decidability result: although plain equivalence of
Datalog programs is undecidable (Shmueli), *uniform* containment is
decidable, and the test is a single bottom-up evaluation per rule
(Corollary 2)::

    P2 ⊑u P1   iff   for every rule  h :- b  of P2:  hθ ∈ P1(bθ)

where θ freezes the rule's variables to distinct fresh constants.  The
test is total: it always terminates because bottom-up evaluation of a
Datalog program over a finite database cannot invent new constants.

Naming convention used throughout this module: ``contained`` is the
smaller program (``P2``), ``container`` the larger (``P1``), and the
relation tested is ``contained ⊑u container``.

Figs. 1-2 run the test once per candidate atom and once per candidate
rule, against containers that differ by one rule.  A
:class:`ContainmentSession` carries what those tests share; each
multi-test entry point (:func:`uniformly_contains`,
:func:`check_uniform_containment`, and in :mod:`repro.core.minimize`
``minimize_program``, ``scan_redundancy`` and ``is_minimal``) creates
one for the duration of its call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.relevance import relevant_predicates
from ..data.database import Database
from ..engine.compile import KernelCache
from ..engine.fixpoint import EngineName, evaluate
from ..engine.seminaive import GoalRun
from ..lang.atoms import Atom
from ..lang.freeze import freeze_rule
from ..lang.programs import Program
from ..lang.rules import Rule
from ..obs.metrics import metrics_registry
from ..obs.tracer import trace


class ContainmentSession:
    """What the uniform-containment tests of one call share.

    * **One kernel store.**  Every ``seminaive`` evaluation of the
      session compiles into one :class:`~repro.engine.compile.KernelCache`
      keyed by rule value, so a rule common to many container programs
      is compiled once per delta position, planned on the first
      canonical database that needs it.
    * **Goal-directed boolean tests.**  :func:`rule_uniformly_contained_in`
      evaluates only the container rules the frozen head's predicate
      depends on (:func:`~repro.analysis.relevance.relevant_predicates`)
      and stops at the end of the round that commits the frozen head.
      :func:`check_rule_containment` shares the kernels but runs to the
      full fixpoint, since its output is evidence.

    A session is created by the call that owns it and dropped when that
    call returns; it is never stored globally.  Engines other than
    ``seminaive`` take the plain path.
    """

    __slots__ = ("kernels", "_container", "_restricted")

    def __init__(self):
        self.kernels = KernelCache()
        #: The last container seen and its goal restrictions, by head
        #: predicate: Fig. 1 tests one container per atom of a rule.
        self._container: Program | None = None
        self._restricted: dict[str, Program] = {}

    def goal_run(self, engine: EngineName, target: Atom | None) -> GoalRun | None:
        """The hand-off to one evaluation, or ``None`` for the plain path."""
        if engine != "seminaive":
            return None
        return GoalRun(self.kernels, target)

    def relevant(self, container: Program, predicate: str) -> Program:
        """*container* restricted to the rules *predicate* depends on."""
        if container is not self._container:
            self._container = container
            self._restricted = {}
        restricted = self._restricted.get(predicate)
        if restricted is None:
            needed = relevant_predicates(container, predicate)
            kept = [r for r in container.rules if r.head.predicate in needed]
            restricted = container if len(kept) == len(container) else Program(kept)
            self._restricted[predicate] = restricted
        return restricted


@dataclass(frozen=True)
class RuleContainmentWitness:
    """Evidence for one rule's uniform containment test.

    ``holds`` is ``True`` iff the frozen head was derived.  When the
    test fails, ``canonical_output`` is a *countermodel* seed: the
    database ``container(bθ)`` is a model of the container program that
    is not a model of the rule.
    """

    rule: Rule
    holds: bool
    frozen_head: object
    canonical_input: frozenset
    canonical_output: frozenset

    def __str__(self) -> str:
        verdict = "⊑u holds" if self.holds else "⊑u FAILS"
        return f"{verdict} for rule '{self.rule}'"


@dataclass
class UniformContainmentReport:
    """Outcome of ``contained ⊑u container`` with per-rule transcripts."""

    holds: bool
    witnesses: list[RuleContainmentWitness] = field(default_factory=list)

    @property
    def failing_rules(self) -> list[Rule]:
        return [w.rule for w in self.witnesses if not w.holds]

    def __bool__(self) -> bool:
        return self.holds


def rule_uniformly_contained_in(
    rule: Rule,
    container: Program,
    engine: EngineName = "seminaive",
    governor=None,
    session: ContainmentSession | None = None,
) -> bool:
    """Test ``{rule} ⊑u container`` (Section VI, single-rule case).

    The boolean path: goal-directed, and building no evidence.  Callers
    running many tests pass their :class:`ContainmentSession`.
    """
    if session is None:
        session = ContainmentSession()
    with trace("containment.rule_test") as span:
        frozen = freeze_rule(rule)
        canonical = Database(frozen.body)
        goal = session.goal_run(engine, frozen.head)
        if goal is not None:
            container = session.relevant(container, frozen.head.predicate)
        # A PARTIAL evaluation here would be *unsound*: the frozen head
        # might be derivable past the interruption point, and reporting
        # "not contained" on that basis would let minimization delete a
        # non-redundant atom.  A governed trip therefore always raises
        # (on_limit="raise"); callers degrade by stopping, never by guessing.
        result = evaluate(
            container, canonical, engine, governor, on_limit="raise", _goal=goal
        )
        holds = frozen.head in result.database
        if span:
            span.set(rule=str(rule), holds=holds)
    metrics_registry().increment("containment.rule_tests")
    return holds


def check_rule_containment(
    rule: Rule,
    container: Program,
    engine: EngineName = "seminaive",
    governor=None,
    session: ContainmentSession | None = None,
) -> RuleContainmentWitness:
    """Like :func:`rule_uniformly_contained_in` but with full evidence.

    Runs the whole container to its fixpoint, so ``canonical_output``
    is the complete ``container(bθ)``.
    """
    if session is None:
        session = ContainmentSession()
    with trace("containment.rule_test") as span:
        frozen = freeze_rule(rule)
        canonical = Database(frozen.body)
        goal = session.goal_run(engine, None)
        result = evaluate(
            container, canonical, engine, governor, on_limit="raise", _goal=goal
        )
        holds = frozen.head in result.database
        if span:
            span.set(rule=str(rule), holds=holds)
    metrics_registry().increment("containment.rule_tests")
    return RuleContainmentWitness(
        rule=rule,
        holds=holds,
        frozen_head=frozen.head,
        canonical_input=frozenset(frozen.body),
        canonical_output=result.database.as_atom_set(),
    )


def uniformly_contains(
    container: Program,
    contained: Program,
    engine: EngineName = "seminaive",
    governor=None,
) -> bool:
    """Test ``contained ⊑u container``.

    By the model characterization, this holds iff every rule of
    *contained* is uniformly contained in *container* (Section VI).
    """
    session = ContainmentSession()
    return all(
        rule_uniformly_contained_in(rule, container, engine, governor, session)
        for rule in contained.rules
    )


def check_uniform_containment(
    container: Program,
    contained: Program,
    engine: EngineName = "seminaive",
    governor=None,
) -> UniformContainmentReport:
    """``contained ⊑u container`` with a per-rule transcript.

    Unlike :func:`uniformly_contains` this does not short-circuit, so
    the report lists *every* failing rule.  A governed limit trip
    raises :class:`~repro.errors.ResourceLimitExceeded` (a partial
    answer set would mislabel undecided rules as failing).
    """
    session = ContainmentSession()
    witnesses = [
        check_rule_containment(rule, container, engine, governor, session)
        for rule in contained.rules
    ]
    return UniformContainmentReport(
        holds=all(w.holds for w in witnesses),
        witnesses=witnesses,
    )


def uniformly_equivalent(
    p1: Program,
    p2: Program,
    engine: EngineName = "seminaive",
    governor=None,
) -> bool:
    """Test ``p1 ≡u p2`` (both containment directions)."""
    return uniformly_contains(p1, p2, engine, governor) and uniformly_contains(
        p2, p1, engine, governor
    )


def canonical_database(rule: Rule) -> Database:
    """The frozen body ``bθ`` of a rule as a database (for inspection)."""
    return Database(freeze_rule(rule).body)
