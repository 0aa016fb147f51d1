"""Fixpoint drivers, the engine registry, and ``Pⁿ``.

Two operators from the paper (Sections III and IX):

* ``P(d)`` -- the output of program ``P`` on input ``d``: the minimal
  model of ``P`` containing ``d``; computed bottom-up, and **contains
  the input** (the EDB-part of the output equals the input).
  See :func:`evaluate`.

* ``Pⁿ(d)`` -- applying ``P`` *non-recursively*: only the atoms
  generated by one round of rule applications on exactly ``d``; by the
  paper's convention ``Pⁿ(d)`` does **not** include ``d`` itself.
  See :func:`apply_once` (Example 12 is its unit test).

This module also hosts the **engine registry** -- the single source of
truth for which engines exist, shared by :func:`evaluate`, the CLI,
and the resilience session (:mod:`repro.resilience.session`).
Whole-database engines (``kind="fixpoint"``) evaluate ``P(d)``; query engines
(``kind="query"``) answer a goal atom; ``incremental``
(``kind="maintenance"``) maintains a materialized view and is driven
through :class:`~repro.engine.incremental.MaterializedView`.

Every engine accepts an optional
:class:`~repro.resilience.ResourceGovernor` and, when a limit trips,
returns an outcome with ``status=PARTIAL`` whose database is a *sound
under-approximation* of the full result (monotonicity -- see
:mod:`repro.resilience.governor`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..data.database import Database
from ..errors import ResourceLimitExceeded
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..resilience.governor import DegradationReport, EvaluationStatus, ResourceGovernor
from .compile import KernelCache
from .stats import EvaluationStats

#: Engine names are plain strings validated against the registry (the
#: old two-literal ``Literal`` type predates the registry and lied by
#: omission about the available engines).
EngineName = str


@dataclass
class EvaluationResult:
    """A computed database plus the statistics of its computation.

    ``status`` is :attr:`EvaluationStatus.COMPLETE` for a genuine
    fixpoint; a governed run whose limit tripped returns
    :attr:`EvaluationStatus.PARTIAL` with ``degradation`` naming the
    limit and location.  A PARTIAL database is always a subset of the
    complete fixpoint (monotonicity), so it is safe to *use* -- just
    not to treat as saturated.
    """

    database: Database
    stats: EvaluationStats
    status: EvaluationStatus = EvaluationStatus.COMPLETE
    degradation: Optional[DegradationReport] = None

    @property
    def is_partial(self) -> bool:
        return self.status is EvaluationStatus.PARTIAL

    def __iter__(self):
        # Allow ``db, stats = evaluate(...)`` unpacking.
        yield self.database
        yield self.stats


#: Public alias used by the resilience layer's documentation/contract.
EvaluationOutcome = EvaluationResult


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine.

    ``run`` (fixpoint engines) has signature
    ``run(program, db, governor=None) -> EvaluationResult``;
    ``answer`` (query engines) has signature
    ``answer(program, db, query, governor=None) -> (Database, EvaluationResult)``.
    """

    name: str
    kind: str  # "fixpoint" | "query" | "maintenance"
    description: str
    run: Optional[Callable] = None
    answer: Optional[Callable] = None


_ENGINES: dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec) -> None:
    """Add an engine to the registry (last registration wins)."""
    _ENGINES[spec.name] = spec


def _ensure_registry() -> dict[str, EngineSpec]:
    """Populate the registry lazily (the engines import this module)."""
    if _ENGINES:
        return _ENGINES
    from .incremental import MaterializedView  # noqa: F401  (registered for discovery)
    from .magic import answer_query
    from .seminaive import naive_fixpoint, seminaive_fixpoint
    from .stratified import evaluate_stratified
    from .supplementary import answer_query_supplementary
    from .topdown import tabled_answer_query

    register_engine(
        EngineSpec(
            "naive",
            "fixpoint",
            "re-derives everything each round (correctness baseline)",
            run=naive_fixpoint,
        )
    )
    register_engine(
        EngineSpec(
            "seminaive",
            "fixpoint",
            "differential fixpoint (default)",
            run=seminaive_fixpoint,
        )
    )
    register_engine(
        EngineSpec(
            "stratified",
            "fixpoint",
            "stratum-by-stratum semi-naive; supports stratified negation",
            run=evaluate_stratified,
        )
    )
    register_engine(
        EngineSpec(
            "magic",
            "query",
            "magic-sets rewriting + bottom-up evaluation",
            answer=answer_query,
        )
    )
    register_engine(
        EngineSpec(
            "supplementary",
            "query",
            "supplementary magic sets (shared sup-prefix chains)",
            answer=answer_query_supplementary,
        )
    )
    register_engine(
        EngineSpec(
            "topdown",
            "query",
            "tabled top-down (QSQR-style) query evaluation",
            answer=tabled_answer_query,
        )
    )
    register_engine(
        EngineSpec(
            "incremental",
            "maintenance",
            "DRed materialized-view maintenance (MaterializedView)",
        )
    )
    return _ENGINES


def engine_names(kind: str | None = None) -> tuple[str, ...]:
    """Registered engine names, optionally filtered by kind."""
    registry = _ensure_registry()
    return tuple(
        sorted(name for name, spec in registry.items() if kind is None or spec.kind == kind)
    )


def get_engine(name: str) -> EngineSpec:
    """Look up an engine; the error message names every real engine."""
    registry = _ensure_registry()
    spec = registry.get(name)
    if spec is None:
        known = ", ".join(sorted(registry))
        raise ValueError(f"unknown engine {name!r}; registered engines: {known}")
    return spec


def apply_once(
    program: Program,
    db: Database,
    stats: EvaluationStats | None = None,
    kernels: KernelCache | None = None,
) -> set:
    """The paper's ``Pⁿ(d)``: atoms derivable by one non-recursive round.

    Every rule is instantiated against the ground atoms of *db* only;
    atoms generated within the round do not feed back into it.  The
    result is a set of atoms and, per the paper's convention, does not
    automatically include ``d``.  Each rule runs as one join kernel; a
    fact rule yields its head.  A caller applying the same rules round
    after round passes one *kernels* cache, so each rule compiles once.
    """
    if kernels is None:
        kernels = KernelCache(db)
    derived = set()
    for rule in program.rules:
        if rule.is_fact:
            derived.add(rule.head)
            if stats is not None:
                stats.rule_firings += 1
            continue
        predicate = rule.head.predicate
        rows = kernels.kernel(rule).run(db, stats=stats)
        derived.update(Atom(predicate, row) for row in rows)
    return derived


def evaluate(
    program: Program,
    db: Database,
    engine: EngineName = "seminaive",
    governor: ResourceGovernor | None = None,
    on_limit: str = "partial",
    *,
    _goal=None,
) -> EvaluationResult:
    """Compute ``P(d)``: the minimal model of *program* containing *db*.

    The input database is not mutated; the result contains the input
    (both EDB and any initial IDB facts, per Section III's convention
    that a program may receive initial relations for intensional
    predicates).

    Args:
        program: a positive program (or, with ``engine="stratified"``,
            a stratified program with negation).
        db: the input database (EDB and optionally IDB facts).
        engine: any registered whole-database engine -- see
            :func:`engine_names` with ``kind="fixpoint"``.
        governor: optional resource limits; when a limit trips the
            result has ``status=PARTIAL`` and carries a
            :class:`~repro.resilience.DegradationReport`.
        on_limit: ``"partial"`` (default) returns the degraded result;
            ``"raise"`` raises :class:`ResourceLimitExceeded` instead.
        _goal: internal -- a containment session's
            :class:`~repro.engine.seminaive.GoalRun`, passed through to
            the ``seminaive`` engine (the only one that takes it).
    """
    if on_limit not in ("partial", "raise"):
        raise ValueError(f"on_limit must be 'partial' or 'raise', got {on_limit!r}")
    spec = get_engine(engine)
    if spec.kind != "fixpoint":
        fixpoint = ", ".join(engine_names("fixpoint"))
        hint = (
            "use answer_query()/tabled_query() or the CLI 'query' verb"
            if spec.kind == "query"
            else "use MaterializedView"
        )
        raise ValueError(
            f"engine {engine!r} is a {spec.kind} engine; evaluate() accepts "
            f"{fixpoint} ({hint})"
        )
    if _goal is None:
        result = spec.run(program, db, governor=governor)
    else:
        result = spec.run(program, db, governor=governor, _goal=_goal)
    if on_limit == "raise" and result.degradation is not None:
        raise ResourceLimitExceeded(
            result.degradation.summary(), report=result.degradation
        )
    return result
