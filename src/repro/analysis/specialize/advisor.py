"""The specialization advisor: static engine/rewrite selection per query form.

For each query form the advisor

1. computes the reachable adornment closure (the groundness domain's
   demanded-adornment fixpoint, shared with ``engine/magic.py`` through
   its closure cache);
2. materializes the magic-rewritten specialization **without executing
   it** (:func:`.rewrite.materialize_specialization`);
3. runs the existing absint domains over the rewriting to classify it —
   ``stratifiable_after_magic`` (dependence graph of the rewriting has
   no negative cycle), ``linear`` (recursion domain), ``bounded_depth``
   (no recursive SCC survives the rewriting), ``chase_terminating``
   (termination domain, rules as full tgds);
4. costs both candidates from cardinality intervals: the unrestricted
   bottom-up fixpoint over the query's relevant subprogram vs. the
   specialized program, where a bound argument position divides the
   domain-size estimate (each bound column is one selection over an
   active domain of ``assume_edb`` constants);
5. emits a :class:`~.certificate.SpecializationPlan` with the
   recommendation and all the evidence.

The advisor only ever recommends methods it can *execute faithfully*
(:func:`execute_plan`): ``magic`` (positive programs, rewriting
identical to ``query --method magic``) or ``evaluate`` (bottom-up
fixpoint, answers selected by matching).  ``supplementary`` and
``topdown`` remain user-selectable via ``query --method``; their
rewritings differ from the analyzed one, so the certificate makes no
claim about them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ...data.database import Database
from ...engine.fixpoint import EvaluationResult, evaluate
from ...engine.magic import Adornment, answer_query, preload_closure
from ...lang.atoms import Atom
from ...lang.canonical import canonical_program_key
from ...lang.programs import Program
from ...lang.terms import Variable
from ...obs.metrics import metrics_registry
from ...obs.tracer import trace
from ...resilience.governor import ResourceGovernor
from ..absint.cardinality import CAP, DEFAULT_EDB_SIZE, analyze_cardinality
from ..absint.framework import ProgramFacts
from ..absint.groundness import binding_analysis
from ..absint.recursion import classify_recursion
from ..absint.termination import classify_termination
from ..dependence import DependenceGraph
from ..relevance import relevant_predicates
from .certificate import (
    CertificateError,
    PlanCertificate,
    Recommendation,
    SpecializationPlan,
)
from .rewrite import QueryForm, default_query_forms, materialize_specialization

#: The analysis name under which metrics are recorded.
DOMAIN_NAME = "specialize"

#: Closure sizes above this trip the adornment-space-explosion lint.
DEFAULT_ADORNMENT_BUDGET = 64


def advise_program(
    program: Program,
    query_forms: Sequence[QueryForm] | None = None,
    sips: str = "left-to-right",
    assume_edb: int = DEFAULT_EDB_SIZE,
    source: str | None = None,
    facts: ProgramFacts | None = None,
) -> PlanCertificate:
    """Analyze every query form and emit the program's plan certificate."""
    if facts is None:
        facts = ProgramFacts(program)
    if query_forms is None:
        query_forms = default_query_forms(program)
    program_key = canonical_program_key(program)
    base = analyze_cardinality(program, facts, default_edb=assume_edb)
    plans: list[SpecializationPlan] = []
    with trace("advise.program", forms=len(query_forms)) as span:
        for form in query_forms:
            plans.append(
                advise_form(
                    program,
                    form,
                    sips=sips,
                    assume_edb=assume_edb,
                    facts=facts,
                    program_key=program_key,
                    base_hints=base.hints,
                    base_values=base.values,
                )
            )
        if span:
            span.add("plans", len(plans))
    metrics_registry().record_analysis(DOMAIN_NAME, len(plans), 0)
    return PlanCertificate(
        program_key=program_key,
        sips=sips,
        assume_edb=assume_edb,
        plans=plans,
        hints=dict(base.hints),
        source=source,
    )


def advise_form(
    program: Program,
    form: QueryForm,
    sips: str = "left-to-right",
    assume_edb: int = DEFAULT_EDB_SIZE,
    facts: ProgramFacts | None = None,
    program_key: str | None = None,
    base_hints: dict[str, int] | None = None,
    base_values=None,
) -> SpecializationPlan:
    """Analyze one query form; the per-form half of :func:`advise_program`."""
    if facts is None:
        facts = ProgramFacts(program)
    if program_key is None:
        program_key = canonical_program_key(program)
    if base_hints is None or base_values is None:
        base = analyze_cardinality(program, facts, default_edb=assume_edb)
        base_hints, base_values = base.hints, base.values

    if form.predicate not in program.idb_predicates:
        return SpecializationPlan(
            predicate=form.predicate,
            adornment=form.suffix,
            query=form.display,
            closure=(),
            recommendation=Recommendation(
                "none",
                "evaluate",
                "seminaive",
                "EDB predicate: answers are selected directly, nothing to specialize",
            ),
            classification={},
            stratification={"status": "stratified", "negative_cycle": []},
            cost={},
        )

    analysis = binding_analysis(program, form.probe, sips=sips, facts=facts)
    closure = tuple((pred, a.suffix) for pred, a in analysis.demand)
    # Warm the magic closure cache: the materialization below — and any
    # later magic_transform for this form — reuses the demand set.
    preload_closure(program_key, form.predicate, form.suffix, sips, closure)
    issues = [issue.to_dict() for issue in analysis.issues]

    rewriting = materialize_specialization(program, form.probe, sips=sips)
    rewritten = rewriting.program
    rfacts = ProgramFacts(rewritten)
    negative_cycle = sorted(rfacts.dependence.negative_cycle_predicates())
    stratifiable = not negative_cycle
    recursion = classify_recursion(rewritten, rfacts)
    # Cost the rewriting with its seed in place: the magic predicate is
    # IDB there, so without the seed fact every interval collapses to 0.
    from ...lang.rules import Rule

    seeded = Program([*rewritten.rules, Rule(rewriting.seed, ())])
    rewritten_card = analyze_cardinality(seeded, default_edb=assume_edb)
    termination = classify_termination((), rewritten)

    classification = {
        "stratifiable_after_magic": stratifiable,
        "linear": recursion.linear,
        "bounded_depth": not recursion.recursive_sccs,
        "chase_terminating": termination.certificate.guarantees_termination,
    }
    stratification = {
        "status": "stratified" if stratifiable else "unstratifiable",
        "negative_cycle": negative_cycle,
    }

    relevant = relevant_predicates(program, form.predicate)
    idb = program.idb_predicates
    cost_none = sum(base_hints.get(p, assume_edb) for p in relevant if p in idb)
    cost_magic = _specialized_cost(analysis.demand, base_hints, program.arities, assume_edb)
    adorned_query = rewriting.adorned_query_predicate
    cost = {
        "none": {
            "interval": base_values[form.predicate].describe(),
            "estimate": cost_none,
        },
        "magic": {
            "interval": rewritten_card.values[adorned_query].describe(),
            "estimate": cost_magic,
        },
    }

    recommendation = _recommend(
        program, form, stratifiable, cost_none, cost_magic
    )
    return SpecializationPlan(
        predicate=form.predicate,
        adornment=form.suffix,
        query=form.display,
        closure=closure,
        recommendation=recommendation,
        classification=classification,
        stratification=stratification,
        cost=cost,
        issues=issues,
        rewritten_program_key=canonical_program_key(rewritten),
        rewritten_rules=len(rewritten.rules),
        hints=dict(rewritten_card.hints),
    )


def _specialized_cost(
    demand: Iterable[tuple[str, Adornment]],
    base_hints: dict[str, int],
    arities: dict[str, int],
    assume_edb: int,
) -> int:
    """Estimated fact volume of the magic-rewritten program.

    Each demanded adornment contributes its source predicate's estimate
    divided by ``assume_edb`` per bound position — a bound column is one
    selection over the active domain — plus one magic tuple.  The
    denominator mirrors the ∞-widening fallback of the cardinality
    domain (``domain ** arity``), so a fully-bound adornment of a
    widened predicate costs ``1`` and a fully-free one costs the same
    as not rewriting at all.
    """
    total = 0
    for pred, adornment in demand:
        hint = min(base_hints.get(pred, assume_edb), CAP)
        discount = assume_edb ** len(adornment.bound_positions)
        total += max(1, hint // max(1, discount)) + 1
    return total


def _recommend(
    program: Program,
    form: QueryForm,
    stratifiable: bool,
    cost_none: int,
    cost_magic: int,
) -> Recommendation:
    if not program.is_positive:
        if not stratifiable:
            reason = (
                "magic rewriting introduces a negative cycle; evaluate the "
                "original stratified program instead"
            )
        else:
            reason = (
                "program has negation; the magic execution path requires a "
                "positive program"
            )
        return Recommendation("none", "evaluate", "stratified", reason)
    if not form.adornment.bound_positions:
        return Recommendation(
            "none",
            "evaluate",
            "seminaive",
            "query binds no argument; rewriting cannot restrict the computation",
        )
    if cost_magic < cost_none:
        return Recommendation(
            "magic",
            "magic",
            "seminaive",
            f"specialized cost {cost_magic} beats unrestricted cost {cost_none}",
        )
    return Recommendation(
        "none",
        "evaluate",
        "seminaive",
        f"specialization is not cheaper ({cost_magic} >= {cost_none})",
    )


def execute_plan(
    program: Program,
    db: Database,
    query: Atom,
    plan: SpecializationPlan,
    sips: str = "left-to-right",
    governor: ResourceGovernor | None = None,
) -> tuple[Database, EvaluationResult]:
    """Run *query* the way *plan* recommends.

    ``rewrite="magic"`` delegates to :func:`repro.engine.magic
    .answer_query` (the rewriting is the analyzed one, via the shared
    closure cache); ``rewrite="none"`` evaluates the program bottom-up
    with the recommended engine and selects matching answers.  Under a
    governor, both paths degrade to a sound PARTIAL subset.
    """
    rec = plan.recommendation
    if rec.rewrite == "magic":
        return answer_query(
            program, db, query, engine=rec.engine, sips=sips, governor=governor
        )
    result = evaluate(program, db, engine=rec.engine, governor=governor)
    return select_answers(result.database, query), result


def select_answers(computed: Database, query: Atom) -> Database:
    """Facts of the query's predicate matching its constants.

    Same matching rule as :meth:`repro.engine.magic.MagicRewriting
    .answers` — repeated query variables enforce equality.
    """
    from ...lang.substitution import match_atom

    out = Database()
    if computed.count(query.predicate):
        for row in computed.tuples(query.predicate):
            if match_atom(query, Atom(query.predicate, row)) is not None:
                out._add_row(query.predicate, row)
    return out


def apply_certificate(
    certificate: PlanCertificate, program: Program, query: Atom
) -> SpecializationPlan | None:
    """Prepare *program* for *query* from a certificate — no analysis.

    Verifies the certificate addresses the program's isomorphism class,
    then preloads the magic closure cache and installs planner hints for
    both the original and the rewritten program, so the subsequent
    evaluation never reruns ``binding_analysis`` or the cardinality
    domain.  Returns the matching plan, or ``None`` when the
    certificate holds no plan for this query form.
    """
    program_key = canonical_program_key(program)
    if certificate.program_key != program_key:
        raise CertificateError(
            "certificate was computed for a different program "
            f"(certificate key {certificate.program_key[:12]}..., "
            f"program key {program_key[:12]}...)"
        )
    suffix = Adornment.for_atom(query, frozenset()).suffix
    plan = certificate.plan_for(query.predicate, suffix)
    if plan is None:
        return None
    from ...engine.compile import install_certificate_hints

    preload_closure(
        program_key, query.predicate, suffix, certificate.sips, plan.closure
    )
    install_certificate_hints(program_key, certificate.hints)
    if plan.rewritten_program_key and plan.hints:
        install_certificate_hints(plan.rewritten_program_key, plan.hints)
    metrics_registry().increment("advise.certificate_loads")
    return plan


__all__ = [
    "DEFAULT_ADORNMENT_BUDGET",
    "DOMAIN_NAME",
    "advise_form",
    "advise_program",
    "apply_certificate",
    "execute_plan",
    "select_answers",
]
