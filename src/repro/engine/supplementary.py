"""Supplementary magic sets (Beeri--Ramakrishnan).

The plain magic-sets rewriting (:mod:`repro.engine.magic`) generates,
for each IDB subgoal, a magic rule whose body repeats the *prefix* of
the original rule body -- so a rule with several IDB subgoals evaluates
its prefix joins once per magic rule plus once for the modified rule.
The *supplementary* variant factors each prefix into a chain of
``sup`` predicates computed once and shared:

    sup_r_0(ū0)  :- m_p(x̄b).
    sup_r_i(ūi)  :- sup_r_{i-1}(ū_{i-1}), B_i'.
    m_q(v̄)      :- sup_r_{i-1}(ū_{i-1}).          (for IDB B_i)
    p'(head args) :- sup_r_n(ū_n).

where ``ūi`` keeps exactly the variables needed later (by a subsequent
subgoal or the head) -- the standard projection that makes the chain
narrow.

Same answers as plain magic on every query (asserted in the tests);
the benchmark records the join-work difference on rules with multiple
IDB subgoals.
"""

from __future__ import annotations

from ..errors import UnsafeRuleError
from ..lang.atoms import Atom, Literal
from ..lang.programs import Program
from ..lang.rules import Rule
from ..lang.terms import Term, Variable
from ..obs.tracer import trace
from .magic import (
    Adornment,
    MagicRewriting,
    _ADORN_SEP,
    _MAGIC_PREFIX,
    adorned_name,
    magic_name,
)

_SUP_PREFIX = "sup__"


def supplementary_magic_transform(
    program: Program, query: Atom, governor=None
) -> MagicRewriting:
    """Rewrite *program* for *query* with supplementary predicates.

    Interface and guarantees match
    :func:`repro.engine.magic.magic_transform`; only the generated rule
    set differs.
    """
    if not program.is_positive:
        raise UnsafeRuleError("magic-sets rewriting requires a positive program")
    for pred in program.predicates:
        if (
            pred.startswith(_MAGIC_PREFIX)
            or pred.startswith(_SUP_PREFIX)
            or _ADORN_SEP in pred
        ):
            raise UnsafeRuleError(
                f"predicate {pred!r} collides with the reserved magic naming scheme"
            )
    if query.predicate not in program.idb_predicates:
        raise ValueError(
            f"query predicate {query.predicate!r} is not an IDB predicate of the program"
        )

    query_adornment = Adornment.for_atom(query, frozenset())
    seed_args = tuple(query.args[i] for i in query_adornment.bound_positions)
    seed = Atom(magic_name(query.predicate, query_adornment), seed_args)

    idb = program.idb_predicates
    pending: list[tuple[str, Adornment]] = [(query.predicate, query_adornment)]
    done: set[tuple[str, Adornment]] = set()
    out_rules: list[Rule] = []
    rule_serial = 0

    with trace("supplementary.transform") as span:
        while pending:
            if governor is not None:
                governor.tick()
            pred, adornment = pending.pop()
            if (pred, adornment) in done:
                continue
            done.add((pred, adornment))
            for rule in program.rules_for(pred):
                out_rules.extend(
                    _rewrite_rule_supplementary(
                        rule, adornment, idb, pending, rule_serial
                    )
                )
                rule_serial += 1
        if span:
            span.add("adornments", len(done))
            span.add("rules_generated", len(out_rules))

    return MagicRewriting(
        program=Program(out_rules),
        seed=seed,
        query_atom=query,
        adorned_query_predicate=adorned_name(query.predicate, query_adornment),
    )


def answer_query_supplementary(
    program: Program,
    db,
    query: Atom,
    engine: str = "seminaive",
    governor=None,
):
    """Evaluate *query* via the supplementary rewriting.

    Same contract as :func:`repro.engine.magic.answer_query`, including
    the governed-degradation behaviour: a PARTIAL inner run projects to
    a sound subset of the true answers.
    """
    from .fixpoint import evaluate

    with trace("supplementary.answer_query", query=str(query)) as span:
        if governor is not None:
            governor.note(engine="supplementary")
        rewriting = supplementary_magic_transform(program, query, governor=governor)
        seeded = db.copy()
        seeded.add(rewriting.seed)
        result = evaluate(rewriting.program, seeded, engine=engine, governor=governor)
        answers = rewriting.answers(result.database)
        if span:
            span.add("answers", len(answers))
    return answers, result


def _needed_after(
    body: tuple[Literal, ...], head: Atom
) -> list[frozenset[Variable]]:
    """``needed[i]`` = variables required by subgoals ``i..n-1`` or the head."""
    needed: list[frozenset[Variable]] = [frozenset()] * (len(body) + 1)
    acc = frozenset(head.variables())
    needed[len(body)] = acc
    for i in range(len(body) - 1, -1, -1):
        acc = acc | body[i].atom.variable_set()
        needed[i] = acc
    return needed


def _rewrite_rule_supplementary(
    rule: Rule,
    head_adornment: Adornment,
    idb: frozenset[str],
    pending: list[tuple[str, Adornment]],
    serial: int,
) -> list[Rule]:
    head = rule.head
    body = rule.body
    suffix = f"{serial}{_ADORN_SEP}{head_adornment.suffix}"

    bound_vars: set[Variable] = set()
    for pos in head_adornment.bound_positions:
        term = head.args[pos]
        if isinstance(term, Variable):
            bound_vars.add(term)

    magic_head_args: tuple[Term, ...] = tuple(
        head.args[pos] for pos in head_adornment.bound_positions
    )
    guard = Atom(magic_name(head.predicate, head_adornment), magic_head_args)

    needed = _needed_after(body, head)

    def sup_atom(stage: int, available: set[Variable]) -> Atom:
        keep = sorted(available & set(needed[stage]), key=lambda v: v.name)
        return Atom(f"{_SUP_PREFIX}{head.predicate}{_ADORN_SEP}{suffix}{_ADORN_SEP}{stage}", tuple(keep))

    out: list[Rule] = []
    available = set(bound_vars)
    previous = sup_atom(0, available)
    # sup_0 receives the bound head arguments from the magic guard.
    out.append(Rule(previous, [Literal(guard)]))

    for index, literal in enumerate(body):
        atom = literal.atom
        if atom.predicate in idb:
            sub_adornment = Adornment.for_atom(atom, frozenset(available))
            pending.append((atom.predicate, sub_adornment))
            magic_args = tuple(
                atom.args[i] for i in sub_adornment.bound_positions
            )
            out.append(
                Rule(
                    Atom(magic_name(atom.predicate, sub_adornment), magic_args),
                    [Literal(previous)],
                )
            )
            step_atom = Atom(adorned_name(atom.predicate, sub_adornment), atom.args)
        else:
            step_atom = atom
        available |= atom.variable_set()
        nxt = sup_atom(index + 1, available)
        out.append(Rule(nxt, [Literal(previous), Literal(step_atom)]))
        previous = nxt

    out.append(
        Rule(
            Atom(adorned_name(head.predicate, head_adornment), head.args),
            [Literal(previous)],
        )
    )
    return out
