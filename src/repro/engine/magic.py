"""Magic-sets rewriting (Bancilhon, Maier, Sagiv, Ullman 1986).

Section I of the paper motivates minimization as *complementary* to
goal-directed evaluation: "if the query is going to be computed [by] the
'magic set' method ... then removing redundant parts can only speed up
the computation."  This module implements the classic magic-sets
transformation with left-to-right sideways information passing, so the
Q6 benchmark can measure exactly that composition: minimize first, then
magic-rewrite, then evaluate.

Overview of the rewriting for a query ``Q(c̄, x̄)``:

1. The query's *adornment* marks each argument bound (``b``, a constant)
   or free (``f``).
2. Every reachable IDB predicate is specialized per adornment
   (``G__bf``), propagating boundness left to right through rule bodies.
3. Each adorned rule is guarded by a *magic atom* ``m__G__bf(...)``
   carrying the bound head arguments, and *magic rules* push bindings
   from a rule's head and earlier subgoals into each IDB subgoal.
4. A *seed fact* asserts the query's constants, and evaluation explores
   only facts relevant to the query.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable

from ..data.database import Database
from ..errors import UnsafeRuleError
from ..lang.atoms import Atom, Literal
from ..lang.canonical import canonical_program_key
from ..lang.programs import Program
from ..lang.rules import Rule
from ..lang.terms import Variable
from ..obs.tracer import trace
from ..resilience.governor import ResourceGovernor
from .fixpoint import EngineName, EvaluationResult, evaluate

#: Separator for generated predicate names; documented reserved prefix.
_ADORN_SEP = "__"
_MAGIC_PREFIX = "m__"


@dataclass(frozen=True)
class Adornment:
    """A boundness pattern over the argument positions of a predicate."""

    pattern: tuple[bool, ...]

    @property
    def suffix(self) -> str:
        return "".join("b" if b else "f" for b in self.pattern)

    @property
    def bound_positions(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.pattern) if b)

    def __str__(self) -> str:
        return self.suffix

    @classmethod
    def for_atom(cls, atom: Atom, bound_vars: frozenset[Variable]) -> "Adornment":
        """Adorn an atom: constants and already-bound variables are ``b``."""
        return cls(
            tuple(
                (not isinstance(t, Variable)) or t in bound_vars
                for t in atom.args
            )
        )

    @classmethod
    def all_free(cls, arity: int) -> "Adornment":
        return cls((False,) * arity)


def adorned_name(predicate: str, adornment: Adornment) -> str:
    return f"{predicate}{_ADORN_SEP}{adornment.suffix}"


def magic_name(predicate: str, adornment: Adornment) -> str:
    return _MAGIC_PREFIX + adorned_name(predicate, adornment)


# ---------------------------------------------------------------------------
# Adornment-closure cache
#
# The demanded-adornment fixpoint depends only on the program's
# isomorphism class (canonical_program_key), the query predicate, the
# query's boundness pattern, and the SIPS -- not on the query's actual
# constants and not on variable names.  Caching at that granularity
# dedups adorned predicates up to variable renaming: every point query
# ``Tc("a", y)``, ``Tc("b", y)``, ... shares one closure entry.  A plan
# certificate (analysis.specialize) carries the same closure, so
# ``query --certificate`` preloads it here and skips the analysis.
# ---------------------------------------------------------------------------

_CLOSURE_CACHE_MAX = 256
_closure_cache: "OrderedDict[tuple[str, str, str, str], tuple[tuple[str, Adornment], ...]]" = (
    OrderedDict()
)


def _closure_key(program_key: str, predicate: str, suffix: str, sips: str):
    return (program_key, predicate, suffix, sips)


def clear_closure_cache() -> None:
    _closure_cache.clear()


def preload_closure(
    program_key: str,
    predicate: str,
    adornment_suffix: str,
    sips: str,
    closure: Iterable[tuple[str, str]],
) -> None:
    """Install a precomputed adornment closure (from a plan certificate).

    *closure* is the demand list in discovery order as ``(predicate,
    adornment suffix)`` pairs.  A subsequent :func:`magic_transform` for
    a matching (program, query form, SIPS) hits the cache and never runs
    ``binding_analysis``.
    """
    demand = tuple(
        (pred, Adornment(tuple(ch == "b" for ch in suffix)))
        for pred, suffix in closure
    )
    _store_closure(_closure_key(program_key, predicate, adornment_suffix, sips), demand)


def _store_closure(key, demand) -> None:
    _closure_cache[key] = demand
    _closure_cache.move_to_end(key)
    while len(_closure_cache) > _CLOSURE_CACHE_MAX:
        _closure_cache.popitem(last=False)


def demanded_closure(
    program: Program,
    query: Atom,
    sips: str = "left-to-right",
    program_key: str | None = None,
) -> tuple[Adornment, tuple[tuple[str, Adornment], ...]]:
    """The query's adornment and the reachable adornment closure, cached.

    On a miss, runs :func:`repro.analysis.absint.groundness.binding_analysis`
    and memoises its demand set; on a hit, increments the
    ``magic.closure_cache_hits`` metric and performs no analysis.
    """
    from ..obs.metrics import metrics_registry

    query_adornment = Adornment.for_atom(query, frozenset())
    if program_key is None:
        program_key = canonical_program_key(program)
    key = _closure_key(program_key, query.predicate, query_adornment.suffix, sips)
    cached = _closure_cache.get(key)
    if cached is not None:
        _closure_cache.move_to_end(key)
        metrics_registry().increment("magic.closure_cache_hits")
        return query_adornment, cached

    # Lazily imported: groundness imports Adornment and _apply_sips from
    # this module at load time.
    from ..analysis.absint.groundness import binding_analysis

    analysis = binding_analysis(program, query, sips=sips)
    _store_closure(key, analysis.demand)
    return query_adornment, analysis.demand


@dataclass(frozen=True)
class MagicRewriting:
    """The output of :func:`magic_transform`.

    Attributes:
        program: magic plus modified rules, ready for bottom-up
            evaluation together with the (unchanged) EDB.
        seed: the magic seed fact for the query.
        query_atom: the original query.
        adorned_query_predicate: the adorned name under which answers
            appear after evaluation.
    """

    program: Program
    seed: Atom
    query_atom: Atom
    adorned_query_predicate: str

    def answers(self, computed: Database) -> Database:
        """Project the adorned answers back to the original predicate.

        Tuples are filtered through full pattern matching against the
        query atom, which also enforces equality for *repeated* query
        variables (``G(x, x)`` selects the diagonal) -- the rewriting
        itself does not, since adornments track boundness only.
        """
        from ..lang.substitution import match_atom

        out = Database()
        for row in computed.tuples(self.adorned_query_predicate):
            if match_atom(self.query_atom, Atom(self.query_atom.predicate, row)) is not None:
                out._add_row(self.query_atom.predicate, row)
        return out


def magic_transform(
    program: Program,
    query: Atom,
    sips: str = "left-to-right",
    governor: ResourceGovernor | None = None,
) -> MagicRewriting:
    """Rewrite *program* for goal-directed evaluation of *query*.

    The query's bound arguments are its non-variable ones.  Requires a
    positive program whose predicate names do not begin with the
    reserved ``m__`` prefix.

    Args:
        sips: the sideways-information-passing strategy, i.e. the order
            in which bindings flow through each rule body.
            ``"left-to-right"`` (default) follows the written order --
            the classic presentation; ``"most-bound"`` greedily
            schedules the subgoal with the most bound argument
            positions next, which often produces more selective
            adornments.  Any SIPS yields correct answers; they differ
            only in work.
    """
    if sips not in ("left-to-right", "most-bound"):
        raise ValueError(f"unknown SIPS {sips!r}; expected 'left-to-right' or 'most-bound'")
    if not program.is_positive:
        raise UnsafeRuleError("magic-sets rewriting requires a positive program")
    for pred in program.predicates:
        if pred.startswith(_MAGIC_PREFIX) or _ADORN_SEP in pred:
            raise UnsafeRuleError(
                f"predicate {pred!r} collides with the reserved magic naming scheme"
            )
    if query.predicate not in program.idb_predicates:
        raise ValueError(
            f"query predicate {query.predicate!r} is not an IDB predicate of the program"
        )

    # The adornment discovery is a static analysis in its own right
    # (demanded-adornment fixpoint over the powerset lattice); it lives
    # in analysis.absint.groundness so the linter and ``analyze`` verb
    # can run it without rewriting, and this transform is driven by its
    # demand set -- memoised per isomorphism class in demanded_closure.
    query_adornment, closure = demanded_closure(program, query, sips=sips)
    seed_args = tuple(query.args[i] for i in query_adornment.bound_positions)
    seed = Atom(magic_name(query.predicate, query_adornment), seed_args)

    idb = program.idb_predicates
    discovered: list[tuple[str, Adornment]] = []
    out_rules: list[Rule] = []

    with trace("magic.transform", sips=sips) as span:
        for pred, adornment in closure:
            if governor is not None:
                # The adornment frontier is finite but can be exponential
                # in arity; keep the deadline/cancellation responsive.
                governor.tick()
            for rule in program.rules_for(pred):
                ordered = _apply_sips(rule, adornment, sips)
                out_rules.extend(
                    _rewrite_rule(ordered, adornment, idb, discovered)
                )
        demanded = set(closure)
        for pair in discovered:
            if pair not in demanded:
                raise RuntimeError(
                    f"binding analysis missed adornment {pair[0]}_{pair[1]}; "
                    "groundness and magic rewriting disagree on demand"
                )
        if span:
            span.add("adornments", len(demanded))
            span.add("rules_generated", len(out_rules))

    return MagicRewriting(
        program=Program(out_rules),
        seed=seed,
        query_atom=query,
        adorned_query_predicate=adorned_name(query.predicate, query_adornment),
    )


def _apply_sips(rule: Rule, head_adornment: Adornment, sips: str) -> Rule:
    """Reorder the rule body according to the chosen SIPS.

    Conjunction is commutative, so any permutation preserves semantics;
    the order only steers which bindings each subgoal's adornment sees.
    """
    if sips == "left-to-right" or len(rule.body) <= 1:
        return rule
    bound: set[Variable] = set()
    for pos in head_adornment.bound_positions:
        term = rule.head.args[pos]
        if isinstance(term, Variable):
            bound.add(term)
    remaining = list(range(len(rule.body)))
    order: list[int] = []
    while remaining:
        def key(i: int):
            atom = rule.body[i].atom
            bound_positions = sum(
                1 for t in atom.args if not isinstance(t, Variable) or t in bound
            )
            return (-bound_positions, i)

        best = min(remaining, key=key)
        order.append(best)
        remaining.remove(best)
        bound.update(rule.body[best].atom.variables())
    return Rule(rule.head, [rule.body[i] for i in order])


def _rewrite_rule(
    rule: Rule,
    head_adornment: Adornment,
    idb: frozenset[str],
    pending: list[tuple[str, Adornment]],
) -> Iterable[Rule]:
    """Produce the modified rule and its magic rules for one adorned head."""
    head = rule.head
    bound_vars: set[Variable] = set()
    for pos in head_adornment.bound_positions:
        term = head.args[pos]
        if isinstance(term, Variable):
            bound_vars.add(term)

    magic_head_args = tuple(head.args[pos] for pos in head_adornment.bound_positions)
    guard = Atom(magic_name(head.predicate, head_adornment), magic_head_args)

    transformed: list[Atom] = []
    magic_rules: list[Rule] = []
    for literal in rule.body:
        atom = literal.atom
        if atom.predicate in idb:
            sub_adornment = Adornment.for_atom(atom, frozenset(bound_vars))
            pending.append((atom.predicate, sub_adornment))
            # Magic rule: bindings available before this subgoal flow in.
            magic_args = tuple(atom.args[i] for i in sub_adornment.bound_positions)
            magic_rules.append(
                Rule(
                    Atom(magic_name(atom.predicate, sub_adornment), magic_args),
                    [Literal(guard), *map(Literal, transformed)],
                )
            )
            transformed.append(
                Atom(adorned_name(atom.predicate, sub_adornment), atom.args)
            )
        else:
            transformed.append(atom)
        bound_vars.update(atom.variables())

    modified = Rule(
        Atom(adorned_name(head.predicate, head_adornment), head.args),
        [Literal(guard), *map(Literal, transformed)],
    )
    return [modified, *magic_rules]


def answer_query(
    program: Program,
    db: Database,
    query: Atom,
    engine: EngineName = "seminaive",
    sips: str = "left-to-right",
    governor: ResourceGovernor | None = None,
) -> tuple[Database, EvaluationResult]:
    """Evaluate *query* over ``program(db)`` using magic sets.

    Returns the answer database (facts of the query's predicate
    matching the query's constants) and the raw evaluation result of
    the rewritten program, whose statistics reflect the goal-directed
    join work.

    For an EDB query predicate no rewriting is needed: the answers are
    selected directly from *db*.

    With a *governor*, a tripped limit degrades the inner bottom-up run
    to ``PARTIAL`` and the projected answers are a sound subset of the
    query's true answers (the rewritten program is positive, so the
    partial fixpoint under-approximates and projection is monotone).
    """
    if query.predicate not in program.idb_predicates:
        answers = Database()
        bound = {
            i: t for i, t in enumerate(query.args) if not isinstance(t, Variable)
        }
        for row in db.candidates(query.predicate, bound) if db.count(query.predicate) else ():
            answers._add_row(query.predicate, row)
        return answers, EvaluationResult(db.copy(), _empty_stats())

    with trace("magic.answer_query", query=str(query)) as span:
        if governor is not None:
            governor.note(engine="magic")
        rewriting = magic_transform(program, query, sips=sips, governor=governor)
        seeded = db.copy()
        seeded.add(rewriting.seed)
        result = evaluate(rewriting.program, seeded, engine=engine, governor=governor)
        answers = rewriting.answers(result.database)
        if span:
            span.add("answers", len(answers))
    return answers, result


def _empty_stats():
    from .stats import EvaluationStats

    return EvaluationStats()
