"""Tabled top-down query evaluation (QSQR-style).

The paper's introduction situates minimization as complementary to the
goal-directed evaluation methods of the mid-80s; magic sets
(:mod:`repro.engine.magic`) is the bottom-up member of that family, and
this module implements the top-down member: recursive query/subquery
evaluation with *tabling*, in the spirit of QSQ/QSQR (Vieille) and the
memoing approaches (Henschen--Naqvi, McKay--Shapiro) the paper cites.

A *call* is a predicate plus a binding pattern over its arguments
(constants at bound positions, free elsewhere).  Each distinct call
gets an answer table; rule bodies are solved left to right, extensional
atoms against the database and intensional atoms against the table of
the induced sub-call (registering it on first sight).  Tables grow
monotonically; the driver repeats global passes until no table changes
-- the standard iterative fix for incomplete tables under recursion.

The result is equivalent to magic sets on every query (asserted in the
tests and compared in the benchmarks); only the control strategy
differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..data.database import Database
from ..errors import ResourceLimitExceeded, UnsafeRuleError
from ..lang.atoms import Atom
from ..lang.programs import Program
from ..lang.terms import Term, Variable
from ..obs.tracer import trace
from ..resilience.governor import (
    DegradationReport,
    EvaluationStatus,
    ResourceGovernor,
)
from .fixpoint import EvaluationResult
from .stats import EvaluationStats


@dataclass(frozen=True)
class Call:
    """A tabled call: predicate + binding pattern (None = free)."""

    predicate: str
    pattern: tuple[Optional[Term], ...]

    def __str__(self) -> str:
        inner = ", ".join("_" if t is None else str(t) for t in self.pattern)
        return f"{self.predicate}({inner})"


def _call_for(atom: Atom, bindings: dict[Variable, Term]) -> Call:
    """The call induced by *atom* under *bindings*."""
    pattern: list = []
    for term in atom.args:
        if isinstance(term, Variable):
            pattern.append(bindings.get(term))
        else:
            pattern.append(term)
    return Call(atom.predicate, tuple(pattern))


@dataclass
class TabledResult:
    """Answers for the root call plus the tabling statistics.

    Every row ever admitted to a table is a true fact of its call's
    predicate (rows are only added through rule bodies solved against
    the database and other tables), so a ``PARTIAL`` result's answers
    are a sound subset of the query's true answers.
    """

    answers: Database
    tables: dict[Call, set[tuple]]
    stats: EvaluationStats
    root: Call
    status: EvaluationStatus = EvaluationStatus.COMPLETE
    degradation: Optional[DegradationReport] = None

    @property
    def calls_made(self) -> int:
        return len(self.tables)

    @property
    def is_partial(self) -> bool:
        return self.status is EvaluationStatus.PARTIAL


def tabled_query(
    program: Program,
    db: Database,
    query: Atom,
    max_passes: int = 10_000,
    governor: ResourceGovernor | None = None,
) -> TabledResult:
    """Answer *query* top-down with tabling.

    Args:
        program: a positive program.
        db: the extensional database (initial IDB facts are honoured
            too, matching the paper's generalized inputs).
        query: the goal atom; non-variable arguments are the bound ones.
        max_passes: safety valve for the outer fixpoint (never reached
            on real inputs; tables grow monotonically and are finite).
        governor: optional resource limits; a trip stops the pass loop
            and the answers accumulated so far come back as ``PARTIAL``.
    """
    if not program.is_positive:
        raise UnsafeRuleError("tabled evaluation requires a positive program")
    stats = EvaluationStats(engine="topdown")
    stats.start()
    idb = program.idb_predicates

    tables: dict[Call, set[tuple]] = {}
    root = _call_for(query, {})
    _register(tables, root)
    status = EvaluationStatus.COMPLETE
    degradation = None

    with trace("topdown.query", query=str(query)) as root_span:
        root_span.watch(stats)
        try:
            if governor is not None:
                governor.note(engine="topdown")
            for _ in range(max_passes):
                stats.iterations += 1
                if governor is not None:
                    governor.checkpoint(round=stats.iterations)
                changed = False
                calls_before = len(tables)
                with trace(
                    "topdown.pass", index=stats.iterations, calls=len(tables)
                ) as pass_span:
                    pass_span.watch(stats)
                    for call in list(tables):
                        if governor is not None:
                            governor.tick()
                        if _solve_call(
                            program, db, idb, call, tables, stats, governor
                        ):
                            changed = True
                # Registering a new sub-call is progress too: its table must be
                # solved (and may feed its parents) on the next pass.
                if len(tables) > calls_before:
                    changed = True
                if not changed:
                    break
        except ResourceLimitExceeded as error:
            status = EvaluationStatus.PARTIAL
            degradation = error.report
        if root_span:
            root_span.add("calls", len(tables))

    # Full pattern matching on the way out: the call pattern tracks
    # boundness only, so repeated query variables (``G(x, x)``) are
    # enforced here.
    from ..lang.substitution import match_atom

    answers = Database()
    for row in tables[root]:
        if match_atom(query, Atom(query.predicate, row)) is not None:
            answers._add_row(query.predicate, row)
    stats.stop()
    return TabledResult(
        answers=answers,
        tables=tables,
        stats=stats,
        root=root,
        status=status,
        degradation=degradation,
    )


def tabled_answer_query(
    program: Program,
    db: Database,
    query: Atom,
    governor: ResourceGovernor | None = None,
    max_passes: int = 10_000,
) -> tuple[Database, EvaluationResult]:
    """Registry adapter matching the query-engine ``answer`` signature.

    Same contract as :func:`repro.engine.magic.answer_query`: returns
    the answer database plus an :class:`EvaluationResult` whose database
    holds every tabled fact (all of them true facts of the program) and
    whose status/degradation reflect any governed interruption.
    """
    tabled = tabled_query(program, db, query, max_passes=max_passes, governor=governor)
    derived = db.copy()
    for call, rows in tabled.tables.items():
        for row in rows:
            derived._add_row(call.predicate, row)
    result = EvaluationResult(
        derived,
        tabled.stats,
        status=tabled.status,
        degradation=tabled.degradation,
    )
    return tabled.answers, result


def _register(tables: dict[Call, set[tuple]], call: Call) -> None:
    if call not in tables:
        tables[call] = set()


def _matches_pattern(row: tuple, pattern: tuple) -> bool:
    return all(p is None or p == v for p, v in zip(pattern, row))


def _solve_call(
    program: Program,
    db: Database,
    idb: frozenset[str],
    call: Call,
    tables: dict[Call, set[tuple]],
    stats: EvaluationStats,
    governor: ResourceGovernor | None = None,
) -> bool:
    """One pass over the rules for *call*; returns True if its table grew."""
    grew = False
    table = tables[call]
    # Initial IDB facts participate: seed from the database itself.
    for row in db.candidates(
        call.predicate,
        {i: t for i, t in enumerate(call.pattern) if t is not None},
    ):
        if row not in table:
            table.add(row)
            grew = True

    for rule in program.rules_for(call.predicate):
        bindings: dict[Variable, Term] = {}
        consistent = True
        for position, bound in enumerate(call.pattern):
            if bound is None:
                continue
            term = rule.head.args[position]
            if isinstance(term, Variable):
                existing = bindings.get(term)
                if existing is None:
                    bindings[term] = bound
                elif existing != bound:
                    consistent = False
                    break
            elif term != bound:
                consistent = False
                break
        if not consistent:
            continue
        grew |= _solve_body(
            program, db, idb, rule, 0, bindings, call, tables, stats, governor
        )
    return grew


def _solve_body(
    program: Program,
    db: Database,
    idb: frozenset[str],
    rule,
    depth: int,
    bindings: dict[Variable, Term],
    call: Call,
    tables: dict[Call, set[tuple]],
    stats: EvaluationStats,
    governor: ResourceGovernor | None = None,
) -> bool:
    """Depth-first solution of the rule body; returns True on table growth."""
    if depth == len(rule.body):
        head = rule.head.substitute(bindings)
        stats.rule_firings += 1
        row = head.args
        table = tables[call]
        if _matches_pattern(row, call.pattern) and row not in table:
            table.add(row)
            stats.facts_derived += 1
            if governor is not None:
                governor.add_facts(1)
            return True
        return False

    literal = rule.body[depth]
    atom = literal.atom
    stats.subgoal_attempts += 1
    if governor is not None:
        governor.tick()
    grew = False
    if atom.predicate in idb:
        subcall = _call_for(atom, bindings)
        _register(tables, subcall)
        rows = list(tables[subcall])
    else:
        bound = {}
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable):
                value = bindings.get(term)
                if value is not None:
                    bound[position] = value
            else:
                bound[position] = term
        rows = db.candidates(atom.predicate, bound)

    for row in rows:
        added: list[Variable] = []
        ok = True
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable):
                value = bindings.get(term)
                if value is None:
                    bindings[term] = row[position]
                    added.append(term)
                elif value != row[position]:
                    ok = False
                    break
            elif term != row[position]:
                ok = False
                break
        if ok:
            grew |= _solve_body(
                program, db, idb, rule, depth + 1, bindings, call, tables, stats,
                governor,
            )
        for var in added:
            del bindings[var]
    return grew
