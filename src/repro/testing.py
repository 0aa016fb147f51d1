"""Differential-testing harness, exposed as a public API.

The repository's own property tests cross-check every engine and every
optimizer against independent oracles; this module packages those
oracles so that downstream users who extend the library (a new engine,
a new rewriting, a new optimization) can fuzz their change with one
call::

    from repro.testing import run_differential_suite

    report = run_differential_suite(seeds=100)
    assert report.ok, report.failures

Checks performed per seed:

* **engines agree** -- naive, semi-naive and (on queries) magic,
  supplementary magic and tabled top-down all produce the same answers;
* **optimization is sound** -- `minimize_program` output is uniformly
  equivalent to its input and produces identical databases on sampled
  EDBs; `optimize` output produces identical databases on sampled EDBs;
* **maintenance is exact** -- a DRed-maintained view equals :func:`reference_maintenance` view for view and
  counter for counter after random batched insert/delete scripts.

:func:`reference_minimize_program` and :func:`reference_scan_redundancy`
are the Fig. 1/2 loops with nothing shared between containment tests
(one fresh, full evaluation each): the oracle for the shared, goal-
directed :class:`~repro.core.containment.ContainmentSession`.
:func:`reference_maintenance` is DRed on copies with the interpreted
matcher: the oracle for the in-place, compiled
:class:`~repro.engine.incremental.MaterializedView`.

:func:`match_body` and :func:`fire_rule` are that interpreted matcher: a
backtracking index-nested-loop join over plain ``dict`` bindings, the
reference every compiled join kernel is tested against.
:func:`reference_fixpoint` iterates :func:`fire_rule` to a fixpoint.

All generators take explicit seeds and are deterministic, so a failure
report is sufficient to reproduce the bug.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .core.containment import uniformly_equivalent
from .core.minimize import (
    AtomOrder,
    AtomRemoval,
    MinimizationResult,
    RedundancyScan,
    RedundantAtom,
    RuleOrder,
    RuleRemoval,
    minimize_program,
    natural_atom_order,
    natural_rule_order,
)
from .core.optimizer import optimize
from .data.database import Database
from .engine.fixpoint import evaluate
from .engine.incremental import MaintenanceStats, MaterializedView
from .engine.joins import plan_order
from .engine.magic import answer_query
from .engine.seminaive import naive_fixpoint, seminaive_fixpoint
from .engine.stats import EvaluationStats
from .engine.supplementary import answer_query_supplementary
from .engine.topdown import tabled_query
from .lang.atoms import Atom, Literal
from .lang.freeze import freeze_rule
from .lang.programs import Program
from .lang.rules import Rule
from .lang.substitution import match_atom
from .lang.terms import Term, Variable
from .workloads.programs import random_positive_program


@dataclass
class Failure:
    """One failed check, with everything needed to reproduce it."""

    check: str
    seed: int
    detail: str
    program: Program | None = None

    def __str__(self) -> str:
        return f"[{self.check}] seed={self.seed}: {self.detail}"


@dataclass
class DifferentialReport:
    """The outcome of a differential run."""

    seeds_run: int = 0
    checks_run: int = 0
    failures: list[Failure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.failures)} FAILURE(S)"
        return f"{status}: {self.checks_run} checks over {self.seeds_run} seeds"


def random_database(seed: int, domain: int = 4, facts: int = 12) -> Database:
    """A random EDB over predicates ``E0``/``E1`` with a small domain."""
    rng = random.Random(seed)
    db = Database()
    for _ in range(rng.randint(0, facts)):
        pred = f"E{rng.randrange(2)}"
        db.add_fact(pred, rng.randrange(domain), rng.randrange(domain))
    return db


def random_program(seed: int) -> Program:
    """A random safe positive program (wraps the workload generator)."""
    rng = random.Random(seed)
    return random_positive_program(
        rules=rng.randint(1, 5),
        max_body=3,
        predicates=2,
        variables_per_rule=4,
        seed=seed,
    )


def check_engines_agree(program: Program, db: Database) -> str | None:
    """Naive vs semi-naive; returns an error string or ``None``."""
    naive = naive_fixpoint(program, db).database
    semi = seminaive_fixpoint(program, db).database
    if naive != semi:
        return (
            f"naive and semi-naive disagree: "
            f"{sorted(map(str, naive.difference(semi)))} vs "
            f"{sorted(map(str, semi.difference(naive)))}"
        )
    return None


def check_query_strategies_agree(
    program: Program, db: Database, query: Atom
) -> str | None:
    """Magic, supplementary magic, tabled top-down vs full evaluation."""
    full = evaluate(program, db).database
    expected = {
        row
        for row in full.tuples(query.predicate)
        if match_atom(query, Atom(query.predicate, row)) is not None
    }
    strategies: list[tuple[str, Callable]] = [
        ("magic", lambda: set(answer_query(program, db, query)[0].tuples(query.predicate))),
        (
            "supplementary",
            lambda: set(
                answer_query_supplementary(program, db, query)[0].tuples(query.predicate)
            ),
        ),
        (
            "tabled",
            lambda: set(tabled_query(program, db, query).answers.tuples(query.predicate)),
        ),
    ]
    for name, run in strategies:
        got = run()
        if got != expected:
            return f"{name} disagrees with full evaluation: {len(got)} vs {len(expected)} answers"
    return None


def check_minimization_sound(program: Program, sample_dbs: list[Database]) -> str | None:
    """Fig. 2 output: uniformly equivalent + identical on sampled EDBs."""
    minimized = minimize_program(program).program
    if not uniformly_equivalent(program, minimized):
        return "minimize_program output is not uniformly equivalent to its input"
    for index, db in enumerate(sample_dbs):
        if evaluate(program, db).database != evaluate(minimized, db).database:
            return f"minimize_program changed results on sample EDB #{index}"
    return None


def check_optimizer_sound(program: Program, sample_dbs: list[Database]) -> str | None:
    """Full optimizer output: identical databases on sampled EDBs."""
    optimized = optimize(program).optimized
    for index, db in enumerate(sample_dbs):
        if evaluate(program, db).database != evaluate(optimized, db).database:
            return f"optimize changed results on sample EDB #{index}"
    return None


def _random_maintenance_script(
    rng: random.Random, base: Database, steps: int
) -> list[tuple[str, list[Atom]]]:
    """Insert/delete batches of one to three ``E0``/``E1`` edges on four
    nodes over *base*: deletions pick given facts, insertions may repeat
    them."""
    live = sorted(base.atoms(), key=str)
    script = []
    for _ in range(steps):
        size = rng.randint(1, 3)
        if live and rng.random() < 0.5:
            batch = rng.sample(live, min(size, len(live)))
            live = [atom for atom in live if atom not in batch]
            script.append(("delete", batch))
        else:
            batch = [
                Atom.of(f"E{rng.randrange(2)}", rng.randrange(4), rng.randrange(4))
                for _ in range(size)
            ]
            live = sorted(set(live) | set(batch), key=str)
            script.append(("insert", batch))
    return script


def check_maintenance_exact(program: Program, seed: int) -> str | None:
    """DRed view vs :func:`reference_maintenance`, view for view and
    counter for counter, over a random batched script."""
    base = random_database(seed, domain=4, facts=10)
    script = _random_maintenance_script(random.Random(seed), base, steps=8)
    expected = reference_maintenance(program, base, script)
    view = MaterializedView(program, base.copy())
    for step, ((kind, batch), (stats, atoms)) in enumerate(zip(script, expected)):
        got = view.insert_all(batch) if kind == "insert" else view.delete_all(batch)
        if frozenset(view.database.atoms()) != atoms:
            return f"maintained view diverged from the reference at step {step}"
        if got != stats:
            return f"step {step} ({kind}) counted {got}, the reference {stats}"
    return None


def reference_maintenance(
    program: Program, base: Database, script
) -> list[tuple[MaintenanceStats, frozenset[Atom]]]:
    """Copy-based DRed with nothing compiled, shared or done in place:
    the oracle for :class:`~repro.engine.incremental.MaterializedView`.

    *script* is a sequence of ``("insert" | "delete", atoms)`` batches.
    Returns, per batch, the counters ``insert_all`` / ``delete_all`` must
    report and the view after it.  An insertion recomputes the fixpoint
    (:func:`reference_fixpoint`).  A deletion over-deletes with
    :func:`fire_rule`, copies the view minus the over-deleted facts, then
    re-proves them one at a time with :func:`match_body`, pass after
    pass, until a pass restores nothing.
    """
    given = set(base.atoms())
    view = reference_fixpoint(program, Database(given))
    out = []
    for kind, atoms in script:
        stats = MaintenanceStats()
        if kind == "insert":
            given.update(atoms)
            new = reference_fixpoint(program, Database(given))
            stats.inserted = len(new) - len(view)
        else:
            delta = {atom for atom in atoms if atom in given}
            given -= delta
            overdeleted = set(delta)
            while delta:
                source = Database(delta)
                derived: set[Atom] = set()
                for rule in program.rules:
                    for position, literal in enumerate(rule.body):
                        if source.count(literal.predicate):
                            derived |= fire_rule(
                                view, rule.head, rule.body, source_for={position: source}
                            )
                delta = derived - given - overdeleted
                overdeleted |= delta
            new = view.copy()
            for atom in overdeleted:
                new.discard(atom)
            pending = set(overdeleted)
            while True:
                back = {atom for atom in pending if _rederivable(program, atom, new)}
                if not back:
                    break
                new.add_all(back)
                pending -= back
            stats.overdeleted = len(overdeleted)
            stats.deleted = len(pending)
            stats.rederived = stats.overdeleted - stats.deleted
        view = new
        out.append((stats, frozenset(view.atoms())))
    return out


def _rederivable(program: Program, fact: Atom, db: Database) -> bool:
    """Does some rule derive *fact* in one step from *db*?"""
    for rule in program.rules_for(fact.predicate):
        bindings = match_atom(rule.head, fact)
        if bindings is None:
            continue
        for _ in match_body(db, rule.body, initial=bindings):
            return True
    return False


def reference_fixpoint(program: Program, db: Database) -> Database:
    """``P(db)`` for a positive program by the interpreted matcher:
    :func:`fire_rule` over every rule, round after round, until a round
    adds nothing.  The oracle for the compiled engines."""
    result = db.copy()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            for atom in fire_rule(result, rule.head, rule.body):
                changed |= result.add(atom)
    return result


def _bound_positions(atom: Atom, bindings: Mapping[Variable, Term]) -> dict[int, Term]:
    """Map argument positions that are ground under *bindings* to values."""
    out: dict[int, Term] = {}
    for pos, term in enumerate(atom.args):
        if isinstance(term, Variable):
            value = bindings.get(term)
            if value is not None:
                out[pos] = value
        else:
            out[pos] = term
    return out


def match_body(
    db: Database,
    literals: Sequence[Literal],
    stats: EvaluationStats | None = None,
    initial: Mapping[Variable, Term] | None = None,
    order: Sequence[int] | None = None,
    source_for: Mapping[int, Database] | None = None,
    witness_after: frozenset[Variable] | None = None,
) -> Iterator[dict[Variable, Term]]:
    """Yield all substitutions making the body true in *db*.

    Args:
        db: database answering positive subgoals (and all negated ones).
        literals: the rule body.
        stats: optional join-work counters.
        initial: variable pre-bindings (used by magic/derived contexts).
        order: explicit evaluation order (defaults to :func:`plan_order`).
        source_for: optional override mapping a body-literal *index* to
            the database it must match against -- semi-naive evaluation
            uses this to force one subgoal onto the delta relation.
            Negated literals always consult *db*.
        witness_after: *existential cutoff* -- once every variable in
            this set is bound, the remaining subgoals are checked for
            satisfiability only and a single witness is produced instead
            of enumerating all completions.  Rule firing passes the head
            variables here: distinct bindings of head-irrelevant body
            variables cannot change the derived fact, and enumerating
            them is the classic exponential trap (e.g. the body
            ``G(x,s1), G(x,s2), G(x,s3)`` has ``|G(x,·)|³`` witnesses).
            Solutions may still repeat on the cutoff variables; callers
            deduplicate derived heads as usual.
    """
    if order is None:
        initially_bound = frozenset(initial) if initial else frozenset()
        # A single delta-pinned subgoal (semi-naive) leads the order:
        # the delta is the most selective relation in the join.
        first = None
        if source_for is not None and len(source_for) == 1:
            (candidate_first,) = source_for
            if literals[candidate_first].positive:
                first = candidate_first
        order = plan_order(
            literals,
            db,
            initially_bound,
            prefer_vars=witness_after or frozenset(),
            first=first,
        )
    bindings: dict[Variable, Term] = dict(initial) if initial else {}

    def bind_row(atom: Atom, row: tuple, guaranteed: Mapping[int, Term]) -> list[Variable] | None:
        """Extend *bindings* to match *atom* against *row*.

        *guaranteed* is the bound-position map the row was probed with:
        ``candidates`` guarantees those positions match, so they are
        skipped here.  Every remaining position is an unbound-or-repeated
        variable.

        Returns the newly bound variables (to undo later), or ``None``
        on mismatch (nothing left bound).
        """
        added: list[Variable] = []
        for pos, term in enumerate(atom.args):
            if pos in guaranteed:
                continue
            value = bindings.get(term)
            if value is None:
                bindings[term] = row[pos]
                added.append(term)
            elif value != row[pos]:
                for var in added:
                    del bindings[var]
                return None
        return added

    def rows_for(depth: int):
        index = order[depth]
        literal = literals[index]
        source = db
        if literal.positive and source_for is not None:
            source = source_for.get(index, db)
        return literal, source

    def satisfiable(depth: int) -> bool:
        """Existence check: does any completion of the suffix match?"""
        if depth == len(order):
            return True
        literal, source = rows_for(depth)
        atom = literal.atom
        if stats is not None:
            stats.subgoal_attempts += 1
        if not literal.positive:
            ground = atom.substitute(bindings)
            return ground not in db and satisfiable(depth + 1)
        bound = _bound_positions(atom, bindings)
        for row in source.candidates(atom.predicate, bound):
            added = bind_row(atom, row, bound)
            if added is None:
                continue
            if satisfiable(depth + 1):
                for var in added:
                    del bindings[var]
                return True
            for var in added:
                del bindings[var]
        return False

    def search(depth: int) -> Iterator[dict[Variable, Term]]:
        if depth == len(order):
            yield dict(bindings)
            return
        if witness_after is not None and all(v in bindings for v in witness_after):
            if satisfiable(depth):
                yield dict(bindings)
            return
        literal, source = rows_for(depth)
        atom = literal.atom
        if stats is not None:
            stats.subgoal_attempts += 1
        if not literal.positive:
            ground = atom.substitute(bindings)
            if ground not in db:
                yield from search(depth + 1)
            return
        bound = _bound_positions(atom, bindings)
        for row in source.candidates(atom.predicate, bound):
            added = bind_row(atom, row, bound)
            if added is None:
                continue
            yield from search(depth + 1)
            for var in added:
                del bindings[var]

    yield from search(0)


def fire_rule(
    db: Database,
    head: Atom,
    literals: Sequence[Literal],
    stats: EvaluationStats | None = None,
    source_for: Mapping[int, Database] | None = None,
    order: Sequence[int] | None = None,
    governor=None,
) -> set[Atom]:
    """All head instantiations derivable from *db* through this body.

    Returns the set of (ground) head atoms; the caller decides which are
    new.  A rule with an empty body yields its (ground) head.  Pass a
    precomputed *order* (see :func:`plan_order`) to skip per-call
    planning.

    With a *governor* (a :class:`~repro.resilience.ResourceGovernor`),
    the firing loop ticks it so a wall-clock deadline or cancellation
    can interrupt even a single explosive rule; the resulting
    :class:`~repro.errors.ResourceLimitExceeded` propagates to the
    engine, which returns the facts committed so far as a PARTIAL
    outcome.
    """
    derived: set[Atom] = set()
    if not literals:
        derived.add(head)
        if stats is not None:
            stats.rule_firings += 1
        return derived
    head_vars = frozenset(head.variables())
    for bindings in match_body(
        db,
        literals,
        stats=stats,
        source_for=source_for,
        witness_after=head_vars,
        order=order,
    ):
        if stats is not None:
            stats.rule_firings += 1
        if governor is not None:
            governor.tick()
        derived.add(head.substitute(bindings))
    return derived


def run_differential_suite(
    seeds: int = 50,
    start_seed: int = 0,
    include_maintenance: bool = True,
) -> DifferentialReport:
    """Run every check over *seeds* consecutive seeds."""
    report = DifferentialReport()
    tc_query_program = Program.from_source(
        """
        G(x, z) :- E0(x, z).
        G(x, z) :- E0(x, y), G(y, z).
        """
    )
    for seed in range(start_seed, start_seed + seeds):
        report.seeds_run += 1
        program = random_program(seed)
        db = random_database(seed)
        samples = [random_database(seed * 31 + i, facts=8) for i in range(2)]

        for check, error in (
            ("engines-agree", check_engines_agree(program, db)),
            ("minimization-sound", check_minimization_sound(program, samples)),
            ("optimizer-sound", check_optimizer_sound(program, samples)),
        ):
            report.checks_run += 1
            if error:
                report.failures.append(Failure(check, seed, error, program))

        # Query strategies on a known-recursive program over this seed's EDB.
        rng = random.Random(seed ^ 0xBEEF)
        query = Atom.of("G", rng.randrange(4), Variable("x"))
        report.checks_run += 1
        error = check_query_strategies_agree(tc_query_program, db, query)
        if error:
            report.failures.append(Failure("query-strategies", seed, error))

        if include_maintenance:
            report.checks_run += 1
            error = check_maintenance_exact(tc_query_program, seed)
            if error:
                report.failures.append(Failure("maintenance", seed, error, tc_query_program))
    return report


def fresh_containment_test(rule: Rule, container: Program) -> bool:
    """Corollary 2 with nothing shared: ``hθ ∈ container(bθ)``, the whole
    container evaluated to its fixpoint on a fresh canonical database."""
    frozen = freeze_rule(rule)
    return frozen.head in evaluate(container, Database(frozen.body)).database


def reference_minimize_program(
    program: Program,
    atom_order: AtomOrder = natural_atom_order,
    rule_order: RuleOrder = natural_rule_order,
) -> MinimizationResult:
    """Fig. 2 with one :func:`fresh_containment_test` per candidate: the
    oracle ``minimize_program`` must agree with, removal for removal."""
    result = MinimizationResult(original=program, program=program)
    current = program
    for rule in rule_order(program):
        if rule not in current:
            continue
        # Each atom is tested against the program holding the rule's
        # latest version; the whole program takes the final one.
        context, live = current, rule
        # Body positions of the original rule still present in *live*.
        positions = list(range(len(rule.body)))
        for original in atom_order(rule):
            index = positions.index(original)
            if not live.can_drop_body_literal(index):
                continue
            candidate = live.without_body_literal(index)
            result.containment_tests += 1
            if fresh_containment_test(candidate, context):
                result.atom_removals.append(
                    AtomRemoval(live, live.body[index].atom, candidate)
                )
                context = context.replace_rule(live, candidate)
                live = candidate
                del positions[index]
        if live is not rule:
            current = current.replace_rule(rule, live)
    for rule in rule_order(current):
        if rule not in current:
            continue
        reduced = current.without_rule(rule)
        result.containment_tests += 1
        if fresh_containment_test(rule, reduced):
            result.rule_removals.append(RuleRemoval(rule))
            current = reduced
    result.program = current
    return result


def reference_scan_redundancy(program: Program) -> RedundancyScan:
    """The read-only Fig. 1/2 scan with one :func:`fresh_containment_test`
    per candidate: the oracle for ``scan_redundancy``."""
    scan = RedundancyScan()
    for rule in program.rules:
        for index in range(len(rule.body)):
            if not rule.can_drop_body_literal(index):
                continue
            candidate = rule.without_body_literal(index)
            scan.containment_tests += 1
            if fresh_containment_test(candidate, program):
                scan.redundant_atoms.append(RedundantAtom(rule, index, candidate))
    for rule in program.rules:
        scan.containment_tests += 1
        if fresh_containment_test(rule, program.without_rule(rule)):
            scan.redundant_rules.append(rule)
    return scan
