"""Tests for repro.engine.compile: kernels, delta splitting, differentials.

The load-bearing guarantee is the differential one: for every bench
workload, the compiled kernels and the ``match_body`` reference
(:mod:`repro.testing`) compute identical fixpoints -- including under
fault injection and under governor PARTIAL cutoffs (where the compiled
result must still be a sound subset).
"""

from __future__ import annotations

import sys

import pytest

from repro.data import Database
from repro.engine import (
    KernelCache,
    compile_kernel,
    evaluate_stratified,
    naive_fixpoint,
    seminaive_fixpoint,
)
from repro.engine.compile import cardinality_hint_provider
from repro.engine.incremental import MaterializedView
from repro.engine.joins import plan_order
from repro.engine.seminaive import GoalRun
from repro.engine.stats import EvaluationStats
from repro.errors import UnsafeRuleError
from repro.lang import Atom, Literal, Variable, parse_program, parse_rule
from repro.lang.programs import Program
from repro.lang.terms import Constant
from repro.obs.metrics import metrics_registry
from repro.resilience import (
    EvaluationSession,
    EvaluationStatus,
    FaultPlan,
    ResourceGovernor,
    RetryPolicy,
)
from repro.testing import match_body, reference_fixpoint
from repro.workloads.suites import SUITES

from .legacy import on_backend

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestKernelUnits:
    def test_simple_join(self):
        db = Database.from_facts({"A": [(1, 2), (2, 3)]})
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z).")
        kernel = compile_kernel(rule.head, rule.body, db)
        assert kernel.run(db) == {Atom.of("G", 1, 3).args}

    def test_constants_in_body(self):
        db = Database.from_facts({"A": [(1, 2), (3, 4)]})
        rule = parse_rule("P(y) :- A(3, y).")
        kernel = compile_kernel(rule.head, rule.body, db)
        assert kernel.run(db) == {Atom.of("P", 4).args}

    def test_repeated_variable_within_atom(self):
        db = Database.from_facts({"A": [(1, 1), (1, 2)]})
        rule = parse_rule("P(x) :- A(x, x).")
        kernel = compile_kernel(rule.head, rule.body, db)
        assert kernel.run(db) == {Atom.of("P", 1).args}

    def test_negated_literal(self):
        db = Database.from_facts({"A": [(1,), (2,)], "B": [(2,)]})
        body = [
            Literal(Atom("A", (x,))),
            Literal(Atom("B", (x,)), positive=False),
        ]
        kernel = compile_kernel(Atom("P", (x,)), body, db)
        assert kernel.run(db) == {Atom.of("P", 1).args}

    def test_ground_fact_rule(self):
        rule = parse_rule("A(1, 2).")
        kernel = compile_kernel(rule.head, rule.body, Database())
        assert kernel.run(Database()) == {Atom.of("A", 1, 2).args}

    def test_witness_cutoff_collapses_existential_tail(self):
        # P(x) :- A(x, y), B(y, z): once A binds the head variable x,
        # the ten z-witnesses in B must yield one firing, not ten.
        db = Database.from_facts(
            {"A": [(1, 2)], "B": [(2, i) for i in range(10)]}
        )
        rule = parse_rule("P(x) :- A(x, y), B(y, z).")
        kernel = compile_kernel(rule.head, rule.body, db)
        stats = EvaluationStats()
        assert kernel.run(db, stats=stats) == {Atom.of("P", 1).args}
        assert stats.rule_firings == 1
        assert kernel.witness_depth == 1

    def test_unsafe_rule_rejected(self):
        body = [Literal(Atom("A", (x,)))]
        with pytest.raises(UnsafeRuleError):
            compile_kernel(Atom("P", (x, z)), body, Database())

    def test_delta_required_when_compiled_with_delta_position(self):
        db = Database.from_facts({"A": [(1, 2)]})
        rule = parse_rule("G(x, y) :- A(x, y).")
        kernel = compile_kernel(rule.head, rule.body, db, delta_position=0)
        with pytest.raises(ValueError):
            kernel.run(db)

    def test_delta_position_must_be_positive_literal(self):
        body = [
            Literal(Atom("A", (x,))),
            Literal(Atom("B", (x,)), positive=False),
        ]
        with pytest.raises(ValueError):
            compile_kernel(Atom("P", (x,)), body, Database(), delta_position=1)

    def test_prebound_variables_are_seeded_per_run(self):
        db = Database.from_facts({"A": [(1, 2), (2, 3), (1, 4)]})
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z).")
        kernel = compile_kernel(rule.head, rule.body, db, bound=(x,))
        assert kernel.bound == (x,)
        assert kernel.order == (0, 1)  # A(x, y) is the bound literal
        assert kernel.run(db, seed=(Constant(1),)) == {Atom.of("G", 1, 3).args}
        assert kernel.run(db, seed=(Constant(2),)) == set()

    def test_prebound_head_only_checks_for_a_witness(self):
        # Every head variable pre-bound: the body is one existence check,
        # and a variable the body never mentions is just a slot.
        db = Database.from_facts({"B": [(2, i) for i in range(10)]})
        body = [Literal(Atom("B", (y, z)))]
        kernel = compile_kernel(Atom("_", ()), body, db, bound=(x, y))
        assert kernel.witness_depth == 0
        stats = EvaluationStats()
        assert kernel.run(db, stats=stats, seed=(Constant(0), Constant(2))) == {()}
        assert stats.rule_firings == 1
        assert kernel.run(db, seed=(Constant(0), Constant(3))) == set()

    def test_seed_must_match_the_prebound_variables(self):
        db = Database.from_facts({"A": [(1, 2)]})
        body = [Literal(Atom("A", (x, y)))]
        kernel = compile_kernel(Atom("P", (y,)), body, db, bound=(x,))
        with pytest.raises(ValueError):
            kernel.run(db)
        with pytest.raises(ValueError):
            kernel.run(db, seed=(Constant(1), Constant(2)))
        with pytest.raises(ValueError):
            compile_kernel(Atom("P", (y,)), body, db, bound=(x, x))

    def test_kernel_cache_reuses_compiled_variants(self):
        db = Database.from_facts({"A": [(1, 2)]})
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z).")
        cache = KernelCache(db)
        first = cache.kernel(rule, 0)
        assert cache.kernel(rule, 0) is first
        assert cache.kernel(rule, 1) is not first
        assert len(cache) == 2

    def test_one_cache_serves_two_programs_sharing_a_rule(self):
        shared = parse_rule("G(x, z) :- G(x, y), G(y, z).")
        first = Program.of(parse_rule("G(x, z) :- A(x, z)."), shared)
        second = Program.of(parse_rule("G(x, z) :- B(x, z)."), shared)
        facts = {"A": [(1, 2), (2, 3)], "B": [(3, 4), (4, 5)]}
        cache = KernelCache()
        registry = metrics_registry()

        before = registry.counter("compile.kernels_built")
        seminaive_fixpoint(first, Database.from_facts(facts), _goal=GoalRun(cache))
        after_first = registry.counter("compile.kernels_built")
        # The shared rule has two delta variants, the other rule one.
        assert after_first - before == 3
        result = seminaive_fixpoint(
            second, Database.from_facts(facts), _goal=GoalRun(cache)
        )
        # Only the rule the programs do not share is compiled again.
        assert registry.counter("compile.kernels_built") - after_first == 1
        assert result.database == seminaive_fixpoint(
            second, Database.from_facts(facts)
        ).database


class TestDeltaSplitting:
    def test_splitting_reads_snapshot_before_delta_after(self):
        # Body A(x,y), A(y,z), delta pinned at 1: position 0 must read
        # the snapshot only, so a join needing the delta fact at
        # position 0 yields nothing.
        full = Database.from_facts({"A": [(1, 2), (2, 3)]})
        snapshot = Database.from_facts({"A": [(1, 2)]})
        delta = Database.from_facts({"A": [(2, 3)]})
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z).")
        k1 = compile_kernel(rule.head, rule.body, full, delta_position=1)
        assert k1.run(full, delta=delta, before=snapshot) == {Atom.of("G", 1, 3).args}
        k0 = compile_kernel(rule.head, rule.body, full, delta_position=0)
        # Delta at 0 is (2,3); position 1 reads full, but (3,?) has no
        # continuation, so nothing derives.
        assert k0.run(full, delta=delta, before=snapshot) == set()

    def test_seminaive_firings_at_most_naive_on_redundant_atoms(self):
        workload = SUITES["tc+2atoms/chain"]()
        edb = workload.edb(12)
        naive = naive_fixpoint(workload.program, edb)
        semi = seminaive_fixpoint(workload.program, edb)
        assert semi.database == naive.database
        assert semi.stats.rule_firings <= naive.stats.rule_firings
        assert semi.stats.duplicates_avoided > 0

    def test_reference_path_unchanged_and_equal(self):
        workload = SUITES["tc+2atoms/chain"]()
        edb = workload.edb(10)
        compiled = seminaive_fixpoint(workload.program, edb)
        assert compiled.database == reference_fixpoint(workload.program, edb)


@pytest.mark.parametrize("suite", sorted(SUITES))
class TestDifferentialFixpoints:
    """Compiled kernels == match_body reference, on every bench workload."""

    def test_all_paths_agree(self, suite):
        workload = SUITES[suite]()
        edb = workload.edb(8)
        program = workload.program
        reference = reference_fixpoint(program, edb)
        assert naive_fixpoint(program, edb).database == reference
        assert seminaive_fixpoint(program, edb).database == reference
        # Kernels are the only production join: no switch selects another.
        for entry in (naive_fixpoint, seminaive_fixpoint, MaterializedView):
            with pytest.raises(TypeError, match="use_compiled"):
                entry(program, edb, use_compiled=False)


@pytest.mark.parametrize("suite", ("tc+2atoms/chain", "same-generation"))
@pytest.mark.parametrize("seed", (1, 2))
class TestDifferentialUnderFaults:
    def test_compiled_path_survives_faults_and_agrees(self, suite, seed):
        workload = SUITES[suite]()
        edb = workload.edb(8)
        clean = seminaive_fixpoint(workload.program, edb).database
        plan = FaultPlan.seeded(
            seed=seed,
            operations=("candidates", "add", "contains"),
            faults_per_operation=3,
            horizon=400,
        )
        session = EvaluationSession(
            workload.program,
            edb,
            engine="seminaive",
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=8),
        )
        result = session.run()
        assert result.status is EvaluationStatus.COMPLETE
        assert set(result.database.atoms()) == set(clean.atoms())


class TestGovernedCompiledRuns:
    def test_partial_is_sound_subset(self):
        workload = SUITES["tc+2atoms/chain"]()
        edb = workload.edb(12)
        clean = set(seminaive_fixpoint(workload.program, edb).database.atoms())
        governor = ResourceGovernor(max_facts=15)
        result = seminaive_fixpoint(workload.program, edb, governor=governor)
        assert result.status in (EvaluationStatus.PARTIAL, EvaluationStatus.COMPLETE)
        assert set(result.database.atoms()) <= clean

    def test_partial_under_faults_still_subset(self):
        workload = SUITES["tc+2atoms/chain"]()
        edb = workload.edb(12)
        clean = set(seminaive_fixpoint(workload.program, edb).database.atoms())
        plan = FaultPlan.seeded(seed=5, faults_per_operation=2, horizon=200)
        governor = ResourceGovernor(max_facts=20)
        session = EvaluationSession(
            workload.program,
            edb,
            engine="seminaive",
            governor=governor,
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=6),
        )
        result = session.run()
        assert set(result.database.atoms()) <= clean


class TestMetricsExport:
    def test_counters_flow_through_registry(self):
        registry = metrics_registry()
        kernels_before = registry.counter("compile.kernels_built")
        composite_before = registry.counter("index.composite_built")
        avoided_before = registry.counter("delta.duplicate_derivations_avoided")
        engine_avoided_before = registry.counter(
            "delta.duplicate_derivations_avoided.seminaive"
        )

        workload = SUITES["tc+2atoms/chain"]()
        result = seminaive_fixpoint(workload.program, workload.edb(12))
        assert result.stats.duplicates_avoided > 0

        # The triangle rule probes E with two bound positions, which is
        # what builds a composite index.
        triangle = parse_rule("T(x) :- E(x, y), E(y, z), E(z, x).")
        edges = Database.from_facts({"E": [(1, 2), (2, 3), (3, 1), (1, 4)]})
        tri = naive_fixpoint(Program.of(triangle), edges)
        assert set(tri.database.atoms_for("T")) == {
            Atom.of("T", 1),
            Atom.of("T", 2),
            Atom.of("T", 3),
        }

        assert registry.counter("compile.kernels_built") > kernels_before
        assert registry.counter("index.composite_built") > composite_before
        assert (
            registry.counter("delta.duplicate_derivations_avoided")
            >= avoided_before + result.stats.duplicates_avoided
        )
        assert (
            registry.counter("delta.duplicate_derivations_avoided.seminaive")
            >= engine_avoided_before + result.stats.duplicates_avoided
        )


_SHAPE_FACTS = {
    "A": [(1, 1), (1, 2), (2, 3), (3, 3), (4, 5)],
    "B": [(2,), (5,)],
}


@pytest.mark.parametrize("backend", ("rows", "columnar"))
@pytest.mark.parametrize(
    "source",
    (
        "P(x) :- A(x, y).",  # one-position head: still a 1-tuple
        "P(x, 3) :- A(x, y).",  # head constant
        "Q(x, x) :- A(x, y).",  # repeated head variable
        "R(1) :- A(x, x).",  # variable-free head
        "P(x) :- A(x, y), not B(y).",  # negated check on the row
        "P(y, x, 7, y) :- A(x, y), not B(x), A(y, z).",
    ),
)
class TestHeadShapes:
    """The head projection is fixed at compile time; every head shape it
    could get wrong is compared with the ``match_body`` reference."""

    def test_rows_equal_reference(self, source, backend):
        db = on_backend(Database.from_facts(_SHAPE_FACTS), backend)
        rule = parse_rule(source)
        rows = compile_kernel(rule.head, rule.body, db).run(db)
        expected = {
            rule.head.substitute(bindings).args for bindings in match_body(db, rule.body)
        }
        assert expected and rows == expected
        assert all(type(row) is tuple for row in rows)

    def test_engines_equal_reference(self, source, backend):
        db = on_backend(Database.from_facts(_SHAPE_FACTS), backend)
        program = Program.of(parse_rule(source))
        if not program.is_positive:
            # No interpreter path under negation: compare with the plain store.
            plain = evaluate_stratified(program, Database.from_facts(_SHAPE_FACTS))
            assert evaluate_stratified(program, db).database == plain.database
            return
        reference = reference_fixpoint(program, db)
        assert naive_fixpoint(program, db).database == reference
        assert seminaive_fixpoint(program, db).database == reference


@pytest.mark.parametrize("backend", ("rows", "columnar"))
@pytest.mark.parametrize(
    "suite, size, expected",
    (
        # (rule_firings, subgoal_attempts, duplicates_avoided,
        #  facts_derived, iterations), read at the commit before kernels
        # emitted rows; no change to the join may move them.
        ("tc/chain", 24, (2324, 613, 392, 300, 8)),
        ("andersen", 64, (1523, 1345, 404, 128, 6)),
    ),
)
def test_golden_counters(suite, size, expected, backend):
    workload = SUITES[suite]()
    edb = on_backend(workload.edb(size), backend)
    stats = seminaive_fixpoint(workload.program, edb).stats
    assert (
        stats.rule_firings,
        stats.subgoal_attempts,
        stats.duplicates_avoided,
        stats.facts_derived,
        stats.iterations,
    ) == expected


class _TripOnEmission(ResourceGovernor):
    """Trips at the *k*-th kernel emission.

    The engines' own per-rule tick always follows
    ``note(rule_index=...)``; every other tick is a kernel emission.
    """

    def __init__(self, k: int):
        super().__init__()
        self.k = k
        self.emissions = 0
        self.engine_tick_next = False

    def note(self, rule_index=None, **context):
        self.engine_tick_next = rule_index is not None
        super().note(rule_index=rule_index, **context)

    def tick(self, facts: int = 0) -> None:
        if self.engine_tick_next:
            self.engine_tick_next = False
        else:
            self.emissions += 1
            if self.emissions == self.k:
                self._trip("cancelled", f"emission {self.k}")
        super().tick(facts)


@pytest.mark.parametrize("backend", ("rows", "columnar"))
@pytest.mark.parametrize("k", (1, 7, 400))
def test_trip_inside_kernel_reports_exact_firings(k, backend):
    workload = SUITES["tc/chain"]()
    edb = on_backend(workload.edb(16), backend)
    full = seminaive_fixpoint(workload.program, edb)
    assert full.stats.rule_firings > k
    governor = _TripOnEmission(k)
    partial = seminaive_fixpoint(workload.program, edb, governor=governor)
    assert partial.status is EvaluationStatus.PARTIAL
    assert partial.database.issubset(full.database)
    assert partial.stats.rule_firings == governor.emissions == k


def _plan_order_reference(
    literals, db, initially_bound=frozenset(), prefer_vars=frozenset(),
    first=None, hints=None,
):
    """``plan_order`` as it was before it precomputed per-literal facts."""

    def size(predicate):
        count = db.count(predicate)
        if count == 0 and hints:
            return hints.get(predicate, 0)
        return count

    remaining = set(range(len(literals)))
    bound = set(initially_bound)
    order = []
    if first is not None:
        order.append(first)
        remaining.discard(first)
        bound.update(literals[first].atom.variables())

    def emit_ready_negatives():
        for i in sorted(remaining):
            literal = literals[i]
            if not literal.positive and literal.atom.variable_set() <= bound:
                order.append(i)
                remaining.discard(i)

    emit_ready_negatives()
    while remaining:
        best = best_key = None
        for i in remaining:
            literal = literals[i]
            if not literal.positive:
                continue
            atom = literal.atom
            bound_positions = sum(
                1 for t in atom.args if not isinstance(t, Variable) or t in bound
            )
            new_preferred = sum(
                1 for v in atom.variable_set() if v in prefer_vars and v not in bound
            )
            key = (-bound_positions, -new_preferred, size(atom.predicate), i)
            if best_key is None or key < best_key:
                best, best_key = i, key
        assert best is not None
        order.append(best)
        remaining.discard(best)
        bound.update(literals[best].atom.variables())
        emit_ready_negatives()
    return order


_PLAN_EXTRA = parse_program(
    """
    P(x) :- A(x, y), not B(y), A(y, 3), not C(x, 4).
    P(x) :- A(x, x), A(1, y), B(y), not C(y, x).
    P(z) :- G(x, y), A(y, z), G(z, z), not B(x).
    """
)


def test_plan_order_equals_reference_on_every_suite_rule():
    cases = [(SUITES[name]().program, SUITES[name]().edb(8)) for name in sorted(SUITES)]
    cases.append((_PLAN_EXTRA, Database.from_facts({"A": [(1, 2), (2, 3)], "B": [(2,)]})))
    checked = 0
    for program, db in cases:
        hints = {pred: 10 * (i + 1) for i, pred in enumerate(sorted(program.predicates))}
        for rule in program.rules:
            head_vars = frozenset(rule.head.variables())
            firsts = [None] + [i for i, lit in enumerate(rule.body) if lit.positive]
            for first in firsts:
                for prefer in (frozenset(), head_vars):
                    for given in (None, hints):
                        for start in (frozenset(), head_vars):
                            args = (rule.body, db, start, prefer, first, given)
                            assert plan_order(*args) == _plan_order_reference(*args)
                            checked += 1
    assert checked > 500


@pytest.mark.parametrize("suite, size", (("tc/chain", 10), ("andersen", 40), ("same-generation", 8)))
@pytest.mark.parametrize("seed", (1, 13, 19))
def test_contains_and_add_faults_fire_at_identical_counts_on_both_backends(suite, size, seed):
    workload = SUITES[suite]()
    outcomes = []
    for backend in ("rows", "columnar"):
        edb = on_backend(workload.edb(size), backend)
        plan = FaultPlan.seeded(
            seed=seed, operations=("contains", "add"), faults_per_operation=3, horizon=300
        )
        result = EvaluationSession(
            workload.program,
            edb,
            engine="seminaive",
            fault_plan=plan,
            retry_policy=RetryPolicy(max_retries=8),
        ).run()
        assert result.status is EvaluationStatus.COMPLETE
        outcomes.append(
            (plan.injected, plan.counters["contains"], plan.counters["add"],
             result.database.as_atom_set())
        )
    assert outcomes[0][0] > 0
    assert outcomes[0] == outcomes[1]


def test_cold_evaluate_compiles_no_source():
    """Kernels are interpreted slot programs, not generated source: a
    never-seen program costs no ``compile()``/``exec`` (one pass of the
    optimize-corpus workload builds 494 kernels).  Delete this guard in
    the PR that lands code generation with numbers."""
    warm = SUITES["tc/chain"]()
    seminaive_fixpoint(warm.program, warm.edb(6))
    # The planner's hint path imports the analysis package on first
    # use, and its dataclasses exec generated methods: warm it too, so
    # the test sees the same thing alone as after the rest of the suite.
    cardinality_hint_provider(warm.program, warm.edb(6))()
    events = []
    armed = True

    def hook(event, args):
        if armed and event in ("compile", "exec"):
            events.append(event)

    sys.addaudithook(hook)
    try:
        cold = SUITES["andersen"]()
        seminaive_fixpoint(cold.program, cold.edb(16))
        naive_fixpoint(cold.program, cold.edb(16))
    finally:
        armed = False
    assert events == []
