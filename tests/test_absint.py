"""Tests for the abstract-interpretation framework and its four domains.

The acceptance-critical piece is the differential class at the bottom:
with static cardinality hints wired into the compiled planner, every
engine path must still compute exactly the ``match_body`` reference
fixpoint on every workload suite.
"""

from __future__ import annotations

import pytest

from repro import Database, parse_program
from repro.analysis.absint import (
    ProgramFacts,
    analyze_cardinality,
    analyze_program,
    analyze_sorts,
    binding_analysis,
    cardinality_hints,
    certify_dead_rule,
    classify_recursion,
)
from repro.analysis.absint.cardinality import CAP, Interval
from repro.analysis.absint.recursion import LINEAR, NONLINEAR, NONLINEAR_MAX_DEPTH
from repro.engine import naive_fixpoint, seminaive_fixpoint
from repro.engine.compile import KernelCache
from repro.engine.joins import plan_order
from repro.lang import parse_atom, parse_rule
from repro.obs.metrics import metrics_registry
from repro.testing import reference_fixpoint
from repro.workloads.suites import SUITES

TC = """
T(x, y) :- E(x, y).
T(x, y) :- E(x, z), T(z, y).
"""

TC_NONLINEAR = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), T(z, y).
"""


class TestProgramFacts:
    def test_rules_by_head_carries_indexes(self):
        program = parse_program(TC)
        facts = ProgramFacts(program)
        assert [i for i, _r in facts.rules_by_head["T"]] == [0, 1]

    def test_scc_order_is_topological(self):
        program = parse_program(
            """
            B(x) :- A(x).
            C(x) :- B(x).
            """
        )
        facts = ProgramFacts(program)
        order = [pred for scc in facts.scc_order for pred in scc]
        assert order.index("A") < order.index("B") < order.index("C")

    def test_join_components_detects_cartesian_split(self):
        program = parse_program("P(x, y) :- A(x), B(y).")
        facts = ProgramFacts(program)
        assert len(facts.join_components(program.rules[0])) == 2

    def test_reachable_from(self):
        program = parse_program(
            """
            B(x) :- A(x).
            C(x) :- B(x).
            D(x) :- A(x).
            """
        )
        facts = ProgramFacts(program)
        reachable = facts.reachable_from(frozenset({"C"}))
        assert "A" in reachable and "B" in reachable
        assert "D" not in reachable

    def test_variable_occurrences(self):
        rule = parse_rule("P(x) :- A(x, y), B(y, y).")
        program = parse_program("P(x) :- A(x, y), B(y, y).")
        facts = ProgramFacts(program)
        counts = {v.name: n for v, n in facts.variable_occurrences(rule).items()}
        assert counts == {"x": 2, "y": 3}


class TestSortDomain:
    def test_plain_tc_has_top_sorts_and_no_findings(self):
        analysis = analyze_sorts(parse_program(TC))
        assert not analysis.empty_predicates
        assert not analysis.dead_rules
        assert analysis.values["T"].describe() == "(*, *)"

    def test_constant_mismatch_marks_rule_dead(self):
        # Q only ever holds 2 at position 1, so the body Q(x, 1) of the
        # second P rule is unsatisfiable.
        program = parse_program(
            """
            Q(y, 2) :- S(y).
            P(x) :- R(x).
            P(x) :- Q(x, 1).
            """
        )
        analysis = analyze_sorts(program)
        assert 2 in analysis.dead_rules
        assert "constant 1" in analysis.dead_rules[2]
        assert not analysis.empty_predicates

    def test_all_rules_dead_makes_predicate_empty_and_propagates(self):
        program = parse_program(
            """
            Q(y, 2) :- S(y).
            P(x) :- Q(x, 1).
            Top(x) :- P(x).
            """
        )
        analysis = analyze_sorts(program)
        assert analysis.empty_predicates == {"P", "Top"}
        # The Top rule is dead *because* P is empty: deadness propagated
        # up the dependence graph through the fixpoint.
        assert "provably empty" in analysis.dead_rules[2]

    def test_value_disjoint_join_detected(self):
        program = parse_program(
            """
            A(1) :- S(x).
            B(2) :- S(x).
            P(x) :- A(x), B(x).
            """
        )
        analysis = analyze_sorts(program)
        assert 2 in analysis.dead_rules
        assert "value-disjoint" in analysis.dead_rules[2]

    def test_certified_dead_rule(self):
        # The dead rule is redundant even under the open (uniform)
        # reading: dropping it is certified by §VI containment.
        program = parse_program(
            """
            P(x) :- E(x).
            P(x) :- E(x), Q(x, 1).
            Q(y, 2) :- S(y).
            """
        )
        analysis = analyze_sorts(program)
        (index,) = [i for i in analysis.dead_rules if i == 1]
        assert certify_dead_rule(program, program.rules[index])

    def test_uncertified_dead_rule(self):
        # Closed-world dead, but with IDB facts as input the rule could
        # fire (Q(c, 1) given directly); the certificate must refuse.
        program = parse_program(
            """
            Q(y, 2) :- S(y).
            P(x) :- Q(x, 1).
            """
        )
        analysis = analyze_sorts(program)
        assert 1 in analysis.dead_rules
        assert not certify_dead_rule(program, program.rules[1])


class TestCardinalityDomain:
    def test_nonrecursive_bounds_are_products(self):
        program = parse_program("P(x, z) :- A(x, y), B(y, z).")
        analysis = analyze_cardinality(
            program, edb_counts={"A": 10, "B": 20}
        )
        assert analysis.values["P"].hi == 200

    def test_recursion_widens_to_unbounded(self):
        analysis = analyze_cardinality(parse_program(TC), edb_counts={"E": 50})
        assert analysis.values["T"].hi is None

    def test_unbounded_hint_falls_back_to_domain_bound(self):
        analysis = analyze_cardinality(parse_program(TC), edb_counts={"E": 50})
        assert analysis.hints["T"] == min(50**2, CAP)

    def test_hints_seeded_from_database_counts(self):
        program = parse_program("P(x, z) :- A(x, y), B(y, z).")
        db = Database.from_facts({"A": [(1, 2), (2, 3)], "B": [(3, 4)]})
        hints = cardinality_hints(program, db)
        assert hints["A"] == 2 and hints["B"] == 1
        assert hints["P"] == 2

    def test_widening_reported_for_slow_linear_growth(self):
        analysis = analyze_cardinality(parse_program(TC), edb_counts={"E": 2})
        assert analysis.result.widenings >= 1

    def test_interval_describe(self):
        assert Interval(0, None).describe() == "[0, inf]"
        assert Interval.exactly(3).describe() == "[3, 3]"


class TestGroundnessDomain:
    def test_tc_query_adornments(self):
        program = parse_program(TC)
        analysis = binding_analysis(program, parse_atom('T("a", y)'))
        assert {a.suffix for a in analysis.adornments_of("T")} == {"bf"}
        assert not analysis.issues

    def test_free_query_flagged(self):
        program = parse_program(TC)
        analysis = binding_analysis(program, parse_atom("T(x, y)"))
        assert any(issue.kind == "free-query" for issue in analysis.issues)

    def test_unbound_subgoal_flagged(self):
        # Left-to-right SIPS: the recursive P subgoal precedes the atom
        # that could bind its arguments, so it is demanded all-free.
        program = parse_program(
            """
            P(x, y) :- E(x, y).
            P(x, y) :- Q(y, w), E(w, x).
            Q(a, b) :- P(a, b).
            """
        )
        analysis = binding_analysis(program, parse_atom('P("c", y)'))
        assert any(
            issue.kind == "unbound-subgoal" for issue in analysis.issues
        )

    def test_demand_matches_magic_transform(self):
        from repro.engine.magic import magic_transform

        program = parse_program(
            """
            Sg(x, x) :- Per(x).
            Sg(x, y) :- Par(x, xp), Sg(xp, yp), Par(y, yp).
            """
        )
        query = parse_atom('Sg("ann", y)')
        analysis = binding_analysis(program, query)
        rewriting = magic_transform(program, query)
        demanded = {(pred, a.suffix) for pred, a in analysis.demand}
        # Every adorned predicate the rewriting produced was demanded.
        assert ("Sg", "bf") in demanded
        assert rewriting.adorned_query_predicate == "Sg__bf"


class TestRecursionDomain:
    def test_linear_classification(self):
        analysis = classify_recursion(parse_program(TC))
        assert analysis.kind_of("T") == LINEAR
        assert analysis.linear

    def test_nonlinear_classification(self):
        analysis = classify_recursion(parse_program(TC_NONLINEAR))
        assert analysis.kind_of("T") == NONLINEAR
        assert not analysis.linear

    def test_mutual_recursion_marked(self):
        program = parse_program(
            """
            Ev(x, y) :- E(x, z), Od(z, y).
            Od(x, y) :- E(x, y).
            Od(x, y) :- E(x, z), Ev(z, y).
            """
        )
        analysis = classify_recursion(program)
        (scc,) = analysis.recursive_sccs
        assert scc.mutual
        assert scc.predicates == {"Ev", "Od"}

    def test_candidate_depths(self):
        assert classify_recursion(
            parse_program("P(x) :- E(x).")
        ).candidate_depths(4) == ()
        assert classify_recursion(parse_program(TC)).candidate_depths(4) == (
            1,
            2,
            3,
            4,
        )
        assert classify_recursion(
            parse_program(TC_NONLINEAR)
        ).candidate_depths(10) == tuple(range(1, NONLINEAR_MAX_DEPTH + 1))


class TestMetrics:
    def test_analysis_counters_published(self):
        registry = metrics_registry()
        registry.reset()
        analyze_sorts(parse_program(TC))
        counters = registry.counters()
        assert counters["analysis.runs"] >= 1
        assert counters["analysis.sorts.runs"] == 1
        assert counters["analysis.fixpoint_iterations"] >= 1

    def test_report_runs_every_domain(self):
        registry = metrics_registry()
        registry.reset()
        analyze_program(parse_program(TC), query=parse_atom('T("a", y)'))
        counters = registry.counters()
        for domain in ("sorts", "cardinality", "recursion", "groundness", "termination"):
            assert counters[f"analysis.{domain}.runs"] >= 1, domain


class TestPlannerHints:
    def test_hint_breaks_empty_relation_tie(self):
        # Both body relations are empty in the db; the hint must order
        # the (statically) smaller Small before Big.
        rule = parse_rule("P(x) :- Big(x, y), Small(y, x).")
        db = Database()
        hints = {"Big": 1000, "Small": 2}
        order = plan_order(rule.body, db, hints=hints)
        assert order[0] == 1

    def test_real_statistics_beat_hints(self):
        # Big actually holds one fact; the hint claiming it is huge
        # must lose to the measured count.
        rule = parse_rule("P(x) :- Big(x, y), Small(y, x).")
        db = Database.from_facts({"Big": [(1, 2)], "Small": [(2, 1), (3, 1)]})
        order = plan_order(rule.body, db, hints={"Big": 1000, "Small": 2})
        assert order[0] == 0

    def test_kernel_cache_provider_is_lazy(self):
        calls = []

        def provider():
            calls.append(1)
            return {"T": 7}

        program = parse_program(TC)
        db = Database.from_facts({"E": [(1, 2)]})
        base, step = program.rules
        cache = KernelCache(db, hint_provider=provider)
        cache.kernel(base)  # body is E only; statistics cover it
        assert not calls
        cache.kernel(step)  # body mentions T, which the db has no facts of
        assert len(calls) == 1
        cache.kernel(step, delta_position=0)  # hints memoised
        assert len(calls) == 1

    def test_hinted_plans_metric(self):
        registry = metrics_registry()
        registry.reset()
        program = parse_program(TC)
        db = Database.from_facts({"E": [(1, 2)]})
        cache = KernelCache(db, hint_provider=lambda: {"T": 7})
        cache.kernel(program.rules[1])
        assert registry.counters()["compile.hinted_plans"] == 1


@pytest.mark.parametrize("suite", sorted(SUITES))
class TestHintedDifferential:
    """Hinted compiled plans == match_body reference, on every suite."""

    def test_hinted_engines_match_reference(self, suite):
        workload = SUITES[suite]()
        edb = workload.edb(8)
        program = workload.program
        reference = reference_fixpoint(program, edb)
        assert seminaive_fixpoint(program, edb).database == reference
        assert naive_fixpoint(program, edb).database == reference
