"""Unit tests for uniform containment (Section VI) -- Examples 4-7."""

from __future__ import annotations

import pytest

from repro import evaluate, paper, parse_program, parse_rule
from repro.core import containment
from repro.core.containment import (
    ContainmentSession,
    canonical_database,
    check_rule_containment,
    check_uniform_containment,
    rule_uniformly_contained_in,
    uniformly_contains,
    uniformly_equivalent,
)
from repro.core.minimize import minimize_program, scan_redundancy
from repro.lang import Program
from repro.lang.terms import FrozenConstant
from repro.obs.metrics import metrics_registry
from repro.resilience import ResourceGovernor
from repro.workloads import wide_rule


class TestPaperExamples:
    def test_example4_linear_contained_in_nonlinear(self):
        assert uniformly_contains(
            container=paper.TC_NONLINEAR, contained=paper.TC_LINEAR
        )

    def test_example4_nonlinear_not_contained_in_linear(self):
        # The rule G(x,z) :- G(x,y), G(y,z) is not uniformly contained in
        # the linear program (Example 6 second half).
        assert not uniformly_contains(
            container=paper.TC_LINEAR, contained=paper.TC_NONLINEAR
        )

    def test_example4_not_uniformly_equivalent(self):
        assert not uniformly_equivalent(paper.TC_NONLINEAR, paper.TC_LINEAR)

    def test_example5(self):
        # Every rule of P1 is a rule of P2, so P1 ⊑u P2.
        assert uniformly_contains(container=paper.EX5_P2, contained=paper.TC_NONLINEAR)

    def test_example6_failing_rule_identified(self):
        report = check_uniform_containment(
            container=paper.TC_LINEAR, contained=paper.TC_NONLINEAR
        )
        assert not report.holds
        assert [str(r) for r in report.failing_rules] == [
            "G(x, z) :- G(x, y), G(y, z)."
        ]

    def test_example7_both_directions(self):
        # The subset body gives P1 ⊑u P2 trivially; the chase shows P2 ⊑u P1.
        assert uniformly_contains(container=paper.EX7_P2, contained=paper.EX7_P1)
        assert uniformly_contains(container=paper.EX7_P1, contained=paper.EX7_P2)
        assert uniformly_equivalent(paper.EX7_P1, paper.EX7_P2)


class TestAlgebraicProperties:
    def test_reflexive(self, tc):
        assert uniformly_contains(tc, tc)

    def test_rule_in_own_program(self, tc):
        for rule in tc.rules:
            assert rule_uniformly_contained_in(rule, tc)

    def test_subset_of_rules_is_contained(self, tc):
        smaller = Program.of(tc.rules[0])
        assert uniformly_contains(container=tc, contained=smaller)

    def test_transitive(self):
        p1 = parse_program("G(x, z) :- A(x, z).")
        p2 = parse_program("G(x, z) :- A(x, z). G(x, z) :- G(x, y), G(y, z).")
        p3 = p2.with_rule(parse_rule("H(x) :- G(x, x)."))
        assert uniformly_contains(p2, p1)
        assert uniformly_contains(p3, p2)
        assert uniformly_contains(p3, p1)

    def test_empty_program_contained_in_all(self, tc):
        assert uniformly_contains(container=tc, contained=Program())

    def test_nontrivial_rule_not_contained_in_empty(self):
        rule = parse_rule("G(x, z) :- A(x, z).")
        assert not rule_uniformly_contained_in(rule, Program())

    def test_trivial_rule_contained_in_empty(self):
        rule = parse_rule("G(x, z) :- G(x, z).")
        assert rule_uniformly_contained_in(rule, Program())


class TestWitnesses:
    def test_positive_witness(self, tc):
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z).")
        witness = check_rule_containment(rule, tc)
        assert witness.holds
        assert witness.frozen_head in witness.canonical_output

    def test_negative_witness_is_countermodel(self, tc_linear):
        rule = parse_rule("G(x, z) :- G(x, y), G(y, z).")
        witness = check_rule_containment(rule, tc_linear)
        assert not witness.holds
        # The canonical output is a model of the linear program that is
        # not a model of the rule -- the paper's countermodel argument.
        assert witness.frozen_head not in witness.canonical_output

    def test_str_rendering(self, tc):
        witness = check_rule_containment(parse_rule("G(x, z) :- A(x, z)."), tc)
        assert "⊑u holds" in str(witness)

    def test_report_collects_all_failures(self):
        container = parse_program("G(x, z) :- A(x, z).")
        contained = parse_program(
            """
            G(x, z) :- B(x, z).
            G(x, z) :- C(x, z).
            """
        )
        report = check_uniform_containment(container, contained)
        assert len(report.failing_rules) == 2

    def test_canonical_database(self):
        rule = parse_rule("G(x, z) :- G(x, y), G(y, z).")
        db = canonical_database(rule)
        assert len(db) == 2
        assert db.count("G") == 2
        assert all(isinstance(t, FrozenConstant) for row in db.tuples("G") for t in row)


class TestConstantsInRules:
    def test_constants_preserved_in_test(self):
        # Head constants must be derivable exactly.
        container = parse_program("G(x, 3) :- A(x).")
        contained = parse_program("G(x, 3) :- A(x), B(x).")
        assert uniformly_contains(container, contained)
        assert not uniformly_contains(contained, container)

    def test_different_constants_not_contained(self):
        p3 = parse_program("G(x, 3) :- A(x).")
        p4 = parse_program("G(x, 4) :- A(x).")
        assert not uniformly_contains(p3, p4)

    def test_engine_parameter(self, tc):
        assert uniformly_contains(tc, paper.TC_LINEAR, engine="naive")


class TestSessionEvidence:
    """The boolean path stops early; the evidence path never does."""

    @pytest.mark.parametrize(
        "rule",
        [
            # Round 1 commits the frozen head; the closure over the
            # chain A(x,y), A(y,z), A(z,w) takes two more rounds.
            "G(x, y) :- A(x, y), A(y, z), A(z, w).",
            "G(x, z) :- A(x, y), A(y, z).",
            "G(x, z) :- G(x, y), G(y, z).",
        ],
    )
    def test_canonical_output_is_the_full_model_when_the_test_holds(self, tc, rule):
        rule = parse_rule(rule)
        witness = check_rule_containment(rule, tc)
        assert witness.holds
        full = evaluate(tc, canonical_database(rule)).database
        assert witness.canonical_output == full.as_atom_set()

    def test_boolean_path_stops_at_the_frozen_head(self, tc):
        rule = parse_rule("G(x, y) :- A(x, y), A(y, z), A(z, w), A(w, v).")
        registry = metrics_registry()
        before = registry.counter("evaluation.facts_derived")
        assert rule_uniformly_contained_in(rule, tc)
        goal_directed = registry.counter("evaluation.facts_derived") - before
        before = registry.counter("evaluation.facts_derived")
        assert check_rule_containment(rule, tc).holds
        complete = registry.counter("evaluation.facts_derived") - before
        assert goal_directed < complete

    def test_governed_minimize_trips_mid_session(self):
        program = Program.of(
            wide_rule(core_atoms=3, redundant_atoms=3, seed=11),
            parse_rule("G(x, z) :- A(x, y), A(y, z)."),
            parse_rule("G(x, z) :- G(x, y), G(y, z)."),
        )
        full = minimize_program(program)
        assert full.containment_tests > 4
        tripped = 0
        for rounds in range(1, 3 * full.containment_tests):
            result = minimize_program(
                program, governor=ResourceGovernor(max_rounds=rounds)
            )
            if result.degradation is None:
                assert result.program == full.program
                continue
            tripped += 1
            # A tripped test is never read as "not contained": the run
            # stops there, so its removals are a prefix of the full run's.
            atoms = len(result.atom_removals)
            assert result.atom_removals == full.atom_removals[:atoms]
            if result.rule_removals:
                assert atoms == len(full.atom_removals)
                rules = len(result.rule_removals)
                assert result.rule_removals == full.rule_removals[:rules]
            assert uniformly_equivalent(program, result.program)
        assert tripped > 1


class TestSessionCost:
    """Exact work counters for what the session shares.  Sharing one
    kernel store and restricting the container to the goal's relevant
    rules change no verdict, only cost, so only counters can see them."""

    #: ``H`` is irrelevant to every ``G`` test; the minimized program
    #: keeps all four rules (one atom is removed from the first).
    PROGRAM = Program.of(
        wide_rule(core_atoms=3, redundant_atoms=3, seed=11),
        parse_rule("G(x, z) :- A(x, y), A(y, z)."),
        parse_rule("G(x, z) :- G(x, y), G(y, z)."),
        parse_rule("H(x) :- A(x, y), B(y)."),
    )

    @staticmethod
    def kernels_built(run) -> int:
        registry = metrics_registry()
        before = registry.counter("compile.kernels_built")
        run()
        return registry.counter("compile.kernels_built") - before

    def test_minimize_program_compiles_each_kernel_once(self):
        # With a fresh session per containment test this reads more.
        assert self.kernels_built(lambda: minimize_program(self.PROGRAM)) == 8

    def test_scan_keeps_the_callers_session(self):
        session = ContainmentSession()
        assert self.kernels_built(lambda: scan_redundancy(self.PROGRAM, session=session)) == 5
        # Every kernel the second scan needs is already in the session.
        assert self.kernels_built(lambda: scan_redundancy(self.PROGRAM, session=session)) == 0

    def test_goal_directed_test_evaluates_only_relevant_rules(self, monkeypatch):
        evaluated = []
        original = containment.evaluate

        def spy(program, *args, **kwargs):
            evaluated.append(len(program.rules))
            return original(program, *args, **kwargs)

        monkeypatch.setattr(containment, "evaluate", spy)
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z), A(z, w).")
        assert rule_uniformly_contained_in(rule, self.PROGRAM)
        assert evaluated == [3]  # H's rule is cut
        # The evidence path runs the whole container.
        assert check_rule_containment(rule, self.PROGRAM).holds
        assert evaluated == [3, 4]
