"""Unit tests for the [P, T] chase and Theorem-1 containment (Section VIII)."""

from __future__ import annotations

import pytest

from repro import Database, paper, parse_program, parse_rule, parse_tgd
from repro.core.chase import (
    ChaseBudget,
    Verdict,
    chase,
    check_model_containment,
    rule_contained_under_constraints,
)
from repro.core.tgds import satisfies_all
from repro.lang import Atom, Program


class TestChaseDriver:
    def test_rules_only_reaches_fixpoint(self, tc, ex2_edb):
        outcome = chase(ex2_edb, tc, [])
        assert outcome.saturated
        assert outcome.database.count("G") == 6

    def test_tgds_only(self):
        cases = [
            ("G(x, y) -> A(x, w)", {"G": [(1, 2)]}, "A", 1),
            # Once raised KeyError on an interning storage backend: the
            # deterministic-output sorts met storage ints, not terms.
            ("E(x, y) -> F(y, z)", {"E": [(1, 2), (2, 3)]}, "F", 2),
        ]
        for text, facts, produced, count in cases:
            tgd = parse_tgd(text)
            outcome = chase(Database.from_facts(facts), None, [tgd])
            assert outcome.saturated
            assert outcome.database.count(produced) == count
            assert satisfies_all(outcome.database, [tgd])

    def test_input_not_mutated(self, tc, ex2_edb):
        before = len(ex2_edb)
        chase(ex2_edb, tc, [])
        assert len(ex2_edb) == before

    def test_result_satisfies_tgds_and_is_model(self, tc):
        # [P, T](d) is a model of P and satisfies T (Section VIII).
        tgd = parse_tgd("G(x, z) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2), (2, 3)]})
        outcome = chase(db, tc, [tgd])
        assert outcome.saturated
        assert satisfies_all(outcome.database, [tgd])
        from repro.engine import apply_once

        assert apply_once(tc, outcome.database) <= set(outcome.database.atoms())

    def test_target_short_circuits(self, tc):
        db = Database.from_facts({"A": [(1, 2)]})
        outcome = chase(db, tc, [], target=Atom.of("G", 1, 2))
        assert outcome.target_found

    def test_target_in_input(self, tc):
        db = Database.from_facts({"G": [(1, 2)]})
        outcome = chase(db, tc, [], target=Atom.of("G", 1, 2))
        assert outcome.target_found
        assert outcome.rounds == 0

    def test_diverging_tgd_hits_budget(self):
        # G(x,y) -> G(y,w): every repair creates a new violation.
        tgd = parse_tgd("G(x, y) -> G(y, w)")
        db = Database.from_facts({"G": [(1, 2)]})
        outcome = chase(db, None, [tgd], budget=ChaseBudget(max_rounds=10, max_nulls=50))
        assert not outcome.saturated
        assert outcome.nulls_created > 0

    def test_atom_budget(self, tc):
        big = Database.from_facts({"A": [(i, i + 1) for i in range(60)]})
        outcome = chase(big, tc, [], budget=ChaseBudget(max_atoms=100))
        assert not outcome.saturated


class TestTheorem1:
    def test_example11_rule2(self):
        # The chase transcript of Example 11: the pure-TC recursive rule
        # is contained in [P1, T].
        rule = paper.EX11_P2.rules[1]
        evidence = rule_contained_under_constraints(rule, paper.EX11_P1, [paper.EX11_TGD])
        assert evidence.verdict is Verdict.PROVED
        assert evidence.nulls_created >= 1  # the tgd had to fire

    def test_example11_full_report(self):
        report = check_model_containment(paper.EX11_P1, [paper.EX11_TGD], paper.EX11_P2)
        assert report.verdict is Verdict.PROVED
        assert len(report.evidence) == 2

    def test_without_tgd_fails(self):
        # Without T, the recursive TC rule is not uniformly contained in
        # P1 (that is the whole point of Example 11).
        report = check_model_containment(paper.EX11_P1, [], paper.EX11_P2)
        assert report.verdict is Verdict.DISPROVED
        assert [str(r) for r in report.failing_rules] == [
            "G(x, z) :- G(x, y), G(y, z)."
        ]

    def test_empty_tgds_is_uniform_containment(self, tc, tc_linear):
        # With T = {} the Theorem-1 test degenerates to Section VI.
        report = check_model_containment(tc, [], tc_linear)
        assert report.verdict is Verdict.PROVED
        report2 = check_model_containment(tc_linear, [], tc)
        assert report2.verdict is Verdict.DISPROVED

    def test_unknown_on_budget_exhaustion(self):
        # A diverging tgd set and an unprovable rule: chase can neither
        # find the head nor saturate.
        p1 = parse_program("G(x, z) :- A(x, z).")
        p2 = parse_program("G(x, z) :- B(x, z).")
        tgd = parse_tgd("B(x, y) -> B(y, w)")
        report = check_model_containment(
            p1, [tgd], p2, budget=ChaseBudget(max_rounds=5, max_nulls=20)
        )
        assert report.verdict is Verdict.UNKNOWN

    def test_example19_model_containment(self):
        report = check_model_containment(paper.EX19_P1, [paper.EX16_TGD], paper.EX19_P2)
        assert report.verdict is Verdict.PROVED

    def test_verdict_bool(self):
        assert bool(Verdict.PROVED)
        assert not bool(Verdict.DISPROVED)
        assert not bool(Verdict.UNKNOWN)

    def test_full_tgd_containment(self):
        # A full tgd B(x,y) -> A(x,y) makes the A-rule subsume the B-rule.
        p1 = parse_program("G(x, y) :- A(x, y).")
        p2 = parse_program("G(x, y) :- B(x, y).")
        tgd = parse_tgd("B(x, y) -> A(x, y)")
        report = check_model_containment(p1, [tgd], p2)
        assert report.verdict is Verdict.PROVED


class TestOnBudget:
    """The on_budget seam: absorb exhaustion (default) or raise typed."""

    DIVERGING = parse_tgd("B(x, y) -> B(y, w)")

    def _db(self):
        return Database.from_facts({"B": [(1, 2)]})

    def test_partial_absorbs_exhaustion(self):
        outcome = chase(
            self._db(), None, [self.DIVERGING],
            budget=ChaseBudget(max_rounds=5, max_nulls=20),
        )
        assert not outcome.saturated
        assert outcome.database.count("B") >= 1  # sound under-approximation

    def test_raise_surfaces_typed_error(self):
        from repro.errors import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            chase(
                self._db(), None, [self.DIVERGING],
                budget=ChaseBudget(max_rounds=5, max_nulls=20),
                on_budget="raise",
            )

    def test_raise_mode_does_not_fire_on_saturation(self):
        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2)]})
        outcome = chase(db, None, [tgd], on_budget="raise")
        assert outcome.saturated

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="on_budget"):
            chase(self._db(), None, [], on_budget="explode")

    def test_exhaustion_counted_in_metrics(self):
        from repro.obs.metrics import metrics_registry

        registry = metrics_registry()

        def exhausted():
            return registry.export()["counters"].get("chase.budget_exhausted", 0)

        before = exhausted()
        with pytest.raises(Exception):
            chase(
                self._db(), None, [self.DIVERGING],
                budget=ChaseBudget(max_rounds=4, max_nulls=16),
                on_budget="raise",
            )
        assert exhausted() == before + 1
