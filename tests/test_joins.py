"""Unit tests for join planning (repro.engine.joins) and the reference
matcher (repro.testing)."""

from __future__ import annotations

from repro.data import Database
from repro.engine.joins import plan_order
from repro.engine.stats import EvaluationStats
from repro.lang import Atom, Literal, Variable, parse_rule
from repro.lang.terms import Constant
from repro.testing import fire_rule, match_body

x, y, z = Variable("x"), Variable("y"), Variable("z")


def literals(*atoms: Atom) -> list[Literal]:
    return [Literal(a) for a in atoms]


class TestPlanOrder:
    def test_constants_make_atoms_early(self):
        db = Database.from_facts({"A": [(1, 2)], "B": [(2, 3)]})
        body = literals(Atom("B", (y, z)), Atom.of("A", 1, y))
        order = plan_order(body, db)
        # The A atom has a bound constant position, so it goes first.
        assert order[0] == 1

    def test_initially_bound_variables_count(self):
        db = Database.from_facts({"A": [(1, 2)], "B": [(2, 3)]})
        body = literals(Atom("A", (x, y)), Atom("B", (z, x)))
        order = plan_order(body, db, initially_bound=frozenset({z}))
        assert order[0] == 1  # B has z pre-bound

    def test_negated_literal_scheduled_when_bound(self):
        db = Database.from_facts({"A": [(1,)], "B": [(1,)]})
        body = [
            Literal(Atom("B", (x,)), positive=False),
            Literal(Atom("A", (x,))),
        ]
        order = plan_order(body, db)
        assert order == [1, 0]

    def test_all_indexes_present(self):
        db = Database()
        body = literals(Atom("A", (x, y)), Atom("B", (y, z)), Atom("C", (z, x)))
        assert sorted(plan_order(body, db)) == [0, 1, 2]

    def test_tie_break_smaller_relation_wins(self):
        # Equal boundness: the atom over the smaller relation leads.
        db = Database.from_facts(
            {"Big": [(i, i + 1) for i in range(10)], "Small": [(0, 1)]}
        )
        body = literals(Atom("Big", (x, y)), Atom("Small", (x, y)))
        assert plan_order(body, db)[0] == 1
        # Swapped body order: still the smaller relation first.
        body = literals(Atom("Small", (x, y)), Atom("Big", (x, y)))
        assert plan_order(body, db)[0] == 0

    def test_prefer_vars_pull_head_binding_atoms_early(self):
        # Same sizes and boundness; the atom binding a preferred (head)
        # variable wins the tie-break against one binding none.
        db = Database.from_facts({"A": [(1, 2)], "B": [(3, 4)]})
        head_var = Variable("h")
        body = literals(Atom("A", (x, y)), Atom("B", (head_var, z)))
        order = plan_order(body, db, prefer_vars=frozenset({head_var}))
        assert order[0] == 1

    def test_first_pins_the_delta_literal(self):
        # first= puts the pinned literal up front even when every other
        # signal (boundness, size) says otherwise.
        db = Database.from_facts(
            {"A": [(1, 2)], "B": [(i, i + 1) for i in range(20)]}
        )
        body = literals(Atom("A", (x, y)), Atom("B", (y, z)))
        assert plan_order(body, db, first=1) == [1, 0]
        assert plan_order(body, db, first=0) == [0, 1]


class TestMatchBody:
    def test_single_atom(self):
        db = Database.from_facts({"A": [(1, 2), (3, 4)]})
        got = list(match_body(db, literals(Atom("A", (x, y)))))
        assert len(got) == 2

    def test_join_on_shared_variable(self):
        db = Database.from_facts({"A": [(1, 2), (2, 3)]})
        got = list(match_body(db, literals(Atom("A", (x, y)), Atom("A", (y, z)))))
        assert len(got) == 1
        assert got[0][x] == Constant(1) and got[0][z] == Constant(3)

    def test_constant_selection(self):
        db = Database.from_facts({"A": [(1, 2), (3, 4)]})
        got = list(match_body(db, literals(Atom.of("A", 3, y))))
        assert got == [{y: Constant(4)}]

    def test_repeated_variable_in_atom(self):
        db = Database.from_facts({"A": [(1, 1), (1, 2)]})
        got = list(match_body(db, literals(Atom("A", (x, x)))))
        assert got == [{x: Constant(1)}]

    def test_initial_bindings_respected(self):
        db = Database.from_facts({"A": [(1, 2), (3, 4)]})
        got = list(
            match_body(db, literals(Atom("A", (x, y))), initial={x: Constant(3)})
        )
        assert got == [{x: Constant(3), y: Constant(4)}]

    def test_negated_literal_filters(self):
        db = Database.from_facts({"A": [(1,), (2,)], "B": [(2,)]})
        body = [Literal(Atom("A", (x,))), Literal(Atom("B", (x,)), positive=False)]
        got = list(match_body(db, body))
        assert got == [{x: Constant(1)}]

    def test_empty_relation_no_solutions(self):
        db = Database()
        assert list(match_body(db, literals(Atom("A", (x,))))) == []

    def test_source_override(self):
        full = Database.from_facts({"A": [(1, 2), (2, 3)]})
        delta = Database.from_facts({"A": [(2, 3)]})
        body = literals(Atom("A", (x, y)), Atom("A", (y, z)))
        # Force position 0 to the delta: only the (2,3)-(3,?) join, which
        # fails, so only bindings where the *first* atom is the delta fact.
        got = list(match_body(full, body, source_for={0: delta}, order=[0, 1]))
        assert got == []
        got = list(match_body(full, body, source_for={1: delta}, order=[0, 1]))
        assert len(got) == 1

    def test_yielded_dicts_are_fresh(self):
        db = Database.from_facts({"A": [(1,), (2,)]})
        got = list(match_body(db, literals(Atom("A", (x,)))))
        assert got[0] is not got[1]

    def test_stats_counts_subgoals(self):
        db = Database.from_facts({"A": [(1, 2)]})
        stats = EvaluationStats()
        list(match_body(db, literals(Atom("A", (x, y))), stats=stats))
        assert stats.subgoal_attempts >= 1


class TestFireRule:
    def test_derives_heads(self):
        db = Database.from_facts({"A": [(1, 2), (2, 3)]})
        rule = parse_rule("G(x, z) :- A(x, y), A(y, z).")
        derived = fire_rule(db, rule.head, rule.body)
        assert derived == {Atom.of("G", 1, 3)}

    def test_duplicates_collapse(self):
        db = Database.from_facts({"A": [(1, 2), (1, 3)]})
        rule = parse_rule("P(x) :- A(x, y).")
        derived = fire_rule(db, rule.head, rule.body)
        assert derived == {Atom.of("P", 1)}

    def test_ground_fact_rule(self):
        rule = parse_rule("A(1, 2).")
        derived = fire_rule(Database(), rule.head, rule.body)
        assert derived == {Atom.of("A", 1, 2)}

    def test_firings_counted(self):
        db = Database.from_facts({"A": [(1, 2), (1, 3)]})
        rule = parse_rule("P(x) :- A(x, y).")
        stats = EvaluationStats()
        fire_rule(db, rule.head, rule.body, stats=stats)
        assert stats.rule_firings == 2
