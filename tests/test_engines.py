"""Unit tests for the naive and semi-naive engines and Pⁿ/P operators."""

from __future__ import annotations

import pytest

from repro import Database, apply_once, evaluate, parse_program
from repro.engine import naive_fixpoint, seminaive_fixpoint
from repro.errors import UnsafeRuleError
from repro.lang import Atom
from repro.workloads import chain, cycle, random_graph


class TestEvaluate:
    def test_example2_output(self, tc, ex2_edb):
        # Paper, Section III: the quoted 9-atom output DB.
        out = evaluate(tc, ex2_edb).database
        expected = Database.from_facts(
            {
                "A": [(1, 2), (1, 4), (4, 1)],
                "G": [(1, 2), (1, 4), (4, 1), (1, 1), (4, 4), (4, 2)],
            }
        )
        assert out == expected

    def test_input_not_mutated(self, tc, ex2_edb):
        before = len(ex2_edb)
        evaluate(tc, ex2_edb)
        assert len(ex2_edb) == before

    def test_output_contains_input(self, tc, ex2_edb):
        out = evaluate(tc, ex2_edb).database
        assert ex2_edb.issubset(out)

    def test_initial_idb_facts_participate(self, tc):
        # Example 3: G(4,1) given as input instead of A(4,1).
        db = Database.from_facts({"A": [(1, 2), (1, 4)], "G": [(4, 1)]})
        out = evaluate(tc, db).database
        assert Atom.of("G", 4, 2) in out
        assert Atom.of("A", 4, 1) not in out

    def test_fact_rules_fire(self):
        program = parse_program(
            """
            A(1, 2).
            A(2, 3).
            G(x, z) :- A(x, z).
            G(x, z) :- G(x, y), G(y, z).
            """
        )
        out = evaluate(program, Database()).database
        assert Atom.of("G", 1, 3) in out

    def test_empty_program(self):
        db = Database.from_facts({"A": [(1, 2)]})
        out = evaluate(parse_program(""), db).database
        assert out == db

    def test_unknown_engine(self, tc, ex2_edb):
        with pytest.raises(ValueError):
            evaluate(tc, ex2_edb, engine="quantum")

    def test_result_unpacks(self, tc, ex2_edb):
        db, stats = evaluate(tc, ex2_edb)
        assert stats.iterations >= 1
        assert db.count("G") == 6


class TestEnginesAgree:
    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_chain(self, tc, n):
        edb = chain(n)
        assert naive_fixpoint(tc, edb).database == seminaive_fixpoint(tc, edb).database

    def test_cycle(self, tc):
        edb = cycle(6)
        assert naive_fixpoint(tc, edb).database == seminaive_fixpoint(tc, edb).database

    def test_random_graph(self, tc):
        edb = random_graph(15, 30, seed=3)
        assert naive_fixpoint(tc, edb).database == seminaive_fixpoint(tc, edb).database

    def test_multi_idb_program(self):
        program = parse_program(
            """
            T(x, y) :- E(x, y).
            T(x, y) :- T(x, z), E(z, y).
            S(x) :- T(x, x).
            """
        )
        edb = cycle(5, predicate="E")
        assert (
            naive_fixpoint(program, edb).database
            == seminaive_fixpoint(program, edb).database
        )

    def test_seminaive_does_less_work(self, tc):
        edb = chain(30)
        naive = naive_fixpoint(tc, edb)
        semi = seminaive_fixpoint(tc, edb)
        assert semi.stats.rule_firings < naive.stats.rule_firings


class TestNegativeProgramsRejected:
    def test_naive(self):
        program = parse_program("P(x) :- A(x), not B(x).")
        with pytest.raises(UnsafeRuleError):
            naive_fixpoint(program, Database())

    def test_seminaive(self):
        program = parse_program("P(x) :- A(x), not B(x).")
        with pytest.raises(UnsafeRuleError):
            seminaive_fixpoint(program, Database())


class TestApplyOnce:
    def test_example12(self, tc):
        # Paper, Example 12.
        db = Database.from_facts({"A": [(1, 2)], "G": [(2, 3), (3, 4)]})
        pn = apply_once(tc, db)
        assert pn == {Atom.of("G", 1, 2), Atom.of("G", 2, 4)}

    def test_does_not_include_input(self, tc):
        db = Database.from_facts({"A": [(1, 2)]})
        pn = apply_once(tc, db)
        assert Atom.of("A", 1, 2) not in pn

    def test_non_recursive_single_round(self, tc):
        # G(1,3) needs two rounds; Pⁿ must not derive it.
        db = Database.from_facts({"A": [(1, 2), (2, 3)]})
        pn = apply_once(tc, db)
        assert Atom.of("G", 1, 3) not in pn

    def test_empty_database(self, tc):
        assert apply_once(tc, Database()) == set()


def counters(result):
    s = result.stats
    return (s.iterations, s.rule_firings, s.subgoal_attempts, s.facts_derived, s.duplicates_avoided)


class TestExactCounters:
    """(iterations, rule_firings, subgoal_attempts, facts_derived,
    duplicates_avoided): every engine runs the one round loop, so these
    are exact and independent of ``PYTHONHASHSEED``."""

    @pytest.mark.parametrize(
        "engine, expected",
        [
            ("seminaive", (9, 10700, 1655, 820, 1768)),
            # The delta switched off; new facts commit at round end.
            ("naive", (9, 30431, 2705, 820, 0)),
            # One stratum: the semi-naive run itself.
            ("stratified", (9, 10700, 1655, 820, 1768)),
        ],
    )
    def test_nonlinear_tc_on_a_40_edge_chain(self, tc, engine, expected):
        assert counters(evaluate(tc, chain(40), engine=engine)) == expected

    def test_stratified_two_strata(self):
        program = parse_program(
            """
            A(x) :- V(x), not B(x).
            B(x) :- W(x).
            R(x, y) :- A(x), E(x, y).
            R(x, z) :- R(x, y), E(y, z).
            """
        )
        edb = Database()
        for node in range(10):
            edb.add_fact("V", node)
            edb.add_fact("E", node, node + 1)
        for node in range(0, 10, 3):
            edb.add_fact("W", node)
        assert counters(evaluate(program, edb, engine="stratified")) == (15, 43, 61, 43, 0)


class TestStats:
    def test_facts_derived_counts_new_only(self, tc):
        edb = chain(5)
        result = evaluate(tc, edb)
        # Closure of a 5-chain: 5+4+3+2+1 = 15 G facts, none pre-existing.
        assert result.stats.facts_derived == 15

    def test_elapsed_positive(self, tc):
        result = evaluate(tc, chain(5))
        assert result.stats.elapsed > 0

    def test_summary_format(self):
        from repro.engine import EvaluationStats

        stats = EvaluationStats(iterations=2)
        assert "iterations=2" in stats.summary()
