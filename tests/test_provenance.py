"""Unit tests for why-provenance and proof trees."""

from __future__ import annotations

import pytest

from repro import Database, evaluate, parse_program
from repro.engine.provenance import (
    derivation_tree,
    evaluate_with_provenance,
    explain,
)
from repro.errors import UnsafeRuleError
from repro.lang import Atom
from repro.workloads import chain, random_graph


class TestEvaluation:
    def test_same_database_as_plain_evaluation(self, tc):
        edb = random_graph(10, 20, seed=6)
        plain = evaluate(tc, edb).database
        traced = evaluate_with_provenance(tc, edb).database
        assert plain == traced

    def test_every_fact_justified(self, tc):
        edb = chain(6)
        result = evaluate_with_provenance(tc, edb)
        for atom in result.database.atoms():
            assert atom in result.justifications

    def test_input_facts_marked_given(self, tc):
        edb = chain(3)
        result = evaluate_with_provenance(tc, edb)
        justification = result.justifications[Atom.of("A", 0, 1)]
        assert justification.is_input
        assert "given" in str(justification)

    def test_derived_fact_has_rule_and_premises(self, tc):
        result = evaluate_with_provenance(tc, chain(3))
        justification = result.justifications[Atom.of("G", 0, 2)]
        assert justification.rule is not None
        assert len(justification.premises) == len(justification.rule.body)

    def test_premises_are_established_facts(self, tc):
        result = evaluate_with_provenance(tc, chain(5))
        for justification in result.justifications.values():
            for premise in justification.premises:
                assert premise in result.database

    def test_least_premises_justify_a_fact(self, tc):
        # G(0, 9) has four derivations in one round; the recorded one
        # must not depend on the order the database yields rows.
        middle = (7, 5, 3, 1)
        edb = Database.from_facts({"A": [(0, m) for m in middle] + [(m, 9) for m in middle]})
        result = evaluate_with_provenance(tc, edb)
        justification = result.justifications[Atom.of("G", 0, 9)]
        assert justification.premises == (Atom.of("G", 0, 1), Atom.of("G", 1, 9))
        # Linear TC, T(1, 4) derived twice in one round.  This input once
        # raised KeyError on an interning storage backend.
        linear = parse_program("T(x, y) :- E(x, y). T(x, z) :- E(x, y), T(y, z).")
        edb = Database.from_facts({"E": [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]})
        result = evaluate_with_provenance(linear, edb)
        justification = result.justifications[Atom.of("T", 1, 4)]
        assert justification.premises == (Atom.of("E", 1, 2), Atom.of("T", 2, 4))

    def test_fact_rules_justified(self):
        program = parse_program(
            """
            A(1, 2).
            G(x, z) :- A(x, z).
            """
        )
        result = evaluate_with_provenance(program, Database())
        justification = result.justifications[Atom.of("A", 1, 2)]
        assert justification.rule is not None
        assert justification.premises == ()

    def test_negation_rejected(self):
        program = parse_program("P(x) :- A(x), not B(x).")
        with pytest.raises(UnsafeRuleError):
            evaluate_with_provenance(program, Database())


class TestProofTrees:
    def test_tree_grounds_out_in_inputs(self, tc):
        result = evaluate_with_provenance(tc, chain(4))
        tree = derivation_tree(result, Atom.of("G", 0, 3))

        def leaves(node):
            if node.is_leaf:
                yield node
            for child in node.children:
                yield from leaves(child)

        for leaf in leaves(tree):
            assert leaf.rule is None  # every leaf is a given fact
            assert leaf.fact.predicate == "A"

    def test_tree_is_finite_and_acyclic(self, tc):
        # A cycle in the data must not create an infinite proof.
        from repro.workloads import cycle

        result = evaluate_with_provenance(tc, cycle(4))
        tree = derivation_tree(result, Atom.of("G", 0, 0))
        assert tree.depth() < 20
        assert tree.size() < 200

    def test_depth_reflects_recursion(self, tc):
        result = evaluate_with_provenance(tc, chain(8))
        shallow = derivation_tree(result, Atom.of("G", 0, 1))
        deep = derivation_tree(result, Atom.of("G", 0, 8))
        assert shallow.depth() < deep.depth()

    def test_unknown_fact_raises(self, tc):
        result = evaluate_with_provenance(tc, chain(2))
        with pytest.raises(KeyError):
            derivation_tree(result, Atom.of("G", 5, 9))


class TestExplain:
    def test_mentions_rule_and_given(self, tc):
        result = evaluate_with_provenance(tc, chain(3))
        text = explain(result, Atom.of("G", 0, 2))
        assert "(given)" in text
        assert "by:" in text
        assert "G(0, 2)" in text

    def test_input_fact_explained_as_given(self, tc):
        result = evaluate_with_provenance(tc, chain(2))
        text = explain(result, Atom.of("A", 0, 1))
        assert text.strip().endswith("(given)")

    def test_indentation_reflects_structure(self, tc):
        result = evaluate_with_provenance(tc, chain(4))
        text = explain(result, Atom.of("G", 0, 3))
        lines = text.splitlines()
        assert lines[0].startswith("G(0, 3)")
        assert any(line.startswith("  ") for line in lines[1:])
