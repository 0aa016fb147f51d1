"""Unit tests for stratified negation."""

from __future__ import annotations

import random

import pytest

from repro import Database, evaluate, evaluate_stratified, parse_program
from repro.engine.stratified import stratify
from repro.errors import StratificationError
from repro.lang import Atom
from repro.resilience import EvaluationStatus, ResourceGovernor
from repro.testing import match_body

from .legacy import on_backend


class TestStratify:
    def test_positive_program_single_stratum(self, tc):
        strata = stratify(tc)
        assert strata.depth == 1
        assert strata.stratum_of["G"] == 0

    def test_negation_pushes_up(self):
        program = parse_program(
            """
            R(x, y) :- E(x, y).
            Un(x) :- Node(x), not R(x, x).
            """
        )
        strata = stratify(program)
        assert strata.stratum_of["R"] == 0
        assert strata.stratum_of["Un"] == 1
        assert strata.depth == 2

    def test_three_levels(self):
        program = parse_program(
            """
            P(x) :- A(x).
            Q(x) :- A(x), not P(x).
            S(x) :- A(x), not Q(x).
            """
        )
        strata = stratify(program)
        assert strata.stratum_of == {"P": 0, "Q": 1, "S": 2}

    def test_negative_cycle_rejected(self):
        program = parse_program(
            """
            P(x) :- A(x), not Q(x).
            Q(x) :- A(x), not P(x).
            """
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_negation_into_recursion_rejected(self):
        program = parse_program(
            """
            P(x) :- A(x, y), P(y), not P(x).
            """
        )
        with pytest.raises(StratificationError):
            stratify(program)

    def test_empty_program(self):
        strata = stratify(parse_program(""))
        assert strata.depth == 0


class TestEvaluateStratified:
    def test_matches_positive_engine_on_positive_program(self, tc, ex2_edb):
        stratified = evaluate_stratified(tc, ex2_edb).database
        positive = evaluate(tc, ex2_edb).database
        assert stratified == positive

    def test_unreachable_pairs(self):
        program = parse_program(
            """
            R(x, y) :- E(x, y).
            R(x, y) :- E(x, z), R(z, y).
            Unreach(x, y) :- Node(x), Node(y), not R(x, y).
            """
        )
        db = Database.from_facts(
            {"E": [(1, 2), (2, 3)], "Node": [(1,), (2,), (3,)]}
        )
        out = evaluate_stratified(program, db).database
        assert out.count("R") == 3
        assert out.count("Unreach") == 6
        assert Atom.of("Unreach", 3, 1) in out
        assert Atom.of("Unreach", 1, 3) not in out

    def test_complement_via_negation(self):
        program = parse_program(
            """
            Big(x) :- Item(x, y), Threshold(y).
            Small(x) :- Name(x), not Big(x).
            """
        )
        db = Database.from_facts(
            {
                "Item": [("a", 10), ("b", 1)],
                "Threshold": [(10,)],
                "Name": [("a",), ("b",), ("c",)],
            }
        )
        out = evaluate_stratified(program, db).database
        expected = Database.from_facts({"Small": [("b",), ("c",)]})
        assert out.tuples("Small") == expected.tuples("Small")

    def test_recursion_above_negation(self):
        # Compute nodes not in the EDB relation Blocked, then closure
        # over them only.
        program = parse_program(
            """
            Ok(x) :- Node(x), not Blocked(x).
            R(x, y) :- E(x, y), Ok(x), Ok(y).
            R(x, y) :- R(x, z), R(z, y).
            """
        )
        db = Database.from_facts(
            {
                "E": [(1, 2), (2, 3), (3, 4)],
                "Node": [(1,), (2,), (3,), (4,)],
                "Blocked": [(3,)],
            }
        )
        out = evaluate_stratified(program, db).database
        assert Atom.of("R", 1, 3) not in out
        assert Atom.of("R", 1, 2) in out

    def test_input_not_mutated(self):
        program = parse_program("P(x) :- A(x), not B(x).")
        db = Database.from_facts({"A": [(1,)], "B": []})
        before = len(db)
        evaluate_stratified(program, db)
        assert len(db) == before


# ---------------------------------------------------------------------------
# Differential: stratified == the match_body reference, also on an EDB
# read from a legacy columnar document, and under a governor.  The engine fires negated rules through compiled
# kernels; the reference below never touches a kernel.
# ---------------------------------------------------------------------------

#: Each program exercises one shape of negated rule the kernels compile.
NEGATION_PROGRAMS = {
    "complement-of-closure": """
        R(x, y) :- E(x, y).
        R(x, y) :- E(x, z), R(z, y).
        Unreach(x, y) :- Node(x), Node(y), not R(x, y).
    """,
    # Constants inside negated literals, three strata.
    "three-strata-constants": """
        P(x) :- Node(x), E(x, 1).
        Q(x) :- Node(x), not P(x), not E(x, 2).
        S(x) :- Node(x), not Q(x), not E(0, x).
    """,
    # The negated rule is recursive through its own head, so the stratum
    # loop has to re-fire it until nothing is new.
    "negated-rule-recursive": """
        Bad(x) :- Mark(x).
        T(x, y) :- E(x, y).
        T(x, z) :- T(x, y), E(y, z), not Bad(z).
    """,
    # Positive recursion above a negated stratum.
    "recursion-above-negation": """
        Ok(x) :- Node(x), not Mark(x).
        R(x, y) :- E(x, y), Ok(x), Ok(y).
        R(x, y) :- R(x, z), R(z, y).
    """,
    # Repeated variable in the negated atom, constant in the head.
    "repeated-variable": """
        Loop(x) :- E(x, x).
        NoLoop(x, 0) :- Node(x), not E(x, x).
        Twice(x) :- NoLoop(x, 0), not Loop(x), not Mark(x).
    """,
}

#: ``columnar``: the EDB is read back from its legacy columnar document.
BACKENDS = ("rows", "columnar")


def negation_edb(seed: int, backend: str, nodes: int = 7) -> Database:
    rng = random.Random(seed)
    db = Database()
    for node in range(nodes):
        db.add_fact("Node", node)
        if rng.random() < 0.3:
            db.add_fact("Mark", node)
    for _ in range(2 * nodes):
        db.add_fact("E", rng.randrange(nodes), rng.randrange(nodes))
    return on_backend(db, backend)


def reference_perfect_model(program, db: Database) -> frozenset[Atom]:
    """Stratum by stratum, naive iteration over ``match_body`` on rows."""
    current = Database(db.atoms())
    for layer in stratify(program).layers:
        rules = [r for r in program.rules if r.head.predicate in layer]
        changed = True
        while changed:
            changed = False
            for rule in rules:
                for bindings in list(match_body(current, rule.body)):
                    if current.add(rule.head.substitute(bindings)):
                        changed = True
    return frozenset(current.atoms())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(NEGATION_PROGRAMS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stratified_matches_match_body_reference(name, backend, seed):
    program = parse_program(NEGATION_PROGRAMS[name])
    result = evaluate_stratified(program, negation_edb(seed, backend))
    assert result.status is EvaluationStatus.COMPLETE
    expected = reference_perfect_model(program, negation_edb(seed, "rows"))
    assert frozenset(result.database.atoms()) == expected


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", sorted(NEGATION_PROGRAMS))
@pytest.mark.parametrize(
    "limits", [{"max_facts": 1}, {"max_facts": 6}, {"max_rounds": 1}, {"deadline_s": 0.0}]
)
def test_governed_partial_is_a_subset_of_the_perfect_model(name, backend, limits):
    program = parse_program(NEGATION_PROGRAMS[name])
    edb = negation_edb(0, backend)
    full = frozenset(evaluate_stratified(program, edb).database.atoms())
    governed = evaluate_stratified(program, edb, governor=ResourceGovernor(**limits))
    got = frozenset(governed.database.atoms())
    assert got <= full
    if governed.status is EvaluationStatus.PARTIAL:
        assert governed.degradation is not None
    else:
        assert got == full
    if limits == {"max_facts": 1}:
        assert len(full) - len(edb) > 1
        assert governed.status is EvaluationStatus.PARTIAL
