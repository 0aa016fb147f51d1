"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from repro import Database, evaluate, parse_program
from repro.core.chase import chase
from repro.core.containment import (
    rule_uniformly_contained_in,
    uniformly_contains,
    uniformly_equivalent,
)
from repro.core.cq import find_homomorphism
from repro.core.minimize import minimize_program, scan_redundancy
from repro.core.tgds import Tgd, satisfies_all
from repro.engine import (
    apply_once,
    evaluate_with_provenance,
    naive_fixpoint,
    seminaive_fixpoint,
)
from repro.lang import Atom, Program, Rule, Literal
from repro.lang.freeze import freeze_rule
from repro.lang.substitution import Substitution, match_atom, unify_atoms
from repro.lang.terms import Constant, Variable, term_sort_key
from repro.testing import (
    fire_rule,
    match_body,
    random_database,
    reference_fixpoint,
    reference_minimize_program,
    reference_scan_redundancy,
)
from repro.workloads import random_positive_program, wide_rule

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

variables_st = st.sampled_from([Variable(n) for n in "xyzuvw"])
constants_st = st.integers(min_value=0, max_value=5).map(Constant)
terms_st = st.one_of(variables_st, constants_st)
predicates_st = st.sampled_from(["A", "B", "G"])


@st.composite
def atoms(draw, arity=st.integers(min_value=1, max_value=3)):
    pred = draw(predicates_st)
    n = draw(arity)
    return Atom(pred, tuple(draw(terms_st) for _ in range(n)))


@st.composite
def ground_atoms(draw):
    pred = draw(predicates_st)
    n = draw(st.integers(min_value=1, max_value=2))
    return Atom(pred + str(n), tuple(draw(constants_st) for _ in range(n)))


@st.composite
def substitutions(draw):
    pairs = draw(
        st.dictionaries(variables_st, constants_st, min_size=0, max_size=4)
    )
    return Substitution(pairs)


# ---------------------------------------------------------------------------
# Substitution algebra
# ---------------------------------------------------------------------------


class TestSubstitutionLaws:
    @given(atoms(), substitutions())
    def test_apply_is_idempotent_for_ground_targets(self, atom, subst):
        # Ground substitutions: applying twice equals applying once.
        once = subst.apply_atom(atom)
        assert subst.apply_atom(once) == once

    @given(atoms(), substitutions(), substitutions())
    def test_compose_law(self, atom, s1, s2):
        composed = s1.compose(s2)
        assert composed.apply_atom(atom) == s2.apply_atom(s1.apply_atom(atom))

    @given(atoms(), substitutions())
    def test_empty_is_identity(self, atom, subst):
        empty = Substitution.empty()
        assert empty.compose(subst).apply_atom(atom) == subst.apply_atom(atom)
        assert subst.compose(empty).apply_atom(atom) == subst.apply_atom(atom)

    @given(atoms(), ground_atoms())
    def test_match_produces_matching_substitution(self, pattern, fact):
        result = match_atom(pattern, fact)
        if result is not None:
            assert result.apply_atom(pattern) == fact

    @given(atoms(), atoms())
    def test_unify_produces_unifier(self, left, right):
        result = unify_atoms(left, right)
        if result is not None:
            assert result.apply_atom(left) == result.apply_atom(right)

    @given(atoms())
    def test_unify_reflexive(self, atom):
        assert unify_atoms(atom, atom) is not None


# ---------------------------------------------------------------------------
# Engine agreement on random programs
# ---------------------------------------------------------------------------


class TestEngineAgreement:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_naive_equals_seminaive(self, seed):
        rng = random.Random(seed)
        program = random_positive_program(
            rules=rng.randint(1, 5),
            max_body=3,
            predicates=2,
            variables_per_rule=4,
            seed=seed,
        )
        db = Database()
        for _ in range(rng.randint(0, 12)):
            pred = f"E{rng.randrange(2)}" if rng.random() < 0.7 else f"G{rng.randrange(2)}"
            db.add_fact(pred, rng.randrange(4), rng.randrange(4))
        assert (
            naive_fixpoint(program, db).database
            == seminaive_fixpoint(program, db).database
        )
        # The callers that left the interpreted matcher for kernels.
        for db in (db, random_database(seed)):
            assert apply_once(program, db) == {
                atom
                for rule in program.rules
                for atom in fire_rule(db, rule.head, rule.body)
            }
            provenance = evaluate_with_provenance(program, db)
            assert provenance.database == reference_fixpoint(program, db)
            for justification in provenance.justifications.values():
                assert all(p in provenance.database for p in justification.premises)
            for tgd in _KERNEL_TGDS:
                expected = _reference_violations(tgd, db)
                got = list(tgd.violations(db))
                assert set(got) == expected
                assert got == sorted(got, key=_theta_key)
                for bindings in match_body(db, [Literal(a) for a in tgd.lhs]):
                    theta = Substitution(
                        {v: bindings[v] for v in tgd.universal_variables}
                    )
                    assert tgd.exhibits_violation(db, theta) == (theta in expected)
        for source in program.rules:
            for target in program.rules:
                if source.head.predicate == target.head.predicate:
                    found = find_homomorphism(source, target)
                    assert (found is not None) == _reference_homomorphism(
                        source, target
                    )
                    if found is not None:
                        frozen = freeze_rule(target)
                        assert found.apply_atom(source.head) == frozen.head
                        assert set(map(found.apply_atom, source.body_atoms())) <= set(
                            frozen.body
                        )

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_monotonicity(self, seed):
        # Datalog is monotone: more input facts, never fewer outputs.
        rng = random.Random(seed)
        program = random_positive_program(
            rules=3, max_body=2, predicates=2, variables_per_rule=3, seed=seed
        )
        small = Database()
        for _ in range(5):
            small.add_fact(f"E{rng.randrange(2)}", rng.randrange(3), rng.randrange(3))
        big = small.copy()
        big.add_fact("E0", rng.randrange(3), rng.randrange(3))
        out_small = evaluate(program, small).database
        out_big = evaluate(program, big).database
        assert out_small.issubset(out_big)


_KERNEL_TGDS = [
    Tgd.parse(source)
    for source in (
        "E0(x, y) -> E1(y, z)",
        "E0(x, y), E0(y, z) -> E1(x, z)",
        "E1(x, x) -> E0(x, w) & E1(w, x)",
        "E0(x, y), E1(y, x) -> E0(y, w) & E0(w, w)",
    )
]


def _theta_key(theta: Substitution) -> tuple:
    return tuple(
        term_sort_key(theta[v]) for v in sorted(theta, key=lambda v: v.name)
    )


def _reference_violations(tgd: Tgd, db: Database) -> set[Substitution]:
    """Tgd violations by the interpreted matcher."""
    out = set()
    rhs = [Literal(a) for a in tgd.rhs]
    for bindings in match_body(db, [Literal(a) for a in tgd.lhs]):
        theta = {v: bindings[v] for v in tgd.universal_variables}
        if next(match_body(db, rhs, initial=theta), None) is None:
            out.add(Substitution(theta))
    return out


def _reference_homomorphism(source: Rule, target: Rule) -> bool:
    """Is there a homomorphism from *source* to *target*, by the
    interpreted matcher?"""
    frozen = freeze_rule(target)
    base = match_atom(source.head, frozen.head)
    if base is None:
        return False
    literals = [Literal(a) for a in source.body_atoms()]
    db = Database(frozen.body)
    return next(match_body(db, literals, initial=dict(base)), None) is not None


# ---------------------------------------------------------------------------
# Minimization invariants
# ---------------------------------------------------------------------------


class TestMinimizationInvariants:
    @given(
        core=st.integers(min_value=2, max_value=4),
        redundant=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_planted_redundancy_always_removed(self, core, redundant, seed):
        rule = wide_rule(core_atoms=core, redundant_atoms=redundant, seed=seed)
        program = Program.of(rule)
        result = minimize_program(program)
        assert len(result.atom_removals) == redundant
        assert uniformly_equivalent(program, result.program)

    @given(
        core=st.integers(min_value=2, max_value=4),
        redundant=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    @settings(max_examples=15, deadline=None)
    def test_idempotent(self, core, redundant, seed):
        rule = wide_rule(core_atoms=core, redundant_atoms=redundant, seed=seed)
        once = minimize_program(Program.of(rule)).program
        twice = minimize_program(once).program
        assert once == twice

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_deleting_any_atom_uniformly_contains_original(self, seed):
        # For every rule r and deletable atom, r ⊑u r̂ trivially (the
        # direction the paper calls "trivially true").
        rule = wide_rule(core_atoms=3, redundant_atoms=2, seed=seed)
        program = Program.of(rule)
        for index in range(len(rule.body)):
            if not rule.can_drop_body_literal(index):
                continue
            slimmer = Program.of(rule.without_body_literal(index))
            assert uniformly_contains(container=slimmer, contained=program)


# ---------------------------------------------------------------------------
# One containment session per call = one fresh evaluation per test
# ---------------------------------------------------------------------------


def _shuffled_orders(seed: int):
    """Random but reproducible atom and rule consideration orders."""

    def atom_order(rule):
        return random.Random(f"{seed}:{rule}").sample(range(len(rule.body)), len(rule.body))

    def rule_order(program):
        return random.Random(seed).sample(program.rules, len(program.rules))

    return atom_order, rule_order


def _assert_session_matches_fresh(program, atom_order=None, rule_order=None):
    orders = {}
    if atom_order is not None:
        orders = {"atom_order": atom_order, "rule_order": rule_order}
    got = minimize_program(program, **orders)
    want = reference_minimize_program(program, **orders)
    assert str(got.program) == str(want.program)
    assert got.atom_removals == want.atom_removals
    assert got.rule_removals == want.rule_removals
    assert got.containment_tests == want.containment_tests

    scan, reference = scan_redundancy(program), reference_scan_redundancy(program)
    assert scan.redundant_atoms == reference.redundant_atoms
    assert scan.redundant_rules == reference.redundant_rules
    assert scan.containment_tests == reference.containment_tests


class TestSessionVerdictsEqualFreshVerdicts:
    @given(
        seed=st.integers(min_value=0, max_value=100_000),
        rules=st.integers(min_value=1, max_value=5),
        max_body=st.integers(min_value=1, max_value=4),
        variables=st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_programs_and_orders(self, seed, rules, max_body, variables):
        program = random_positive_program(
            rules=rules,
            max_body=max_body,
            predicates=2,
            variables_per_rule=variables,
            seed=seed,
        )
        _assert_session_matches_fresh(program, *_shuffled_orders(seed))

    def test_rules_equal_up_to_renaming(self):
        program = parse_program(
            """
            G(x, z) :- A(x, y), A(y, z), A(x, w).
            G(u, v) :- A(u, t), A(t, v), A(u, s).
            G(x, z) :- G(x, y), G(y, z).
            """
        )
        _assert_session_matches_fresh(program)
        _assert_session_matches_fresh(program, *_shuffled_orders(7))

    def test_duplicate_rules_witness_each_other(self):
        program = parse_program(
            """
            G(x, z) :- A(x, z).
            G(u, v) :- A(u, v).
            """
        )
        first, second = program.rules
        scan = scan_redundancy(program)
        assert scan.redundant_rules == [first, second]
        assert rule_uniformly_contained_in(first, Program.of(second))
        assert rule_uniformly_contained_in(second, Program.of(first))
        assert len(minimize_program(program).program) == 1
        _assert_session_matches_fresh(program)


# ---------------------------------------------------------------------------
# Chase invariants
# ---------------------------------------------------------------------------


class TestChaseInvariants:
    @given(
        facts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_saturated_chase_satisfies_tgds(self, facts):
        tgd = Tgd.parse("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": facts})
        outcome = chase(db, None, [tgd])
        assert outcome.saturated
        assert satisfies_all(outcome.database, [tgd])

    @given(
        facts=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=3),
            ),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_chase_output_contains_input(self, facts):
        program = parse_program("G(x, z) :- A(x, z).")
        db = Database.from_facts({"A": facts})
        outcome = chase(db, program, [])
        assert db.issubset(outcome.database)


# ---------------------------------------------------------------------------
# Containment is a preorder
# ---------------------------------------------------------------------------


class TestContainmentPreorder:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_reflexive_on_random_programs(self, seed):
        program = random_positive_program(
            rules=3, max_body=2, predicates=2, variables_per_rule=3, seed=seed
        )
        assert uniformly_contains(program, program)

    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=10, deadline=None)
    def test_rule_subset_contained(self, seed):
        program = random_positive_program(
            rules=4, max_body=2, predicates=2, variables_per_rule=3, seed=seed
        )
        subset = Program(program.rules[:2])
        assert uniformly_contains(container=program, contained=subset)
