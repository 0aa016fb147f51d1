"""Unit tests for Section XI candidate-tgd discovery."""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from repro import paper, parse_rule, parse_tgd
from repro.core.heuristics import TgdCandidate, candidate_tgds
from repro.core.tgds import Tgd
from repro.lang.atoms import Atom, atoms_variables
from repro.lang.rules import Rule
from repro.lang.terms import Constant, Variable


def all_candidates(rule, **kwargs):
    return list(candidate_tgds(rule, **kwargs))


class TestPaperCandidates:
    def test_example18_tgd_found(self):
        # Rule: G(x,z) :- G(x,y), G(y,z), A(y,w); wanted: G(y,z) -> A(y,w).
        rule = paper.EX11_P1.rules[1]
        wanted = parse_tgd("G(y, z) -> A(y, w)")
        assert wanted in [c.tgd for c in all_candidates(rule)]

    def test_example19_tgd_found(self):
        rule = paper.EX19_P1.rules[1]
        wanted = parse_tgd("G(y, z) -> G(y, w) & C(w)")
        candidates = all_candidates(rule)
        assert wanted in [c.tgd for c in candidates]

    def test_example19_positions(self):
        rule = paper.EX19_P1.rules[1]
        wanted = parse_tgd("G(y, z) -> G(y, w) & C(w)")
        (hit,) = [c for c in all_candidates(rule) if c.tgd == wanted]
        # Body: A(x,y), G(y,z), G(y,w), C(w) -- deletes positions 2, 3.
        assert hit.rhs_body_positions == (2, 3)

    def test_larger_rhs_first(self):
        rule = paper.EX19_P1.rules[1]
        sizes = [len(c.rhs_body_positions) for c in all_candidates(rule)]
        assert sizes == sorted(sizes, reverse=True)


class TestProperties:
    def test_property1_lhs_predicate_matches_head(self):
        rule = paper.EX11_P1.rules[1]
        for candidate in all_candidates(rule):
            assert all(a.predicate == "G" for a in candidate.tgd.lhs)

    def test_property2_existential_vars_closed(self):
        rule = parse_rule("G(x, z) :- G(x, y), A(y, w), B(w, z).")
        for candidate in all_candidates(rule):
            existential = candidate.tgd.existential_variables
            body = rule.body_atoms()
            for var in existential:
                holders = {i for i, a in enumerate(body) if var in a.variable_set()}
                assert holders <= set(candidate.rhs_body_positions)

    def test_property3_existential_vars_not_in_head(self):
        rule = paper.EX11_P1.rules[1]
        head_vars = rule.head.variable_set()
        for candidate in all_candidates(rule):
            assert not (candidate.tgd.existential_variables & head_vars)

    def test_no_candidates_without_head_predicate_in_body(self):
        rule = parse_rule("G(x, z) :- A(x, z), B(z).")
        assert all_candidates(rule) == []

    def test_bounds_respected(self):
        rule = paper.EX19_P1.rules[1]
        for candidate in all_candidates(rule, max_lhs_atoms=1, max_rhs_atoms=2):
            assert len(candidate.tgd.lhs) <= 1
            assert len(candidate.tgd.rhs) <= 2

    def test_deterministic(self):
        rule = paper.EX19_P1.rules[1]
        assert [str(c.tgd) for c in all_candidates(rule)] == [
            str(c.tgd) for c in all_candidates(rule)
        ]

    def test_no_duplicates(self):
        rule = parse_rule("G(x, z) :- G(x, y), G(y, z), A(y, w), A(y, v).")
        rendered = [str(c.tgd) for c in all_candidates(rule)]
        assert len(rendered) == len(set(rendered))

    def test_candidate_str(self):
        rule = paper.EX11_P1.rules[1]
        candidate = all_candidates(rule)[0]
        assert "deletes body positions" in str(candidate)


# ---------------------------------------------------------------------------
# The eager enumeration candidate_tgds replaced: every candidate built,
# rendered and sorted before the first is yielded.  Kept verbatim as the
# reference for order and contents.
# ---------------------------------------------------------------------------


def reference_candidate_tgds(rule, max_lhs_atoms=2, max_rhs_atoms=3):
    body = rule.body_atoms()
    head_pred = rule.head.predicate
    head_vars = rule.head.variable_set()

    lhs_pool = [i for i, atom in enumerate(body) if atom.predicate == head_pred]
    if not lhs_pool:
        return []

    positions_of: dict = {}
    for i, atom in enumerate(body):
        for var in atom.variable_set():
            positions_of.setdefault(var, set()).add(i)

    seen = set()
    candidates = []
    for lhs_size in range(1, min(max_lhs_atoms, len(lhs_pool)) + 1):
        for lhs_positions in itertools.combinations(lhs_pool, lhs_size):
            lhs_atoms = tuple(body[i] for i in lhs_positions)
            lhs_vars = atoms_variables(lhs_atoms)
            rhs_pool = [i for i in range(len(body)) if i not in lhs_positions]
            max_rhs = min(max_rhs_atoms, len(rhs_pool))
            for rhs_size in range(1, max_rhs + 1):
                for rhs_positions in itertools.combinations(rhs_pool, rhs_size):
                    rhs_atoms = tuple(body[i] for i in rhs_positions)
                    if not _reference_properties_hold(
                        lhs_vars, rhs_atoms, rhs_positions, positions_of, head_vars
                    ):
                        continue
                    key = (lhs_atoms, rhs_atoms)
                    if key in seen:
                        continue
                    seen.add(key)
                    candidates.append(
                        TgdCandidate(Tgd(lhs_atoms, rhs_atoms), tuple(rhs_positions))
                    )
    candidates.sort(key=lambda c: (-len(c.rhs_body_positions), str(c.tgd)))
    return candidates


def _reference_properties_hold(lhs_vars, rhs_atoms, rhs_positions, positions_of, head_vars):
    rhs_only_vars = atoms_variables(rhs_atoms) - lhs_vars
    rhs_set = set(rhs_positions)
    for var in rhs_only_vars:
        if var in head_vars:
            return False
        if not positions_of[var] <= rhs_set:
            return False
    return True


_VARS = [Variable(n) for n in "xyzwuv"]
_heuristic_terms = st.one_of(
    st.sampled_from(_VARS), st.integers(min_value=0, max_value=2).map(Constant)
)
_heuristic_atoms = st.builds(
    lambda pred, args: Atom(pred, tuple(args[: {"G": 2, "A": 2, "C": 1}[pred]])),
    st.sampled_from(["G", "A", "C"]),
    st.lists(_heuristic_terms, min_size=2, max_size=2),
)


@st.composite
def heuristic_rules(draw):
    """Positive rules of up to 8 body atoms, repeats included, with a
    G head whose variables the body binds."""
    body = draw(st.lists(_heuristic_atoms, min_size=1, max_size=8))
    if draw(st.booleans()):
        # Repeated atoms: the candidates must collapse copies exactly
        # as the reference does.
        body = body + draw(st.lists(st.sampled_from(body), max_size=2))
        body = body[:8]
    bound = sorted(
        {t for atom in body for t in atom.args if isinstance(t, Variable)},
        key=lambda v: v.name,
    )
    pool = bound or [Constant(0)]
    head = Atom("G", (draw(st.sampled_from(pool)), draw(st.sampled_from(pool))))
    return Rule(head, body)


def _rendered(candidates):
    return [(str(c.tgd), c.rhs_body_positions) for c in candidates]


class TestSameOrderAsEagerEnumeration:
    @given(heuristic_rules())
    @settings(max_examples=150, deadline=None)
    def test_default_bounds(self, rule):
        assert _rendered(candidate_tgds(rule)) == _rendered(
            reference_candidate_tgds(rule)
        )

    @given(
        heuristic_rules(),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounded_variants(self, rule, max_lhs, max_rhs):
        got = candidate_tgds(rule, max_lhs_atoms=max_lhs, max_rhs_atoms=max_rhs)
        want = reference_candidate_tgds(
            rule, max_lhs_atoms=max_lhs, max_rhs_atoms=max_rhs
        )
        assert _rendered(got) == _rendered(want)

    def test_repeated_atoms(self):
        rule = parse_rule("G(x, z) :- G(x, y), G(x, y), A(y, w), A(y, w), G(y, z).")
        assert _rendered(candidate_tgds(rule)) == _rendered(
            reference_candidate_tgds(rule)
        )

    def test_paper_rules(self):
        for rule in (paper.EX11_P1.rules[1], paper.EX19_P1.rules[1]):
            assert _rendered(candidate_tgds(rule)) == _rendered(
                reference_candidate_tgds(rule)
            )
