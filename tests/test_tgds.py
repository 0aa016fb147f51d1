"""Unit tests for tuple-generating dependencies (Section VIII)."""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import Database, paper, parse_program, parse_tgd
from repro.core.tgds import Tgd, first_violation, satisfies_all
from repro.engine import evaluate
from repro.errors import TgdError
from repro.lang import Atom, Variable
from repro.lang.terms import Null, NullFactory


class TestStructure:
    def test_universal_and_existential_variables(self):
        tgd = parse_tgd("G(x, z) -> A(x, w)")
        assert {v.name for v in tgd.universal_variables} == {"x", "z"}
        assert {v.name for v in tgd.existential_variables} == {"w"}

    def test_full_tgd(self):
        tgd = parse_tgd("A(x, y, z), B(w, y, v) -> A(x, y, v) & T(w, y, z)")
        assert tgd.is_full

    def test_embedded_tgd(self):
        assert not parse_tgd("G(x, z) -> A(x, w)").is_full

    def test_empty_sides_rejected(self):
        with pytest.raises(TgdError):
            Tgd((), (Atom("A", (Variable("x"),)),))
        with pytest.raises(TgdError):
            Tgd((Atom("A", (Variable("x"),)),), ())

    def test_predicates(self):
        tgd = parse_tgd("G(y, z) -> G(y, w) & C(w)")
        assert tgd.predicates() == {"G", "C"}

    def test_parse_classmethod(self):
        assert Tgd.parse("G(x, z) -> A(x, w)") == paper.EX11_TGD

    def test_compiled_kernels_are_not_part_of_the_value(self):
        used, fresh = parse_tgd("G(x, z) -> A(x, w)"), parse_tgd("G(x, z) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2)], "A": [(3, 4)]})
        assert len(list(used.violations(db))) == 1
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        copy = pickle.loads(pickle.dumps(used))
        assert copy == used and list(copy.violations(db)) == list(used.violations(db))


class TestExample10AsRules:
    def test_full_tgd_as_rules(self):
        rules = paper.EX10_TGD.as_rules()
        assert set(rules) == set(paper.EX10_RULES)

    def test_embedded_tgd_rejected(self):
        with pytest.raises(TgdError):
            paper.EX11_TGD.as_rules()

    def test_rule_application_equals_tgd_chase(self):
        # Applying the full tgd to saturation produces the same DB as
        # evaluating its two rules.
        db = Database.from_facts({"A": [(1, 2, 3)], "B": [(4, 2, 5)]})
        via_rules = evaluate(parse_program(
            """
            A(x, y, v) :- A(x, y, z), B(w, y, v).
            T(w, y, z) :- A(x, y, z), B(w, y, v).
            """
        ), db).database

        chased = db.copy()
        nulls = NullFactory()
        while paper.EX10_TGD.apply_all_once(chased, nulls):
            pass
        assert chased == via_rules
        assert nulls.issued == 0  # full tgds never invent nulls


class TestExample9Satisfaction:
    def test_violated_tgd(self):
        # G(4,2) has no A(2,z) ∧ A(z,4) witness.
        assert not paper.EX9_TGD_VIOLATED.is_satisfied_by(paper.EX2_OUTPUT)

    def test_satisfied_tgd(self):
        assert paper.EX9_TGD_SATISFIED.is_satisfied_by(paper.EX2_OUTPUT)

    def test_violation_witness(self):
        violations = list(paper.EX9_TGD_VIOLATED.violations(paper.EX2_OUTPUT))
        assert violations
        rendered = {
            tuple(str(theta[v]) for v in sorted(theta, key=lambda v: v.name))
            for theta in violations
        }
        # The paper names (x=4, y=2) as a violating instantiation.
        assert ("4", "2") in rendered

    def test_violations_unique_per_instantiation(self):
        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2), (1, 3)]})
        # Two G facts share x=1; each (x, y) instantiation is one violation.
        assert len(list(tgd.violations(db))) == 2

    def test_empty_db_satisfies_everything(self):
        assert paper.EX9_TGD_VIOLATED.is_satisfied_by(Database())

    def test_satisfies_all_helper(self):
        assert satisfies_all(Database(), [paper.EX9_TGD_VIOLATED, paper.EX11_TGD])
        assert not satisfies_all(paper.EX2_OUTPUT, [paper.EX9_TGD_VIOLATED])

    def test_first_violation_helper(self):
        hit = first_violation(paper.EX2_OUTPUT, [paper.EX9_TGD_SATISFIED, paper.EX9_TGD_VIOLATED])
        assert hit is not None
        tgd, _theta = hit
        assert tgd == paper.EX9_TGD_VIOLATED


class TestApplication:
    def test_embedded_application_adds_nulls(self):
        # The paper's example: G(3, 2) with G(x,y) -> A(x,w) ∧ G(w,y).
        tgd = parse_tgd("G(x, y) -> A(x, w) & G(w, y)")
        db = Database.from_facts({"G": [(3, 2)]})
        nulls = NullFactory()
        added = tgd.apply_all_once(db, nulls)
        assert added == 2
        assert nulls.issued == 1
        (a_row,) = db.tuples("A")
        assert isinstance(a_row[1], Null)

    def test_no_application_when_satisfied(self):
        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2)], "A": [(1, 9)]})
        assert tgd.apply_all_once(db, NullFactory()) == 0

    def test_nulls_are_reused_as_witnesses(self):
        # After one repair, the same null satisfies later checks: the
        # tgd is satisfied and no second null is created.
        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2)]})
        nulls = NullFactory()
        tgd.apply_all_once(db, nulls)
        assert tgd.is_satisfied_by(db)
        assert tgd.apply_all_once(db, nulls) == 0
        assert nulls.issued == 1

    def test_one_round_repairs_each_start_violation(self):
        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2), (3, 4)]})
        added = tgd.apply_all_once(db, NullFactory())
        assert added == 2
        assert db.count("A") == 2

    def test_repair_within_round_skips_satisfied(self):
        # Both violations share x=1; the first repair satisfies the second.
        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2), (1, 3)]})
        added = tgd.apply_all_once(db, NullFactory())
        assert added == 1

    def test_exhibits_violation_specific_instantiation(self):
        from repro.lang.substitution import Substitution
        from repro.lang.terms import Constant

        tgd = parse_tgd("G(x, y) -> A(x, w)")
        db = Database.from_facts({"G": [(1, 2)], "A": [(5, 5)]})
        x, y = Variable("x"), Variable("y")
        theta = Substitution({x: Constant(1), y: Constant(2)})
        assert tgd.exhibits_violation(db, theta)
        theta5 = Substitution({x: Constant(5), y: Constant(2)})
        assert not tgd.exhibits_violation(db, theta5)

    def test_repairs_in_term_order(self):
        # Triggers are repaired in term_sort_key order of θ over the
        # universal variables by name, so null labels follow the data.
        tgd = parse_tgd("E(x, y) -> F(y, z)")
        db = Database.from_facts({"E": [("c", "a"), ("a", "b"), ("b", "c")]})
        tgd.apply_all_once(db, NullFactory())
        labels = {row[0].value: row[1].ident for row in db.tuples("F")}
        assert labels == {"b": 1, "c": 2, "a": 3}


_CHASE_SCRIPT = """
from repro import Database, chase, parse_rule, parse_tgds
from repro.core.cq import find_homomorphism
from repro.core.tgds import first_violation
from repro.lang.atoms import Atom
from repro.lang.pretty import format_database

names = "abcdefg"
db = Database([Atom.of("E", a, b) for a, b in zip(names, names[1:] + names[:1])])
tgds = parse_tgds("E(x, y) -> F(y, z). F(y, z) -> H(z, w).")
print(format_database(chase(db, None, list(tgds)).database))

chain = Database([Atom.of("E", i, i + 1) for i in range(1, 8)])
_, theta = first_violation(chain, list(parse_tgds("E(x, y) -> F(y, z).")))
print("violation", sorted((v.name, str(t)) for v, t in theta.items()))
hom = find_homomorphism(
    parse_rule("Q(x) :- E(x, y), E(y, z)."),
    parse_rule("Q(a) :- E(a, b), E(b, c), E(a, d), E(d, e), E(b, f), E(a, g), E(g, h)."),
)
print("homomorphism", sorted((v.name, str(t)) for v, t in hom.items()))
"""


def test_chase_output_does_not_depend_on_hash_order():
    """Null labels and counts are the same whatever order sets iterate in:
    three processes with different string-hash seeds (and term
    addresses) print byte-identical databases.  The first violation and
    the homomorphism returned are the least ones, in every process."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", _CHASE_SCRIPT], env=env, capture_output=True, check=True
        )
        outputs.add(done.stdout)
    assert len(outputs) == 1
    (text,) = outputs
    assert len(set(re.findall(rb"@\d+", text))) == 14
    assert b"violation [('x', '1'), ('y', '2')]" in text
    assert b"homomorphism [('x', 'a#'), ('y', 'b#'), ('z', 'c#')]" in text
