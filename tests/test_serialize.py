"""Unit tests for the JSON serialization layer."""

from __future__ import annotations

import json

import pytest

from repro import Database, parse_program, parse_rule
from repro.errors import ValidationError
from repro.lang.serialize import (
    atom_from_dict,
    atom_to_dict,
    database_from_json,
    database_to_json,
    program_from_dict,
    program_from_json,
    program_to_dict,
    program_to_json,
    rule_from_dict,
    rule_to_dict,
    term_from_dict,
    term_to_dict,
)
from repro.lang.terms import Constant, FrozenConstant, Null, Variable

from .legacy import HERE as LEGACY
from .legacy import columnar_document


class TestTerms:
    @pytest.mark.parametrize(
        "term",
        [Variable("x"), Constant(3), Constant("alice"), Null(7), FrozenConstant("y", 2)],
    )
    def test_roundtrip(self, term):
        assert term_from_dict(term_to_dict(term)) == term

    def test_int_str_distinction_survives(self):
        assert term_from_dict(term_to_dict(Constant(1))) == Constant(1)
        assert term_from_dict(term_to_dict(Constant("1"))) == Constant("1")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            term_from_dict({"weird": 1})

    def test_malformed_rejected(self):
        with pytest.raises(ValidationError):
            term_from_dict({"var": "x", "int": 1})


class TestRulesAndPrograms:
    def test_rule_roundtrip(self):
        rule = parse_rule("G(x, z) :- G(x, y), G(y, z), A(y, w).")
        assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_negated_literal_roundtrip(self):
        rule = parse_rule("P(x) :- A(x), not B(x).")
        assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_fact_roundtrip(self):
        rule = parse_rule("A(1, 'two').")
        assert rule_from_dict(rule_to_dict(rule)) == rule

    def test_program_roundtrip(self, tc):
        assert program_from_json(program_to_json(tc)) == tc

    def test_program_json_is_valid_json(self, tc):
        data = json.loads(program_to_json(tc, indent=2))
        assert data["format"] == 1
        assert len(data["rules"]) == 2

    def test_missing_head_rejected(self):
        with pytest.raises((ValidationError, KeyError)):
            rule_from_dict({"body": []})

    def test_wrong_format_version(self, tc):
        data = program_to_dict(tc)
        data["format"] = 99
        with pytest.raises(ValidationError):
            program_from_dict(data)

    def test_atom_missing_key(self):
        with pytest.raises(ValidationError):
            atom_from_dict({"pred": "A"})

    def test_atom_roundtrip(self):
        from repro.lang import parse_atom

        atom = parse_atom("Q(x, 3, 'z')")
        assert atom_from_dict(atom_to_dict(atom)) == atom


class TestDatabases:
    def test_roundtrip(self):
        db = Database.from_facts({"A": [(1, 2), (3, "x")], "B": [(5,)]})
        assert database_from_json(database_to_json(db)) == db

    def test_nulls_roundtrip(self):
        from repro.lang import Atom

        db = Database()
        db.add(Atom("A", (Constant(1), Null(3))))
        assert database_from_json(database_to_json(db)) == db

    def test_deterministic_output(self):
        db = Database.from_facts({"B": [(2,), (1,)], "A": [(9, 9)]})
        assert database_to_json(db) == database_to_json(db.copy())

    def test_empty_database(self):
        assert database_from_json(database_to_json(Database())) == Database()

    def test_evaluation_through_serialization(self, tc, ex2_edb):
        from repro import evaluate

        wire_program = program_from_json(program_to_json(tc))
        wire_db = database_from_json(database_to_json(ex2_edb))
        assert (
            evaluate(wire_program, wire_db).database
            == evaluate(tc, ex2_edb).database
        )


class TestColumnarDatabases:
    """Database format 2: the backend tag, and the legacy ``columnar``
    documents (a symbol list plus rows of indexes into it), which load
    onto the one store."""

    def columnar(self, facts) -> Database:
        return database_from_json(json.dumps(columnar_document(Database.from_facts(facts))))

    def test_backend_tag_round_trips(self):
        db = self.columnar({"A": [(1, "x"), (2, "y")], "B": [("z",)]})
        assert type(db) is Database
        assert db == Database.from_facts({"A": [(1, "x"), (2, "y")], "B": [("z",)]})
        # Writers emit the ``rows`` tag only.
        assert json.loads(database_to_json(db))["backend"] == "rows"
        assert database_from_json(database_to_json(db)) == db

    def test_document_shape(self):
        data = json.loads(database_to_json(Database.from_facts({"A": [(1, "x")]})))
        assert data == {
            "format": 2,
            "backend": "rows",
            "facts": {"A": [[{"int": 1}, {"str": "x"}]]},
        }

    def test_rows_document_tags_backend_too(self):
        data = json.loads(database_to_json(Database.from_facts({"A": [(1,)]})))
        assert data["format"] == 2
        assert data["backend"] == "rows"
        assert "symbols" not in data

    def test_document_independent_of_intern_order(self):
        """Two equal databases built in different insertion orders
        serialize identically (rows are written sorted)."""
        first = Database.from_facts({"A": [("p", "q"), ("r", "s")]})
        second = Database.from_facts({"A": [("r", "s"), ("p", "q")]})
        assert database_to_json(first) == database_to_json(second)

    def test_differential_rows_vs_columnar(self, tc):
        """The committed legacy columnar document and its rows twin load
        to equal databases, and evaluation on either agrees."""
        from repro import evaluate

        columnar = database_from_json((LEGACY / "database_columnar.json").read_text())
        rows = database_from_json((LEGACY / "database_rows.json").read_text())
        assert len(columnar) == 6
        assert columnar == rows
        assert evaluate(tc, columnar).database == evaluate(tc, rows).database

    def test_fixpoint_round_trips_on_columnar(self, tc, ex2_edb):
        from repro import evaluate

        result = evaluate(tc, database_from_json(json.dumps(columnar_document(ex2_edb))))
        assert result.database == evaluate(tc, ex2_edb).database
        wire = database_from_json(database_to_json(result.database))
        assert wire == result.database

    def test_nulls_and_ints_round_trip_columnar(self):
        from repro.lang import Atom

        db = Database([Atom("A", (Constant(1), Null(3))), Atom("A", (Constant("1"), Constant(2)))])
        wire = database_from_json(json.dumps(columnar_document(db)))
        assert wire.as_atom_set() == db.as_atom_set()

    def test_legacy_format1_document_still_reads(self):
        db = Database.from_facts({"A": [(1, 2)]})
        data = json.loads(database_to_json(db))
        legacy = {"format": 1, "facts": data["facts"]}
        wire = database_from_json(json.dumps(legacy))
        assert wire == db

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError):
            database_from_json(
                json.dumps({"format": 2, "backend": "quantum", "facts": {}})
            )

    def test_bad_symbol_index_rejected(self):
        # Past the end, negative (which Python indexing would accept),
        # and not an int at all.
        for bad in (5, -1, "0", 0.0, None):
            document = {
                "format": 2,
                "backend": "columnar",
                "symbols": [{"int": 1}],
                "facts": {"A": [[0, bad]]},
            }
            with pytest.raises(ValidationError):
                database_from_json(json.dumps(document))

    @pytest.mark.parametrize(
        "document",
        [
            {"format": 2, "backend": "columnar", "symbols": [5], "facts": {}},
            {"format": 2, "backend": "columnar", "symbols": [{"int": 1}], "facts": {"A": [7]}},
            {"format": 2, "backend": "columnar", "symbols": [{"int": 1}], "facts": [[0]]},
            {"format": 2, "backend": "columnar", "symbols": [{"var": "x"}], "facts": {"A": [[0]]}},
        ],
        ids=["symbol-not-a-term", "row-not-a-list", "facts-not-a-map", "variable-symbol"],
    )
    def test_malformed_legacy_document_rejected(self, document):
        with pytest.raises(ValidationError):
            database_from_json(json.dumps(document))
