"""CLI tests for the ``profile`` verb."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.profiler import PROFILE_SCHEMA

#: Transitive closure with a planted redundant atom (Edge(x, z) twice)
#: and a fully redundant third rule -- Fig. 2 removes both.
TC_REDUNDANT = """
Path(x, y) :- Edge(x, y).
Path(x, y) :- Edge(x, z), Path(z, y), Edge(x, z).
Path(x, y) :- Edge(x, y), Path(x, y).
"""

EDB = """
Edge(1, 2).
Edge(2, 3).
Edge(3, 4).
Edge(4, 5).
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestProfile:
    def test_text_output_has_per_rule_breakdown(self, files, capsys):
        code = main(["profile", files("p.dl", TC_REDUNDANT), "--edb", files("e.dl", EDB)])
        assert code == 0
        out = capsys.readouterr().out
        assert "per-rule breakdown" in out
        assert "Path(x, y) :- Edge(x, y)." in out
        assert "span tree" in out
        assert "seminaive.eval" in out

    def test_stratified_profile_names_every_rule_of_the_program(self, files, capsys):
        program = """
        A(x) :- V(x), not B(x).
        B(x) :- W(x).
        R(x, y) :- A(x), E(x, y).
        R(x, z) :- R(x, y), E(y, z).
        """
        edb = "".join(f"V({i}). E({i}, {i + 1}).\n" for i in range(10)) + "W(0). W(3).\n"
        code = main(
            [
                "profile", files("p.dl", program), "--edb", files("e.dl", edb),
                "--engine", "stratified", "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rules = {r["index"]: r for r in doc["rules"]}
        # One row per rule, the negated one included, each under its own
        # text; the recursive R rule does the most work.
        assert [rules[i]["rule"] for i in sorted(rules)] == [
            "A(x) :- V(x), not B(x).",
            "B(x) :- W(x).",
            "R(x, y) :- A(x), E(x, y).",
            "R(x, z) :- R(x, y), E(y, z).",
        ]
        busiest = max(rules.values(), key=lambda r: r.get("subgoal_attempts", 0))
        assert busiest["rule"] == "R(x, z) :- R(x, y), E(y, z)."
        assert sum(r.get("subgoal_attempts", 0) for r in doc["rules"]) == (
            doc["stats"]["subgoal_attempts"]
        )

    def test_json_output_is_schema_stamped(self, files, capsys):
        code = main(
            ["profile", files("p.dl", TC_REDUNDANT), "--edb", files("e.dl", EDB), "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["engine"] == "seminaive"
        assert doc["stats"]["subgoal_attempts"] > 0
        assert len(doc["rules"]) == 3
        # Per-rule subgoal attempts sum to the overall total.
        assert sum(r.get("subgoal_attempts", 0) for r in doc["rules"]) == (
            doc["stats"]["subgoal_attempts"]
        )

    def test_compare_minimized_reports_strict_subgoal_decrease(self, files, capsys):
        code = main(
            [
                "profile",
                files("p.dl", TC_REDUNDANT),
                "--edb",
                files("e.dl", EDB),
                "--compare-minimized",
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        original = doc["original"]["stats"]["subgoal_attempts"]
        minimized = doc["minimized"]["stats"]["subgoal_attempts"]
        assert minimized < original  # the paper's fewer-joins claim
        assert doc["comparison"]["subgoal_reduction"] == original - minimized
        assert doc["comparison"]["atom_removals"] >= 1
        # Same fixpoint reached either way (uniform equivalence).
        assert (
            doc["original"]["stats"]["facts_derived"]
            == doc["minimized"]["stats"]["facts_derived"]
        )

    def test_compare_minimized_text(self, files, capsys):
        code = main(
            [
                "profile",
                files("p.dl", TC_REDUNDANT),
                "--edb",
                files("e.dl", EDB),
                "--compare-minimized",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "subgoal attempts:" in out
        assert "minimization removed" in out

    def test_magic_engine_profiles_rewritten_rules(self, files, capsys):
        code = main(
            [
                "profile",
                files("p.dl", TC_REDUNDANT),
                "--edb",
                files("e.dl", EDB),
                "--engine",
                "magic",
                "--query",
                "Path(1, y)",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query: Path(1, y)" in out
        assert "m__" in out  # breakdown names the magic-rewritten rules

    def test_topdown_engine(self, files, capsys):
        code = main(
            [
                "profile",
                files("p.dl", TC_REDUNDANT),
                "--edb",
                files("e.dl", EDB),
                "--engine",
                "topdown",
                "--query",
                "Path(1, y)",
            ]
        )
        assert code == 0
        assert "answer(s)" in capsys.readouterr().out

    def test_query_engine_without_query_is_an_error(self, files, capsys):
        code = main(
            [
                "profile",
                files("p.dl", TC_REDUNDANT),
                "--edb",
                files("e.dl", EDB),
                "--engine",
                "magic",
            ]
        )
        assert code == 2
        assert "requires a query" in capsys.readouterr().err
