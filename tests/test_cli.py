"""Unit tests for the repro-datalog CLI."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

TC = """
G(x, z) :- A(x, z).
G(x, z) :- G(x, y), G(y, z).
"""

TC_REDUNDANT = """
G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).
"""

EX19 = """
G(x, z) :- A(x, z), C(z).
G(x, z) :- A(x, y), G(y, z), G(y, w), C(w).
"""

EDB = """
A(1, 2).
A(2, 3).
"""


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestParse:
    def test_profile_output(self, files, capsys):
        assert main(["parse", files("tc.dl", TC)]) == 0
        out = capsys.readouterr().out
        assert "G(x, z) :- A(x, z)." in out
        assert "recursive" in out

    def test_parse_error_exit_code(self, files, capsys):
        assert main(["parse", files("bad.dl", "G(x :- A(x).")]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["parse", "/does/not/exist.dl"]) == 2

    def test_json_profile(self, files, capsys):
        assert main(["parse", files("tc.dl", TC), "--json"]) == 0
        profile = json.loads(capsys.readouterr().out)
        assert profile["rule_count"] == 2
        assert profile["idb_predicates"] == ["G"]
        assert profile["edb_predicates"] == ["A"]
        assert profile["is_recursive"] is True
        assert profile["is_linear"] is False


class TestEval:
    def test_evaluates(self, files, capsys):
        code = main(["eval", files("tc.dl", TC), "--edb", files("edb.dl", EDB)])
        assert code == 0
        out = capsys.readouterr().out
        assert "G(1, 3)" in out

    def test_stats_flag(self, files, capsys):
        main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("edb.dl", EDB),
                "--stats",
            ]
        )
        assert "iterations=" in capsys.readouterr().out

    def test_naive_engine(self, files, capsys):
        code = main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("edb.dl", EDB),
                "--engine",
                "naive",
            ]
        )
        assert code == 0

    def test_rejects_rules_in_edb(self, files, capsys):
        code = main(["eval", files("tc.dl", TC), "--edb", files("bad.dl", TC)])
        assert code == 2
        assert "non-fact" in capsys.readouterr().err


class TestMinimize:
    def test_removes_redundant_atom(self, files, capsys):
        assert main(["minimize", files("r.dl", TC_REDUNDANT)]) == 0
        out = capsys.readouterr().out
        assert "A(w, y)" not in out.splitlines()[0]
        assert "1 atom(s)" in out


class TestOptimize:
    def test_example19(self, files, capsys):
        assert main(["optimize", files("ex19.dl", EX19)]) == 0
        out = capsys.readouterr().out
        assert "G(x, z) :- A(x, y), G(y, z)." in out
        assert "1 deletion(s)" in out

    def test_uniform_only(self, files, capsys):
        assert main(["optimize", files("ex19.dl", EX19), "--uniform-only"]) == 0
        out = capsys.readouterr().out
        assert "G(y, w)" in out  # guard survives without the §X/XI layer


class TestContains:
    def test_both_directions(self, files, capsys):
        linear = "G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z).\n"
        code = main(
            ["contains", files("p1.dl", TC), files("p2.dl", linear)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P2 ⊑u P1: yes" in out
        assert "P1 ⊑u P2: no" in out

    def test_equivalent_programs(self, files, capsys):
        code = main(["contains", files("p1.dl", TC), files("p2.dl", TC)])
        assert code == 0
        assert "P1 ≡u P2" in capsys.readouterr().out


class TestPreserves:
    def test_preserved(self, files, capsys):
        guarded = "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z), A(y, w).\n"
        code = main(
            [
                "preserves",
                files("p.dl", guarded),
                "--tgds",
                files("t.tgd", "G(x, z) -> A(x, w)\n"),
            ]
        )
        assert code == 0
        assert "proved" in capsys.readouterr().out

    def test_not_preserved_exit_code(self, files, capsys):
        code = main(
            [
                "preserves",
                files("p.dl", "H(x, y) :- A(x, y).\n"),
                "--tgds",
                files("t.tgd", "H(x, y) -> Mark(y)\n"),
            ]
        )
        assert code == 1


class TestQuery:
    def test_bound_query(self, files, capsys):
        code = main(
            ["query", files("tc.dl", TC), "G(1, x)", "--edb", files("edb.dl", EDB)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "G(1, 2)" in out and "G(1, 3)" in out
        assert "G(2, 3)" not in out  # goal-directed: irrelevant answers absent

    def test_stats(self, files, capsys):
        main(
            [
                "query",
                files("tc.dl", TC),
                "G(1, x)",
                "--edb",
                files("edb.dl", EDB),
                "--stats",
            ]
        )
        assert "iterations=" in capsys.readouterr().out

    def test_empty_result(self, files, capsys):
        code = main(
            ["query", files("tc.dl", TC), "G(9, x)", "--edb", files("edb.dl", EDB)]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == ""


class TestExplain:
    def test_proof_tree(self, files, capsys):
        code = main(
            ["explain", files("tc.dl", TC), "G(1, 3)", "--edb", files("edb.dl", EDB)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(given)" in out
        assert "G(1, 3)" in out

    def test_underivable_fact(self, files, capsys):
        code = main(
            ["explain", files("tc.dl", TC), "G(3, 1)", "--edb", files("edb.dl", EDB)]
        )
        assert code == 1
        assert "does not hold" in capsys.readouterr().err


class TestBounded:
    def test_bounded_program(self, files, capsys):
        source = "P(x) :- A(x).\nP(x) :- P(x), B(x).\n"
        code = main(["bounded", files("b.dl", source)])
        assert code == 0
        out = capsys.readouterr().out
        assert "uniformly bounded at depth 1" in out

    def test_unbounded_program(self, files, capsys):
        code = main(["bounded", files("tc.dl", TC), "--max-depth", "2"])
        assert code == 1
        assert "not shown bounded" in capsys.readouterr().out


class TestExamples:
    def test_lists_all(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "E01" in out and "E19" in out


class TestLint:
    def test_redundant_atom_exits_1_with_fix(self, files, capsys):
        assert main(["lint", files("r.dl", TC_REDUNDANT)]) == 1
        out = capsys.readouterr().out
        assert "[redundant-atom]" in out
        assert "A(w, y)" in out
        assert "fix:" in out

    def test_clean_program_exits_0(self, files, capsys):
        assert main(["lint", files("tc.dl", TC)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_json_round_trips(self, files, capsys):
        main(["lint", files("r.dl", TC_REDUNDANT), "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        finding = next(
            d for d in data["diagnostics"] if d["rule"] == "redundant-atom"
        )
        assert finding["severity"] == "warning"
        assert finding["rule_index"] == 0
        assert finding["line"] == 2  # TC_REDUNDANT opens with a blank line

    def test_fail_on_error_tolerates_warnings(self, files):
        assert main(["lint", files("r.dl", TC_REDUNDANT), "--fail-on", "error"]) == 0

    def test_fail_on_never(self, files):
        assert main(["lint", files("r.dl", TC_REDUNDANT), "--fail-on", "never"]) == 0

    def test_ignore_suppresses_finding(self, files):
        # The fixture's G has no base case, so dead-rule/empty-predicate
        # legitimately warn too; ignore all three to show suppression works.
        code = main(
            [
                "lint",
                files("r.dl", TC_REDUNDANT),
                "--ignore",
                "redundant-atom,dead-rule,empty-predicate",
            ]
        )
        assert code == 0

    def test_select_limits_rules(self, files, capsys):
        code = main(
            ["lint", files("r.dl", TC_REDUNDANT), "--select", "singleton-variable"]
        )
        assert code == 0
        assert "redundant-atom" not in capsys.readouterr().out

    def test_unknown_rule_id_is_usage_error(self, files, capsys):
        assert main(["lint", files("tc.dl", TC), "--select", "no-such-rule"]) == 2
        assert "unknown lint rule" in capsys.readouterr().err

    def test_syntax_error_reported_as_diagnostic(self, files, capsys):
        assert main(["lint", files("bad.dl", "G(x :- A(x).")]) == 1
        assert "[syntax]" in capsys.readouterr().out

    def test_unsafe_rule_reported_as_safety(self, files, capsys):
        assert main(["lint", files("u.dl", "G(x, z) :- A(x).")]) == 1
        assert "[safety]" in capsys.readouterr().out

    def test_max_containment_checks_zero(self, files, capsys):
        code = main(
            [
                "lint",
                files("r.dl", TC_REDUNDANT),
                "--max-containment-checks",
                "0",
                # dead-rule/empty-predicate warn regardless of the budget
                # (the fixture's G has no base case); keep them out so the
                # budget behaviour alone decides the exit code.
                "--ignore",
                "dead-rule,empty-predicate",
            ]
        )
        out = capsys.readouterr().out
        assert "redundant-atom" not in out
        assert "[containment-budget]" in out
        assert code == 0  # info findings are below the default warning threshold

    def test_export_enables_unused_idb(self, files, capsys):
        source = "Out(x) :- E(x).\nDead(x) :- E(x), Dead(x).\n"
        assert main(["lint", files("d.dl", source), "--export", "Out"]) == 1
        assert "[unused-idb]" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["lint", "/does/not/exist.dl"]) == 2

    @pytest.mark.parametrize(
        "example", sorted(EXAMPLES_DIR.glob("*.dl")), ids=lambda p: p.name
    )
    def test_shipped_examples_are_lint_clean(self, example):
        assert main(["lint", str(example)]) == 0


class TestGovernorFlags:
    CHAIN = "\n".join(f"A({i}, {i + 1})." for i in range(30)) + "\n"

    def test_eval_partial_exit_code_and_stderr(self, files, capsys):
        code = main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("edb.dl", self.CHAIN),
                "--max-facts",
                "20",
            ]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "PARTIAL: max_facts tripped" in captured.err
        assert "G(" in captured.out  # the sound partial facts still print

    def test_eval_on_limit_raise_exits_2(self, files, capsys):
        code = main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("edb.dl", self.CHAIN),
                "--max-facts",
                "20",
                "--on-limit",
                "raise",
            ]
        )
        assert code == 2
        assert "max_facts" in capsys.readouterr().err

    def test_eval_without_flags_is_ungoverned(self, files, capsys):
        assert main(["eval", files("tc.dl", TC), "--edb", files("e.dl", EDB)]) == 0

    def test_eval_stratified_engine_choice(self, files, capsys):
        code = main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("e.dl", EDB),
                "--engine",
                "stratified",
            ]
        )
        assert code == 0
        assert "G(1, 3)" in capsys.readouterr().out

    def test_query_method_flag(self, files, capsys):
        for method in ("magic", "supplementary", "topdown"):
            code = main(
                [
                    "query",
                    files("tc.dl", TC),
                    "G(1, x)",
                    "--edb",
                    files("e.dl", EDB),
                    "--method",
                    method,
                ]
            )
            assert code == 0
            assert "G(1, 3)" in capsys.readouterr().out

    def test_query_governed_partial(self, files, capsys):
        code = main(
            [
                "query",
                files("tc.dl", TC),
                "G(0, x)",
                "--edb",
                files("edb.dl", self.CHAIN),
                "--max-facts",
                "10",
            ]
        )
        assert code == 3
        assert "PARTIAL" in capsys.readouterr().err

    def test_minimize_deadline_flag(self, files, capsys):
        code = main(
            ["minimize", files("red.dl", TC_REDUNDANT), "--deadline", "0.000001"]
        )
        assert code == 3
        assert "PARTIAL: deadline tripped" in capsys.readouterr().err


class TestChaseFlags:
    def test_optimize_accepts_chase_budget(self, files, capsys):
        code = main(
            [
                "optimize",
                files("ex19.dl", EX19),
                "--chase-rounds",
                "50",
                "--chase-nulls",
                "100",
            ]
        )
        assert code == 0

    def test_preserves_accepts_chase_budget(self, files, capsys):
        code = main(
            [
                "preserves",
                files("tc.dl", TC),
                "--tgds",
                files("t.tgd", "G(x, z) -> A(x, w)\n"),
                "--chase-rounds",
                "50",
            ]
        )
        assert code in (0, 1)
        assert "preservation" in capsys.readouterr().out

    def test_prove_tiny_budget_reports_unproved(self, files, capsys):
        p1 = "G(x, z) :- A(x, z).\n"
        p2 = "G(x, z) :- B(x, z).\n"
        code = main(
            [
                "prove",
                files("p1.dl", p1),
                files("p2.dl", p2),
                "--tgds",
                files("t.tgd", "B(x, y) -> B(y, w)\n"),
                "--chase-rounds",
                "3",
                "--chase-nulls",
                "10",
            ]
        )
        assert code == 1


class TestJsonResults:
    CHAIN = "\n".join(f"A({i}, {i + 1})." for i in range(30)) + "\n"

    def test_eval_json_complete(self, files, capsys):
        code = main(
            ["eval", files("tc.dl", TC), "--edb", files("e.dl", EDB), "--json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "complete"
        assert doc["degradation"] is None
        assert doc["database"]["format"] == 2
        assert "G" in doc["database"]["facts"]
        assert doc["stats"]["iterations"] >= 1

    @pytest.mark.parametrize("verb", (["eval", "--json"], ["eval"], ["parse"]))
    def test_closed_stdout_exits_quietly(self, files, verb):
        """``repro-datalog eval ... --json | head -c 0``: no traceback."""
        import os
        import subprocess
        import sys

        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        argv = [verb[0], files("tc.dl", TC), *verb[1:]]
        if verb[0] == "eval":
            argv += ["--edb", files("edb.dl", self.CHAIN)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        proc.stdout.close()  # the reader is gone before the first write
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 141
        assert "Traceback" not in stderr and "BrokenPipe" not in stderr

    def test_eval_json_partial_carries_degradation(self, files, capsys):
        code = main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("edb.dl", self.CHAIN),
                "--max-facts",
                "20",
                "--json",
            ]
        )
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "partial"
        assert doc["degradation"]["limit"] == "max_facts"
        assert doc["degradation"]["engine"] == "seminaive"
        assert doc["degradation"]["facts_seen"] > 20

    def test_query_json_partial_carries_degradation(self, files, capsys):
        code = main(
            [
                "query",
                files("tc.dl", TC),
                "G(0, x)",
                "--edb",
                files("edb.dl", self.CHAIN),
                "--max-facts",
                "10",
                "--json",
            ]
        )
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "partial"
        assert doc["degradation"]["limit"] == "max_facts"

    def test_query_json_complete(self, files, capsys):
        code = main(
            [
                "query",
                files("tc.dl", TC),
                "G(1, x)",
                "--edb",
                files("e.dl", EDB),
                "--json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "complete"
        assert doc["database"]["facts"]["G"]


class TestCheckpointFlags:
    CHAIN = "\n".join(f"A({i}, {i + 1})." for i in range(20)) + "\n"

    def _eval_with_checkpoint(self, files, tmp_path, *extra):
        ck = str(tmp_path / "ck.json")
        code = main(
            [
                "eval",
                files("tc.dl", TC),
                "--edb",
                files("edb.dl", self.CHAIN),
                "--checkpoint",
                ck,
                *extra,
            ]
        )
        return ck, code

    def test_eval_writes_checkpoint_generations(self, files, tmp_path, capsys):
        ck, code = self._eval_with_checkpoint(files, tmp_path)
        assert code == 0
        assert pathlib.Path(ck).exists()
        assert pathlib.Path(ck + ".prev").exists()

    def test_resume_reproduces_the_eval_output(self, files, tmp_path, capsys):
        ck, code = self._eval_with_checkpoint(files, tmp_path)
        assert code == 0
        full_output = capsys.readouterr().out
        assert main(["resume", ck]) == 0
        captured = capsys.readouterr()
        assert captured.out == full_output
        assert "resuming seminaive evaluation" in captured.err

    def test_resume_verifies_program_fingerprint(self, files, tmp_path, capsys):
        ck, _ = self._eval_with_checkpoint(files, tmp_path)
        other = files("other.dl", "G(x, z) :- A(z, x).\n")
        assert main(["resume", ck, "--program", other]) == 2
        assert "fingerprint" in capsys.readouterr().err
        assert main(["resume", ck, "--program", files("tc.dl", TC)]) == 0

    def test_resume_falls_back_past_corrupt_generation(self, files, tmp_path, capsys):
        from repro.resilience import corrupt_checkpoint

        ck, _ = self._eval_with_checkpoint(files, tmp_path)
        capsys.readouterr()
        corrupt_checkpoint(ck, mode="flip")
        assert main(["resume", ck]) == 0
        assert "G(0, 19)" in capsys.readouterr().out

    def test_resume_with_no_valid_generation_exits_2(self, files, tmp_path, capsys):
        from repro.resilience import corrupt_checkpoint

        ck, _ = self._eval_with_checkpoint(files, tmp_path)
        corrupt_checkpoint(ck, mode="flip")
        corrupt_checkpoint(ck + ".prev", mode="truncate")
        assert main(["resume", ck]) == 2
        assert "no valid checkpoint" in capsys.readouterr().err

    def test_resume_honors_governor_flags(self, files, tmp_path, capsys):
        ck, _ = self._eval_with_checkpoint(files, tmp_path, "--checkpoint-every", "2")
        capsys.readouterr()
        code = main(["resume", ck, "--max-rounds", "1", "--no-checkpoint"])
        assert code == 3
        assert "PARTIAL: max_rounds tripped" in capsys.readouterr().err

    def test_checkpoint_every_flag(self, files, tmp_path, capsys):
        ck, code = self._eval_with_checkpoint(
            files, tmp_path, "--checkpoint-every", "5"
        )
        assert code == 0
        doc = json.loads(pathlib.Path(ck).read_text())
        assert doc["payload"]["round"] % 5 == 0
        assert doc["payload"]["every"] == 5


#: (verb + its positionals, flag, hostile value): the limit and count
#: flags on every verb that takes them.  argparse rejects the value
#: before any file is read, so the paths need not exist.
_HOSTILE_FLAGS = [
    (["eval", "p.dl", "--edb", "e.dl"], "--max-facts", "-5"),
    (["eval", "p.dl", "--edb", "e.dl"], "--deadline", "-1"),
    (["eval", "p.dl", "--edb", "e.dl"], "--deadline", "nan"),
    (["eval", "p.dl", "--edb", "e.dl"], "--max-rounds", "-1"),
    (["eval", "p.dl", "--edb", "e.dl"], "--checkpoint-every", "0"),
    (["resume", "ck.json"], "--checkpoint-every", "0"),
    (["resume", "ck.json"], "--max-rounds", "-1"),
    (["query", "p.dl", "G(0, x)", "--edb", "e.dl"], "--max-facts", "-1"),
    (["minimize", "p.dl"], "--deadline", "-0.5"),
    (["optimize", "p.dl"], "--max-facts", "-1"),
    (["optimize", "p.dl"], "--chase-rounds", "-1"),
    (["optimize", "p.dl"], "--chase-nulls", "-1"),
    (["preserves", "p.dl", "--tgds", "t.tgd"], "--chase-rounds", "-3"),
    (["prove", "p.dl", "q.dl", "--tgds", "t.tgd"], "--chase-nulls", "-3"),
]


@pytest.mark.parametrize(
    "argv, flag, value",
    _HOSTILE_FLAGS,
    ids=[f"{argv[0]}{flag}={value}" for argv, flag, value in _HOSTILE_FLAGS],
)
def test_hostile_limit_values_are_usage_errors(argv, flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + [flag, value])
    assert exit_info.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "p.dl", "--edb", "e.dl"],
        ["query", "p.dl", "G(0, x)", "--edb", "e.dl"],
        ["resume", "ck.json"],
    ],
    ids=["eval", "query", "resume"],
)
def test_workers_flag_is_gone(argv, capsys):
    # Evaluation is single-process (docs/ARCHITECTURE.md): the flag is
    # not accepted and ignored, it is unknown.
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "p.dl", "--edb", "e.dl"],
        ["query", "p.dl", "G(0, x)", "--edb", "e.dl"],
        ["profile", "p.dl", "--edb", "e.dl"],
    ],
    ids=["eval", "query", "profile"],
)
def test_backend_flag_is_gone(argv, capsys):
    # One storage backend (docs/STORAGE.md): there is nothing to select.
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--backend", "columnar"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --backend columnar" in capsys.readouterr().err


def test_evaluate_rejects_a_workers_keyword():
    # bench/workloads.py reports engine.workers2_speedup as not measured
    # by catching exactly this TypeError.
    from repro import Database, evaluate, parse_program

    with pytest.raises(TypeError, match="workers"):
        evaluate(parse_program(TC), Database(), workers=2)


def _unreadable(kind, tmp_path):
    path = tmp_path / f"unreadable-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "non-utf8":
        path.write_bytes(b"G(x) :- \xff\xfe A(x).\n")
    else:  # past Python's int-conversion digit limit
        path.write_text("A(" + "1" * 5000 + ").\n")
    return str(path)


@pytest.mark.parametrize("kind", ["directory", "non-utf8", "long-int"])
@pytest.mark.parametrize("slot", ["program", "edb", "resume", "certificate"])
def test_unreadable_input_file_is_one_error_line(slot, kind, files, tmp_path, capsys):
    bad = _unreadable(kind, tmp_path)
    program, edb = files("tc.dl", TC), files("edb.dl", EDB)
    argv = {
        "program": ["eval", bad, "--edb", edb],
        "edb": ["eval", program, "--edb", bad],
        "resume": ["resume", bad],
        "certificate": ["query", program, "G(1, x)", "--edb", edb, "--certificate", bad],
    }[slot]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
