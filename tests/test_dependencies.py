"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency.  The graph questions
of Section III (cycles, SCC order, reachability) are answered by
``repro.analysis.graphs``; these tests fail if ``networkx`` -- the
dependency that module replaced -- is imported again anywhere.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_BLOCKED_SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of it now raises ImportError

import repro
from repro import Database, evaluate, lint_source, parse_program, parse_tgds
from repro.analysis.absint import analyze_program

found = lint_source("G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).")
assert [d.rule_id for d in found].count("redundant-atom") == 1
program = parse_program("T(x, y) :- E(x, y).\\nT(x, z) :- T(x, y), E(y, z).\\n")
report = analyze_program(program, tgds=tuple(parse_tgds("T(x, y) -> E(y, z).")))
assert report.termination.to_dict()["special_cycle"]  # found through the SCCs
negation = parse_program("R(x) :- N(x), not E(x, x).\\n")
db = Database.from_facts({"N": [(1,), (2,)], "E": [(1, 1)]})
result = evaluate(negation, db, engine="stratified")
print(sorted(str(atom) for atom in result.database.as_atom_set()))
"""


def _run(script: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )


def test_lint_analyze_and_stratified_evaluate_run_without_networkx():
    done = _run(_BLOCKED_SCRIPT)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['E(1, 1)', 'N(1)', 'N(2)', 'R(2)']"


def test_import_repro_does_not_import_networkx():
    done = _run('import sys, repro\nprint("networkx" in sys.modules)')
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
