#!/usr/bin/env python
"""Byte-stable CLI output: the same command prints the same bytes every run.

Terms are hash-consed, so a set of terms or rows iterates in an order
that follows memory addresses and, for strings, ``PYTHONHASHSEED``.
Anything printed in set order therefore changes from run to run.  This
check (a step of the ``test`` CI job, runnable locally as ``python
tools/check_stable_output.py``) runs ``eval`` (under each fixpoint
engine), ``minimize``, ``optimize --json`` and ``lint --format json``
over every ``examples/*.dl``, ``explain`` on two facts with several
derivations, and ``preserves`` and ``prove`` over the shipped
``.tgds`` files, each under ``PYTHONHASHSEED=0``, ``1`` and ``2``, and
compares stdout, stderr and the exit status byte for byte.  The
engines run one round loop, so ``eval --engine naive`` and ``eval
--engine stratified`` must also print the default engine's stdout
under every seed.

The EDB for ``eval`` and ``explain`` is written to a temporary
directory: string and integer facts over every EDB predicate the
examples use, so both the string-hash and the address orders are
exercised.

Exit status: 0 when every command is stable and every engine agrees, 1
otherwise; each unstable command prints with the seeds whose output
differs.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = REPO / "examples"
SEEDS = ("0", "1", "2")
#: Fixpoint engines besides the default whose ``eval`` output must match it.
ENGINES = ("naive", "stratified")

#: Facts over every EDB predicate of ``examples/*.dl``.
NAMES = ["ann", "bob", "cy", "dee", "eve", "fay", "gus"]


def edb_text() -> str:
    lines = []
    for i, name in enumerate(NAMES):
        after = NAMES[(i + 1) % len(NAMES)]
        lines += [f"Par('{name}', '{after}').", f"Per('{name}').", f"E('{name}', '{after}')."]
        lines += [f"A({i}, {(i + 1) % len(NAMES)}).", f"A({i}, {(i * 3) % len(NAMES)})."]
        lines += [f"Addr('p{i}', '{name}').", f"Copy('p{i}', 'p{(i + 2) % len(NAMES)}')."]
        lines += [f"Load('p{i}', 'p{(i + 3) % len(NAMES)}').", f"Store('p{(i + 1) % len(NAMES)}', 'p{i}')."]
    # A diamond: G(20, 29) has four derivations in one round.
    lines += [f"A(20, {m}). A({m}, 29)." for m in range(21, 25)]
    return "\n".join(lines) + "\n"


def commands(edb: Path) -> list[list[str]]:
    out = []
    for program in sorted(EXAMPLES.glob("*.dl")):
        path = str(program)
        out += [
            ["eval", path, "--edb", str(edb)],
            *(["eval", path, "--edb", str(edb), "--engine", e] for e in ENGINES),
            ["minimize", path],
            ["optimize", path, "--json"],
            ["lint", path, "--format", "json"],
        ]
    # Facts with several derivations in the round they first appear, so
    # the proof printed is a choice among them.
    tc = str(EXAMPLES / "transitive_closure.dl")
    ancestry = str(EXAMPLES / "ancestry.dl")
    for program, fact in ((tc, "G(20, 29)"), (str(EXAMPLES / "points_to.dl"), "Pts('p0', 'gus')")):
        out.append(["explain", program, "--edb", str(edb), fact])
    # prove ancestry against transitive closure refutes by chasing the
    # closure's frozen bodies, so its transcript prints labelled nulls.
    for tgds in sorted(EXAMPLES.glob("*.tgds")):
        out += [
            ["preserves", tc, "--tgds", str(tgds), "--verbose"],
            ["prove", ancestry, tc, "--tgds", str(tgds), "--verbose"],
        ]
    return out


def run(argv: list[str], seed: str) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], env=env, capture_output=True, timeout=300
    )
    return done.returncode, done.stdout, done.stderr


def main() -> int:
    unstable = 0
    default_eval: dict[str, dict[str, bytes]] = {}
    with tempfile.TemporaryDirectory() as folder:
        edb = Path(folder) / "edb.dl"
        edb.write_text(edb_text())
        for argv in commands(edb):
            outputs = {seed: run(argv, seed) for seed in SEEDS}
            label = " ".join(Path(a).name if os.sep in a else a for a in argv)
            if argv[0] == "eval":
                stdout = {seed: outputs[seed][1] for seed in SEEDS}
                if "--engine" not in argv:
                    default_eval[argv[1]] = stdout
                elif stdout != default_eval[argv[1]]:
                    unstable += 1
                    print(f"DIFFERS  {label}: stdout is not the default engine's")
                    continue
            if len(set(outputs.values())) == 1:
                print(f"stable   {label}")
                continue
            unstable += 1
            first = outputs[SEEDS[0]]
            differ = [seed for seed in SEEDS[1:] if outputs[seed] != first]
            print(f"UNSTABLE {label}: PYTHONHASHSEED {', '.join(differ)} differ from {SEEDS[0]}")
    return 1 if unstable else 0


if __name__ == "__main__":
    sys.exit(main())
