#!/usr/bin/env python
"""Docs self-check: CLI surface vs documentation, plus snippet smoke tests.

Four checks over the root guides and docs/*.md, run by the ``docs-check``
CI job (and runnable locally with ``python tools/check_docs.py``):

1. **Command-line drift.** Every ``repro-datalog`` invocation inside a
   fenced code block must name a real verb, and every ``--flag`` it
   passes must be accepted by that verb — checked against the live
   ``repro.cli.build_parser()`` surface, i.e. exactly what
   ``repro-datalog <verb> --help`` prints.
2. **Verb coverage.** Every verb the CLI exposes must be demonstrated
   in at least one fenced command line across the scanned files.
3. **Snippet smoke tests.** Fenced ``bash`` blocks whose first line is
   ``# check-docs: smoke`` are executed in a fresh temporary directory
   (with a ``repro-datalog`` shim on PATH when the entry point is not
   installed) and must exit 0.
4. **Dangling references.** A backticked token or link target in prose
   that names a repository file (``tests/test_cli.py``,
   ``engine/compile.py``, ``BENCHMARK.json``, globs and ``<date>``
   placeholders included) must match a file that exists, and a
   backticked ``repro.x.y`` name must import -- so deleting a module or
   a committed artifact cannot leave the docs pointing at it.

Exit status: 0 when everything passes, 1 otherwise; every finding is
printed as ``file:line: message``.
"""

from __future__ import annotations

import argparse
import fnmatch
import importlib
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import repro  # noqa: E402
from repro.cli import build_parser  # noqa: E402

SCANNED = [
    "README.md",
    "CONTRIBUTING.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    *sorted(p.relative_to(REPO).as_posix() for p in (REPO / "docs").glob("*.md")),
]
SMOKE_MARK = "# check-docs: smoke"


def cli_surface() -> dict[str, set[str]]:
    """Map each CLI verb to the option strings its subparser accepts."""
    parser = build_parser()
    surface: dict[str, set[str]] = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for verb, sub in action.choices.items():
                surface[verb] = {
                    opt for a in sub._actions for opt in a.option_strings
                }
    return surface


def fenced_blocks(text: str):
    """Yield (start_line, info_string, [lines]) per fenced code block."""
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        m = re.match(r"^\s*```(\S*)\s*$", lines[i])
        if m:
            start, info, body = i + 1, m.group(1), []
            i += 1
            while i < len(lines) and not re.match(r"^\s*```\s*$", lines[i]):
                body.append(lines[i])
                i += 1
            yield start, info, body
        i += 1


def command_lines(body: list[str], start: int):
    """Yield (line_no, command) for repro-datalog invocations in a block.

    Handles ``$ `` prompts, backslash continuations, and trailing
    ``  # comment`` annotations.
    """
    i = 0
    while i < len(body):
        line = body[i].strip()
        while line.endswith("\\") and i + 1 < len(body):
            i += 1
            line = line[:-1].rstrip() + " " + body[i].strip()
        at = start + i + 1
        i += 1
        if line.startswith("$ "):
            line = line[2:]
        if not line.startswith("repro-datalog"):
            continue
        if " # " in line:
            line = line.split(" # ")[0]
        yield at, line.strip()


def check_commands(surface: dict[str, set[str]]) -> tuple[list[str], set[str]]:
    errors: list[str] = []
    used_verbs: set[str] = set()
    for rel in SCANNED:
        text = Path(rel).read_text()
        for start, _info, body in fenced_blocks(text):
            for line_no, command in command_lines(body, start):
                try:
                    tokens = shlex.split(command)
                except ValueError as exc:
                    errors.append(f"{rel}:{line_no}: unparseable command: {exc}")
                    continue
                if len(tokens) < 2:
                    continue
                verb = tokens[1]
                if verb.startswith("-"):
                    continue  # `repro-datalog --help` style
                if verb not in surface:
                    errors.append(
                        f"{rel}:{line_no}: unknown verb {verb!r} "
                        f"(known: {', '.join(sorted(surface))})"
                    )
                    continue
                used_verbs.add(verb)
                for token in tokens[2:]:
                    if not token.startswith("--"):
                        continue
                    flag = token.split("=", 1)[0]
                    if flag not in surface[verb]:
                        errors.append(
                            f"{rel}:{line_no}: {verb!r} does not accept {flag} "
                            f"(run: repro-datalog {verb} --help)"
                        )
    return errors, used_verbs


def check_coverage(surface: dict[str, set[str]], used: set[str]) -> list[str]:
    missing = sorted(set(surface) - used)
    return [
        f"README.md/docs: verb {verb!r} is never demonstrated in any "
        f"fenced command line"
        for verb in missing
    ]


def smoke_env(shim_dir: Path) -> dict[str, str]:
    env = dict(os.environ)
    if shutil.which("repro-datalog") is None:
        shim = shim_dir / "repro-datalog"
        shim.write_text(
            f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m repro.cli "$@"\n'
        )
        shim.chmod(0o755)
        env["PATH"] = f"{shim_dir}{os.pathsep}{env.get('PATH', '')}"
        pkg_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p
        )
    return env


def run_smoke_blocks() -> list[str]:
    errors: list[str] = []
    with tempfile.TemporaryDirectory(prefix="check-docs-") as tmp:
        env = smoke_env(Path(tmp))
        for rel in SCANNED:
            text = Path(rel).read_text()
            for start, info, body in fenced_blocks(text):
                if info != "bash" or not body or body[0].strip() != SMOKE_MARK:
                    continue
                workdir = tempfile.mkdtemp(dir=tmp, prefix="smoke-")
                script = "\n".join(["set -euo pipefail", *body[1:]])
                print(f"== smoke {rel}:{start}")
                proc = subprocess.run(
                    ["bash", "-c", script],
                    cwd=workdir,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=300,
                )
                if proc.returncode != 0:
                    tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
                    errors.append(
                        f"{rel}:{start}: smoke snippet exited "
                        f"{proc.returncode}: " + " | ".join(tail)
                    )
    return errors


#: Bare file names (no directory) are checked only with these
#: extensions; ``program.dl`` / ``t.tgd`` style names are the reader's
#: own files, not the repository's.
REPO_FILE_EXTENSIONS = (".py", ".json", ".md", ".toml", ".yml")


def repo_files() -> list[str]:
    """Repo-relative paths git tracks or would track (ignored leftovers
    of building and running are not repository files)."""
    proc = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0 and proc.stdout:
        return [f for f in proc.stdout.splitlines() if (REPO / f).exists()]
    return [p.relative_to(REPO).as_posix() for p in REPO.rglob("*") if p.is_file()]


def prose_references(text: str):
    """Yield (line_no, token) for backticked tokens and link targets
    outside fenced code blocks."""
    fenced: set[int] = set()
    for start, _info, body in fenced_blocks(text):
        fenced.update(range(start, start + len(body) + 2))
    for line_no, line in enumerate(text.splitlines(), 1):
        if line_no in fenced:
            continue
        for match in re.finditer(r"`([^`]+)`|\]\(([^)#\s]+)", line):
            yield line_no, (match.group(1) or match.group(2)).strip()


def _imports(dotted: str) -> bool:
    """Does ``repro.x.y.z`` resolve to a module or an attribute of one?"""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for name in parts[cut:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


def check_references() -> list[str]:
    files = repo_files()
    roots = {f.split("/", 1)[0] for f in files if "/" in f}
    roots |= {f.split("/")[2] for f in files if f.startswith("src/repro/") and f.count("/") > 2}
    errors: list[str] = []
    for rel in SCANNED:
        doc_dir = Path(rel).parent.as_posix()
        for line_no, token in prose_references(Path(rel).read_text()):
            if re.fullmatch(r"repro(\.[A-Za-z_]\w*)+", token):
                if not _imports(token):
                    errors.append(f"{rel}:{line_no}: `{token}` does not import")
                continue
            token = token.split("::")[0]
            if " " in token or token.startswith(("/", "http", "-")):
                continue
            pattern = re.sub(r"<[^>]*>", "*", token).rstrip("/")
            if pattern.startswith(("./", "../")):
                pattern = os.path.normpath(f"{doc_dir}/{pattern}")
            if "/" in pattern:
                if pattern.split("/", 1)[0] not in roots:
                    continue  # `reach/random`, `repro.metrics/1`: not a path
                candidates = [pattern, f"src/repro/{pattern}"]
                found = any(
                    fnmatch.fnmatchcase(f, c) or f.startswith(c + "/")
                    for f in files
                    for c in candidates
                )
            elif pattern.endswith(REPO_FILE_EXTENSIONS):
                found = any(fnmatch.fnmatchcase(f.rsplit("/", 1)[-1], pattern) for f in files)
            else:
                continue
            if not found:
                errors.append(f"{rel}:{line_no}: `{token}` names no file in the repository")
    return errors


def main() -> int:
    os.chdir(REPO)
    surface = cli_surface()
    errors, used = check_commands(surface)
    errors += check_coverage(surface, used)
    errors += check_references()
    errors += run_smoke_blocks()
    for error in errors:
        print(error)
    print(
        f"check_docs: {len(SCANNED)} files, {len(surface)} verbs, "
        f"{len(errors)} finding(s)"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
