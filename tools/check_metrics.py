#!/usr/bin/env python
"""Metrics-name drift check: documented names vs. emitted names.

``docs/ARCHITECTURE.md`` enumerates the metric counters and trace
spans the codebase emits.  Those lists rot silently: renaming a counter
in ``src/`` leaves the prose pointing at a name no registry snapshot
will ever contain.  This check (part of the
``docs-check`` CI job, runnable locally as ``python
tools/check_metrics.py``) parses every emission site and fails when a
documented name has no emitter.

**Emitted names** are collected by walking the ASTs of ``src/**/*.py``
for ``.increment(...)`` / ``.observe(...)`` calls (metric counters and
observations) and ``trace(...)`` calls (span names).  A literal first
argument contributes its exact name; an f-string contributes a pattern
whose interpolated pieces are wildcards (``f"{prefix}.runs"`` emits
``*.runs``).

**Documented names** are backticked dotted tokens inside metric-bearing
prose paragraphs (fenced code blocks are skipped).  The docs' notation
is normalized: ``<engine>``-style placeholders become wildcards,
``governor.trips[.<limit>]`` expands to both the bare and suffixed
forms, and the ``/`` shorthands continue the previous name
(`` `chase.runs`/`.rounds` `` documents ``chase.rounds``;
`` `containment.budget_spent`/`_skipped` `` documents
``containment.budget_skipped``).  Dotted tokens that name real modules
under ``src/repro`` (``obs.metrics``) are module references, not metric
names, and are skipped.

A documented pattern matches an emitted pattern when their dot-segments
unify, with a wildcard on either side covering one or more segments.

Exit status: 0 when every documented name has an emitter, 1 otherwise;
findings print as ``file: message``.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src"
SCANNED_DOCS = ["docs/ARCHITECTURE.md"]

#: Calls whose first string argument names a metric (attribute calls on
#: the registry) or a span.
METRIC_METHODS = {"increment", "observe"}
SPAN_FUNCTIONS = {"trace"}

#: A prose paragraph is metric-bearing when it matches this (the docs
#: introduce name lists with "Metrics:", "spans:", "counts `...`", or
#: talk about the registry's counters/observations).
BEARING = re.compile(
    r"(Metrics:|spans:|counts\s+`|counters|observation|`\s*metrics\b|\bmetrics\.?($|\s))"
)

#: Shape of a documentable metric/span token: lowercase dotted name,
#: possibly with <placeholder>, [.<optional>] and * wildcards.
TOKEN = re.compile(r"^[a-z0-9_.*<>\[\]]+$")


def emitted_patterns() -> set[str]:
    """Every metric/span name (or f-string wildcard pattern) in src/."""
    patterns: set[str] = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
            if name in METRIC_METHODS or name in SPAN_FUNCTIONS:
                pattern = _string_pattern(node.args[0])
                if pattern:
                    patterns.add(pattern)
    return patterns


def _string_pattern(node: ast.expr) -> str | None:
    """A string literal verbatim; an f-string with ``*`` per hole."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append("*")
        return "".join(parts)
    return None


def prose_paragraphs(text: str):
    """Paragraphs outside fenced code blocks."""
    lines = []
    fence = None
    for line in text.splitlines():
        stripped = line.strip()
        if fence is None and stripped.startswith(("```", "~~~")):
            fence = stripped[:3]
            lines.append("")
            continue
        if fence is not None:
            if stripped.startswith(fence):
                fence = None
            continue
        lines.append(line)
    for block in re.split(r"\n\s*\n", "\n".join(lines)):
        if block.strip():
            yield block


def _is_module_reference(token: str) -> bool:
    """True when the dotted token names a real module under src/repro."""
    if not re.match(r"^[a-z0-9_.]+$", token):
        return False
    parts = token.split(".")
    base = SRC / "repro"
    return (base.joinpath(*parts).with_suffix(".py")).is_file() or (
        base.joinpath(*parts) / "__init__.py"
    ).is_file()


def documented_names(text: str) -> list[str]:
    """Normalized metric/span name patterns the document claims exist."""
    names: list[str] = []
    for para in prose_paragraphs(text):
        if not BEARING.search(para):
            continue
        previous: str | None = None
        previous_end = 0
        for match in re.finditer(r"`([^`\n]+)`", para):
            token = match.group(1).strip()
            if not TOKEN.match(token):
                continue
            separator = para[previous_end : match.start()]
            continuation = (
                previous is not None
                and re.fullmatch(r"\s*/\s*", separator) is not None
            )
            if token.startswith("."):
                if not continuation:
                    continue
                # `chase.runs`/`.rounds` -> chase.rounds
                token = previous.rsplit(".", 1)[0] + token
            elif token.startswith("_"):
                if not continuation:
                    continue
                # `containment.budget_spent`/`_skipped`
                token = previous.rsplit("_", 1)[0] + token
            if "." not in token:
                continue
            if _is_module_reference(token) or token.startswith("repro."):
                continue
            previous = token
            previous_end = match.end()
            names.extend(_expand(token))
    return names


def _expand(token: str) -> list[str]:
    """``governor.trips[.<limit>]`` -> both forms; ``<x>`` -> ``*``."""
    optional = re.search(r"\[([^\]]+)\]", token)
    if optional:
        without = token.replace(optional.group(0), "", 1)
        with_suffix = token.replace(optional.group(0), optional.group(1), 1)
        return [*_expand(without), *_expand(with_suffix)]
    token = re.sub(r"<[^>]*>", "*", token)
    token = re.sub(r"\*+", "*", token.strip("."))
    return [token] if token else []


def _segments_match(a: list[str], b: list[str]) -> bool:
    """Dot-segment unification; ``*`` covers one or more segments."""
    if not a and not b:
        return True
    if a and a[0] == "*":
        return any(_segments_match(a[1:], b[i:]) for i in range(1, len(b) + 1))
    if b and b[0] == "*":
        return _segments_match(b, a)
    if not a or not b:
        return False
    return a[0] == b[0] and _segments_match(a[1:], b[1:])


def pattern_matches(documented: str, emitted: str) -> bool:
    return _segments_match(documented.split("."), emitted.split("."))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the collected emitted patterns and documented names",
    )
    args = parser.parse_args(argv)

    emitted = emitted_patterns()
    failures = 0
    checked = 0
    for rel in SCANNED_DOCS:
        path = REPO / rel
        if not path.is_file():
            print(f"{rel}: scanned document is missing", file=sys.stderr)
            failures += 1
            continue
        for name in documented_names(path.read_text(encoding="utf-8")):
            checked += 1
            if not any(pattern_matches(name, e) for e in emitted):
                print(
                    f"{rel}: documented metric/span `{name}` is not emitted "
                    f"anywhere under src/",
                    file=sys.stderr,
                )
                failures += 1
    if args.list:
        print("emitted patterns:")
        for e in sorted(emitted):
            print(f"  {e}")
    print(
        f"check_metrics: {checked} documented name(s) against "
        f"{len(emitted)} emitted pattern(s); {failures} failure(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
