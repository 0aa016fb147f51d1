"""JSON-serializable representations of programs, rules, and databases.

Tooling around the optimizer (result caches, experiment manifests,
cross-process pipelines) needs a stable interchange format.  The schema
is deliberately simple and versioned:

* a term is ``{"var": name}``, ``{"int": n}``, ``{"str": s}``,
  ``{"null": id}`` or ``{"frozen": [name, serial]}``;
* an atom is ``{"pred": name, "args": [term, ...]}``;
* a literal adds ``"neg": true`` when negated;
* a rule is ``{"head": atom, "body": [literal, ...]}``;
* a program is ``{"format": 1, "rules": [rule, ...]}``;
* a database is format **2**: ``{"format": 2, "backend": "rows",
  "facts": {pred: [[term, ...], ...]}}``.

  Two older database documents are still read, onto the same store:
  format 1 (no ``backend`` tag), and format 2 tagged
  ``"backend": "columnar"``, which versions with a second storage
  backend wrote as ``"symbols": [term, ...]`` plus rows of indexes
  into that list.

Round-trip guarantees are covered by tests; unknown keys raise
:class:`~repro.errors.ValidationError` so schema drift fails loudly.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from ..errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - break the lang -> data import cycle
    from ..data.database import Database
from .atoms import Atom, Literal
from .programs import Program
from .rules import Rule
from .terms import Constant, FrozenConstant, Null, Term, Variable

FORMAT_VERSION = 1

#: Database documents are versioned separately from programs: format 2
#: added the ``backend`` tag.
DATABASE_FORMAT_VERSION = 2


# -- terms ----------------------------------------------------------------------
def term_to_dict(term: Term) -> dict[str, Any]:
    if isinstance(term, Variable):
        return {"var": term.name}
    if isinstance(term, Constant):
        key = "int" if isinstance(term.value, int) else "str"
        return {key: term.value}
    if isinstance(term, Null):
        return {"null": term.ident}
    if isinstance(term, FrozenConstant):
        return {"frozen": [term.name, term.serial]}
    raise ValidationError(f"cannot serialize term {term!r}")


def term_from_dict(data: dict[str, Any]) -> Term:
    if len(data) != 1:
        raise ValidationError(f"malformed term object: {data!r}")
    ((key, value),) = data.items()
    if key == "var":
        return Variable(value)
    if key == "int":
        return Constant(int(value))
    if key == "str":
        return Constant(str(value))
    if key == "null":
        return Null(int(value))
    if key == "frozen":
        name, serial = value
        return FrozenConstant(name, int(serial))
    raise ValidationError(f"unknown term kind {key!r}")


# -- atoms / literals / rules -----------------------------------------------------
def atom_to_dict(atom: Atom) -> dict[str, Any]:
    return {"pred": atom.predicate, "args": [term_to_dict(t) for t in atom.args]}


def atom_from_dict(data: dict[str, Any]) -> Atom:
    try:
        pred = data["pred"]
        args = data["args"]
    except KeyError as missing:
        raise ValidationError(f"atom object missing key {missing}") from None
    return Atom(pred, tuple(term_from_dict(t) for t in args))


def literal_to_dict(literal: Literal) -> dict[str, Any]:
    out = atom_to_dict(literal.atom)
    if not literal.positive:
        out["neg"] = True
    return out


def literal_from_dict(data: dict[str, Any]) -> Literal:
    negated = bool(data.get("neg", False))
    atom = atom_from_dict({k: v for k, v in data.items() if k != "neg"})
    return Literal(atom, positive=not negated)


def rule_to_dict(rule: Rule) -> dict[str, Any]:
    return {
        "head": atom_to_dict(rule.head),
        "body": [literal_to_dict(lit) for lit in rule.body],
    }


def rule_from_dict(data: dict[str, Any]) -> Rule:
    return Rule(
        atom_from_dict(data["head"]),
        [literal_from_dict(lit) for lit in data.get("body", [])],
    )


# -- programs ------------------------------------------------------------------------
def program_to_dict(program: Program) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "rules": [rule_to_dict(r) for r in program.rules],
    }


def program_from_dict(data: dict[str, Any]) -> Program:
    _check_format(data)
    return Program([rule_from_dict(r) for r in data.get("rules", [])])


def program_to_json(program: Program, indent: int | None = None) -> str:
    return json.dumps(program_to_dict(program), indent=indent)


def program_from_json(text: str) -> Program:
    return program_from_dict(json.loads(text))


# -- databases ----------------------------------------------------------------------
def database_to_dict(db: "Database") -> dict[str, Any]:
    facts: dict[str, list[list[dict[str, Any]]]] = {}
    for pred in sorted(db.predicates):
        rows = sorted(db.tuples(pred), key=lambda row: [str(t) for t in row])
        facts[pred] = [[term_to_dict(t) for t in row] for row in rows]
    return {"format": DATABASE_FORMAT_VERSION, "backend": "rows", "facts": facts}


def database_from_dict(data: dict[str, Any]) -> "Database":
    from ..data.database import Database

    version = data.get("format")
    if version not in (FORMAT_VERSION, DATABASE_FORMAT_VERSION):
        raise ValidationError(
            f"unsupported serialization format {version!r}; this build reads "
            f"database formats {FORMAT_VERSION} and {DATABASE_FORMAT_VERSION}"
        )
    backend = data.get("backend", "rows") if version == DATABASE_FORMAT_VERSION else "rows"
    if backend not in ("rows", "columnar"):
        raise ValidationError(f"unknown database backend {backend!r}")
    db = Database()
    try:
        # A legacy columnar document: rows list indexes into ``symbols``.
        symbols = [term_from_dict(t) for t in data.get("symbols", [])]
        for pred, rows in data.get("facts", {}).items():
            for row in rows:
                if backend == "rows":
                    terms = tuple(term_from_dict(t) for t in row)
                elif all(type(i) is int and 0 <= i < len(symbols) for i in row):
                    terms = tuple(symbols[i] for i in row)
                else:
                    raise ValidationError(
                        f"columnar row {row!r} of {pred} references an unknown symbol index"
                    )
                if not all(t.is_ground for t in terms):
                    raise ValidationError(f"row {row!r} of {pred} is not ground")
                db._add_row(pred, terms)
    except (AttributeError, TypeError, ValueError) as bad:
        raise ValidationError(f"malformed database document: {bad}") from bad
    return db


def database_to_json(db: "Database", indent: int | None = None) -> str:
    return json.dumps(database_to_dict(db), indent=indent)


def database_from_json(text: str) -> "Database":
    return database_from_dict(json.loads(text))


def _check_format(data: dict[str, Any]) -> None:
    version = data.get("format")
    if version != FORMAT_VERSION:
        raise ValidationError(
            f"unsupported serialization format {version!r}; this build reads format {FORMAT_VERSION}"
        )
