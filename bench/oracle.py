"""Reference results the program under test did not compute.

A plain-Python Datalog reader, set-based semi-naive evaluator, uniform
containment test (Sagiv §VI), restricted chase and a few closed forms.
Nothing here imports ``repro``: every expected value the benchmark
checks an output against comes from this module or from the way the
inputs were built.

Terms are ``int`` / ``str`` constants, :class:`Var` variables and
:class:`Null` invented values.  An atom is ``(predicate, args)``, a
rule ``(head, body)``, a tgd ``(lhs_atoms, rhs_atoms)`` and a database
a ``dict`` from predicate to a set of argument tuples.
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from typing import Iterable, NamedTuple


class Var(NamedTuple):
    name: str


class Null(NamedTuple):
    ident: int


# -- reading and writing text -------------------------------------------------

_TOKEN = re.compile(
    r"\s+|[%#][^\n]*"
    r"|(?P<arrow>->)|(?P<implies>:-)|(?P<int>-?\d+)"
    r"|(?P<string>'(?:[^'\\]|\\.)*')|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<punct>[(),.&])"
)


def _tokens(text: str) -> list[tuple[str, str]]:
    out, pos = [], 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            raise ValueError(f"oracle cannot read {text[pos:pos + 20]!r}")
        if match.lastgroup:
            out.append((match.lastgroup, match.group()))
        pos = match.end()
    return out


class _Reader:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.index = 0

    def peek(self) -> str:
        return self.tokens[self.index][1] if self.index < len(self.tokens) else ""

    def take(self, expected: str | None = None) -> tuple[str, str]:
        if self.index >= len(self.tokens):
            raise ValueError("oracle: unexpected end of text")
        kind, text = self.tokens[self.index]
        if expected is not None and text != expected:
            raise ValueError(f"oracle: expected {expected!r}, got {text!r}")
        self.index += 1
        return kind, text

    def atom(self):
        _, predicate = self.take()
        args = []
        self.take("(")
        while True:
            kind, text = self.take()
            if kind == "int":
                args.append(int(text))
            elif kind == "string":
                args.append(text[1:-1])
            else:
                args.append(Var(text))
            if self.take()[1] == ")":
                return predicate, tuple(args)

    def conjunction(self) -> list:
        atoms = [self.atom()]
        while self.peek() in (",", "&"):
            self.take()
            atoms.append(self.atom())
        return atoms


def parse_program(text: str) -> list:
    """Rules ``(head, body)`` in written order; a fact has an empty body."""
    reader, rules = _Reader(text), []
    while reader.peek():
        head = reader.atom()
        body = []
        if reader.peek() == ":-":
            reader.take()
            body = reader.conjunction()
        reader.take(".")
        rules.append((head, tuple(body)))
    return rules


def parse_facts(text: str) -> dict:
    db: dict = {}
    for (predicate, args), body in parse_program(text):
        if body or any(isinstance(a, Var) for a in args):
            raise ValueError("oracle: fact text holds a rule")
        db.setdefault(predicate, set()).add(args)
    return db


def parse_tgd(text: str):
    reader = _Reader(text)
    lhs = reader.conjunction()
    reader.take("->")
    return tuple(lhs), tuple(reader.conjunction())


def format_term(term) -> str:
    if isinstance(term, Var):
        return term.name
    return repr(term) if isinstance(term, str) else str(term)


def format_atom(atom) -> str:
    predicate, args = atom
    return f"{predicate}({', '.join(format_term(a) for a in args)})"


def format_rule(rule) -> str:
    head, body = rule
    if not body:
        return format_atom(head) + "."
    return f"{format_atom(head)} :- {', '.join(format_atom(a) for a in body)}."


def format_program(rules: Iterable) -> str:
    return "\n".join(format_rule(r) for r in rules) + "\n"


def format_facts(facts: Iterable) -> str:
    return "".join(f"{format_atom(f)}.\n" for f in facts)


# -- digests ------------------------------------------------------------------

def digest(rows: Iterable[tuple]) -> str:
    """SHA-256 of the sorted rows; order and container do not matter."""
    lines = sorted(repr(tuple(row)) for row in rows)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def text_digest(*texts: str) -> str:
    sha = hashlib.sha256()
    for text in texts:
        sha.update(text.encode())
        sha.update(b"\0")
    return sha.hexdigest()


# -- evaluation ---------------------------------------------------------------

class _Relation:
    """A set of rows with hash indexes built on first use."""

    __slots__ = ("rows", "indexes")

    def __init__(self, rows: Iterable[tuple] = ()):
        self.rows = set(rows)
        self.indexes: dict = {}

    def add(self, row: tuple) -> bool:
        if row in self.rows:
            return False
        self.rows.add(row)
        for positions, index in self.indexes.items():
            index.setdefault(tuple(row[p] for p in positions), []).append(row)
        return True

    def matching(self, positions: tuple, key: tuple):
        if not positions:
            return self.rows
        index = self.indexes.get(positions)
        if index is None:
            index = self.indexes[positions] = {}
            for row in self.rows:
                index.setdefault(tuple(row[p] for p in positions), []).append(row)
        return index.get(key, ())


def _rows_for(atom, relations, bindings, first_rows=None):
    """Rows of *atom*'s relation agreeing with its constants and *bindings*."""
    predicate, args = atom
    positions, key = [], []
    for pos, term in enumerate(args):
        if not isinstance(term, Var):
            positions.append(pos)
            key.append(term)
        elif term in bindings:
            positions.append(pos)
            key.append(bindings[term])
    if first_rows is not None:
        return [r for r in first_rows if all(r[p] == k for p, k in zip(positions, key))]
    relation = relations.get(predicate)
    if relation is None:
        return ()
    return relation.matching(tuple(positions), tuple(key))


def _extend(atom, row, bindings):
    """*bindings* plus the variables *row* binds, or ``None`` on a clash."""
    extended = bindings
    for pos, term in enumerate(atom[1]):
        if isinstance(term, Var) and term not in bindings:
            if extended is bindings:
                extended = dict(bindings)
            if extended.setdefault(term, row[pos]) != row[pos]:
                return None
    return extended


def _satisfiable(atoms, relations, bindings) -> bool:
    if not atoms:
        return True
    for row in _rows_for(atoms[0], relations, bindings):
        extended = _extend(atoms[0], row, bindings)
        if extended is not None and _satisfiable(atoms[1:], relations, extended):
            return True
    return False


def _match(atoms, relations, bindings, emit, needed=None, first_rows=None):
    """Call *emit* on every extension of *bindings* satisfying *atoms*.

    With *needed* (the head's variables), enumeration stops as soon as
    they are all bound and the remaining atoms are only tested for one
    witness: a rule with k existential atoms costs k probes, not the
    product of their matches.
    """
    if not atoms:
        emit(bindings)
        return
    if needed is not None and first_rows is None and all(v in bindings for v in needed):
        if _satisfiable(atoms, relations, bindings):
            emit(bindings)
        return
    for row in _rows_for(atoms[0], relations, bindings, first_rows):
        extended = _extend(atoms[0], row, bindings)
        if extended is not None:
            _match(atoms[1:], relations, extended, emit, needed)


def _ordered(body, first: int, wanted: set):
    """Pinned atom first; then atoms sharing a bound variable, those binding
    most of the still-*wanted* head variables before the others."""
    order, bound = [body[first]], {t for t in body[first][1] if isinstance(t, Var)}
    left = [a for i, a in enumerate(body) if i != first]
    while left:
        connected = [a for a in left if bound & set(a[1])] or left
        pick = max(connected, key=lambda a: len(wanted & set(a[1]) - bound))
        left.remove(pick)
        order.append(pick)
        bound |= {t for t in pick[1] if isinstance(t, Var)}
    return order


def evaluate(rules, facts: dict) -> dict:
    """The minimal model of *rules* containing *facts* (semi-naive)."""
    relations = {p: _Relation(rows) for p, rows in facts.items()}
    delta = {p: set(rows) for p, rows in facts.items() if rows}
    for head, body in rules:
        if not body and relations.setdefault(head[0], _Relation()).add(head[1]):
            delta.setdefault(head[0], set()).add(head[1])
    plans = []
    for head, body in rules:
        if body:
            needed = {t for t in head[1] if isinstance(t, Var)}
            plans.append((head, needed, [_ordered(body, i, needed) for i in range(len(body))]))
    while delta:
        derived: dict = {}
        for (predicate, head_args), needed, variants in plans:
            out = derived.setdefault(predicate, set())

            def emit(bindings, head_args=head_args, out=out):
                out.add(tuple(bindings[t] if isinstance(t, Var) else t for t in head_args))

            for order in variants:
                rows = delta.get(order[0][0])
                if rows:
                    _match(order, relations, {}, emit, needed, first_rows=rows)
        delta = {}
        for predicate, rows in derived.items():
            relation = relations.setdefault(predicate, _Relation())
            new = {row for row in rows if relation.add(row)}
            if new:
                delta[predicate] = new
    return {p: r.rows for p, r in relations.items() if r.rows}


def output_rows(db: dict) -> list[tuple]:
    """A database flattened to ``(predicate, *args)`` rows for a digest."""
    return [(p, *row) for p, rows in db.items() for row in rows]


# -- closed forms and graph references ---------------------------------------

def chain_closure(labels: list) -> set[tuple]:
    """TC of the path ``labels[0] -> labels[1] -> ...``: n(n+1)/2 pairs."""
    return {
        (labels[i], labels[j])
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
    }


def successors(edges: Iterable[tuple]) -> dict:
    out: dict = {}
    for u, v in edges:
        out.setdefault(u, set()).add(v)
    return out


def reachable(succ: dict, source) -> set:
    """Nodes reachable from *source* by one or more edges (BFS)."""
    seen, queue = set(), deque([source])
    while queue:
        for nxt in succ.get(queue.popleft(), ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def closure(edges: Iterable[tuple]) -> set[tuple]:
    succ = successors(edges)
    return {(u, v) for u in succ for v in reachable(succ, u)}


# -- uniform containment and minimality (Sagiv §VI-VII) -----------------------

def _freeze(term):
    return f"~{term.name}" if isinstance(term, Var) else term


def rule_contained(rule, program) -> bool:
    """``{rule} ⊑u program``: freeze the body, evaluate, look for the head."""
    head, body = rule
    frozen: dict = {}
    for predicate, args in body:
        frozen.setdefault(predicate, set()).add(tuple(map(_freeze, args)))
    out = evaluate(program, frozen)
    return tuple(map(_freeze, head[1])) in out.get(head[0], ())


def _droppable(rule, index: int) -> bool:
    head, body = rule
    left = {t for i, a in enumerate(body) if i != index for t in a[1]}
    return all(t in left for t in head[1] if isinstance(t, Var))


def redundant_atoms(program) -> int:
    """Body atoms whose single deletion keeps uniform equivalence."""
    count = 0
    for head, body in program:
        for index in range(len(body)):
            if _droppable((head, body), index):
                slim = (head, body[:index] + body[index + 1:])
                count += rule_contained(slim, program)
    return count


def redundant_rules(program) -> int:
    """Rules uniformly contained in the rest of the program."""
    return sum(
        rule_contained(rule, [r for r in program if r is not rule])
        for rule in program
        if rule[1]
    )


def is_minimal(program) -> bool:
    return redundant_atoms(program) == 0 and redundant_rules(program) == 0


# -- program isomorphism ------------------------------------------------------

def _rule_maps(left, right, mapping: dict):
    """Extensions of the variable bijection *mapping* taking *left* to *right*
    with bodies compared as multisets."""
    (lhead, lbody), (rhead, rbody) = left, right
    if len(lbody) != len(rbody):
        return

    def unify(a, b, m):
        if a[0] != b[0] or len(a[1]) != len(b[1]):
            return None
        m = dict(m)
        used = set(m.values())
        for s, t in zip(a[1], b[1]):
            if isinstance(s, Var) != isinstance(t, Var):
                return None
            if not isinstance(s, Var):
                if s != t:
                    return None
            elif s in m:
                if m[s] != t:
                    return None
            elif t in used:
                return None
            else:
                m[s] = t
                used.add(t)
        return m

    def search(i, remaining, m):
        if i == len(lbody):
            yield m
            return
        for j, candidate in enumerate(remaining):
            extended = unify(lbody[i], candidate, m)
            if extended is not None:
                yield from search(i + 1, remaining[:j] + remaining[j + 1:], extended)

    start = unify(lhead, rhead, mapping)
    if start is not None:
        yield from search(0, list(rbody), start)


def isomorphic(left, right) -> bool:
    """Equal up to rule order, body-atom order and per-rule variable names."""
    left, right = list(left), list(right)
    if len(left) != len(right):
        return False
    for rule in left:
        for j, candidate in enumerate(right):
            if next(_rule_maps(rule, candidate, {}), None) is not None:
                del right[j]
                break
        else:
            return False
    return True


# -- the chase ----------------------------------------------------------------

def chase(rules, tgds, facts: dict, max_rounds: int = 64):
    """Restricted chase ``[P, T](facts)``; returns ``(db, nulls, rounds)``.

    Each round saturates under *rules*, then repairs every tgd violation
    present at the start of the tgd's turn with fresh :class:`Null` values.
    """
    db = {p: set(rows) for p, rows in facts.items()}
    nulls = 0
    for rounds in range(1, max_rounds + 1):
        before = sum(len(rows) for rows in db.values())
        db = {p: set(rows) for p, rows in evaluate(rules, db).items()}
        for lhs, rhs in tgds:
            relations = {p: _Relation(rows) for p, rows in db.items()}
            matches: list = []
            _match(list(lhs), relations, {}, matches.append)
            for theta in matches:
                if _satisfiable(rhs, relations, theta):
                    continue
                theta = dict(theta)
                for _, args in rhs:
                    for term in args:
                        if isinstance(term, Var) and term not in theta:
                            theta[term] = Null(nulls)
                            nulls += 1
                for predicate, args in rhs:
                    row = tuple(theta[t] if isinstance(t, Var) else t for t in args)
                    relations.setdefault(predicate, _Relation()).add(row)
                    db.setdefault(predicate, set()).add(row)
        if sum(len(rows) for rows in db.values()) == before:
            return db, nulls, rounds
    raise RuntimeError("oracle chase did not saturate")


def ground_rows(db: dict) -> list[tuple]:
    """Rows free of invented values (null naming is the engine's own)."""
    return [
        row for row in output_rows(db) if not any(isinstance(t, Null) for t in row)
    ]
