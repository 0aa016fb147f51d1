"""Parser for Datalog programs and tuple-generating dependencies.

The concrete syntax follows the paper's conventions:

* **predicates** are identifiers beginning with an uppercase letter:
  ``G``, ``Anc``;
* **variables** are identifiers beginning with a lowercase letter or
  underscore: ``x``, ``y1``, ``w``;
* **constants** are integers written with ASCII digits (``3``, ``-10``;
  ``٣`` is not a digit here) or quoted strings (``'alice'``, ``"bob"``,
  with ``\\'``, ``\\"`` and ``\\\\`` as escapes).  An integer literal
  too long for ``int`` to convert is a :class:`~repro.errors.ParseError`
  at the literal.  A string constant prints single-quoted with ``\\``
  and ``'`` escaped, so printed facts parse back to the same facts;
* a **rule** is ``Head :- Atom, ..., Atom.`` and a **fact** is a ground
  atom followed by ``.``;
* a **negated literal** (stratified extension only) is written
  ``not Atom`` or ``!Atom``;
* a **tgd** is ``Atom, ... -> Atom & Atom`` -- commas and ``&`` are
  interchangeable conjunction separators on both sides (the paper
  writes the right-hand side with ``∧``);
* comments run from ``%`` or ``#`` to the end of the line.

Example::

    % transitive closure (paper, Example 1)
    G(x, z) :- A(x, z).
    G(x, z) :- G(x, y), G(y, z).

All entry points raise :class:`~repro.errors.ParseError` with a line and
column on malformed input.

**Ground facts skip the tokenizer.**  An EDB arrives as fact text, so
:func:`parse_program` first reads the source as ground facts only: one
regex match per statement ``Pred(c1, ..., cn).``, with blanks around
tokens and comments between statements.  If every statement matches
and only blanks and comments follow the last one, the facts become
rules of the same :class:`~repro.lang.programs.Program` the full parser
would build.  Otherwise -- a rule, a tgd, a comment inside a statement,
an integer too long to convert, malformed text -- the *whole* source is
parsed again by the recursive-descent parser, so the result, or the
typed error with its line and column, is exactly the full parser's.
That parser stays the reference, and the only path for rules and tgds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Mapping

from ..errors import ParseError
from .atoms import Atom, Literal
from .programs import Program
from .rules import Rule
from .terms import Constant, Term, Variable

#: The two constant literals, shared by the tokenizer and the fact path
#: so both read exactly the same constants.
_INT = r"-?[0-9]+"
_STRING = r"""'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*\""""

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<arrow>->)
  | (?P<implies>:-)
  | (?P<int>{_INT})
  | (?P<string>{_STRING})
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(),.&!])
    """,
    re.VERBOSE,
)

_LITERAL = f"{_INT}|{_STRING}"
_LITERAL_RE = re.compile(_LITERAL)

#: Blanks and whole comments.  The lookahead stops a comment from ending
#: early, so backtracking can never read a fact out of a comment.
_SKIP = r"(?:\s|[%#][^\n]*(?![^\n]))*"
_SKIP_RE = re.compile(_SKIP)

#: One ground fact ``Pred(c1, ..., cn).`` after any blanks and comments.
#: No two blank runs are adjacent, so a failed match backtracks in
#: linear time.
_FACT_RE = re.compile(
    rf"{_SKIP}([A-Z][A-Za-z0-9_]*)\s*\(\s*(?:((?:{_LITERAL})(?:\s*,\s*(?:{_LITERAL}))*)\s*)?\)\s*\."
)


def _constant(text: str, line: int | None = None, column: int | None = None) -> Constant:
    """The constant an ``int`` or ``string`` literal spells.

    Both parse paths convert literals here.  An integer too long for
    ``int`` to convert raises :class:`ParseError` at (*line*, *column*).
    The fact path passes no position: it catches the error and hands the
    whole text to the full parser, which raises it, or an error its
    tokenizer finds first, with one.
    """
    if text[0] == "'" or text[0] == '"':
        return Constant(text[1:-1].replace("\\'", "'").replace('\\"', '"').replace("\\\\", "\\"))
    try:
        return Constant(int(text))
    except ValueError:
        digits = len(text.lstrip("-"))
        raise ParseError(f"integer literal of {digits} digits is too long", line, column) from None


def _ground_facts(source: str) -> list[Rule] | None:
    """The rules of *source* if it holds only ground facts, else ``None``.

    ``None`` means the caller must run the full parser on the whole
    source, which then returns or raises exactly what it always does.
    """
    rules: list[Rule] = []
    constants: dict[str, Constant] = {}  # literal text -> constant
    match = _FACT_RE.match
    literals = _LITERAL_RE.findall
    pos = 0
    while (fact := match(source, pos)) is not None:
        predicate, args = fact.group(1, 2)
        terms: list[Constant] = []
        if args:
            for text in literals(args):
                term = constants.get(text)
                if term is None:
                    try:
                        term = constants[text] = _constant(text)
                    except ParseError:
                        return None
                terms.append(term)
        rules.append(Rule(Atom(predicate, tuple(terms))))
        pos = fact.end()
    if _SKIP_RE.match(source, pos).end() != len(source):
        return None
    return rules


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class SourceSpan:
    """The 1-based source extent of one parsed rule (inclusive)."""

    line: int
    column: int
    end_line: int
    end_column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


@dataclass(frozen=True)
class ParsedProgram:
    """A program plus the source span of each distinct rule.

    ``spans`` maps every rule of ``program`` to the span of its *first*
    occurrence in the source (a :class:`~repro.lang.programs.Program`
    drops duplicate rules, so later occurrences have no representative).
    """

    program: Program
    spans: Mapping[Rule, SourceSpan]


def tokenize(source: str) -> Iterator[Token]:
    """Yield tokens, skipping whitespace and comments.

    Raises :class:`ParseError` on any character outside the grammar.
    """
    line = 1
    line_start = 0
    pos = 0
    length = len(source)
    while pos < length:
        match = _TOKEN_RE.match(source, pos)
        if match is None:
            column = pos - line_start + 1
            raise ParseError(f"unexpected character {source[pos]!r}", line, column)
        kind = match.lastgroup or ""
        text = match.group()
        if kind == "ws":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = pos + text.rfind("\n") + 1
        elif kind != "comment":
            yield Token(kind, text, line, pos - line_start + 1)
        pos = match.end()
    yield Token("eof", "", line, pos - line_start + 1)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, source: str):
        self.tokens = list(tokenize(source))
        self.index = 0

    # -- token plumbing ------------------------------------------------------
    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self.index += 1
        return token

    def expect(self, kind: str, text: str | None = None) -> Token:
        token = self.current
        if token.kind != kind or (text is not None and token.text != text):
            wanted = text if text is not None else kind
            raise ParseError(
                f"expected {wanted!r} but found {token.text or 'end of input'!r}",
                token.line,
                token.column,
            )
        return self.advance()

    def at_punct(self, text: str) -> bool:
        return self.current.kind == "punct" and self.current.text == text

    def accept_punct(self, text: str) -> bool:
        if self.at_punct(text):
            self.advance()
            return True
        return False

    # -- grammar ---------------------------------------------------------------
    def parse_term(self) -> Term:
        token = self.current
        if token.kind == "int" or token.kind == "string":
            self.advance()
            return _constant(token.text, token.line, token.column)
        if token.kind == "name":
            self.advance()
            if token.text[0].isupper():
                raise ParseError(
                    f"{token.text!r} starts uppercase (a predicate name) where a term is expected; "
                    "variables start lowercase, symbolic constants are quoted",
                    token.line,
                    token.column,
                )
            return Variable(token.text)
        raise ParseError(
            f"expected a term but found {token.text or 'end of input'!r}", token.line, token.column
        )

    def parse_atom(self) -> Atom:
        token = self.expect("name")
        if not token.text[0].isupper():
            raise ParseError(
                f"predicate names start with an uppercase letter, found {token.text!r}",
                token.line,
                token.column,
            )
        self.expect("punct", "(")
        args: list[Term] = []
        if not self.at_punct(")"):
            args.append(self.parse_term())
            while self.accept_punct(","):
                args.append(self.parse_term())
        self.expect("punct", ")")
        return Atom(token.text, tuple(args))

    def parse_literal(self) -> Literal:
        if self.current.kind == "name" and self.current.text == "not":
            self.advance()
            return Literal(self.parse_atom(), positive=False)
        if self.accept_punct("!"):
            return Literal(self.parse_atom(), positive=False)
        return Literal(self.parse_atom())

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        body: list[Literal] = []
        if self.current.kind == "implies":
            self.advance()
            body.append(self.parse_literal())
            while self.accept_punct(","):
                body.append(self.parse_literal())
        self.expect("punct", ".")
        return Rule(head, body)

    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while self.current.kind != "eof":
            rules.append(self.parse_rule())
        return Program(rules)

    def parse_conjunction(self) -> list[Atom]:
        atoms = [self.parse_atom()]
        while self.accept_punct(",") or self.accept_punct("&"):
            atoms.append(self.parse_atom())
        return atoms

    def parse_tgd(self):
        from ..core.tgds import Tgd

        lhs = self.parse_conjunction()
        self.expect("arrow")
        rhs = self.parse_conjunction()
        self.accept_punct(".")
        return Tgd(tuple(lhs), tuple(rhs))

    def parse_tgds(self):
        out = []
        while self.current.kind != "eof":
            out.append(self.parse_tgd())
        return out

    def finish(self) -> None:
        token = self.current
        if token.kind != "eof":
            raise ParseError(f"trailing input {token.text!r}", token.line, token.column)


def parse_program(source: str) -> Program:
    """Parse a whole program (zero or more rules/facts).

    Text made only of ground facts takes the fact path (see the module
    docstring); anything else goes to the full parser.
    """
    rules = _ground_facts(source)
    if rules is not None:
        return Program(rules)
    parser = _Parser(source)
    program = parser.parse_program()
    parser.finish()
    return program


def parse_program_with_spans(source: str) -> ParsedProgram:
    """Parse a program and record where each rule sits in the source.

    The extra bookkeeping is one token lookup per rule; tools that point
    at findings (``repro-datalog lint``) use this entry point, everything
    else keeps :func:`parse_program`.
    """
    parser = _Parser(source)
    rules: list[Rule] = []
    spans: list[SourceSpan] = []
    while parser.current.kind != "eof":
        start = parser.current
        rules.append(parser.parse_rule())
        end = parser.tokens[parser.index - 1]  # the terminating "." token
        spans.append(SourceSpan(start.line, start.column, end.line, end.column))
    parser.finish()
    mapping: dict[Rule, SourceSpan] = {}
    for rule, span in zip(rules, spans):
        mapping.setdefault(rule, span)
    return ParsedProgram(Program(rules), mapping)


def parse_rule(source: str) -> Rule:
    """Parse exactly one rule or fact."""
    parser = _Parser(source)
    rule = parser.parse_rule()
    parser.finish()
    return rule


def parse_atom(source: str) -> Atom:
    """Parse exactly one atom (no trailing period)."""
    parser = _Parser(source)
    atom = parser.parse_atom()
    parser.finish()
    return atom


def parse_tgd(source: str):
    """Parse one tgd, e.g. ``G(x, z) -> A(x, w)``."""
    parser = _Parser(source)
    tgd = parser.parse_tgd()
    parser.finish()
    return tgd


def parse_tgds(source: str):
    """Parse a sequence of tgds (each optionally ``.``-terminated)."""
    parser = _Parser(source)
    tgds = parser.parse_tgds()
    parser.finish()
    return tgds
