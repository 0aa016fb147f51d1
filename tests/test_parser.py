"""Unit tests for repro.lang.parser (and pretty-printer round trips)."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ArityError, ParseError, UnsafeRuleError
from repro.lang import (
    Atom,
    Constant,
    Program,
    Rule,
    Variable,
    format_program,
    parse_atom,
    parse_program,
    parse_rule,
    parse_tgd,
    parse_tgds,
)
from repro.lang.parser import _ground_facts, _Parser


class TestAtoms:
    def test_simple(self):
        atom = parse_atom("A(x, y)")
        assert atom == Atom("A", (Variable("x"), Variable("y")))

    def test_integer_constants(self):
        assert parse_atom("Q(3, 10)") == Atom.of("Q", 3, 10)

    def test_negative_integers(self):
        assert parse_atom("Q(-5)") == Atom.of("Q", -5)

    def test_string_constants(self):
        assert parse_atom("Name('alice')") == Atom.of("Name", "alice")

    def test_double_quoted_strings(self):
        assert parse_atom('Name("bob")') == Atom.of("Name", "bob")

    def test_zero_arity(self):
        assert parse_atom("Done()") == Atom("Done", ())

    def test_mixed_terms(self):
        atom = parse_atom("Q(x, y, 3, 10)")
        assert atom.args == (Variable("x"), Variable("y"), Constant(3), Constant(10))

    def test_lowercase_predicate_rejected(self):
        with pytest.raises(ParseError):
            parse_atom("a(x)")

    def test_uppercase_term_rejected_with_hint(self):
        with pytest.raises(ParseError, match="uppercase"):
            parse_atom("A(X)")


class TestRules:
    def test_rule(self):
        rule = parse_rule("G(x, z) :- A(x, z).")
        assert str(rule) == "G(x, z) :- A(x, z)."

    def test_fact(self):
        rule = parse_rule("A(1, 2).")
        assert rule.is_fact

    def test_multi_atom_body(self):
        rule = parse_rule("G(x, z) :- G(x, y), G(y, z), A(y, w).")
        assert len(rule.body) == 3

    def test_negation_not_keyword(self):
        rule = parse_rule("P(x) :- A(x), not B(x).")
        assert not rule.body[1].positive

    def test_negation_bang(self):
        rule = parse_rule("P(x) :- A(x), !B(x).")
        assert not rule.body[1].positive

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("G(x, z) :- A(x, z)")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError, match="trailing"):
            parse_rule("A(1). junk")


class TestPrograms:
    def test_multiline_with_comments(self):
        program = parse_program(
            """
            % transitive closure
            G(x, z) :- A(x, z).
            # hash comments too
            G(x, z) :- G(x, y), G(y, z).
            """
        )
        assert len(program) == 2

    def test_empty_source(self):
        assert len(parse_program("")) == 0
        assert len(parse_program("  % only a comment\n")) == 0

    def test_error_has_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_program("G(x, z) :- A(x, z).\nG(x z) :- A(x, z).")
        assert excinfo.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_program("G(x, z) :- A(x, z) @ B(z).")

    def test_roundtrip_through_format(self):
        source = """
            G(x, z) :- A(x, z).
            G(x, z) :- G(x, y), G(y, z), A(y, w).
            Fact(1, 'two').
        """
        program = parse_program(source)
        assert parse_program(format_program(program)) == program


class TestTgds:
    def test_single_atom_sides(self):
        tgd = parse_tgd("G(x, z) -> A(x, w)")
        assert len(tgd.lhs) == 1 and len(tgd.rhs) == 1

    def test_ampersand_conjunction(self):
        tgd = parse_tgd("G(y, z) -> G(y, w) & C(w)")
        assert len(tgd.rhs) == 2

    def test_comma_conjunction_on_lhs(self):
        tgd = parse_tgd("G(x, y), G(y, z) -> A(y, w)")
        assert len(tgd.lhs) == 2

    def test_optional_terminating_period(self):
        tgd = parse_tgd("G(x, z) -> A(x, w).")
        assert len(tgd.lhs) == 1

    def test_parse_many(self):
        tgds = parse_tgds(
            """
            G(x, z) -> A(x, w).
            G(y, z) -> G(y, w) & C(w)
            """
        )
        assert len(tgds) == 2

    def test_missing_arrow(self):
        with pytest.raises(ParseError):
            parse_tgd("G(x, z) A(x, w)")

    def test_tgd_str_roundtrip(self):
        tgd = parse_tgd("G(x, y), G(y, z) -> A(y, w) & C(w)")
        assert parse_tgd(str(tgd)) == tgd


class TestLiterals:
    def test_non_ascii_digits_are_not_integers(self):
        with pytest.raises(ParseError, match="unexpected character") as excinfo:
            parse_program("A(٣).")
        assert (excinfo.value.line, excinfo.value.column) == (1, 3)

    @pytest.mark.parametrize(
        "source, line, column",
        [
            ("A(" + "1" * 5000 + ").", 1, 3),
            ("A(1).\n% note\nB(2, -" + "2" * 5000 + ").", 3, 6),
            ("G(x) :- A(x, " + "9" * 5000 + ").", 1, 14),
        ],
        ids=["fact", "after-comment", "in-rule"],
    )
    def test_too_long_integer_is_a_parse_error_at_the_literal(self, source, line, column):
        with pytest.raises(ParseError, match="5000 digits is too long") as excinfo:
            parse_program(source)
        assert (excinfo.value.line, excinfo.value.column) == (line, column)

    def test_too_long_integer_in_atom_and_rule(self):
        with pytest.raises(ParseError, match="too long"):
            parse_atom("A(" + "7" * 5000 + ")")
        with pytest.raises(ParseError, match="too long"):
            parse_rule("A(" + "7" * 5000 + ").")

    def test_tokenizer_error_after_a_too_long_integer_comes_first(self):
        # The full parser tokenizes the whole text before it converts a
        # literal, so a bad character anywhere wins; the fact path agrees.
        source = "A(" + "1" * 5000 + ").\nB(٣)."
        with pytest.raises(ParseError, match="unexpected character") as excinfo:
            parse_program(source)
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)

    def test_string_constants_print_escaped(self):
        quoted = Constant("it's")
        assert str(quoted) == "'it\\'s'"
        assert str(Constant("a\\b")) == "'a\\\\b'"
        assert parse_rule(f"P({quoted}).").head == Atom("P", (quoted,))

    def test_escaping_inverts_the_parser_on_every_short_string(self):
        for length in range(6):
            for chars in itertools.product("a\\'\"", repeat=length):
                value = "".join(chars)
                assert parse_atom(f"P({Constant(value)})").args == (Constant(value),), value


class TestGroundFactRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("P"), st.tuples(st.integers(), st.text())),
                st.tuples(st.just("Q"), st.tuples(st.text())),
                st.tuples(st.just("Done"), st.just(())),
            ),
            max_size=8,
        )
    )
    def test_format_then_parse_is_the_identity(self, facts):
        program = Program([Rule(Atom.of(predicate, *values)) for predicate, values in facts])
        parsed = parse_program(format_program(program))
        assert parsed == program
        assert parsed.rules == program.rules


# -- the fact path against the full parser ---------------------------------

_BLANK = st.sampled_from(["", " ", "  ", "\t", "\n", " \n\t", "\r\n"])
_STRING_PARTS = ["a", "Z", " ", "%", "#", ",", "(", ")", ".", ":-", "é", "\n", "\\\\", "\\'", '\\"']
_LITERALS = st.one_of(
    st.integers(min_value=-(10**6), max_value=10**6).map(str),
    st.sampled_from(["-0", "007"]),
    st.lists(st.sampled_from(_STRING_PARTS + ['"']), max_size=4).map(lambda p: "'" + "".join(p) + "'"),
    st.lists(st.sampled_from(_STRING_PARTS + ["'"]), max_size=4).map(lambda p: '"' + "".join(p) + '"'),
)
#: Predicate -> arity; ``M`` takes any arity, so it can clash.
_ARITY = {"A": 2, "B": 1, "Edge_2": 3, "P0": 0, "M": None}
_COMMENT_INSIDE = "% inside\n"


@st.composite
def _fact(draw, comment_inside: bool = False) -> str:
    predicate = draw(st.sampled_from(sorted(_ARITY)))
    arity = _ARITY[predicate]
    if arity is None:
        arity = draw(st.integers(0, 3))
    tokens = [predicate, "("]
    for i in range(arity):
        tokens += [","] if i else []
        tokens.append(draw(_LITERALS))
    tokens += [")", "."]
    gaps = [draw(_BLANK) for _ in tokens[1:]]
    if comment_inside:
        gaps[draw(st.integers(0, len(gaps) - 1))] += _COMMENT_INSIDE
    return tokens[0] + "".join(gap + token for gap, token in zip(gaps, tokens[1:]))


@st.composite
def _fact_text(draw) -> tuple[str, bool]:
    """A fact text, and whether the fact path must take it."""
    pool = draw(st.lists(_fact(), min_size=1, max_size=4))
    items = draw(
        st.lists(
            st.one_of(
                st.sampled_from(pool),  # duplicates
                _fact(),
                st.sampled_from(["% a comment\n", "# another, with A(1).\n", "\n", "  "]),
            ),
            max_size=10,
        )
    )
    tail = draw(st.sampled_from(["", "\n", "% last line", " # x"]))
    bypass = draw(st.sampled_from([None, "comment-inside", "rule", "tgd"]))
    if bypass == "comment-inside":
        items.insert(draw(st.integers(0, len(items))), draw(_fact(comment_inside=True)))
    elif bypass == "rule":
        tail = "\nG(x, y) :- A(x, y).\n" + tail
    elif bypass == "tgd":
        tail = "\nA(x, y) -> B(x)\n" + tail
    source = "".join(item if item.endswith("\n") else item + draw(_BLANK) for item in items) + tail
    return source, bypass is None


def _outcome(parse, source: str):
    """What parsing *source* gives: the rules in order, or the error in full."""
    try:
        return list(parse(source).rules)
    except (ParseError, UnsafeRuleError, ArityError) as error:
        return type(error), str(error), getattr(error, "line", None), getattr(error, "column", None)


def _full_parser(source: str) -> Program:
    return _Parser(source).parse_program()


class TestFactPath:
    @settings(max_examples=200, deadline=None)
    @given(_fact_text())
    def test_agrees_with_the_full_parser(self, case):
        source, fast = case
        assert _outcome(parse_program, source) == _outcome(_full_parser, source)
        assert (_ground_facts(source) is not None) == fast

    @settings(max_examples=300, deadline=None)
    @given(_fact_text(), st.data())
    def test_mutated_text_fails_like_the_full_parser(self, case, data):
        source, _ = case
        at = data.draw(st.integers(0, len(source)))
        char = data.draw(st.sampled_from(list("(),.'\"\\%#x-:٣ \nX@&!0")))
        inserted, deleted, replaced = (
            source[:at] + char + source[at:],
            source[:at] + source[at + 1 :],
            source[:at] + char + source[at + 1 :],
        )
        mutated = data.draw(st.sampled_from([inserted, deleted, replaced]))
        assert _outcome(parse_program, mutated) == _outcome(_full_parser, mutated)

    @pytest.mark.parametrize(
        "source, error",
        [
            ("B(x).", UnsafeRuleError),
            ("A(1). B(2).\nB(x).", UnsafeRuleError),
            ("A(1).\nA(1, 2).", ArityError),
            ("A(1). A(1). A(1, 2).", ArityError),
            ("A(1) .\nA(1 2).", ParseError),
            ("A(1).\n'x'.", ParseError),
            ("A(1", ParseError),
        ],
    )
    def test_typed_errors_match(self, source, error):
        outcome = _outcome(parse_program, source)
        assert outcome[0] is error
        assert outcome == _outcome(_full_parser, source)

    def test_keeps_first_occurrence_order_and_drops_duplicates(self):
        program = parse_program("B(2). A(1, 'x'). B(2). A(1, \"x\"). Done().")
        assert [str(rule) for rule in program] == ["B(2).", "A(1, 'x').", "Done()."]

    @pytest.mark.parametrize(
        "source", ["A(" + " " * 100_000 + "x).", "A(" + "1, " * 50_000, "A('" + "a" * 100_000]
    )
    def test_failing_match_stays_linear(self, source):
        # Two adjacent blank runs in the fact regex made the first case
        # quadratic (about 20 s at this size); linear, it takes milliseconds.
        started = time.perf_counter()
        with pytest.raises((ParseError, UnsafeRuleError)):
            parse_program(source)
        assert time.perf_counter() - started < 5.0

    def test_comment_inside_a_statement_takes_the_full_parser(self):
        source = "A(1, % two\n 2)."
        assert _ground_facts(source) is None
        assert parse_program(source) == Program([Rule(Atom.of("A", 1, 2))])
