"""Unit tests for repro.lang.terms."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from repro import Database, Program
from repro.lang.atoms import Atom, Literal, coerce_term
from repro.lang.rules import Rule
from repro.lang.serialize import (
    database_from_dict,
    database_to_dict,
    program_from_dict,
    program_to_dict,
    term_from_dict,
    term_to_dict,
)
from repro.lang.terms import (
    Constant,
    FrozenConstant,
    Null,
    NullFactory,
    Variable,
    is_ground_term,
    term_sort_key,
)
from repro.resilience.checkpoint import CheckpointManager, load_checkpoint

from .legacy import columnar_checkpoint, columnar_document


class TestVariable:
    def test_equality_by_name(self):
        assert Variable("x") == Variable("x")
        assert Variable("x") != Variable("y")

    def test_hashable(self):
        assert len({Variable("x"), Variable("x"), Variable("y")}) == 2

    def test_not_ground(self):
        assert not Variable("x").is_ground
        assert not is_ground_term(Variable("x"))

    def test_str(self):
        assert str(Variable("foo")) == "foo"


class TestConstant:
    def test_int_and_str_distinct(self):
        assert Constant(1) != Constant("1")
        assert Constant(1) is not Constant("1")

    def test_equality(self):
        assert Constant(3) == Constant(3)
        assert Constant("a") == Constant("a")

    def test_is_ground(self):
        assert Constant(3).is_ground

    def test_str_int(self):
        assert str(Constant(10)) == "10"

    def test_str_string_quoted(self):
        assert str(Constant("alice")) == "'alice'"


class TestNull:
    def test_counts_as_ground(self):
        # Section VIII: atoms with nulls are viewed as ground atoms.
        assert Null(1).is_ground

    def test_identity(self):
        assert Null(1) == Null(1)
        assert Null(1) != Null(2)

    def test_distinct_from_constant(self):
        assert Null(1) != Constant(1)

    def test_str(self):
        assert str(Null(23)) == "@23"


class TestFrozenConstant:
    def test_counts_as_ground(self):
        assert FrozenConstant("x").is_ground

    def test_distinct_from_variable_and_constant(self):
        assert FrozenConstant("x") != Variable("x")
        assert FrozenConstant("x") != Constant("x")

    def test_serial_disambiguates(self):
        assert FrozenConstant("x", 0) != FrozenConstant("x", 1)

    def test_str(self):
        assert str(FrozenConstant("x")) == "x#"
        assert str(FrozenConstant("x", 2)) == "x#2"


class TestNullFactory:
    def test_fresh_never_repeats(self):
        factory = NullFactory()
        issued = [factory.fresh() for _ in range(100)]
        assert len(set(issued)) == 100

    def test_issued_counter(self):
        factory = NullFactory()
        assert factory.issued == 0
        factory.fresh()
        factory.fresh()
        assert factory.issued == 2

    def test_start_offset(self):
        factory = NullFactory(start=5)
        assert factory.fresh() == Null(5)


class TestSortKey:
    def test_total_order_over_mixed_terms(self):
        terms = [Variable("x"), Constant(1), Null(1), FrozenConstant("x"), Constant("a")]
        ordered = sorted(terms, key=term_sort_key)
        # Constants first, then nulls, then frozen constants, then variables.
        assert isinstance(ordered[0], Constant)
        assert isinstance(ordered[-1], Variable)

    def test_int_before_str_constants(self):
        assert term_sort_key(Constant(5)) < term_sort_key(Constant("a"))

    def test_deterministic(self):
        terms = [Constant(2), Constant(1), Null(3), Variable("b"), Variable("a")]
        assert sorted(terms, key=term_sort_key) == sorted(terms, key=term_sort_key)


# -- hash-consing -------------------------------------------------------------------
#: One value of each kind, as (class, constructor arguments).
KINDS = [
    (Variable, ("x",)),
    (Constant, (7,)),
    (Constant, ("seven",)),
    (Null, (4,)),
    (FrozenConstant, ("x", 2)),
]
KIND_IDS = ["variable", "int-constant", "str-constant", "null", "frozen"]


@pytest.mark.parametrize("kind, args", KINDS, ids=KIND_IDS)
class TestHashConsing:
    def test_one_instance_per_value(self, kind, args):
        assert kind(*args) is kind(*args)

    def test_hash_and_eq_are_identity_slots(self, kind, args):
        # A dataclass-generated __eq__/__hash__ would be a Python function.
        assert type(kind(*args)).__hash__ is object.__hash__
        assert type(kind(*args)).__eq__ is object.__eq__

    def test_pickle_returns_the_canonical_instance(self, kind, args):
        term = kind(*args)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(term, protocol)) is term

    def test_copy_and_deepcopy_return_the_canonical_instance(self, kind, args):
        term = kind(*args)
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert copy.deepcopy([term, (term,)])[1][0] is term

    def test_replace_returns_the_canonical_instance(self, kind, args):
        term = kind(*args)
        assert dataclasses.replace(term) is term
        field = dataclasses.fields(term)[0].name
        assert dataclasses.replace(term, **{field: getattr(term, field)}) is term

    def test_fields_are_frozen(self, kind, args):
        term = kind(*args)
        field = dataclasses.fields(term)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(term, field, getattr(term, field))

    def test_term_document_reloads_identical(self, kind, args):
        term = kind(*args)
        assert term_from_dict(term_to_dict(term)) is term


_GROUND = [Constant(1), Constant("a"), Null(9), FrozenConstant("y", 3)]


def _terms(db: Database) -> list:
    return [t for atom in sorted(db.atoms(), key=Atom.sort_key) for t in atom.args]


def _assert_identical_terms(reloaded: Database, original: Database) -> None:
    got, want = _terms(reloaded), _terms(original)
    assert len(got) == len(want) == 2 * len(_GROUND)
    assert all(a is b for a, b in zip(got, want))


@pytest.mark.parametrize("backend", ("rows", "columnar"))
def test_database_documents_reload_identical_terms(backend):
    db = Database([Atom("P", (t, t)) for t in _GROUND])
    if backend == "rows":
        _assert_identical_terms(database_from_dict(database_to_dict(db)), db)
        # The legacy format-1 document (no backend tag).
        legacy = dict(database_to_dict(db), format=1)
        del legacy["backend"]
        _assert_identical_terms(database_from_dict(legacy), db)
    else:
        _assert_identical_terms(database_from_dict(columnar_document(db)), db)


def test_program_document_reloads_identical_variables():
    x, y = Variable("x"), Variable("y")
    program = Program([Rule(Atom("G", (x, y)), [Literal(Atom("A", (x, Constant(3), y)))])])
    rule = program_from_dict(program_to_dict(program)).rules[0]
    assert rule.head.args[0] is x and rule.head.args[1] is y
    assert rule.body[0].atom.args[1] is Constant(3)


@pytest.mark.parametrize("backend", ("rows", "columnar"))
def test_checkpoint_reloads_identical_terms(tmp_path, backend):
    x = Variable("x")
    program = Program([Rule(Atom("Q", (x,)), [Literal(Atom("P", (x, x)))])])
    db = Database([Atom("P", (t, t)) for t in _GROUND])
    path = tmp_path / "run.ckpt"
    CheckpointManager(path, program, engine="seminaive").write(db)
    if backend == "columnar":
        columnar_checkpoint(path)
    loaded = load_checkpoint(path)
    _assert_identical_terms(loaded.database, db)
    assert loaded.program.rules[0].head.args[0] is x


_TEXT = st.text(alphabet="abcxyz_0123", min_size=1, max_size=4)
_VALUES = {
    Variable: st.tuples(_TEXT),
    Constant: st.tuples(st.one_of(st.integers(-3, 3), _TEXT)),
    Null: st.tuples(st.integers(0, 5)),
    FrozenConstant: st.tuples(_TEXT, st.integers(0, 2)),
}
_TERMS = st.one_of(*(args.map(lambda a, k=kind: (k, a)) for kind, args in _VALUES.items()))


@given(_TERMS, _TERMS)
def test_equality_is_exactly_the_old_value_equality(left, right):
    """``a == b`` (and ``a is b``) iff the kinds match and the fields do,
    as the value dataclasses compared them."""
    (left_kind, left_args), (right_kind, right_args) = left, right
    same_value = left_kind is right_kind and left_args == right_args
    a, b = left_kind(*left_args), right_kind(*right_args)
    assert (a == b) is same_value
    assert (a is b) is same_value


class TestConstantValueTypes:
    @pytest.mark.parametrize("value", (True, False))
    def test_bool_is_rejected(self, value):
        with pytest.raises(TypeError):
            Constant(value)
        with pytest.raises(TypeError):
            coerce_term(value)
        with pytest.raises(TypeError):
            Atom.of("A", value, 1)

    @pytest.mark.parametrize("value", (1.0, None, b"a", (1,), [1]))
    def test_other_values_are_rejected(self, value):
        with pytest.raises(TypeError):
            Constant(value)
        with pytest.raises(TypeError):
            coerce_term(value)

    def test_int_and_str_subclasses_are_stored_plain(self):
        class Label(str):
            pass

        assert Constant(Label("a")) is Constant("a")
        assert type(Constant(Label("a")).value) is str
