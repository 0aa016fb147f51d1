"""Term types for Datalog: variables, constants, nulls, frozen constants.

The paper (Section II) permits only predicates, variables and constants --
no function symbols.  Two further term kinds are internal to the
algorithms of the paper:

* :class:`Null` -- labelled nulls ("unknown values", Section VIII),
  introduced when an *embedded* tgd is applied during the chase.  Once
  added, a null behaves exactly like a constant for subsequent rule and
  tgd applications, which is why :meth:`Null.is_ground` is ``True``.

* :class:`FrozenConstant` -- the distinct constants used to "freeze" the
  body of a rule into a canonical database (Section VI).  The paper
  requires these to be constants *not already appearing in the rule*;
  using a dedicated type guarantees freshness by construction.  In the
  paper's notation a variable ``x`` is frozen to the constant ``x0``.

Terms are hash-consed.  Each class keeps one canonical instance per
value, so two terms are equal exactly when they are the same object --
the paper's terms are atomic symbols -- and hashing and equality are
``object``'s identity slots, which run in C.  Pickle, :mod:`copy` and
:func:`dataclasses.replace` go back through the constructor and return
the canonical instance.  The tables are never cleared: clearing one
would let two equal terms that are not identical exist at once.  Terms
have no ``<``; :func:`term_sort_key` is the total order used for
deterministic output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

# The canonical instance of every term ever built, one table per kind.
_VARIABLES: dict = {}
_CONSTANTS: dict = {}
_NULLS: dict = {}
_FROZEN: dict = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Variable:
    """A Datalog variable, e.g. ``x`` in ``G(x, z)``.

    By the paper's convention (and this library's parser), variable
    names begin with a lowercase letter; predicates begin uppercase.
    """

    name: str

    def __new__(cls, name: str) -> "Variable":
        term = _VARIABLES.get(name)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "name", name)
            term = _VARIABLES.setdefault(name, term)
        return term

    def __reduce__(self):
        return (Variable, (self.name,))

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    @property
    def is_ground(self) -> bool:
        return False


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Constant:
    """A Datalog constant.

    The paper assumes constants are integers; for usability this library
    also accepts strings (written single-quoted in source text).  Any
    other value, ``bool`` included, raises :class:`TypeError`: ``True``
    would otherwise be the same constant as ``1``.
    """

    value: Union[int, str]

    def __new__(cls, value: Union[int, str]) -> "Constant":
        kind = type(value)
        if kind is not int and kind is not str:
            value = _constant_value(value)
        term = _CONSTANTS.get(value)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "value", value)
            term = _CONSTANTS.setdefault(value, term)
        return term

    def __reduce__(self):
        return (Constant, (self.value,))

    def __str__(self) -> str:
        if isinstance(self.value, str):
            # Escaped as the parser unescapes, so the text parses back.
            escaped = self.value.replace("\\", "\\\\").replace("'", "\\'")
            return f"'{escaped}'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    @property
    def is_ground(self) -> bool:
        return True


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Null:
    """A labelled null: an unknown value introduced by an embedded tgd.

    Section VIII: "we follow the approach of database theory and view
    Skolem functions as nulls".  Nulls are written ``δ1, δ2, ...`` in the
    paper; here they print as ``@1, @2, ...``.  Once a null is in a
    database it is treated as a constant by rule and tgd application.
    """

    ident: int

    def __new__(cls, ident: int) -> "Null":
        term = _NULLS.get(ident)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "ident", ident)
            term = _NULLS.setdefault(ident, term)
        return term

    def __reduce__(self):
        return (Null, (self.ident,))

    def __str__(self) -> str:
        return f"@{self.ident}"

    def __repr__(self) -> str:
        return f"Null({self.ident})"

    @property
    def is_ground(self) -> bool:
        return True


@dataclass(frozen=True, slots=True, eq=False, init=False)
class FrozenConstant:
    """A fresh constant standing for a frozen variable (Section VI).

    ``FrozenConstant('x', 0)`` is the paper's ``x0``: the canonical
    constant substituted for variable ``x`` when a rule body is turned
    into a database.  The ``serial`` disambiguates multiple freezings in
    one computation (e.g. when rule variables are renamed apart).
    """

    name: str
    serial: int = 0

    def __new__(cls, name: str, serial: int = 0) -> "FrozenConstant":
        key = (name, serial)
        term = _FROZEN.get(key)
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "name", name)
            object.__setattr__(term, "serial", serial)
            term = _FROZEN.setdefault(key, term)
        return term

    def __reduce__(self):
        return (FrozenConstant, (self.name, self.serial))

    def __str__(self) -> str:
        if self.serial == 0:
            return f"{self.name}#"
        return f"{self.name}#{self.serial}"

    def __repr__(self) -> str:
        return f"FrozenConstant({self.name!r}, {self.serial})"

    @property
    def is_ground(self) -> bool:
        return True


#: Any term that can appear in an atom.
Term = Union[Variable, Constant, Null, FrozenConstant]

#: Terms that count as "ground" (may appear in database facts).
GroundTerm = Union[Constant, Null, FrozenConstant]

_SORT_RANK = {Constant: 0, Null: 1, FrozenConstant: 2, Variable: 3}


def _constant_value(value) -> Union[int, str]:
    """*value* as a plain ``int`` or ``str``; ``TypeError`` for anything else."""
    if isinstance(value, int) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        return str(value)
    raise TypeError(f"a constant is an int or a str, not {type(value).__name__}: {value!r}")


def is_ground_term(term: Term) -> bool:
    """Return ``True`` iff *term* may appear in a database fact."""
    return term.is_ground


def term_sort_key(term: Term) -> tuple:
    """A total order over mixed terms, for deterministic printing.

    Constants sort before nulls before frozen constants before
    variables; within a kind, ordering is by the natural key.  Integer
    and string constant values are compared via a type tag so mixed
    databases still sort deterministically.
    """
    rank = _SORT_RANK[type(term)]
    if isinstance(term, Constant):
        tag = 0 if isinstance(term.value, int) else 1
        return (rank, tag, term.value)
    if isinstance(term, Null):
        return (rank, 0, term.ident)
    if isinstance(term, FrozenConstant):
        return (rank, 0, (term.name, term.serial))
    return (rank, 0, term.name)


class NullFactory:
    """Produces fresh, never-repeating labelled nulls.

    Each chase run owns one factory so null identities are stable and
    reproducible for a given input.
    """

    def __init__(self, start: int = 1):
        self._next = start

    def fresh(self) -> Null:
        """Return a null that this factory has never returned before."""
        null = Null(self._next)
        self._next += 1
        return null

    @property
    def issued(self) -> int:
        """Number of nulls issued so far."""
        return self._next - 1
