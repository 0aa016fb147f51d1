"""Atoms and literals.

An :class:`Atom` is a predicate applied to terms, e.g. ``G(x, 3)``.
A :class:`Literal` wraps an atom with a polarity; negative literals are
used only by the stratified-negation extension (the paper's announced
follow-up work) -- the core algorithms of the paper deal in positive
atoms throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from ..errors import GroundnessError
from .terms import Constant, Term, Variable, term_sort_key


def coerce_term(value) -> Term:
    """Coerce a Python value to a :class:`Term`.

    ``int`` and ``str`` become :class:`Constant`; term instances pass
    through unchanged.  Anything else, ``bool`` included, raises
    :class:`TypeError`.  Variables must be constructed explicitly (or via
    the :func:`repro.lang.variables` convenience helper) -- implicit
    string-to-variable coercion would be too error-prone.
    """
    if isinstance(value, (int, str)):
        return Constant(value)
    if isinstance(value, (Variable,)) or getattr(value, "is_ground", None) is not None:
        return value
    raise TypeError(f"cannot use {value!r} as a Datalog term")


@dataclass(frozen=True, slots=True)
class Atom:
    """A predicate applied to a tuple of terms.

    Atoms are immutable and hashable; a ground atom (all arguments
    ground) doubles as a database fact.
    """

    predicate: str
    args: tuple[Term, ...]

    @classmethod
    def of(cls, predicate: str, *args) -> "Atom":
        """Build an atom, coercing ``int``/``str`` arguments to constants.

        >>> Atom.of("A", 1, Variable("x"))
        Atom('A', (Constant(1), Variable('x')))
        """
        return cls(predicate, tuple(coerce_term(a) for a in args))

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        """``True`` iff no argument is a variable.

        Nulls and frozen constants count as ground (Section VIII: atoms
        with nulls are viewed as ground atoms).
        """
        return all(t.is_ground for t in self.args)

    def variables(self) -> Iterator[Variable]:
        """Yield the variables of the atom, left to right, with repeats."""
        for term in self.args:
            if isinstance(term, Variable):
                yield term

    def variable_set(self) -> frozenset[Variable]:
        """The set of distinct variables appearing in the atom."""
        return frozenset(self.variables())

    def constants(self) -> Iterator[Term]:
        """Yield the ground arguments (constants, nulls, frozen constants)."""
        for term in self.args:
            if term.is_ground:
                yield term

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Atom":
        """Apply a variable-to-term mapping, returning a new atom."""
        return Atom(
            self.predicate,
            tuple(mapping.get(t, t) if isinstance(t, Variable) else t for t in self.args),
        )

    def require_ground(self) -> "Atom":
        """Return ``self`` if ground, else raise :class:`GroundnessError`."""
        if not self.is_ground:
            raise GroundnessError(f"atom {self} is not ground")
        return self

    def sort_key(self) -> tuple:
        """Deterministic total order over atoms (for stable printing)."""
        return (self.predicate, self.arity, tuple(term_sort_key(t) for t in self.args))

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self.args)
        return f"{self.predicate}({inner})"

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {self.args!r})"


@dataclass(frozen=True, slots=True)
class Literal:
    """An atom with a polarity.

    Positive literals are ordinary body atoms.  Negative literals
    (``not P(x)``) are accepted only by the stratified-negation engine;
    the paper's optimization algorithms operate on positive programs.
    """

    atom: Atom
    positive: bool = True

    @property
    def predicate(self) -> str:
        return self.atom.predicate

    @property
    def args(self) -> tuple[Term, ...]:
        return self.atom.args

    def substitute(self, mapping: Mapping[Variable, Term]) -> "Literal":
        return Literal(self.atom.substitute(mapping), self.positive)

    def negated(self) -> "Literal":
        """The literal with opposite polarity."""
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"not {self.atom}"

    def __repr__(self) -> str:
        sign = "" if self.positive else ", positive=False"
        return f"Literal({self.atom!r}{sign})"


def atoms_variables(atoms: Iterable[Atom]) -> frozenset[Variable]:
    """The set of variables appearing in any of *atoms*."""
    out: set[Variable] = set()
    for atom in atoms:
        out.update(atom.variables())
    return frozenset(out)
