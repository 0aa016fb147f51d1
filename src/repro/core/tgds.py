"""Tuple-generating dependencies (Section VIII).

A tgd is a formula ``∀x̄ ∃ȳ [ψ1(x̄) → ψ2(x̄, ȳ)]`` written without
quantifiers, e.g. ``G(y, z) -> G(y, w) & C(w)``:

* **universally quantified** variables appear in the left-hand side
  (and possibly the right-hand side);
* **existentially quantified** variables appear only in the right-hand
  side;
* a tgd is **full** if it has no existential variables, otherwise
  **embedded**.

Applying a full tgd to a database is the same as applying one Datalog
rule per right-hand-side atom (Example 10).  Applying an embedded tgd
introduces fresh labelled nulls for the existential variables; the
paper's Example of ``G(x, y) -> A(x, w) ∧ G(w, y)``: from ``G(3, 2)``
add ``A(3, δ23)`` and ``G(δ23, 2)``.  Once added, nulls behave as
constants.

The tgds here are *untyped*, exactly as the paper notes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..data.database import Database
from ..engine.compile import JoinKernel, compile_kernel
from ..errors import TgdError
from ..lang.atoms import Atom, Literal, atoms_variables
from ..lang.rules import Rule
from ..lang.substitution import Substitution
from ..lang.terms import NullFactory, Term, Variable, term_sort_key


@dataclass(frozen=True)
class Tgd:
    """A tuple-generating dependency ``lhs -> rhs``."""

    lhs: tuple[Atom, ...]
    rhs: tuple[Atom, ...]
    _universal: frozenset[Variable] = field(init=False, repr=False, compare=False, hash=False)
    _existential: frozenset[Variable] = field(init=False, repr=False, compare=False, hash=False)
    _compiled: Optional[tuple] = field(init=False, repr=False, compare=False, hash=False)

    def __init__(self, lhs: tuple[Atom, ...] | list[Atom], rhs: tuple[Atom, ...] | list[Atom]):
        object.__setattr__(self, "lhs", tuple(lhs))
        object.__setattr__(self, "rhs", tuple(rhs))
        if not self.lhs:
            raise TgdError("tgd has an empty left-hand side")
        if not self.rhs:
            raise TgdError("tgd has an empty right-hand side")
        universal = atoms_variables(self.lhs)
        existential = atoms_variables(self.rhs) - universal
        object.__setattr__(self, "_universal", universal)
        object.__setattr__(self, "_existential", existential)
        object.__setattr__(self, "_compiled", None)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_compiled": None}

    @classmethod
    def parse(cls, source: str) -> "Tgd":
        """Parse from text, e.g. ``Tgd.parse("G(x, z) -> A(x, w)")``."""
        from ..lang.parser import parse_tgd

        return parse_tgd(source)

    # -- structure ---------------------------------------------------------------
    @property
    def universal_variables(self) -> frozenset[Variable]:
        return self._universal

    @property
    def existential_variables(self) -> frozenset[Variable]:
        return self._existential

    @property
    def is_full(self) -> bool:
        """``True`` iff the tgd has no existentially quantified variables."""
        return not self._existential

    def predicates(self) -> frozenset[str]:
        return frozenset(a.predicate for a in self.lhs) | frozenset(
            a.predicate for a in self.rhs
        )

    def as_rules(self) -> tuple[Rule, ...]:
        """A full tgd as Datalog rules, one per RHS atom (Example 10).

        Raises :class:`TgdError` for an embedded tgd, whose application
        needs nulls and cannot be expressed as Datalog rules.
        """
        if not self.is_full:
            raise TgdError(f"embedded tgd '{self}' cannot be converted to Datalog rules")
        body = [Literal(a) for a in self.lhs]
        return tuple(Rule(head, body) for head in self.rhs)

    # -- semantics ----------------------------------------------------------------
    def _kernels(self, db: Database) -> tuple[JoinKernel, JoinKernel]:
        """The trigger's two conjunctive queries, compiled once per tgd
        (never pickled).  The LHS kernel's rows are the distinct θ over
        the universal variables taken by name; the RHS kernel pre-binds
        them and has an empty head, so seeded with θ it yields ``{()}``
        iff a witness extends θ."""
        if self._compiled is None:
            universal = tuple(sorted(self._universal, key=lambda v: v.name))
            lhs = compile_kernel(
                Atom("_", universal), [Literal(a) for a in self.lhs], db
            )
            rhs = compile_kernel(
                Atom("_", ()), [Literal(a) for a in self.rhs], db, bound=universal
            )
            object.__setattr__(self, "_compiled", (lhs, rhs))
        return self._compiled

    def violations(self, db: Database) -> Iterator[Substitution]:
        """Instantiations of the universal variables that violate the tgd.

        Yields each substitution θ such that ``lhs·θ ⊆ db`` but no
        extension of θ makes ``rhs`` a subset of ``db``.  θ is restricted
        to the universal variables, and the θs come in
        :func:`term_sort_key` order of their values over the universal
        variables taken by name, so the first one never depends on set
        iteration order.
        """
        lhs, rhs = self._kernels(db)
        for row in sorted(lhs.run(db), key=lambda row: tuple(map(term_sort_key, row))):
            if not rhs.run(db, seed=row):
                yield Substitution(dict(zip(rhs.bound, row)))

    def _rhs_matchable(self, db: Database, theta: Substitution) -> bool:
        rhs = self._kernels(db)[1]
        return bool(rhs.run(db, seed=tuple(theta[v] for v in rhs.bound)))

    def is_satisfied_by(self, db: Database) -> bool:
        """Whether *db* satisfies the tgd (no violating instantiation)."""
        return next(self.violations(db), None) is None

    def exhibits_violation(self, db: Database, theta: Substitution) -> bool:
        """Whether the specific instantiation θ exhibits a violation in *db*.

        Used by the Fig. 3 preservation procedure, which tracks one
        distinguished instantiation of the tgd's left-hand side.  θ must
        bind every universal variable to a ground term; the LHS under θ
        is assumed (not checked) to be in the relevant database.
        """
        return not self._rhs_matchable(db, theta)

    def apply(self, db: Database, nulls: NullFactory, theta: Substitution) -> list[Atom]:
        """Apply the tgd for the violating instantiation θ, mutating *db*.

        Extends θ with a fresh null per existential variable, adds the
        instantiated RHS atoms, and returns the atoms that were new.
        """
        extension: dict[Variable, Term] = dict(theta)
        for var in sorted(self._existential, key=lambda v: v.name):
            extension[var] = nulls.fresh()
        added = []
        for atom in self.rhs:
            ground = atom.substitute(extension)
            if db.add(ground):
                added.append(ground)
        return added

    def apply_all_once(self, db: Database, nulls: NullFactory) -> int:
        """One chase round: fix every current violation; return atoms added.

        Violations are computed against the database state at the start
        of the round (their list is materialized first), matching the
        standard-chase convention that a round repairs the violations it
        can see.  They are repaired in the order :meth:`violations` yields
        them, so null labels and counts never depend on set iteration
        order.
        """
        added = 0
        for theta in list(self.violations(db)):
            # Re-check: an earlier repair in this round may have
            # satisfied this instantiation already.
            if self._rhs_matchable(db, theta):
                continue
            added += len(self.apply(db, nulls, theta))
        return added

    # -- presentation ----------------------------------------------------------------
    def __str__(self) -> str:
        from ..lang.pretty import format_tgd

        return format_tgd(self)


def parse_tgds(source: str) -> list[Tgd]:
    """Parse several tgds from text (newline- or ``.``-separated)."""
    from ..lang.parser import parse_tgds as _parse

    return _parse(source)


def satisfies_all(db: Database, tgds: list[Tgd]) -> bool:
    """Whether *db* satisfies every tgd in *tgds* (``db ∈ SAT(T)``)."""
    return all(t.is_satisfied_by(db) for t in tgds)


def first_violation(db: Database, tgds: list[Tgd]) -> Optional[tuple[Tgd, Substitution]]:
    """The first violated tgd with a violating instantiation, if any."""
    for tgd in tgds:
        for theta in tgd.violations(db):
            return tgd, theta
    return None
