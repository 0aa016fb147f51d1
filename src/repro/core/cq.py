"""Conjunctive-query baseline: Chandra--Merlin and Sagiv--Yannakakis.

Section V recalls that the non-recursive case was solved before the
paper: single-rule programs by Chandra--Merlin (1977) / Aho--Sagiv--
Ullman (1979), multi-rule non-recursive programs by Sagiv--Yannakakis
(1980) via unions of tableaux.  This module implements that classical
machinery both as the baseline the paper compares its contribution
against and as the subroutine Section X needs for condition (3):
equivalence of the initialization programs.

A conjunctive query (CQ) is represented by a single positive
:class:`~repro.lang.rules.Rule`.  The homomorphism theorem:
``Q1 ⊆ Q2`` iff there is a homomorphism from ``Q2`` to ``Q1`` --
equivalently (Section VI's observation) iff the frozen head of ``Q1``
is derivable by one application of ``Q2`` on ``Q1``'s frozen body,
which is exactly uniform containment restricted to single
non-recursive rules.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..data.database import Database
from ..engine.compile import compile_kernel
from ..errors import ValidationError
from ..lang.atoms import Atom, Literal
from ..lang.freeze import freeze_rule
from ..lang.programs import Program
from ..lang.rules import Rule
from ..lang.substitution import Substitution, match_atom
from ..lang.terms import term_sort_key
from .containment import uniformly_equivalent
from .minimize import minimize_rule


def find_homomorphism(source: Rule, target: Rule) -> Optional[Substitution]:
    """A homomorphism from *source* to *target* (witness of ``target ⊆ source``).

    Maps the source's variables so that its head becomes the target's
    head and every source body atom lands in the target's body.  The
    target is frozen first, so the returned substitution maps source
    variables to the target's frozen constants.  Of several
    homomorphisms the least is returned: the one whose images of the
    remaining source variables, taken by name, come first in
    :func:`term_sort_key` order.
    """
    frozen = freeze_rule(target)
    base = match_atom(source.head, frozen.head)
    if base is None:
        return None
    db = Database(frozen.body)
    bound = tuple(base)
    free = tuple(sorted(source.variables() - set(bound), key=lambda v: v.name))
    kernel = compile_kernel(
        Atom("_", free),
        [Literal(a) for a in source.body_atoms()],
        db,
        bound=bound,
    )
    rows = kernel.run(db, seed=tuple(base.values()))
    if not rows:
        return None
    least = min(rows, key=lambda row: tuple(term_sort_key(t) for t in row))
    return Substitution({**base, **dict(zip(free, least))})


def cq_contained_in(q1: Rule, q2: Rule) -> bool:
    """Chandra--Merlin: is ``q1 ⊆ q2`` (as queries over the EDB)?

    Requires both rules to define the same head predicate with the same
    arity.  Containment holds iff ``q2`` maps homomorphically into
    ``q1``.
    """
    _require_comparable(q1, q2)
    return find_homomorphism(q2, q1) is not None


def cq_equivalent(q1: Rule, q2: Rule) -> bool:
    """Both containment directions."""
    return cq_contained_in(q1, q2) and cq_contained_in(q2, q1)


def minimize_cq(query: Rule) -> Rule:
    """The core of a conjunctive query (unique up to isomorphism).

    Delegates to the Fig. 1 algorithm, which for a single non-recursive
    rule coincides with classical tableau minimization; the paper notes
    the non-recursive minimum is unique, unlike the recursive case.
    """
    return minimize_rule(query)


def ucq_contained_in(qs1: Sequence[Rule], qs2: Sequence[Rule]) -> bool:
    """Sagiv--Yannakakis: union containment ``∪qs1 ⊆ ∪qs2``.

    For unions of conjunctive queries, containment holds iff every
    member of the left union is contained in *some* member of the right
    union.
    """
    if not qs1:
        return True
    if not qs2:
        return False
    return all(any(cq_contained_in(q1, q2) for q2 in qs2) for q1 in qs1)


def ucq_equivalent(qs1: Sequence[Rule], qs2: Sequence[Rule]) -> bool:
    """Union equivalence (both directions of :func:`ucq_contained_in`)."""
    return ucq_contained_in(qs1, qs2) and ucq_contained_in(qs2, qs1)


def initialization_programs_equivalent(p1: Program, p2: Program) -> bool:
    """Condition (3) of Section X: ``P1ⁱ ≡ P2ⁱ``.

    The initialization rules of each program are grouped per head
    predicate and compared as unions of conjunctive queries.  For
    initialization programs (bodies mention only extensional
    predicates) plain equivalence coincides with uniform equivalence,
    so this agrees with the Section VI test; the UCQ route exposes the
    classical machinery and per-predicate witnesses.
    """
    init1 = p1.initialization_program()
    init2 = p2.initialization_program()
    heads = {r.head.predicate for r in init1.rules} | {
        r.head.predicate for r in init2.rules
    }
    for pred in heads:
        if not ucq_equivalent(list(init1.rules_for(pred)), list(init2.rules_for(pred))):
            return False
    return True


def nonrecursive_equivalent(p1: Program, p2: Program) -> bool:
    """Equivalence of single-level non-recursive programs.

    Restricted to programs whose rule bodies mention only extensional
    predicates (initialization-style programs); for these, equivalence
    coincides with uniform equivalence, which is used as the oracle.
    Raises :class:`~repro.errors.ValidationError` on other programs,
    where the coincidence does not hold in general.
    """
    for program in (p1, p2):
        for rule in program.rules:
            if rule.body_predicates() & program.idb_predicates:
                raise ValidationError(
                    "nonrecursive_equivalent requires initialization-style programs "
                    f"(rule '{rule}' reads an intensional predicate); "
                    "use uniform equivalence or the Section X machinery instead"
                )
    return uniformly_equivalent(p1, p2)


def _require_comparable(q1: Rule, q2: Rule) -> None:
    if q1.head.predicate != q2.head.predicate or q1.head.arity != q2.head.arity:
        raise ValidationError(
            "conjunctive queries must define the same head predicate and arity: "
            f"{q1.head.predicate}/{q1.head.arity} vs {q2.head.predicate}/{q2.head.arity}"
        )
    for rule in (q1, q2):
        if not rule.is_positive:
            raise ValidationError(f"conjunctive query '{rule}' must be positive")
