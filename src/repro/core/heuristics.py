"""Heuristic discovery of candidate tgds (Section XI).

Optimization under plain equivalence needs a tgd that witnesses the
redundancy of some body atoms.  The paper observes that the tgd used in
Example 18 (``G(y, z) -> A(y, w)`` for the rule
``G(x, z) :- G(x, y), G(y, z), A(y, w)``) is built from atoms of the
rule's own body, and distills three syntactic properties for candidate
tgds:

1. the left-hand side has the same predicate as the head of the rule
   being optimized;
2. if the tgd has a variable ``w`` appearing only in its right-hand
   side, then *all* body atoms containing ``w`` are in the right-hand
   side;
3. all such right-hand-side-only variables do not occur in the rule's
   head.

:func:`candidate_tgds` enumerates the (bounded) space of body-atom
splits with these properties, most-specific first (larger right-hand
sides first, since the RHS atoms are the ones deleted if the proof
succeeds).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from ..lang.rules import Rule
from .tgds import Tgd


@dataclass(frozen=True)
class TgdCandidate:
    """A candidate tgd plus the body positions it would delete."""

    tgd: Tgd
    rhs_body_positions: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.tgd}  (deletes body positions {list(self.rhs_body_positions)})"


def candidate_tgds(
    rule: Rule,
    max_lhs_atoms: int = 2,
    max_rhs_atoms: int = 3,
) -> Iterator[TgdCandidate]:
    """Enumerate candidate tgds for optimizing *rule* (Section XI).

    Only positive rules are supported (the paper's fragment).  Yields
    candidates with larger right-hand sides first, ties broken on the
    tgd's text; the caller tries each with
    :func:`repro.core.equivalence.prove_equivalence_with_constraints`.

    Built lazily: the splits are checked and ordered on body positions
    and cached atom text, and a :class:`TgdCandidate` is constructed only
    when it is yielded, so a caller that reads a prefix (the linter's
    first few, the optimizer's first proof) pays for that prefix.
    """
    body = rule.body_atoms()
    head_pred = rule.head.predicate
    head_vars = rule.head.variable_set()

    lhs_pool = [i for i, atom in enumerate(body) if atom.predicate == head_pred]
    if not lhs_pool:
        return

    texts = [str(atom) for atom in body]
    variables = [atom.variable_set() for atom in body]
    #: var -> set of body positions containing it (for property 2).
    positions_of: dict = {}
    for i, atom_vars in enumerate(variables):
        for var in atom_vars:
            positions_of.setdefault(var, set()).add(i)
    #: Position -> the first position holding an equal atom, so splits
    #: that differ only in which copy of a repeated atom they take are
    #: recognised as the same tgd.
    first_equal = [body.index(atom) for atom in body]

    seen: set[tuple[tuple[int, ...], tuple[int, ...]]] = set()
    #: (sort key, lhs positions, rhs positions); the key's text is what
    #: ``format_tgd`` renders for the candidate's tgd.
    splits: list[tuple[tuple[int, str], tuple[int, ...], tuple[int, ...]]] = []
    for lhs_size in range(1, min(max_lhs_atoms, len(lhs_pool)) + 1):
        for lhs_positions in itertools.combinations(lhs_pool, lhs_size):
            lhs_vars = frozenset().union(*(variables[i] for i in lhs_positions))
            lhs_text = ", ".join(texts[i] for i in lhs_positions)
            rhs_pool = [i for i in range(len(body)) if i not in lhs_positions]
            max_rhs = min(max_rhs_atoms, len(rhs_pool))
            for rhs_size in range(1, max_rhs + 1):
                for rhs_positions in itertools.combinations(rhs_pool, rhs_size):
                    if not _properties_hold(
                        lhs_vars, rhs_positions, variables, positions_of, head_vars
                    ):
                        continue
                    key = (
                        tuple(first_equal[i] for i in lhs_positions),
                        tuple(first_equal[i] for i in rhs_positions),
                    )
                    if key in seen:
                        continue
                    seen.add(key)
                    rhs_text = " & ".join(texts[i] for i in rhs_positions)
                    splits.append(
                        ((-rhs_size, f"{lhs_text} -> {rhs_text}"), lhs_positions, rhs_positions)
                    )
    # Most atoms deleted first; deterministic tie-break on the rendering.
    splits.sort(key=itemgetter(0))
    for _key, lhs_positions, rhs_positions in splits:
        tgd = Tgd(
            tuple(body[i] for i in lhs_positions), tuple(body[i] for i in rhs_positions)
        )
        yield TgdCandidate(tgd, rhs_positions)


def _properties_hold(
    lhs_vars,
    rhs_positions: tuple[int, ...],
    variables: list,
    positions_of: dict,
    head_vars,
) -> bool:
    """Check properties 2 and 3 for one candidate split."""
    rhs_set = set(rhs_positions)
    for i in rhs_positions:
        for var in variables[i]:
            if var in lhs_vars:
                continue
            # Property 3: existential variables must not reach the head.
            if var in head_vars:
                return False
            # Property 2: every body atom containing the variable is in the RHS.
            if not positions_of[var] <= rhs_set:
                return False
    return True
