"""Synthetic program families, with and without planted redundancies.

Benchmarks need programs whose redundant parts are known by
construction.  Two planting mechanisms are used, mirroring the two
kinds of redundancy the paper removes:

* **redundant atoms** -- a *weakened copy* of an existing body atom
  (some arguments replaced by fresh variables that occur nowhere else)
  is always redundant under uniform equivalence: the identity map plus
  "fresh variable -> the argument it weakened" is a homomorphism back
  onto the original body.

* **redundant rules** -- a rule derivable from the remaining rules
  (e.g. ``G(x,z) :- A(x,y1), A(y1,y2), ..., A(yk,z)`` is uniformly
  contained in the transitive-closure program for every ``k``).

Random generators take explicit seeds and are deterministic.
"""

from __future__ import annotations

import random

from ..lang.atoms import Atom, Literal
from ..lang.parser import parse_program
from ..lang.programs import Program
from ..lang.rules import Rule
from ..lang.terms import Variable


def tc_nonlinear() -> Program:
    """Example 1: transitive closure with the doubly-recursive rule."""
    return parse_program(
        """
        G(x, z) :- A(x, z).
        G(x, z) :- G(x, y), G(y, z).
        """
    )


def tc_linear() -> Program:
    """Example 4: right-linear transitive closure."""
    return parse_program(
        """
        G(x, z) :- A(x, z).
        G(x, z) :- A(x, y), G(y, z).
        """
    )


def reachability() -> Program:
    """Single-source reachability: unary closure of ``A`` from ``S``.

    The IDB stays linear in the number of reachable *nodes* (not node
    pairs), which is what lets the million-fact storage workload
    (``reach/random``) run to fixpoint -- the working set is dominated
    by the EDB, so its byte-per-fact footprint is what a memory cap
    actually measures.
    """
    return parse_program(
        """
        R(x) :- S(x).
        R(y) :- R(x), A(x, y).
        """
    )


def same_generation() -> Program:
    """The classic same-generation program over ``Par`` (parent) edges."""
    return parse_program(
        """
        Sg(x, x) :- Per(x).
        Sg(x, y) :- Par(xp, x), Sg(xp, yp), Par(yp, y).
        """
    )


def ancestry() -> Program:
    """Ancestor program over ``Par`` edges."""
    return parse_program(
        """
        Anc(x, y) :- Par(x, y).
        Anc(x, y) :- Par(x, z), Anc(z, y).
        """
    )


def tc_with_redundant_atoms(k: int) -> Program:
    """Transitive closure whose recursive rule carries ``k`` planted
    redundant atoms ``G(x, s1), ..., G(x, sk)`` (weakened copies of
    ``G(x, y)``), all removable under uniform equivalence."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    body = [Literal(Atom("G", (x, y))), Literal(Atom("G", (y, z)))]
    for i in range(k):
        body.append(Literal(Atom("G", (x, Variable(f"s{i + 1}")))))
    recursive = Rule(Atom("G", (x, z)), body)
    init = Rule(Atom("G", (x, z)), [Literal(Atom("A", (x, z)))])
    return Program.of(init, recursive)


def tc_with_redundant_rules(k: int) -> Program:
    """Transitive closure plus ``k`` redundant path rules of lengths 2..k+1."""
    program = tc_nonlinear()
    for length in range(2, k + 2):
        variables = [Variable("x")] + [Variable(f"y{i}") for i in range(1, length)] + [Variable("z")]
        body = [
            Literal(Atom("A", (variables[i], variables[i + 1])))
            for i in range(length)
        ]
        program = program.with_rule(Rule(Atom("G", (Variable("x"), Variable("z"))), body))
    return program


def guarded_tc(k: int) -> Program:
    """Example 18's family: TC whose recursive rule has ``k`` guard atoms
    ``A(y, w1), ..., A(y, wk)``.  Guards beyond the first fold into each
    other under uniform equivalence (they are mutual weakened copies);
    the *last* guard is redundant only under plain *equivalence*, via
    the tgd ``G(x, z) -> A(x, w)`` -- Fig. 2 alone can never produce the
    plain transitive closure from this family."""
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    body = [Literal(Atom("G", (x, y))), Literal(Atom("G", (y, z)))]
    for i in range(k):
        body.append(Literal(Atom("A", (y, Variable(f"w{i + 1}")))))
    recursive = Rule(Atom("G", (x, z)), body)
    init = Rule(Atom("G", (x, z)), [Literal(Atom("A", (x, z)))])
    return Program.of(init, recursive)


def wide_rule(core_atoms: int, redundant_atoms: int, seed: int) -> Rule:
    """A single recursive rule with a random core and planted redundancy.

    The core is a connected chain ``G(x, v0), A(v0, v1), ..,
    A(v_{core_atoms-1}, z)`` with head ``G(x, z)``; each planted atom is
    a weakened copy of a random core atom (one argument position
    replaced by a fresh variable), hence redundant by construction.
    The *core* atoms, being a simple chain with all variables chained to
    the head, are pairwise non-redundant.
    """
    rng = random.Random(seed)
    x, z = Variable("x"), Variable("z")
    chain_vars = [Variable(f"v{i}") for i in range(core_atoms)]
    core: list[Atom] = [Atom("G", (x, chain_vars[0]))]
    for i in range(core_atoms - 1):
        core.append(Atom("A", (chain_vars[i], chain_vars[i + 1])))
    core.append(Atom("A", (chain_vars[-1], z)))
    body: list[Atom] = list(core)
    for i in range(redundant_atoms):
        template = rng.choice(core)
        position = rng.randrange(template.arity)
        args = list(template.args)
        args[position] = Variable(f"f{i}")
        body.append(Atom(template.predicate, tuple(args)))
    return Rule(Atom("G", (x, z)), [Literal(a) for a in body])


def andersen() -> Program:
    """Inclusion-based (Andersen) points-to analysis.

    EDB relations: ``Addr(p, a)`` for ``p = &a``, ``Copy(p, q)`` for
    ``p = q``, ``Load(p, q)`` for ``p = *q``, ``Store(p, q)`` for
    ``*p = q``.  The modern flagship Datalog workload (Doop, Soufflé).
    """
    return parse_program(
        """
        Pts(p, a) :- Addr(p, a).
        Pts(p, a) :- Copy(p, q), Pts(q, a).
        Pts(p, a) :- Load(p, q), Pts(q, v), Pts(v, a).
        Pts(v, a) :- Store(p, q), Pts(p, v), Pts(q, a).
        """
    )


def pointer_statements(statements: int, variables: int, seed: int):
    """A random straight-line pointer program as an EDB for :func:`andersen`."""
    from ..data.database import Database

    rng = random.Random(seed)
    db = Database()
    for _ in range(statements):
        kind = rng.random()
        p = f"v{rng.randrange(variables)}"
        q = f"v{rng.randrange(variables)}"
        if kind < 0.35:
            db.add_fact("Addr", p, f"obj{rng.randrange(variables)}")
        elif kind < 0.65:
            db.add_fact("Copy", p, q)
        elif kind < 0.85:
            db.add_fact("Load", p, q)
        else:
            db.add_fact("Store", p, q)
    return db


def random_positive_program(
    rules: int,
    max_body: int,
    predicates: int,
    variables_per_rule: int,
    seed: int,
) -> Program:
    """A random safe positive program (for property-based testing).

    Head predicates are drawn from ``G0..``; body predicates mix IDB and
    EDB (``E0..``).  Safety is enforced by construction: the head uses
    only variables that appear in the body.
    """
    rng = random.Random(seed)
    out: list[Rule] = []
    for _ in range(rules):
        body_size = rng.randint(1, max_body)
        variables = [Variable(f"v{i}") for i in range(variables_per_rule)]
        body: list[Literal] = []
        for _ in range(body_size):
            if rng.random() < 0.5:
                pred = f"E{rng.randrange(predicates)}"
            else:
                pred = f"G{rng.randrange(predicates)}"
            args = (rng.choice(variables), rng.choice(variables))
            body.append(Literal(Atom(pred, args)))
        body_vars = sorted(
            {v for lit in body for v in lit.atom.variables()}, key=lambda v: v.name
        )
        head_args = (rng.choice(body_vars), rng.choice(body_vars))
        head = Atom(f"G{rng.randrange(predicates)}", head_args)
        out.append(Rule(head, body))
    return Program(out)
