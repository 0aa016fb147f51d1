"""Named workload suites for the benchmark harness.

Each suite packages a program (possibly with planted redundancies), a
matching EDB generator, and optional tgds/queries, so that the
benchmarks in ``benchmarks/`` stay declarative and EXPERIMENTS.md can
point at one identifier per measurement series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..core.tgds import Tgd
from ..data.database import Database
from ..lang.atoms import Atom
from ..lang.parser import parse_atom, parse_tgd
from ..lang.programs import Program
from . import graphs, programs


@dataclass(frozen=True)
class Workload:
    """A named (program, EDB generator) pairing for benchmarking.

    ``edb`` takes the size parameter and generates the extensional
    database.
    """

    name: str
    program: Program
    edb: Callable[..., Database]
    description: str
    tgds: tuple[Tgd, ...] = ()
    query: Optional[Atom] = None
    expected_minimal: Optional[Program] = None


def _tc_edb_chain(n: int) -> Database:
    return graphs.chain(n)


def _tc_edb_random(n: int) -> Database:
    # Edge count ~2n keeps the closure quadratic but tractable.
    return graphs.random_graph(n, 2 * n, seed=7)


def _ex19_edb(n: int) -> Database:
    return graphs.merged(
        graphs.chain(n),
        graphs.unary_marks(range(n + 1)),
    )


def tc_redundant_atoms(k: int, base: str = "chain") -> Workload:
    """Q2 series: TC with *k* planted redundant atoms in the recursive rule."""
    edb = _tc_edb_chain if base == "chain" else _tc_edb_random
    return Workload(
        name=f"tc+{k}atoms/{base}",
        program=programs.tc_with_redundant_atoms(k),
        edb=edb,
        description=f"transitive closure, recursive rule carries {k} redundant atoms",
        expected_minimal=programs.tc_nonlinear(),
    )


def tc_redundant_rules(k: int, base: str = "chain") -> Workload:
    """Q2 series: TC plus *k* redundant path rules."""
    edb = _tc_edb_chain if base == "chain" else _tc_edb_random
    return Workload(
        name=f"tc+{k}rules/{base}",
        program=programs.tc_with_redundant_rules(k),
        edb=edb,
        description=f"transitive closure plus {k} redundant path rules",
        expected_minimal=programs.tc_nonlinear(),
    )


def guarded_tc_workload(k: int) -> Workload:
    """Q8 series: Example-18 family, removable only under equivalence."""
    return Workload(
        name=f"guarded-tc+{k}",
        program=programs.guarded_tc(k),
        edb=_tc_edb_chain,
        description=f"TC with {k} guards redundant under equivalence only",
        tgds=(parse_tgd("G(x, z) -> A(x, w)"),),
        expected_minimal=programs.tc_nonlinear(),
    )


def de_copy_workload() -> Workload:
    """Data-exchange copy mapping (Grahne--Onet): full tgds only.

    The source edges are copied verbatim into the target relation, so
    the tgd set is full-only and the chase terminates on any input
    without inventing nulls.
    """
    return Workload(
        name="de-copy",
        program=programs.tc_nonlinear(),
        edb=_tc_edb_chain,
        description="data exchange: copy source edges into the target (full-only)",
        tgds=(parse_tgd("A(x, y) -> T(x, y)"),),
    )


def de_fusion_workload() -> Workload:
    """Data-exchange fusion mapping: one invented join value per edge.

    Each source edge is split through a fresh null (``F(x, w)``,
    ``F(w, y)``); the position graph has special edges but no cycle, so
    the set is weakly acyclic (rank 1) and the certified chase saturates.
    """
    return Workload(
        name="de-fusion",
        program=programs.tc_nonlinear(),
        edb=_tc_edb_chain,
        description="data exchange: fuse edges through invented values (weakly acyclic)",
        tgds=(parse_tgd("A(x, y) -> F(x, w) & F(w, y)"),),
    )


def de_chain_workload() -> Workload:
    """Data-exchange existential chain: nulls beget nulls, boundedly.

    Invented values cascade through three levels (``A -> H -> K -> L``)
    but never feed back, so the set is weakly acyclic with rank 3 --
    the deepest finite-rank shape in the suite.
    """
    return Workload(
        name="de-chain",
        program=programs.tc_nonlinear(),
        edb=_tc_edb_chain,
        description="data exchange: three-level existential chain (weakly acyclic, rank 3)",
        tgds=(
            parse_tgd("A(x, y) -> H(x, w)"),
            parse_tgd("H(x, y) -> K(y, v)"),
            parse_tgd("K(x, y) -> L(y, v)"),
        ),
    )


def tc_chain_workload() -> Workload:
    """Plain nonlinear transitive closure over a chain, no redundancy.

    A chain of *n* edges closes to a quadratic IDB through semi-naive
    rounds with fat deltas, so the join loop sets the time.
    """
    return Workload(
        name="tc/chain",
        program=programs.tc_nonlinear(),
        edb=_tc_edb_chain,
        description="plain nonlinear transitive closure over a chain",
    )


def magic_tc_workload() -> Workload:
    """Q6: single-source reachability query over linear TC."""
    return Workload(
        name="magic-tc",
        program=programs.tc_linear(),
        edb=_tc_edb_random,
        description="reachability from node 0, magic-sets friendly",
        query=parse_atom("G(0, x)"),
    )


def andersen_workload() -> Workload:
    """Domain workload: Andersen points-to over random pointer programs."""

    def edb(n: int) -> Database:
        return programs.pointer_statements(
            statements=n, variables=max(4, n // 8), seed=23
        )

    return Workload(
        name="andersen",
        program=programs.andersen(),
        edb=edb,
        description="inclusion-based points-to analysis on random pointer code",
    )


def same_generation_workload() -> Workload:
    """Domain workload: same-generation over a random tree + person marks."""

    def edb(n: int) -> Database:
        tree = graphs.random_tree(n, seed=11, predicate="Par")
        people = graphs.unary_marks(range(n), predicate="Per")
        return graphs.merged(tree, people)

    return Workload(
        name="same-generation",
        program=programs.same_generation(),
        edb=edb,
        description="same-generation over a random parent tree",
    )


def reach_workload() -> Workload:
    """The million-fact storage workload: single-source reachability.

    The IDB (reachable nodes) is tiny next to the EDB (random edges),
    so evaluation cost is storage cost: parsing, inserting and indexing
    the EDB, not the join loop.
    """

    def edb(n: int) -> Database:
        return graphs.single_source(n, seed=5)

    return Workload(
        name="reach/random",
        program=programs.reachability(),
        edb=edb,
        description="single-source reachability over a random million-edge EDB",
    )


#: The standard suite indexed by name.
SUITES: dict[str, Callable[[], Workload]] = {
    "tc/chain": tc_chain_workload,
    "tc+2atoms/chain": lambda: tc_redundant_atoms(2, "chain"),
    "tc+4atoms/chain": lambda: tc_redundant_atoms(4, "chain"),
    "tc+2atoms/random": lambda: tc_redundant_atoms(2, "random"),
    "tc+3rules/chain": lambda: tc_redundant_rules(3, "chain"),
    "tc+3rules/random": lambda: tc_redundant_rules(3, "random"),
    "guarded-tc+1": lambda: guarded_tc_workload(1),
    "guarded-tc+2": lambda: guarded_tc_workload(2),
    "de-copy": de_copy_workload,
    "de-fusion": de_fusion_workload,
    "de-chain": de_chain_workload,
    "magic-tc": magic_tc_workload,
    "same-generation": same_generation_workload,
    "andersen": andersen_workload,
    "reach/random": reach_workload,
}


def load(name: str) -> Workload:
    """Look up a named workload; raise ``KeyError`` with suggestions."""
    try:
        return SUITES[name]()
    except KeyError:
        known = ", ".join(sorted(SUITES))
        raise KeyError(f"unknown workload {name!r}; known: {known}") from None
