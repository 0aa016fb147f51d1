"""Synthetic EDB generators.

The paper reports no machine experiments (it is a 1987 theory paper),
so the quantitative benchmarks need synthetic extensional databases.
All generators are deterministic given their arguments (random ones
take an explicit ``seed``), return a fresh
:class:`~repro.data.database.Database`, and store edges in a binary
predicate (default ``A``, the paper's edge relation).
"""

from __future__ import annotations

import random
from typing import Iterable

from ..data.database import Database


def chain(n: int, predicate: str = "A", offset: int = 0) -> Database:
    """A path ``offset -> offset+1 -> ... -> offset+n`` (n edges)."""
    db = Database()
    for i in range(n):
        db.add_fact(predicate, offset + i, offset + i + 1)
    return db


def cycle(n: int, predicate: str = "A") -> Database:
    """A directed cycle over ``n`` nodes (n edges)."""
    if n < 1:
        return Database()
    db = chain(n - 1, predicate)
    db.add_fact(predicate, n - 1, 0)
    return db


def star(n: int, predicate: str = "A", center: int = 0) -> Database:
    """Edges from one center to ``n`` leaves."""
    db = Database()
    for i in range(1, n + 1):
        db.add_fact(predicate, center, center + i)
    return db


def complete(n: int, predicate: str = "A") -> Database:
    """All ``n·(n-1)`` directed edges between distinct nodes."""
    db = Database()
    for i in range(n):
        for j in range(n):
            if i != j:
                db.add_fact(predicate, i, j)
    return db


def random_graph(
    n: int, m: int, seed: int, predicate: str = "A"
) -> Database:
    """``m`` distinct random directed edges over ``n`` nodes (no loops)."""
    rng = random.Random(seed)
    limit = n * (n - 1)
    if m > limit:
        raise ValueError(f"cannot place {m} distinct edges on {n} nodes (max {limit})")
    db = Database()
    placed = 0
    seen: set[tuple[int, int]] = set()
    while placed < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or (u, v) in seen:
            continue
        seen.add((u, v))
        db.add_fact(predicate, u, v)
        placed += 1
    return db


def single_source(
    n: int,
    seed: int,
    predicate: str = "A",
    source_predicate: str = "S",
) -> Database:
    """``n`` random edges over ``max(2, n // 10)`` nodes plus ``S(0)``.

    The single-source-reachability EDB: dense enough that most nodes
    are reachable from the marked source, sparse enough that generation
    stays linear in ``n``.  Self-loops and duplicates are allowed (the
    database deduplicates), which keeps generation a single pass even
    at millions of edges -- the million-fact storage workload
    (``reach/random``) is built through this generator.
    """
    rng = random.Random(seed)
    nodes = max(2, n // 10)
    db = Database()
    db.add_fact(source_predicate, 0)
    for _ in range(n):
        db.add_fact(predicate, rng.randrange(nodes), rng.randrange(nodes))
    return db


def random_tree(n: int, seed: int, predicate: str = "A") -> Database:
    """A random parent->child tree over nodes ``0..n-1`` (root 0)."""
    rng = random.Random(seed)
    db = Database()
    for child in range(1, n):
        parent = rng.randrange(child)
        db.add_fact(predicate, parent, child)
    return db


def grid(width: int, height: int, predicate: str = "A") -> Database:
    """Right/down edges over a ``width × height`` grid (node = y*width+x)."""
    db = Database()
    for y in range(height):
        for x in range(width):
            node = y * width + x
            if x + 1 < width:
                db.add_fact(predicate, node, node + 1)
            if y + 1 < height:
                db.add_fact(predicate, node, node + width)
    return db


def layered_dag(
    layers: int, width: int, fanout: int, seed: int, predicate: str = "A",
) -> Database:
    """A DAG of ``layers`` layers of ``width`` nodes, ``fanout`` edges each."""
    rng = random.Random(seed)
    db = Database()
    for layer in range(layers - 1):
        for position in range(width):
            node = layer * width + position
            targets = rng.sample(range(width), min(fanout, width))
            for t in targets:
                db.add_fact(predicate, node, (layer + 1) * width + t)
    return db


def unary_marks(nodes: Iterable[int], predicate: str = "C") -> Database:
    """Unary facts ``C(n)`` for each node (Example 19's ``C`` relation)."""
    db = Database()
    for node in nodes:
        db.add_fact(predicate, node)
    return db


def merged(*dbs: Database) -> Database:
    """The union of several databases as a new database."""
    out = dbs[0].empty_like() if dbs else Database()
    for db in dbs:
        out.update(db)
    return out
