"""Databases of ground atoms.

Section III: "A collection of relations, such as a database, can be
viewed as a single set consisting of all the ground atoms of these
relations."  :class:`Database` is exactly that set, stored per-predicate
for efficient joins, with lazily-built per-position hash indexes.

The same class serves as

* the EDB / input of a program,
* the combined DB (EDB plus IDB) computed by a program,
* the canonical databases of the chase (which may contain
  :class:`~repro.lang.terms.Null` and
  :class:`~repro.lang.terms.FrozenConstant` terms).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..errors import ArityError, GroundnessError
from ..lang.atoms import Atom, coerce_term
from ..obs.metrics import metrics_registry
from .indexes import PredicateIndex

#: Most composite (multi-position) indexes kept per predicate.  Compiled
#: join kernels probe a small, fixed family of bound-position sets, so a
#: modest cap covers them; past it, probes fall back to the
#: smallest-single-bucket + filter path.
_COMPOSITE_CAP = 16

#: Names ``Database(backend=...)`` accepts.  ``"columnar"`` names a
#: backend that no longer exists; it is read as the one store so older
#: callers keep working.
_BACKEND_NAMES = (None, "rows", "columnar")


class Database:
    """A mutable set of ground atoms, grouped by predicate.

    **Fault seams.** The engines reach storage through exactly three
    methods -- :meth:`candidates` (every join probe), :meth:`_add_row`
    (every insertion, via :meth:`add`/:meth:`add_fact`) and
    :meth:`contains_tuple` (every membership test; ``atom in db``
    delegates to it).  The fault-injection harness
    (:class:`repro.resilience.faults.FaultyDatabase`) relies on this: it
    subclasses ``Database`` and overrides those three seams plus
    :meth:`_union_rows`, the bulk form of ``_add_row`` behind
    :meth:`update`, so any new storage entry point added here must
    either route through them or be mirrored in the harness.

    :meth:`_insert_rows` and :meth:`_remove_rows` are the raw bulk
    primitives *below* the seams: no harness intercepts them, so
    incremental maintenance's undo log writes through them and a
    rollback cannot itself be faulted.
    """

    __slots__ = ("_relations", "_arities", "_indexes", "_size", "_scans")

    def __init__(self, atoms: Iterable[Atom] = (), backend: str | None = None):
        if backend not in _BACKEND_NAMES:
            raise ValueError(
                f"unknown storage backend {backend!r}; expected 'rows' or 'columnar'"
            )
        self._relations: dict[str, set[tuple]] = {}
        self._arities: dict[str, int] = {}
        self._indexes: dict[str, PredicateIndex] = {}
        self._size = 0
        self._scans = 0
        for atom in atoms:
            self.add(atom)

    def symbol_cardinality(self) -> int:
        """Always 0: constants are stored as terms, never interned (kept
        for callers that still read it)."""
        return 0

    def approximate_bytes(self) -> int:
        """Memory estimate for the resource governor, calibrated against
        ``tracemalloc``: per stored row its tuple (40 B + 8 B a slot) and
        its share of the relation's hash table (about 42 B), plus what
        the built indexes hold (:meth:`PredicateIndex.approximate_bytes`).
        Terms are interned process-wide, so they are not counted."""
        total = 0
        for pred, rows in self._relations.items():
            total += len(rows) * (82 + 8 * self._arities[pred])
            index = self._indexes.get(pred)
            if index is not None:
                total += index.approximate_bytes(len(rows))
        return total

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Database":
        return cls(atoms)

    @classmethod
    def from_facts(cls, facts: Mapping[str, Iterable[tuple]]) -> "Database":
        """Build from ``{"A": [(1, 2), (1, 4)], ...}`` with raw Python values."""
        db = cls()
        for pred, rows in facts.items():
            for row in rows:
                db.add_fact(pred, *row)
        return db

    def copy(self) -> "Database":
        """An independent copy (indexes are rebuilt lazily on demand).

        Deliberately constructs a plain ``Database``; subclasses that
        must survive the engines' defensive copies (e.g. the
        fault-injection wrapper) override this.
        """
        new = Database.__new__(Database)
        new._relations = {p: set(rows) for p, rows in self._relations.items()}
        new._arities = dict(self._arities)
        new._indexes = {}
        new._size = self._size
        new._scans = 0
        return new

    def empty_like(self) -> "Database":
        """A fresh empty database with the same storage behaviour.

        The semi-naive engines allocate their pre-round snapshots
        through this seam; the fault-injection wrapper overrides it so
        snapshots stay fault-wrapped under the same plan.
        """
        return Database()

    # -- mutation ----------------------------------------------------------------
    def add(self, atom: Atom) -> bool:
        """Add a ground atom; return ``True`` iff it was new."""
        if not atom.is_ground:
            raise GroundnessError(f"cannot store non-ground atom {atom}")
        return self._add_row(atom.predicate, atom.args)

    def add_fact(self, predicate: str, *args) -> bool:
        """Add a fact from raw Python values (ints/strings become constants)."""
        row = tuple(coerce_term(a) for a in args)
        for term in row:
            if not term.is_ground:
                raise GroundnessError(f"cannot store non-ground fact {predicate}{row}")
        return self._add_row(predicate, row)

    def _add_row(self, predicate: str, row: tuple) -> bool:
        known_arity = self._arities.get(predicate)
        if known_arity is None:
            self._arities[predicate] = len(row)
            self._relations[predicate] = set()
        elif known_arity != len(row):
            raise ArityError(
                f"predicate {predicate} has arity {known_arity}, got a {len(row)}-tuple"
            )
        relation = self._relations[predicate]
        if row in relation:
            return False
        relation.add(row)
        self._size += 1
        index = self._indexes.get(predicate)
        if index is not None:
            index.insert(row)
        return True

    def add_all(self, atoms: Iterable[Atom]) -> int:
        """Add many atoms; return how many were new."""
        return sum(1 for atom in atoms if self.add(atom))

    def discard(self, atom: Atom) -> bool:
        """Remove a ground atom; return ``True`` iff it was present.

        Built indexes are maintained.  Incremental view maintenance
        removes in bulk (:meth:`subtract`); most other code treats
        databases as grow-only.
        """
        rows = self._relations.get(atom.predicate)
        if rows is None or atom.args not in rows:
            return False
        rows.discard(atom.args)
        self._size -= 1
        index = self._indexes.get(atom.predicate)
        if index is not None:
            index.remove(atom.args)
        return True

    def update(self, other: "Database") -> int:
        """Union-in another database; return the number of new atoms.

        The union is **bulk**, one set difference per predicate instead
        of an :meth:`_add_row` call per row (the semi-naive end-of-round
        commit moves whole deltas this way).
        """
        added = 0
        for pred, rows in other._relations.items():
            if rows:
                arity = other._arities[pred]
                known_arity = self._arities.setdefault(pred, arity)
                if known_arity != arity:
                    raise ArityError(
                        f"predicate {pred} has arity {known_arity}, got a {arity}-tuple"
                    )
                added += self._union_rows(pred, rows)
        return added

    def subtract(self, other: "Database") -> int:
        """Remove another database's atoms; return how many were present.

        The bulk twin of :meth:`discard`, mirroring :meth:`update`: one
        set intersection and one ``-=`` per predicate, and built indexes
        are maintained in place rather than rebuilt.
        """
        return sum(
            self._remove_rows(pred, rows)
            for pred, rows in other._relations.items()
            if rows
        )

    def _union_rows(self, predicate: str, rows) -> int:
        """Bulk ``_add_row`` of another database's *rows* (of the arity
        already recorded); returns how many were new."""
        return self._insert_rows(predicate, rows)

    def _insert_rows(self, predicate: str, rows) -> int:
        """Add a set of rows of the recorded arity; returns how many were
        new.  Below the seams (see the class docstring)."""
        relation = self._relations.setdefault(predicate, set())
        fresh = rows - relation
        relation |= fresh
        self._size += len(fresh)
        index = self._indexes.get(predicate)
        if index is not None:
            for row in fresh:
                index.insert(row)
        return len(fresh)

    def _remove_rows(self, predicate: str, rows) -> int:
        """Remove an iterable of rows; returns how many were present.
        Below the seams (see the class docstring)."""
        relation = self._relations.get(predicate)
        if not relation:
            return 0
        gone = relation.intersection(rows)
        relation -= gone
        self._size -= len(gone)
        index = self._indexes.get(predicate)
        if index is not None:
            for row in gone:
                index.remove(row)
        return len(gone)

    # -- queries ---------------------------------------------------------------------
    def __contains__(self, atom: Atom) -> bool:
        return self.contains_tuple(atom.predicate, atom.args)

    def contains_tuple(self, predicate: str, row: tuple) -> bool:
        """Membership of a row: the seam every membership test goes
        through, ``atom in db`` included."""
        rows = self._relations.get(predicate)
        return rows is not None and row in rows

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {p: rows for p, rows in self._relations.items() if rows}
        theirs = {p: rows for p, rows in other._relations.items() if rows}
        return mine == theirs

    def __hash__(self):  # pragma: no cover - mutable containers are unhashable
        raise TypeError("Database is mutable and unhashable; use frozenset(db.atoms())")

    @property
    def predicates(self) -> frozenset[str]:
        """Predicates with at least one stored fact."""
        return frozenset(p for p, rows in self._relations.items() if rows)

    def arity(self, predicate: str) -> int:
        return self._arities[predicate]

    def count(self, predicate: str) -> int:
        rows = self._relations.get(predicate)
        return len(rows) if rows is not None else 0

    def tuples(self, predicate: str) -> frozenset[tuple]:
        """All tuples of one predicate (empty if unknown)."""
        rows = self._relations.get(predicate)
        return frozenset(rows) if rows is not None else frozenset()

    def atoms(self) -> Iterator[Atom]:
        """Iterate over every ground atom in the database."""
        for pred, rows in self._relations.items():
            for row in rows:
                yield Atom(pred, row)

    def atoms_for(self, predicate: str) -> Iterator[Atom]:
        for row in self._relations.get(predicate, ()):
            yield Atom(predicate, row)

    def as_atom_set(self) -> frozenset[Atom]:
        return frozenset(self.atoms())

    def restrict_to(self, predicates: Iterable[str]) -> "Database":
        """A copy containing only the given predicates' facts."""
        wanted = set(predicates)
        new = self.empty_like()
        for pred in wanted:
            for row in self._relations.get(pred, ()):
                new._add_row(pred, row)
        return new

    def difference(self, other: "Database") -> frozenset[Atom]:
        """Atoms in ``self`` but not in *other*."""
        out: set[Atom] = set()
        for pred, rows in self._relations.items():
            other_rows = other._relations.get(pred, set())
            for row in rows:
                if row not in other_rows:
                    out.add(Atom(pred, row))
        return frozenset(out)

    def issubset(self, other: "Database") -> bool:
        for pred, rows in self._relations.items():
            if rows and not rows <= other._relations.get(pred, set()):
                return False
        return True

    # -- indexed matching -----------------------------------------------------------
    def candidates(self, predicate: str, bound: Mapping[int, object]) -> Iterable[tuple]:
        """Tuples of *predicate* consistent with the *bound* positions.

        *bound* maps argument positions to required ground terms.  With
        no bound positions this is a full scan.  A single bound position
        is served from that position's bucket; several bound positions
        are served from a composite index over exactly that position
        set, built lazily on first probe (capped at
        :data:`_COMPOSITE_CAP` per predicate, past which the probe falls
        back to the smallest single bucket plus per-tuple filtering).

        Returned tuples always satisfy **all** the bound positions.
        """
        rows = self._relations.get(predicate)
        if not rows:
            return ()
        if not bound:
            self._scans += 1
            return rows
        index = self._indexes.get(predicate)
        if index is None:
            index = PredicateIndex(self._arities[predicate])
            self._indexes[predicate] = index
        if len(bound) == 1:
            ((pos, value),) = bound.items()
            if not index.has_position(pos):
                index.build(pos, rows)
            return index.bucket(pos, value) or ()
        positions = tuple(sorted(bound))
        values = tuple(bound[p] for p in positions)
        hit = index.composite_bucket(positions, values)
        if hit is None:
            if index.composite_count() < _COMPOSITE_CAP:
                index.build_composite(positions, rows)
                metrics_registry().increment("index.composite_built")
                hit = index.composite_bucket(positions, values)
            else:
                return self._filtered_candidates(index, rows, bound)
        return hit or ()

    def _filtered_candidates(
        self, index: PredicateIndex, rows: set[tuple], bound: Mapping[int, object]
    ) -> Iterable[tuple]:
        """Multi-bound fallback: smallest single bucket, filter the rest.

        An empty bucket at *any* bound position means no tuple can
        satisfy all of them, so the probe exits immediately.
        """
        best_pos = None
        best_size = None
        for pos in bound:
            if not index.has_position(pos):
                index.build(pos, rows)
            size = index.bucket_size(pos, bound[pos])
            if not size:
                return ()
            if best_size is None or size < best_size:
                best_pos, best_size = pos, size
        bucket = index.bucket(best_pos, bound[best_pos])  # type: ignore[arg-type]
        if not bucket:
            return ()
        remaining = [(p, v) for p, v in bound.items() if p != best_pos]
        return (row for row in bucket if all(row[p] == v for p, v in remaining))

    def probe_count(self) -> int:
        """Total index probes across all predicates (join-work metric)."""
        return sum(ix.probes for ix in self._indexes.values())

    def scan_count(self) -> int:
        """Unindexed full-relation scans served by :meth:`candidates`.

        Together with :meth:`probe_count` this splits the join access
        pattern: probes hit an index bucket, scans walk a whole
        relation (a subgoal with no bound positions).  Engine root
        spans attach both (see :mod:`repro.obs.tracer`).
        """
        return self._scans

    # -- presentation ------------------------------------------------------------------
    def __str__(self) -> str:
        from ..lang.pretty import format_atoms

        return format_atoms(self.atoms())

    def __repr__(self) -> str:
        counts = ", ".join(f"{p}:{len(rows)}" for p, rows in sorted(self._relations.items()) if rows)
        return f"<Database {self._size} atoms ({counts})>"
