"""Columnar storage: interned constants, ``array('q')`` columns, int views.

ROADMAP item 2: constants are interned to dense ints in a process-wide
:class:`SymbolTable` at load time, and every relation stores its facts
as per-position ``array('q')`` column logs plus a live set of int
tuples.  Join probes then compare machine ints instead of hashing Term
dataclasses, which is where the compiled kernels
(:mod:`repro.engine.compile`) get their throughput.

The backend is selected through the existing :class:`~.database.Database`
constructor -- ``Database(backend="columnar")`` -- and preserves the five
documented storage seams (``candidates`` / ``_add_row`` /
``contains_tuple`` / ``empty_like`` / ``copy``) bit-for-bit in behaviour;
see ``docs/STORAGE.md`` for the full contract.

**Representation convention ("ints pass through, Terms encode").**
Inside a columnar database a row is a tuple of interned ints.  Every
seam accepts both representations: an ``int`` argument is already
storage-encoded and passes through untouched, a
:class:`~repro.lang.terms.Term` argument is interned on the way in.
Decoding back to Terms happens only at output boundaries --
:meth:`ColumnarDatabase.atoms`, :meth:`ColumnarDatabase.decode_row`,
serialization, and pretty printing.  Engines therefore run their entire
fixpoint on ints and pay the decode cost once, on the final answers.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator, Mapping

from ..errors import ArityError, GroundnessError
from ..lang.atoms import Atom
from ..lang.terms import Term, Variable
from ..obs.metrics import metrics_registry
from .database import _COMPOSITE_CAP, Database

_EMPTY: set = set()


class SymbolTable:
    """Process-wide interning of ground terms to dense ints.

    ``intern`` is idempotent and dense: the *n*-th distinct term ever
    interned gets id ``n``.  ``decode`` is the exact inverse.  All
    columnar databases in a process share one table (obtained through
    :func:`symbol_table`), so int rows can flow between databases --
    snapshots, deltas, copies -- without re-encoding.

    Interning accepts every ground term kind the parser produces:
    :class:`~repro.lang.terms.Constant` (int- and string-valued),
    :class:`~repro.lang.terms.Null`, and
    :class:`~repro.lang.terms.FrozenConstant`.  Variables are rejected.
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []

    def __len__(self) -> int:
        return len(self._terms)

    def intern(self, term: Term) -> int:
        """The dense id of *term*, allocating one on first sight."""
        ident = self._ids.get(term)
        if ident is None:
            if isinstance(term, Variable) or not term.is_ground:
                raise GroundnessError(f"cannot intern non-ground term {term!r}")
            ident = len(self._terms)
            self._ids[term] = ident
            self._terms.append(term)
        return ident

    def lookup(self, term: Term) -> int | None:
        """The id of *term* if already interned, else ``None``."""
        return self._ids.get(term)

    def decode(self, ident: int) -> Term:
        """The term behind *ident* (inverse of :meth:`intern`)."""
        return self._terms[ident]


_GLOBAL_TABLE = SymbolTable()


def symbol_table() -> SymbolTable:
    """The process-wide symbol table shared by all columnar databases."""
    return _GLOBAL_TABLE


def reset_symbol_table() -> SymbolTable:
    """Install a fresh process-wide table; returns it.  **Tests only.**

    Databases created before the reset keep their old table, so never
    mix pre- and post-reset databases in one evaluation.
    """
    global _GLOBAL_TABLE
    _GLOBAL_TABLE = SymbolTable()
    return _GLOBAL_TABLE


class ColumnarRelation:
    """One predicate's facts as column logs plus a live int-row set.

    * ``columns`` -- per-position ``array('q')`` append-order logs.
      Appends are O(arity); :meth:`discard` leaves the logged values in
      place (stale) and :meth:`copy` compacts them away, as does
      :meth:`discard_all` once stale entries outnumber live rows.  The
      logs back the honest byte model (:meth:`approximate_bytes`) and
      cheap slice-copies of grow-only relations.
    * ``rows`` -- the authoritative live set of int tuples.  Membership,
      iteration, and equality all read it.
    * index **views** -- lazily built ``int -> {rows}`` maps per single
      position, and ``(int, ...) -> {rows}`` maps per sorted composite
      position tuple (capped like the row backend's
      :class:`~.indexes.PredicateIndex`), maintained on insert/discard.
    """

    __slots__ = ("arity", "columns", "rows", "appended", "probes", "_views", "_composites")

    def __init__(self, arity: int):
        self.arity = arity
        self.columns: tuple[array, ...] = tuple(array("q") for _ in range(arity))
        self.rows: set[tuple[int, ...]] = set()
        #: Total appends ever logged; ``appended > len(rows)`` means the
        #: column logs carry stale (discarded) entries.
        self.appended = 0
        self.probes = 0
        self._views: dict[int, dict[int, set]] = {}
        self._composites: dict[tuple[int, ...], dict[tuple, set]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.rows)

    def __contains__(self, row: tuple) -> bool:
        return row in self.rows

    def __bool__(self) -> bool:
        return bool(self.rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, ColumnarRelation):
            return self.rows == other.rows
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def add(self, row: tuple[int, ...]) -> bool:
        """Insert an int row; returns ``True`` iff it was new."""
        if row in self.rows:
            return False
        self.rows.add(row)
        for column, value in zip(self.columns, row):
            column.append(value)
        self.appended += 1
        for pos, view in self._views.items():
            view.setdefault(row[pos], set()).add(row)
        for positions, view in self._composites.items():
            view.setdefault(tuple(row[p] for p in positions), set()).add(row)
        return True

    def extend(self, rows: set) -> int:
        """Bulk :meth:`add` of already-encoded int rows; returns how many
        were new.  One set difference, one ``extend`` per column log and
        one pass per built view -- no per-row call, no re-encoding."""
        fresh = rows - self.rows
        self.rows |= fresh
        for column, values in zip(self.columns, zip(*fresh)):
            column.extend(values)
        self.appended += len(fresh)
        for pos, view in self._views.items():
            for row in fresh:
                view.setdefault(row[pos], set()).add(row)
        for positions, view in self._composites.items():
            for row in fresh:
                view.setdefault(tuple(row[p] for p in positions), set()).add(row)
        return len(fresh)

    def discard(self, row: tuple[int, ...]) -> bool:
        """Remove an int row from the live set and all built views.

        The column logs keep the stale values until the next
        :meth:`copy` compacts them (grow-only evaluation never pays).
        """
        if row not in self.rows:
            return False
        self.rows.discard(row)
        for pos, view in self._views.items():
            bucket = view.get(row[pos])
            if bucket is not None:
                bucket.discard(row)
        for positions, view in self._composites.items():
            bucket = view.get(tuple(row[p] for p in positions))
            if bucket is not None:
                bucket.discard(row)
        return True

    def discard_all(self, rows) -> int:
        """Bulk :meth:`discard` of int rows; returns how many were live.

        One set intersection, one ``-=`` and one pass per built view.
        Once stale log entries outnumber live rows the logs are
        compacted, so a relation that keeps losing and regaining rows
        (a maintained view) does not grow its logs without bound.
        """
        gone = self.rows.intersection(rows)
        self.rows -= gone
        for pos, view in self._views.items():
            for row in gone:
                bucket = view.get(row[pos])
                if bucket is not None:
                    bucket.discard(row)
        for positions, view in self._composites.items():
            for row in gone:
                bucket = view.get(tuple(row[p] for p in positions))
                if bucket is not None:
                    bucket.discard(row)
        if self.appended > 2 * len(self.rows):
            self._compact()
        return len(gone)

    def _compact(self) -> None:
        """Rebuild the column logs from the live rows (drops stale ones)."""
        self.columns = tuple(array("q") for _ in range(self.arity))
        for column, values in zip(self.columns, zip(*self.rows)):
            column.extend(values)
        self.appended = len(self.rows)

    # -- index views -----------------------------------------------------------
    def bucket(self, position: int, value: int) -> set:
        """Live rows holding *value* at *position* (view built lazily)."""
        view = self._views.get(position)
        if view is None:
            view = {}
            for row in self.rows:
                view.setdefault(row[position], set()).add(row)
            self._views[position] = view
        self.probes += 1
        return view.get(value, _EMPTY)

    def composite_count(self) -> int:
        return len(self._composites)

    def build_composite(self, positions: tuple[int, ...]) -> None:
        view: dict[tuple, set] = {}
        for row in self.rows:
            view.setdefault(tuple(row[p] for p in positions), set()).add(row)
        self._composites[positions] = view

    def composite_bucket(
        self, positions: tuple[int, ...], values: tuple
    ) -> set | None:
        """Rows matching *values* at *positions*, or ``None`` if not built."""
        view = self._composites.get(positions)
        if view is None:
            return None
        self.probes += 1
        return view.get(values, _EMPTY)

    def filtered(self, bound: Mapping[int, int]) -> Iterable[tuple]:
        """Past-the-cap fallback: smallest single bucket, filter the rest."""
        best_pos = None
        best_bucket = None
        for pos, value in bound.items():
            bucket = self.bucket(pos, value)
            if not bucket:
                return ()
            if best_bucket is None or len(bucket) < len(best_bucket):
                best_pos, best_bucket = pos, bucket
        remaining = [(p, v) for p, v in bound.items() if p != best_pos]
        return (row for row in best_bucket if all(row[p] == v for p, v in remaining))

    # -- lifecycle -------------------------------------------------------------
    def copy(self) -> "ColumnarRelation":
        """An independent compacted copy (views are rebuilt on demand)."""
        new = ColumnarRelation(self.arity)
        new.rows = set(self.rows)
        if self.appended == len(self.rows):
            # Grow-only: the logs are exactly the live rows; slice-copy.
            new.columns = tuple(array("q", column) for column in self.columns)
            new.appended = len(new.rows)
        else:
            # Discards happened: rebuild the logs from the live set.
            new._compact()
        return new

    def approximate_bytes(self) -> int:
        """Column payload plus a per-live-row bookkeeping share."""
        return sum(len(column) for column in self.columns) * 8 + len(self.rows) * 24


class ColumnarDatabase(Database):
    """A :class:`Database` storing interned-int rows in columnar relations.

    Behaves identically through the five storage seams; see the module
    docstring for the int/Term representation convention and
    ``docs/STORAGE.md`` for the contract.  Construct directly, or via
    ``Database(backend="columnar")``.
    """

    __slots__ = ("_table",)

    def __init__(self, atoms: Iterable[Atom] = (), backend: str | None = None):
        if backend not in (None, "columnar"):
            raise ValueError(
                f"ColumnarDatabase only supports backend='columnar', got {backend!r}"
            )
        self._table = symbol_table()
        Database.__init__(self, atoms)

    # -- backend contract ------------------------------------------------------
    @property
    def backend(self) -> str:
        return "columnar"

    def store_term(self, value):
        """Storage representation of one ground value (int passes through)."""
        return value if type(value) is int else self._table.intern(value)

    def store_row(self, row: tuple) -> tuple:
        intern = self._table.intern
        return tuple(v if type(v) is int else intern(v) for v in row)

    def adapt_atom(self, atom: Atom) -> Atom:
        """*atom* with ground arguments in storage representation.

        Variables survive untouched, so the result is usable as a match
        pattern against stored rows.
        """
        intern = self._table.intern
        return Atom(
            atom.predicate,
            tuple(
                t if isinstance(t, Variable) or type(t) is int else intern(t)
                for t in atom.args
            ),
        )

    def decode_row(self, row: tuple) -> tuple:
        decode = self._table.decode
        return tuple(decode(v) if type(v) is int else v for v in row)

    def symbol_cardinality(self) -> int:
        return len(self._table)

    def approximate_bytes(self) -> int:
        return sum(rel.approximate_bytes() for rel in self._relations.values())

    # -- construction ----------------------------------------------------------
    def copy(self) -> "ColumnarDatabase":
        new = ColumnarDatabase.__new__(ColumnarDatabase)
        new._table = self._table
        new._relations = {p: rel.copy() for p, rel in self._relations.items()}
        new._arities = dict(self._arities)
        new._indexes = {}
        new._size = self._size
        new._scans = 0
        return new

    def empty_like(self) -> "ColumnarDatabase":
        new = ColumnarDatabase.__new__(ColumnarDatabase)
        new._table = self._table
        new._relations = {}
        new._arities = {}
        new._indexes = {}
        new._size = 0
        new._scans = 0
        return new

    # -- mutation --------------------------------------------------------------
    def add(self, atom: Atom) -> bool:
        for term in atom.args:
            if type(term) is not int and not term.is_ground:
                raise GroundnessError(f"cannot store non-ground atom {atom}")
        return self._add_row(atom.predicate, atom.args)

    def _add_row(self, predicate: str, row: tuple) -> bool:
        known_arity = self._arities.get(predicate)
        if known_arity is None:
            self._arities[predicate] = len(row)
            self._relations[predicate] = ColumnarRelation(len(row))
        elif known_arity != len(row):
            raise ArityError(
                f"predicate {predicate} has arity {known_arity}, got a {len(row)}-tuple"
            )
        intern = self._table.intern
        encoded = tuple(v if type(v) is int else intern(v) for v in row)
        if self._relations[predicate].add(encoded):
            self._size += 1
            return True
        return False

    def _union_rows(self, predicate: str, rows: ColumnarRelation) -> int:
        return self._insert_rows(predicate, rows.rows)

    def _insert_rows(self, predicate: str, rows) -> int:
        rel = self._relations.get(predicate)
        if rel is None:
            rel = self._relations[predicate] = ColumnarRelation(
                self._arities[predicate]
            )
        added = rel.extend(rows)
        self._size += added
        return added

    def _remove_rows(self, predicate: str, rows) -> int:
        rel = self._relations.get(predicate)
        if rel is None:
            return 0
        removed = rel.discard_all(rows)
        self._size -= removed
        return removed

    def discard(self, atom: Atom) -> bool:
        rel = self._relations.get(atom.predicate)
        if rel is None:
            return False
        row = self._lookup_row(atom.args)
        if row is None or not rel.discard(row):
            return False
        self._size -= 1
        return True

    def _lookup_row(self, row: tuple) -> tuple | None:
        """*row* in storage representation, or ``None`` if any term is
        unknown to the table (then no stored row can match)."""
        lookup = self._table.lookup
        out = []
        for value in row:
            if type(value) is not int:
                value = lookup(value)
                if value is None:
                    return None
            out.append(value)
        return tuple(out)

    # -- queries ---------------------------------------------------------------
    def contains_tuple(self, predicate: str, row: tuple) -> bool:
        rel = self._relations.get(predicate)
        if rel is None:
            return False
        if row in rel.rows:  # already-encoded rows: no per-element pass
            return True
        encoded = self._lookup_row(row)
        return encoded is not None and encoded != row and encoded in rel.rows

    def atoms(self) -> Iterator[Atom]:
        decode = self._table.decode
        for pred, rel in self._relations.items():
            for row in rel.rows:
                yield Atom(pred, tuple(decode(v) for v in row))

    def atoms_for(self, predicate: str) -> Iterator[Atom]:
        decode = self._table.decode
        rel = self._relations.get(predicate)
        if rel is None:
            return
        for row in rel.rows:
            yield Atom(predicate, tuple(decode(v) for v in row))

    def difference(self, other: Database) -> frozenset[Atom]:
        if other.backend != self.backend:
            return frozenset(a for a in self.atoms() if a not in other)
        decode = self._table.decode
        out: set[Atom] = set()
        for pred, rel in self._relations.items():
            other_rel = other._relations.get(pred)
            other_rows = other_rel.rows if other_rel is not None else _EMPTY
            for row in rel.rows:
                if row not in other_rows:
                    out.add(Atom(pred, tuple(decode(v) for v in row)))
        return frozenset(out)

    def issubset(self, other: Database) -> bool:
        if other.backend != self.backend:
            return all(a in other for a in self.atoms())
        for pred, rel in self._relations.items():
            if not rel.rows:
                continue
            other_rel = other._relations.get(pred)
            if other_rel is None or not rel.rows <= other_rel.rows:
                return False
        return True

    # -- indexed matching ------------------------------------------------------
    def candidates(self, predicate: str, bound: Mapping[int, object]) -> Iterable[tuple]:
        rel = self._relations.get(predicate)
        if rel is None or not rel.rows:
            return ()
        if not bound:
            self._scans += 1
            return rel.rows
        lookup = self._table.lookup
        if len(bound) == 1:
            ((pos, value),) = bound.items()
            if type(value) is not int:
                value = lookup(value)
                if value is None:
                    return ()
            return rel.bucket(pos, value)
        encoded: dict[int, int] = {}
        for pos, value in bound.items():
            if type(value) is not int:
                value = lookup(value)
                if value is None:
                    return ()
            encoded[pos] = value
        positions = tuple(sorted(encoded))
        values = tuple(encoded[p] for p in positions)
        hit = rel.composite_bucket(positions, values)
        if hit is None:
            if rel.composite_count() < _COMPOSITE_CAP:
                rel.build_composite(positions)
                metrics_registry().increment("index.composite_built")
                hit = rel.composite_bucket(positions, values)
            else:
                return rel.filtered(encoded)
        return hit if hit is not None else ()

    def probe_count(self) -> int:
        return sum(rel.probes for rel in self._relations.values())
