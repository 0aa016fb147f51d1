"""Hash indexes over stored relations.

Bottom-up Datalog evaluation spends nearly all of its time matching a
partially-bound body atom against a relation.  A
:class:`PredicateIndex` maintains, per argument position, a hash map
``value -> {tuples}`` so that a lookup with at least one bound position
touches only the matching bucket instead of scanning the relation.

Indexes are built lazily: the first probe on a position pays the build
cost, subsequent inserts maintain all built positions incrementally.
This matches the access pattern of semi-naive evaluation, where the same
positions are probed every iteration.
"""

from __future__ import annotations

from typing import Iterable

from ..lang.terms import Term

Tuple_ = tuple  # readability alias in annotations below


class PredicateIndex:
    """Per-position (and composite) hash index over one predicate's tuples.

    Besides the classic single-position maps, the index supports
    **composite** indexes over a *set* of positions: a map
    ``(v_1, ..., v_k) -> {tuples}`` keyed by the values at a sorted
    position tuple.  A probe with several bound positions then touches
    exactly the tuples matching *all* of them, instead of picking one
    position's bucket and filtering the rest tuple by tuple.  Composite
    indexes are built lazily per bound-position set (the compiled join
    kernels probe the same sets every round) and maintained on insert
    and removal like the single-position ones.
    """

    __slots__ = ("arity", "_positions", "_composites", "_probes")

    def __init__(self, arity: int):
        self.arity = arity
        #: position -> value -> set of tuples having that value there
        self._positions: dict[int, dict[Term, set[tuple[Term, ...]]]] = {}
        #: sorted position tuple -> value tuple -> set of tuples
        self._composites: dict[
            tuple[int, ...], dict[tuple[Term, ...], set[tuple[Term, ...]]]
        ] = {}
        self._probes = 0

    @property
    def probes(self) -> int:
        """Number of index probes served (for join-work accounting)."""
        return self._probes

    def built_positions(self) -> frozenset[int]:
        return frozenset(self._positions)

    def has_position(self, position: int) -> bool:
        """Is the single-position index for *position* built?  (Cheaper
        than :meth:`built_positions` on the per-probe hot path.)"""
        return position in self._positions

    def build(self, position: int, tuples: Iterable[tuple[Term, ...]]) -> None:
        """Build the index for *position* from the current tuples."""
        buckets: dict[Term, set[tuple[Term, ...]]] = {}
        for row in tuples:
            buckets.setdefault(row[position], set()).add(row)
        self._positions[position] = buckets

    def insert(self, row: tuple[Term, ...]) -> None:
        """Maintain all built positions (and composites) after an insert."""
        for position, buckets in self._positions.items():
            buckets.setdefault(row[position], set()).add(row)
        for positions, buckets in self._composites.items():
            key = tuple(row[p] for p in positions)
            buckets.setdefault(key, set()).add(row)

    def remove(self, row: tuple[Term, ...]) -> None:
        """Maintain all built positions (and composites) after a removal."""
        for position, buckets in self._positions.items():
            bucket = buckets.get(row[position])
            if bucket is not None:
                bucket.discard(row)
        for positions, buckets in self._composites.items():
            bucket = buckets.get(tuple(row[p] for p in positions))
            if bucket is not None:
                bucket.discard(row)

    def approximate_bytes(self, rows: int) -> int:
        """What the built indexes of a relation of *rows* rows hold,
        calibrated against ``tracemalloc``: a bucket is a set and its map
        entry (about 260 B, plus the key tuple of a composite), and a set
        costs about 90 B per row past the four it holds inline."""
        total = 0
        for buckets in self._positions.values():
            total += _index_bytes(len(buckets), rows, 260)
        for positions, buckets in self._composites.items():
            total += _index_bytes(len(buckets), rows, 300 + 8 * len(positions))
        return total

    def bucket(self, position: int, value: Term) -> set[tuple[Term, ...]] | None:
        """The tuples with *value* at *position*, or ``None`` if not built."""
        buckets = self._positions.get(position)
        if buckets is None:
            return None
        self._probes += 1
        return buckets.get(value, _EMPTY)

    def bucket_size(self, position: int, value: Term) -> int | None:
        """Size of the bucket without counting as a probe (for planning)."""
        buckets = self._positions.get(position)
        if buckets is None:
            return None
        hit = buckets.get(value)
        return len(hit) if hit is not None else 0

    # -- composite (multi-position) indexes ------------------------------------
    def composite_positions(self) -> frozenset[tuple[int, ...]]:
        """The built composite position sets (as sorted tuples)."""
        return frozenset(self._composites)

    def composite_count(self) -> int:
        return len(self._composites)

    def build_composite(
        self, positions: tuple[int, ...], tuples: Iterable[tuple[Term, ...]]
    ) -> None:
        """Build the composite index for the sorted *positions* tuple."""
        buckets: dict[tuple[Term, ...], set[tuple[Term, ...]]] = {}
        for row in tuples:
            buckets.setdefault(tuple(row[p] for p in positions), set()).add(row)
        self._composites[positions] = buckets

    def composite_bucket(
        self, positions: tuple[int, ...], values: tuple[Term, ...]
    ) -> set[tuple[Term, ...]] | None:
        """Tuples matching *values* at *positions*, or ``None`` if not built."""
        buckets = self._composites.get(positions)
        if buckets is None:
            return None
        self._probes += 1
        return buckets.get(values, _EMPTY)


_EMPTY: set = set()


def _index_bytes(buckets: int, rows: int, per_bucket: int) -> int:
    return buckets * per_bucket + 90 * max(0, rows - 4 * buckets)
