"""Fact storage: databases of ground atoms, relations, and hash indexes.

One store (contract: ``docs/STORAGE.md``): :class:`Database` keeps each
predicate's rows as a set of Term tuples, with lazy
:class:`PredicateIndex` buckets.
"""

from __future__ import annotations

from .database import Database
from .indexes import PredicateIndex
from .relations import Relation, relation_of, split_edb_idb

__all__ = [
    "Database",
    "PredicateIndex",
    "Relation",
    "relation_of",
    "split_edb_idb",
]
