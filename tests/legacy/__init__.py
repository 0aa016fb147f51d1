"""Files written by versions that had a second, ``columnar`` storage backend.

The JSON files beside this module were written by the last such
version, each beside a ``rows`` twin holding the same facts:

* ``database_columnar.json`` / ``database_rows.json`` -- format-2
  database documents (``E``, ``Mark`` and ``N`` facts over ints,
  strings and a labelled null);
* ``checkpoint_columnar.json`` / ``checkpoint_rows.json`` --
  ``repro.checkpoint/1`` files of a semi-naive TC run over a 6-edge
  chain, taken at round 3, with its delta frontier.

:func:`columnar_document` and :func:`columnar_checkpoint` write further
files of the legacy shape, so a test can send any database or
checkpoint through the legacy readers.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro import Database
from repro.lang.serialize import database_from_dict, term_to_dict

HERE = Path(__file__).resolve().parent


def columnar_document(db: Database) -> dict:
    """*db* as the legacy format-2 ``columnar`` database document: a
    symbol list in first-use order over the sorted rows, and each row a
    list of indexes into it."""
    local: dict = {}
    facts = {}
    for pred in sorted(db.predicates):
        rows = sorted(db.tuples(pred), key=lambda row: [str(t) for t in row])
        facts[pred] = [[local.setdefault(t, len(local)) for t in row] for row in rows]
    symbols = [term_to_dict(t) for t in local]
    return {"format": 2, "backend": "columnar", "symbols": symbols, "facts": facts}


def on_backend(db: Database, backend: str) -> Database:
    """*db* for ``"rows"``; for ``"columnar"``, *db* read back from its
    legacy columnar document."""
    if backend == "rows":
        return db
    assert backend == "columnar", backend
    return database_from_dict(columnar_document(db))


def columnar_checkpoint(path) -> None:
    """Rewrite the checkpoint file at *path* as the legacy version wrote
    it on the columnar backend: the payload tagged ``columnar``, its
    databases as columnar documents, and the checksum over that."""
    path = Path(path)
    document = json.loads(path.read_text())
    payload = document["payload"]
    payload["backend"] = "columnar"
    for key in ("database", "delta"):
        if payload[key] is not None:
            payload[key] = columnar_document(database_from_dict(payload[key]))
    write_sealed(path, document)


def write_sealed(path, document: dict) -> None:
    """Write a checkpoint *document* with the checksum of its payload."""
    canonical = json.dumps(document["payload"], sort_keys=True, separators=(",", ":"))
    document["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    Path(path).write_text(json.dumps(document))
