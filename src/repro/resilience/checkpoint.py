"""Durable checkpoints and resumable fixpoints.

The governor (:mod:`repro.resilience.governor`) already turns an
interrupted evaluation into a *sound under-approximation* of ``M(P)``
-- the paper's monotonicity argument guarantees every fact a PARTIAL
run derived is in the minimal model.  This module makes that partial
state survive process death: a :class:`CheckpointManager` hangs off the
governor's round-boundary hook and writes a versioned, checksummed
snapshot of the mid-flight evaluation, and :func:`resume_evaluation`
continues the fixpoint from the saved frontier.

**Why resuming is correct.**  A checkpoint taken at the top of
semi-naive round *k* captures ``F_{k-1}`` (the full database) and
``Δ_{k-1}`` (the delta about to be processed), with the invariant
``F_{k-1} = snapshot ⊎ Δ_{k-1}``.  Re-entering the loop with exactly
that state replays round *k* and every later round unchanged, so the
resumed run converges to the same minimal model as the uninterrupted
one -- bitwise, not just semantically.  Engines without a persisted
frontier (naive, stratified) restart evaluation *on the checkpointed
database*: because ``db ⊆ M(P)`` implies ``P(db) = M(P)`` (monotonicity
plus idempotence; for stratified programs the same holds stratum by
stratum since lower strata recompute to the identical complete
relations), the restart also converges to the same model, merely
re-deriving more.

**Durability discipline.**  Writes are atomic: serialize to a temp file
in the target directory, ``fsync``, rotate the current generation to
``<path>.prev``, then ``os.replace`` the temp file into place.  A crash
at any point leaves at least one loadable generation.  Every file
carries a SHA-256 checksum over the canonical payload encoding;
:meth:`CheckpointManager.latest` skips generations that fail the
checksum (or fail to parse -- a torn write) and falls back to the
previous one, counting ``checkpoint.corrupt_skipped``.

The ``crash`` fault seam (:data:`repro.resilience.faults.FAULT_OPERATIONS`)
threads through :meth:`CheckpointManager.write` at three stages --
before the temp write, mid-write (leaving a torn temp file), and
between fsync and rename -- so chaos tests can kill an evaluation at
every dangerous instant and assert recovery.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from ..errors import CheckpointError, ValidationError
from ..lang.programs import Program
from ..lang.serialize import (
    database_from_dict,
    database_to_dict,
    program_from_dict,
    program_to_dict,
)
from ..obs.metrics import metrics_registry
from ..obs.tracer import trace

if TYPE_CHECKING:  # pragma: no cover
    from ..data.database import Database
    from ..engine.fixpoint import EvaluationResult
    from .faults import FaultPlan
    from .governor import ResourceGovernor

#: Checkpoint file format identifier; bump on incompatible change.
CHECKPOINT_FORMAT = "repro.checkpoint/1"

#: Suffix of the previous-generation file kept beside the live one.
PREVIOUS_SUFFIX = ".prev"

#: Suffix of the in-flight temp file (never loaded; may be torn).
TEMP_SUFFIX = ".tmp"


def program_fingerprint(program: Program) -> str:
    """SHA-256 over the canonical serialized program.

    Stored in every checkpoint and verified by ``resume`` so a snapshot
    is never resumed under a different program (which would silently
    compute the wrong model from the saved frontier).
    """
    canonical = json.dumps(
        program_to_dict(program), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _canonical_checksum(payload: dict[str, Any]) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ResumeState:
    """The semi-naive frontier a resumed fixpoint re-enters with.

    ``database`` is ``F_{k-1}`` (full), ``delta`` is ``Δ_{k-1}``
    (⊆ database), ``round`` is *k* -- the round about to be processed
    when the checkpoint was taken.
    """

    database: "Database"
    delta: "Database"
    round: int


@dataclass
class Checkpoint:
    """One loaded (or about-to-be-written) evaluation snapshot."""

    program: Program
    engine: str
    database: "Database"
    round: Optional[int] = None
    delta: Optional["Database"] = None
    governor_state: Optional[dict[str, Any]] = None
    every: int = 1
    fingerprint: str = ""

    def __post_init__(self) -> None:
        if not self.fingerprint:
            self.fingerprint = program_fingerprint(self.program)

    def to_payload(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "backend": "rows",
            "round": self.round,
            "every": self.every,
            "fingerprint": self.fingerprint,
            "program": program_to_dict(self.program),
            "governor": self.governor_state,
            "database": database_to_dict(self.database),
            "delta": None if self.delta is None else database_to_dict(self.delta),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "Checkpoint":
        try:
            # Files from versions with a second storage backend may say
            # "columnar"; their databases load onto the one store.
            if payload["backend"] not in ("rows", "columnar"):
                raise CheckpointError(f"unknown storage backend {payload['backend']!r}")
            program = program_from_dict(payload["program"])
            database = database_from_dict(payload["database"])
            delta_doc = payload.get("delta")
            delta = None if delta_doc is None else database_from_dict(delta_doc)
            return cls(
                program=program,
                engine=payload["engine"],
                database=database,
                round=payload.get("round"),
                delta=delta,
                governor_state=payload.get("governor"),
                every=int(payload.get("every", 1)),
                fingerprint=payload.get("fingerprint", ""),
            )
        except (KeyError, TypeError, ValueError, ValidationError) as bad:
            raise CheckpointError(f"malformed checkpoint payload: {bad}") from bad

    def resume_state(self) -> Optional[ResumeState]:
        """The semi-naive frontier, if this snapshot carries one."""
        if self.engine != "seminaive" or self.delta is None or self.round is None:
            return None
        return ResumeState(database=self.database, delta=self.delta, round=self.round)


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    """Load and verify one checkpoint file.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, unparseable (torn/truncated write), carries an unknown
    format, or fails its checksum (bit rot / partial overwrite).
    """
    path = Path(path)
    with trace("checkpoint.load", path=str(path)):
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as bad:
            raise CheckpointError(f"cannot read checkpoint {path}: {bad}") from bad
        try:
            document = json.loads(text)
        except ValueError as bad:
            raise CheckpointError(
                f"checkpoint {path} is not valid JSON (torn or truncated write?)"
            ) from bad
        if not isinstance(document, dict) or document.get("format") != CHECKPOINT_FORMAT:
            raise CheckpointError(
                f"checkpoint {path} has format "
                f"{document.get('format') if isinstance(document, dict) else None!r}; "
                f"this build reads {CHECKPOINT_FORMAT}"
            )
        payload = document.get("payload")
        stored = document.get("sha256")
        if not isinstance(payload, dict) or not isinstance(stored, str):
            raise CheckpointError(f"checkpoint {path} is missing payload or checksum")
        actual = _canonical_checksum(payload)
        if actual != stored:
            raise CheckpointError(
                f"checkpoint {path} failed its checksum "
                f"(stored {stored[:12]}…, computed {actual[:12]}…)"
            )
        checkpoint = Checkpoint.from_payload(payload)
        metrics_registry().increment("checkpoint.loads")
        return checkpoint


class CheckpointManager:
    """Writes and recovers checkpoint generations for one evaluation.

    Args:
        path: the live checkpoint file.  The previous generation lives
            beside it at ``<path>.prev``; the in-flight temp file at
            ``<path>.tmp``.
        program: the program under evaluation (embedded in every
            snapshot; may be supplied later via :meth:`adopt`).
        engine: registered engine name recorded in the snapshot.
        every: write cadence in rounds (``round % every == 0`` writes).
        fault_plan: optional chaos schedule whose ``crash`` seam fires
            inside :meth:`write` (three stages per write).

    Wire :meth:`on_round` into a governor's ``on_round`` hook and every
    engine that calls ``governor.checkpoint(db, round=...)`` checkpoints
    for free; the semi-naive engine additionally passes its delta so
    the snapshot carries a resumable frontier.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        program: Program | None = None,
        engine: str | None = None,
        every: int = 1,
        fault_plan: "FaultPlan | None" = None,
    ):
        self.path = Path(path)
        self.program = program
        self.engine = engine
        self.every = max(1, int(every))
        self.fault_plan = fault_plan
        self.writes = 0

    @property
    def previous_path(self) -> Path:
        return self.path.with_name(self.path.name + PREVIOUS_SUFFIX)

    @property
    def temp_path(self) -> Path:
        return self.path.with_name(self.path.name + TEMP_SUFFIX)

    def adopt(self, checkpoint: Checkpoint, every: int | None = None) -> None:
        """Take program/engine/cadence from a loaded checkpoint, so a
        resumed run keeps checkpointing to the same file."""
        self.program = checkpoint.program
        self.engine = checkpoint.engine
        self.every = max(1, int(every if every is not None else checkpoint.every))

    # -- write path ------------------------------------------------------------
    def on_round(
        self,
        db: "Database",
        round: int | None,
        delta: "Database | None" = None,
        governor: "ResourceGovernor | None" = None,
    ) -> None:
        """Governor round-boundary hook: write every :attr:`every` rounds."""
        if round is None or round % self.every != 0:
            return
        self.write(db, round=round, delta=delta, governor=governor)

    def write(
        self,
        db: "Database",
        round: int | None = None,
        delta: "Database | None" = None,
        governor: "ResourceGovernor | None" = None,
    ) -> Checkpoint:
        """Atomically persist one snapshot; returns the Checkpoint.

        Write discipline (each numbered stage advances the ``crash``
        fault seam once, so chaos schedules can abort at any of them):

        1. before anything touches the filesystem;
        2. after half the payload bytes are written (a crash here
           leaves a *torn* temp file, which recovery never reads);
        3. after ``fsync``, before the rename pair (a crash here leaves
           a complete temp file that is likewise ignored -- only the
           rename publishes a generation).

        Rotation uses ``os.replace`` twice: current → ``.prev``, then
        temp → current.  Either rename is atomic, so every crash point
        leaves ``path`` or ``path.prev`` (or both) loadable.
        """
        if self.program is None or self.engine is None:
            raise CheckpointError(
                "CheckpointManager needs program and engine before writing "
                "(pass them to the constructor or adopt() a loaded checkpoint)"
            )
        governor_state = None
        if governor is not None:
            # rounds_seen was already incremented for the round being
            # checkpointed; a resumed run re-counts that round, so store
            # the pre-increment value to keep max_rounds cumulative.
            governor_state = {
                "facts": governor.facts_seen,
                "rounds": max(0, governor.rounds_seen - 1),
                "elapsed_s": governor.elapsed(),
            }
        checkpoint = Checkpoint(
            program=self.program,
            engine=self.engine,
            database=db,
            round=round,
            delta=delta,
            governor_state=governor_state,
            every=self.every,
        )
        payload = checkpoint.to_payload()
        document = {
            "format": CHECKPOINT_FORMAT,
            "sha256": _canonical_checksum(payload),
            "payload": payload,
        }
        data = json.dumps(document).encode("utf-8")
        plan = self.fault_plan
        with trace("checkpoint.write", round=round, bytes=len(data)) as span:
            if plan is not None:
                plan.before("crash")  # stage 1: nothing written yet
            try:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.temp_path, "wb") as handle:
                    half = len(data) // 2
                    handle.write(data[:half])
                    if plan is not None:
                        try:
                            plan.before("crash")  # stage 2: torn write
                        except BaseException:
                            handle.flush()
                            raise
                    handle.write(data[half:])
                    handle.flush()
                    os.fsync(handle.fileno())
                if plan is not None:
                    plan.before("crash")  # stage 3: durable temp, not published
                if self.path.exists():
                    os.replace(self.path, self.previous_path)
                os.replace(self.temp_path, self.path)
                self._fsync_directory()
            except OSError as bad:
                metrics_registry().increment("checkpoint.write_failures")
                raise CheckpointError(
                    f"cannot write checkpoint {self.path}: {bad}"
                ) from bad
            self.writes += 1
            registry = metrics_registry()
            registry.increment("checkpoint.writes")
            registry.increment("checkpoint.bytes_written", len(data))
            if span:
                span.add("writes", self.writes)
        return checkpoint

    def _fsync_directory(self) -> None:
        """Make the rename pair durable (best effort off Linux)."""
        try:
            fd = os.open(self.path.parent, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass
        finally:
            os.close(fd)

    # -- recovery path ---------------------------------------------------------
    def generations(self) -> tuple[Path, ...]:
        """Candidate files, newest first (live, then previous)."""
        return (self.path, self.previous_path)

    def latest(self) -> Optional[Checkpoint]:
        """The newest checkpoint that verifies, or ``None``.

        A generation that exists but fails verification (torn write,
        flipped byte, format drift) is *skipped* -- counted as
        ``checkpoint.corrupt_skipped`` -- and recovery falls back to
        the previous generation.
        """
        registry = metrics_registry()
        for candidate in self.generations():
            if not candidate.exists():
                continue
            try:
                return load_checkpoint(candidate)
            except CheckpointError:
                registry.increment("checkpoint.corrupt_skipped")
        return None


def corrupt_checkpoint(path: str | os.PathLike, mode: str = "flip") -> None:
    """Damage a checkpoint file in place (chaos tests / drills only).

    ``mode="flip"`` changes one digit inside the payload, keeping the
    file valid JSON so the *checksum* is what rejects it;
    ``mode="truncate"`` keeps only the first half of the bytes,
    simulating a torn write that breaks the JSON parse.
    """
    path = Path(path)
    data = path.read_bytes()
    if mode == "truncate":
        path.write_bytes(data[: len(data) // 2])
        return
    if mode != "flip":
        raise ValueError(f"unknown corruption mode {mode!r}")
    anchor = data.find(b'"payload"')
    if anchor < 0:
        raise CheckpointError(f"{path} does not look like a checkpoint file")
    for index in range(anchor, len(data)):
        char = data[index : index + 1]
        if char.isdigit():
            flipped = b"1" if char != b"1" else b"2"
            path.write_bytes(data[:index] + flipped + data[index + 1 :])
            return
    raise CheckpointError(f"{path} holds no digit to flip in its payload")


def resume_evaluation(
    checkpoint: Checkpoint,
    governor: "ResourceGovernor | None" = None,
    database: "Database | None" = None,
    program: Program | None = None,
) -> "EvaluationResult":
    """Continue an interrupted evaluation from *checkpoint*.

    * ``seminaive`` snapshots carry the delta frontier and re-enter the
      differential loop at the saved round;
    * other fixpoint engines restart evaluation on the checkpointed
      database (sound and convergent -- see the module docstring).

    Args:
        governor: fresh limits for the resumed attempt; restore
            cumulative counters first via
            ``governor.restore(**checkpoint.governor_state)`` if wanted.
        database: override for the working database (the session layer
            passes a fault-wrapped copy here); defaults to the
            checkpoint's own.
        program: when given, verified against the stored fingerprint --
            a mismatch raises :class:`~repro.errors.CheckpointError`
            instead of silently computing the wrong model.
    """
    from ..engine.fixpoint import evaluate, get_engine
    from ..engine.seminaive import seminaive_fixpoint

    if program is not None and program_fingerprint(program) != checkpoint.fingerprint:
        raise CheckpointError(
            "program fingerprint mismatch: the checkpoint was written by a "
            "different program than the one being resumed"
        )
    spec = get_engine(checkpoint.engine)
    if spec.kind != "fixpoint":
        raise CheckpointError(
            f"checkpoint engine {checkpoint.engine!r} is a {spec.kind} engine; "
            "only fixpoint evaluations are resumable"
        )
    db = database if database is not None else checkpoint.database
    metrics_registry().increment("checkpoint.resumes")
    state = checkpoint.resume_state()
    with trace("checkpoint.resume", engine=checkpoint.engine, round=checkpoint.round):
        if state is not None:
            if database is not None:
                state = ResumeState(
                    database=db, delta=state.delta, round=state.round
                )
            return seminaive_fixpoint(
                checkpoint.program, db, governor=governor, resume_state=state
            )
        return evaluate(
            checkpoint.program, db, engine=checkpoint.engine, governor=governor
        )
