"""Exception hierarchy for the ``repro`` Datalog optimization library.

Every error deliberately raised by the library derives from
:class:`ReproError`, so downstream users can catch a single base class.
Errors are grouped by the stage that raises them:

* language / validation errors (:class:`ParseError`,
  :class:`UnsafeRuleError`, :class:`ArityError`, ...),
* evaluation errors (:class:`StratificationError`),
* resource errors raised by the semi-decidable chase procedures
  (:class:`BudgetExceededError`) -- note that most chase entry points
  prefer returning a three-valued outcome over raising; the exception is
  only used by the low-level ``chase`` driver when asked to raise,
* resilience errors (:class:`ResourceLimitExceeded`,
  :class:`TransientStorageError`) raised by the
  :mod:`repro.resilience` governor and fault-injection layers.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ParseError(ReproError):
    """Raised when Datalog or tgd source text cannot be parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token
    when available, so tools can point at the failure location.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column


class ValidationError(ReproError):
    """Base class for structural problems in programs, rules, or tgds."""


class UnsafeRuleError(ValidationError):
    """A rule violates the range-restriction (safety) requirement.

    The paper assumes every variable in the head of a rule also appears
    in the body; for the stratified-negation extension, variables of
    negated literals must also occur in some positive body atom.
    """


class ArityError(ValidationError):
    """The same predicate is used with two different arities."""


class GroundnessError(ValidationError):
    """An operation that requires ground atoms received a non-ground one.

    For example, adding a fact with variables to a database.
    """


class TgdError(ValidationError):
    """A tuple-generating dependency is structurally malformed.

    For example, an empty left- or right-hand side.
    """


class StratificationError(ReproError):
    """The program uses negation through recursion and cannot be stratified."""


class BudgetExceededError(ReproError):
    """A chase run exhausted its step/null/fact budget.

    Most public procedures catch this internally and report an
    ``UNKNOWN`` outcome instead; it escapes only from low-level drivers
    invoked with ``on_budget='raise'``.  ``limit`` names the limit that
    tripped -- ``"rounds"``, ``"nulls"``, or ``"atoms"`` -- so callers
    (and the ``chase.budget_exhausted.<limit>`` metric) can distinguish
    a runaway chase from a merely large database.
    """

    def __init__(self, message: str, limit: str | None = None):
        super().__init__(message)
        #: Which limit tripped: ``"rounds"``, ``"nulls"``, or ``"atoms"``.
        self.limit = limit


class ResourceLimitExceeded(ReproError):
    """A :class:`~repro.resilience.ResourceGovernor` limit tripped.

    Carries the :class:`~repro.resilience.DegradationReport` naming
    which limit tripped and where (engine, stratum, rule, round).  The
    engines catch this internally and return a ``PARTIAL``
    :class:`~repro.engine.fixpoint.EvaluationResult`; it escapes to
    callers only under ``on_limit='raise'`` (or from operations, such as
    incremental view maintenance, where a partial result would be
    unsound and the operation rolls back instead).
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        #: The attached :class:`~repro.resilience.DegradationReport` (if any).
        self.report = report


class TransientStorageError(ReproError):
    """A (possibly injected) transient fault at a storage seam.

    Raised by the fault-injection harness (:mod:`repro.resilience.faults`)
    at :class:`~repro.data.database.Database` operation seams; a real
    deployment would map remote-backend hiccups to this type.  The
    :class:`~repro.resilience.EvaluationSession` retry loop treats it as
    retryable; any other exception is not.
    """


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or incompatible.

    Raised by :mod:`repro.resilience.checkpoint` when a snapshot fails
    its checksum, cannot be parsed (torn/truncated write), carries an
    unknown format version, or does not match the program it is being
    resumed against (fingerprint mismatch).  Recovery code treats a
    corrupt *latest* generation as skippable -- it falls back to the
    previous generation -- and only raises when no valid generation
    remains.
    """


class SimulatedCrash(ReproError):
    """An injected process-abort from the ``crash`` fault seam.

    Deliberately **not** a :class:`TransientStorageError`: the retry
    loop must not absorb it.  A simulated crash terminates the
    evaluation exactly as ``SIGKILL`` would terminate the process --
    whatever checkpoint generations are already durable are all that
    recovery gets to work with.
    """
