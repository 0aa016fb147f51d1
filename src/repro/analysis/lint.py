"""A diagnostics framework for Datalog programs.

The paper's optimizations are, read statically, *lint findings*: a
redundant body atom or rule (Section VII, Figs. 1-2) is provable by a
cheap uniform-containment test, and the Section XI syntactic properties
point at candidate tgds before any equivalence proof is attempted.
This module packages those -- plus the purely structural checks the
``analysis`` package already knows how to do -- behind one pass:

* :class:`Diagnostic` -- one finding: lint-rule id, severity
  (``error`` > ``warning`` > ``info`` > ``hint``), message, the index
  of the offending program rule, its source span when the program was
  parsed with :func:`repro.lang.parse_program_with_spans`, and an
  optional :class:`Fix`.
* :class:`LintRule` -- one registered pass over a program; built-in
  rules live in :mod:`repro.analysis.lint_rules` (imported lazily so
  the registry is populated on first use).
* :class:`Linter` -- runs a configured subset of the registry and
  returns sorted diagnostics.
* :func:`lint` / :func:`lint_source` -- the one-call APIs.  The source
  variant additionally reports syntax, arity, and safety problems
  (rule ids ``syntax``, ``arity``, ``safety``) that make a program
  unconstructible, instead of raising.

Containment-backed rules (``redundant-atom``, ``redundant-rule``) share
one :class:`~repro.core.minimize.ContainmentBudget`; when it runs out a
single ``containment-budget`` info diagnostic reports how many tests
were skipped, so linting stays fast and honest on large programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..engine.fixpoint import EngineName
from ..errors import ArityError, ParseError, UnsafeRuleError
from ..lang.parser import SourceSpan, parse_program_with_spans
from ..lang.programs import Program
from ..lang.rules import Rule

#: Severities, most severe first.
SEVERITIES: tuple[str, ...] = ("error", "warning", "info", "hint")
_SEVERITY_RANK = {name: rank for rank, name in enumerate(SEVERITIES)}

#: Diagnostic ids that are produced outside the registered passes
#: (source-level problems and the budget notice).
PSEUDO_RULE_IDS: frozenset[str] = frozenset(
    {"syntax", "arity", "safety", "containment-budget"}
)


def severity_at_least(severity: str, threshold: str) -> bool:
    """Whether *severity* is as severe as *threshold* or more so."""
    return _SEVERITY_RANK[severity] <= _SEVERITY_RANK[threshold]


@dataclass(frozen=True)
class Fix:
    """A structured fix suggestion attached to a diagnostic.

    ``replacement`` is the source text the offending rule should become;
    ``None`` means the fix is to delete the rule.
    """

    description: str
    replacement: str | None = None

    def to_dict(self) -> dict:
        return {"description": self.description, "replacement": self.replacement}


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding."""

    rule_id: str
    severity: str
    message: str
    rule_index: int | None = None
    span: SourceSpan | None = None
    fix: Fix | None = None

    def __post_init__(self):
        if self.severity not in _SEVERITY_RANK:
            raise ValueError(f"unknown severity {self.severity!r}; use one of {SEVERITIES}")

    def to_dict(self) -> dict:
        """A JSON-ready rendering (keys always present, ``None`` when absent).

        ``rule_ref`` carries the rule index together with the rule's
        full source extent; CI tooling diffing reports should key on it
        (or on the stable ``id`` that
        :func:`repro.analysis.lint_report.diagnostic_payloads` adds)
        rather than on raw line numbers, which move with every edit
        above the rule.
        """
        rule_ref = None
        if self.rule_index is not None or self.span is not None:
            rule_ref = {
                "index": self.rule_index,
                "span": (
                    {
                        "line": self.span.line,
                        "column": self.span.column,
                        "end_line": self.span.end_line,
                        "end_column": self.span.end_column,
                    }
                    if self.span
                    else None
                ),
            }
        return {
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "rule_index": self.rule_index,
            "rule_ref": rule_ref,
            "line": self.span.line if self.span else None,
            "column": self.span.column if self.span else None,
            "fix": self.fix.to_dict() if self.fix else None,
        }

    def sort_key(self) -> tuple:
        return (
            self.rule_index if self.rule_index is not None else 1_000_000_000,
            _SEVERITY_RANK[self.severity],
            self.rule_id,
            self.message,
        )

    def __str__(self) -> str:
        where = f"rule {self.rule_index}" if self.rule_index is not None else "program"
        return f"[{self.rule_id}] {self.severity} at {where}: {self.message}"


@dataclass(frozen=True)
class LintConfig:
    """Configuration shared by every pass of one linter run."""

    select: frozenset[str] | None = None  # None = all registered rules
    ignore: frozenset[str] = frozenset()
    max_containment_checks: int | None = 64
    engine: EngineName = "seminaive"
    #: Exported (output) predicates for the ``unused-idb`` reachability
    #: check; ``None`` disables that rule (without export information
    #: every terminal predicate is presumed an output).
    exported: frozenset[str] | None = None
    max_tgd_candidates_per_rule: int = 3
    #: Tgds constraining the program; feed the chase-termination lint
    #: rules (``weakly-acyclic-certified``, ``nonterminating-chase-risk``),
    #: which stay silent when no tgds are supplied.
    tgds: tuple = ()
    #: Closure-size budget for the ``adornment-space-explosion`` rule
    #: (mirrors ``specialize.DEFAULT_ADORNMENT_BUDGET``).
    adornment_budget: int = 64

    def enables(self, rule_id: str) -> bool:
        if rule_id in self.ignore:
            return False
        return self.select is None or rule_id in self.select


class LintContext:
    """Everything a :class:`LintRule` may consult while checking."""

    def __init__(
        self,
        program: Program,
        config: LintConfig,
        spans: Mapping[Rule, SourceSpan] | None = None,
    ):
        from ..core.containment import ContainmentSession
        from ..core.minimize import ContainmentBudget

        self.program = program
        self.config = config
        self.spans: Mapping[Rule, SourceSpan] = spans or {}
        self.containment_budget = ContainmentBudget(config.max_containment_checks)
        #: Shared by the redundant-atom and redundant-rule scans.
        self.containment_session = ContainmentSession()
        self._index: dict[Rule, int] = {r: i for i, r in enumerate(program.rules)}
        self._facts = None
        self._sorts = None
        self._recursion = None
        self._termination = None

    @property
    def facts(self):
        """Shared :class:`~repro.analysis.absint.framework.ProgramFacts`.

        Built on first use and reused by every pass of the run, so the
        dependence graph and its SCCs are computed once per program
        rather than once per rule (or once per lint pass).
        """
        if self._facts is None:
            from .absint.framework import ProgramFacts

            self._facts = ProgramFacts(self.program)
        return self._facts

    def sorts(self):
        """The sort-propagation analysis, run once and shared."""
        if self._sorts is None:
            from .absint.sorts import analyze_sorts

            self._sorts = analyze_sorts(self.program, self.facts)
        return self._sorts

    def recursion(self):
        """The recursion classification, run once and shared."""
        if self._recursion is None:
            from .absint.recursion import classify_recursion

            self._recursion = classify_recursion(self.program, self.facts)
        return self._recursion

    def termination(self):
        """The chase-termination classification, run once and shared.

        Classifies ``config.tgds`` together with the program's rules;
        with no tgds configured the result is trivially ``full-only``.
        """
        if self._termination is None:
            from .absint.termination import classify_termination

            self._termination = classify_termination(
                self.config.tgds, self.program
            )
        return self._termination

    def index_of(self, rule: Rule) -> int | None:
        return self._index.get(rule)

    def diagnostic(
        self,
        rule_id: str,
        severity: str,
        message: str,
        rule: Rule | None = None,
        fix: Fix | None = None,
    ) -> Diagnostic:
        """Build a diagnostic, resolving the rule's index and span."""
        return Diagnostic(
            rule_id=rule_id,
            severity=severity,
            message=message,
            rule_index=self.index_of(rule) if rule is not None else None,
            span=self.spans.get(rule) if rule is not None else None,
            fix=fix,
        )


class LintRule:
    """One registered lint pass.

    Subclasses set ``rule_id``, ``severity`` (the default severity of
    their findings), a one-line ``description``, and implement
    :meth:`check`.  Passes must not mutate the program.
    """

    rule_id: str = ""
    severity: str = "warning"
    description: str = ""

    def check(self, context: LintContext) -> Iterable[Diagnostic]:  # pragma: no cover
        raise NotImplementedError


_REGISTRY: dict[str, LintRule] = {}


def register(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding an instance of *cls* to the registry."""
    instance = cls()
    if not instance.rule_id:
        raise ValueError(f"{cls.__name__} has no rule_id")
    if instance.rule_id in _REGISTRY:
        raise ValueError(f"duplicate lint rule id {instance.rule_id!r}")
    _REGISTRY[instance.rule_id] = instance
    return cls


def _ensure_builtin_rules() -> None:
    from . import lint_rules  # noqa: F401  (import populates the registry)
    from . import lint_absint  # noqa: F401  (abstract-interpretation passes)
    from . import lint_specialize  # noqa: F401  (specialization-analysis passes)


def registered_rules() -> dict[str, LintRule]:
    """The registry of lint passes, id -> instance (built-ins loaded)."""
    _ensure_builtin_rules()
    return dict(_REGISTRY)


def known_rule_ids() -> frozenset[str]:
    """Every id valid in ``select``/``ignore`` (passes + pseudo-rules)."""
    return frozenset(registered_rules()) | PSEUDO_RULE_IDS


class Linter:
    """Runs a registry of lint passes over a program."""

    def __init__(
        self,
        rules: Sequence[LintRule] | None = None,
        config: LintConfig | None = None,
    ):
        self.config = config or LintConfig()
        if rules is None:
            rules = list(registered_rules().values())
        self.rules = [r for r in rules if self.config.enables(r.rule_id)]

    def run(
        self,
        program: Program,
        spans: Mapping[Rule, SourceSpan] | None = None,
    ) -> list[Diagnostic]:
        context = LintContext(program, self.config, spans)
        diagnostics: list[Diagnostic] = []
        for rule in self.rules:
            diagnostics.extend(rule.check(context))
        if context.containment_budget.skipped and self.config.enables("containment-budget"):
            diagnostics.append(
                Diagnostic(
                    rule_id="containment-budget",
                    severity="info",
                    message=(
                        f"containment budget of {self.config.max_containment_checks} "
                        f"test(s) exhausted; {context.containment_budget.skipped} "
                        "check(s) skipped (raise --max-containment-checks for full coverage)"
                    ),
                )
            )
        diagnostics.sort(key=Diagnostic.sort_key)
        return diagnostics


def lint(
    program: Program,
    config: LintConfig | None = None,
    spans: Mapping[Rule, SourceSpan] | None = None,
) -> list[Diagnostic]:
    """Run every registered lint pass over *program*."""
    return Linter(config=config).run(program, spans)


def lint_source(source: str, config: LintConfig | None = None) -> list[Diagnostic]:
    """Lint program *text*, reporting construction problems as diagnostics.

    A program that cannot be parsed (``syntax``), uses a predicate with
    two arities (``arity``), or contains unsafe rules (``safety``) never
    becomes a :class:`~repro.lang.programs.Program`; those findings are
    returned instead of raised, with per-rule detail for safety via
    :func:`repro.analysis.safety.check_program_source`.
    """
    config = config or LintConfig()
    try:
        parsed = parse_program_with_spans(source)
    except ParseError as error:
        span = None
        if error.line is not None:
            span = SourceSpan(error.line, error.column or 1, error.line, error.column or 1)
        return _filtered(
            [Diagnostic("syntax", "error", str(error), span=span)], config
        )
    except ArityError as error:
        return _filtered([Diagnostic("arity", "error", str(error))], config)
    except UnsafeRuleError:
        from .safety import check_program_source

        diagnostics = []
        for violation in check_program_source(source):
            span = None
            if violation.line is not None:
                span = SourceSpan(violation.line, 1, violation.line, 1)
            diagnostics.append(
                Diagnostic(
                    rule_id="safety",
                    severity="error",
                    message=str(violation),
                    rule_index=violation.rule_index,
                    span=span,
                )
            )
        return _filtered(diagnostics, config)
    return Linter(config=config).run(parsed.program, parsed.spans)


def _filtered(diagnostics: list[Diagnostic], config: LintConfig) -> list[Diagnostic]:
    return [d for d in diagnostics if config.enables(d.rule_id)]


def max_severity(diagnostics: Iterable[Diagnostic]) -> str | None:
    """The most severe severity present, or ``None`` for a clean run."""
    best: str | None = None
    for diagnostic in diagnostics:
        if best is None or _SEVERITY_RANK[diagnostic.severity] < _SEVERITY_RANK[best]:
            best = diagnostic.severity
    return best


__all__ = [
    "Diagnostic",
    "Fix",
    "LintConfig",
    "LintContext",
    "LintRule",
    "Linter",
    "PSEUDO_RULE_IDS",
    "SEVERITIES",
    "known_rule_ids",
    "lint",
    "lint_source",
    "max_severity",
    "register",
    "registered_rules",
    "severity_at_least",
]
