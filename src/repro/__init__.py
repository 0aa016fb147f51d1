"""repro -- a reproduction of *Optimizing Datalog Programs* (Y. Sagiv, PODS 1987).

A production-quality Datalog toolkit centered on the paper's
contribution: **optimization by removing redundant parts** of a program.

Quickstart::

    import repro

    program = repro.parse_program('''
        G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).
    ''')
    result = repro.minimize_program(program)
    print(result.program)        # the redundant A(w, y) is gone
    print(result.summary())

Layers (see DESIGN.md for the full inventory):

* :mod:`repro.lang`     -- terms, atoms, rules, programs, parser;
* :mod:`repro.data`     -- databases of ground atoms, indexes;
* :mod:`repro.engine`   -- naive / semi-naive / magic-sets / stratified
  bottom-up evaluation;
* :mod:`repro.analysis` -- dependence graphs, recursion, safety;
* :mod:`repro.core`     -- the paper's algorithms: uniform containment
  (§VI), minimization (§VII), tgds and the chase (§VIII),
  non-recursive preservation (§IX), equivalence proofs (§X),
  heuristic tgd discovery and the optimizer (§XI);
* :mod:`repro.obs`      -- tracing spans, the metrics registry and the
  profiler;
* :mod:`repro.workloads` -- synthetic programs and EDBs for benchmarks;
* :mod:`repro.paper`    -- the paper's Examples 1-19 as executable data.
"""

from __future__ import annotations

from .analysis import Diagnostic, LintConfig, lint, lint_source
from .core import (
    ChaseBudget,
    EquivalenceProof,
    MinimizationResult,
    OptimizationReport,
    Tgd,
    Verdict,
    chase,
    check_model_containment,
    check_uniform_containment,
    is_minimal,
    minimize_program,
    minimize_rule,
    optimize,
    preliminary_db_satisfies,
    preserves_nonrecursively,
    prove_containment_with_constraints,
    prove_equivalence_with_constraints,
    rule_uniformly_contained_in,
    uniformly_contains,
    uniformly_equivalent,
)
from .data import Database, Relation, relation_of
from .engine import (
    EvaluationResult,
    EvaluationStats,
    MaterializedView,
    answer_query,
    answer_query_supplementary,
    apply_once,
    evaluate,
    evaluate_stratified,
    evaluate_with_provenance,
    magic_transform,
    tabled_query,
)
from .errors import (
    ArityError,
    BudgetExceededError,
    ParseError,
    ReproError,
    StratificationError,
    TgdError,
    UnsafeRuleError,
    ValidationError,
)
from .obs import metrics_registry, render_spans, trace, tracing

from .lang import (
    Atom,
    Constant,
    Literal,
    Program,
    Rule,
    Variable,
    format_program,
    parse_atom,
    parse_program,
    parse_rule,
    parse_tgd,
    parse_tgds,
    variables,
)

__version__ = "1.0.0"

__all__ = [
    "ArityError",
    "Atom",
    "BudgetExceededError",
    "ChaseBudget",
    "Constant",
    "Database",
    "Diagnostic",
    "EquivalenceProof",
    "EvaluationResult",
    "EvaluationStats",
    "LintConfig",
    "Literal",
    "MaterializedView",
    "MinimizationResult",
    "OptimizationReport",
    "ParseError",
    "Program",
    "Relation",
    "ReproError",
    "Rule",
    "StratificationError",
    "Tgd",
    "TgdError",
    "UnsafeRuleError",
    "ValidationError",
    "Variable",
    "Verdict",
    "__version__",
    "answer_query",
    "answer_query_supplementary",
    "apply_once",
    "chase",
    "check_model_containment",
    "check_uniform_containment",
    "evaluate",
    "evaluate_stratified",
    "evaluate_with_provenance",
    "format_program",
    "is_minimal",
    "lint",
    "lint_source",
    "magic_transform",
    "metrics_registry",
    "minimize_program",
    "minimize_rule",
    "optimize",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "parse_tgd",
    "parse_tgds",
    "preliminary_db_satisfies",
    "preserves_nonrecursively",
    "prove_containment_with_constraints",
    "prove_equivalence_with_constraints",
    "relation_of",
    "render_spans",
    "rule_uniformly_contained_in",
    "tabled_query",
    "trace",
    "tracing",
    "uniformly_contains",
    "uniformly_equivalent",
    "variables",
]
