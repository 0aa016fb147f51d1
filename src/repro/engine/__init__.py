"""Bottom-up evaluation engines: naive, semi-naive, magic sets, stratified."""

from __future__ import annotations

from .compile import JoinKernel, KernelCache, compile_kernel
from .costs import (
    DEFAULT_SELECTIVITY,
    JoinEstimate,
    PredicateStatistics,
    collect_statistics,
    estimate_guard_benefit,
    estimate_rule,
    rank_guards,
)
from .fixpoint import (
    EngineName,
    EngineSpec,
    EvaluationOutcome,
    EvaluationResult,
    apply_once,
    engine_names,
    evaluate,
    get_engine,
    register_engine,
)
from .incremental import MaintenanceStats, MaterializedView
from .joins import plan_order
from .magic import Adornment, MagicRewriting, answer_query, magic_transform
from .provenance import (
    Justification,
    ProofNode,
    ProvenanceResult,
    derivation_tree,
    evaluate_with_provenance,
    explain,
)
from .seminaive import naive_fixpoint, seminaive_fixpoint
from .stats import EvaluationStats
from .stratified import Stratification, evaluate_stratified, stratify
from .supplementary import answer_query_supplementary, supplementary_magic_transform
from .topdown import Call, TabledResult, tabled_answer_query, tabled_query

__all__ = [
    "Adornment",
    "Call",
    "DEFAULT_SELECTIVITY",
    "EngineName",
    "EngineSpec",
    "EvaluationOutcome",
    "EvaluationResult",
    "EvaluationStats",
    "JoinEstimate",
    "JoinKernel",
    "Justification",
    "KernelCache",
    "MaintenanceStats",
    "MagicRewriting",
    "MaterializedView",
    "PredicateStatistics",
    "ProofNode",
    "ProvenanceResult",
    "Stratification",
    "TabledResult",
    "derivation_tree",
    "evaluate_with_provenance",
    "explain",
    "answer_query",
    "answer_query_supplementary",
    "apply_once",
    "collect_statistics",
    "compile_kernel",
    "engine_names",
    "evaluate",
    "get_engine",
    "register_engine",
    "estimate_guard_benefit",
    "estimate_rule",
    "evaluate_stratified",
    "magic_transform",
    "naive_fixpoint",
    "plan_order",
    "rank_guards",
    "seminaive_fixpoint",
    "stratify",
    "supplementary_magic_transform",
    "tabled_answer_query",
    "tabled_query",
]
