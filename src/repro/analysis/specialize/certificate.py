"""Plan certificates: the advisor's checkable, loadable output.

A :class:`PlanCertificate` is the prepared-program cache entry ROADMAP
item 4's serving daemon loads: per query form, the recommended rewrite
and engine plus the *evidence* that justifies them (adornment closure,
stratification status, cost intervals, classification flags).  It is
keyed by :func:`repro.lang.canonical.canonical_program_key`, so any
program in the same isomorphism class — same rules up to variable
renaming and rule order — can consume it.

The JSON document is schema-versioned (``ADVISE_SCHEMA_VERSION``);
consumers must validate with :func:`validate_certificate_document`
before trusting a file from disk.  The certificate carries everything
needed to *skip* re-analysis at query time:

* ``closure`` per plan — preloaded into the magic adornment-closure
  cache, so ``magic_transform`` never reruns ``binding_analysis``;
* ``hints`` (original program) and per-plan ``hints`` (rewritten
  program) — installed into the kernel planner, so ``KernelCache``
  never reruns the cardinality analysis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Mapping

#: Bump when the certificate document shape changes incompatibly.
ADVISE_SCHEMA_VERSION = 1

#: Values the ``recommendation.rewrite`` field may take.
REWRITES = ("magic", "none")
#: Values the ``recommendation.method`` field may take: registry query
#: methods plus ``evaluate`` (bottom-up fixpoint, answers selected).
METHODS = ("magic", "supplementary", "topdown", "evaluate")


class CertificateError(ValueError):
    """A certificate document that fails schema validation."""


@dataclass(frozen=True)
class Recommendation:
    """How to run one query form: rewrite × method × inner engine."""

    rewrite: str  # "magic" | "none"
    method: str  # "magic" | "supplementary" | "topdown" | "evaluate"
    engine: str  # inner fixpoint engine, e.g. "seminaive" | "stratified"
    reason: str = ""

    def to_dict(self) -> dict:
        return {
            "rewrite": self.rewrite,
            "method": self.method,
            "engine": self.engine,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "Recommendation":
        return cls(
            rewrite=doc["rewrite"],
            method=doc["method"],
            engine=doc["engine"],
            reason=doc.get("reason", ""),
        )


@dataclass
class SpecializationPlan:
    """One query form's analyzed specialization."""

    predicate: str
    adornment: str  # suffix, e.g. "bf"
    query: str  # display form, e.g. "Tc(bf)"
    #: Demanded (predicate, adornment-suffix) pairs in discovery order —
    #: exactly the magic closure, preloadable into engine/magic's cache.
    closure: tuple[tuple[str, str], ...]
    recommendation: Recommendation
    #: Class-membership verdicts for the rewritten program.
    classification: dict[str, bool] = field(default_factory=dict)
    stratification: dict[str, Any] = field(default_factory=dict)
    #: Static cost evidence: per candidate, an interval string and an
    #: integer estimate comparable across candidates.
    cost: dict[str, Any] = field(default_factory=dict)
    issues: list[dict] = field(default_factory=list)
    #: Canonical key of the rewritten program (None when rewrite="none").
    rewritten_program_key: str | None = None
    rewritten_rules: int = 0
    #: Planner hints for the rewritten program.
    hints: dict[str, int] = field(default_factory=dict)

    @property
    def closure_size(self) -> int:
        return len(self.closure)

    def to_dict(self) -> dict:
        return {
            "predicate": self.predicate,
            "adornment": self.adornment,
            "query": self.query,
            "closure": [list(pair) for pair in self.closure],
            "closure_size": self.closure_size,
            "recommendation": self.recommendation.to_dict(),
            "classification": dict(self.classification),
            "stratification": dict(self.stratification),
            "cost": dict(self.cost),
            "issues": list(self.issues),
            "rewritten_program_key": self.rewritten_program_key,
            "rewritten_rules": self.rewritten_rules,
            "hints": dict(self.hints),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "SpecializationPlan":
        return cls(
            predicate=doc["predicate"],
            adornment=doc["adornment"],
            query=doc.get("query", f"{doc['predicate']}({doc['adornment']})"),
            closure=tuple((p, a) for p, a in doc["closure"]),
            recommendation=Recommendation.from_dict(doc["recommendation"]),
            classification=dict(doc.get("classification", {})),
            stratification=dict(doc.get("stratification", {})),
            cost=dict(doc.get("cost", {})),
            issues=list(doc.get("issues", [])),
            rewritten_program_key=doc.get("rewritten_program_key"),
            rewritten_rules=int(doc.get("rewritten_rules", 0)),
            hints={p: int(n) for p, n in doc.get("hints", {}).items()},
        )


@dataclass
class PlanCertificate:
    """The advisor's output for one program: plans per query form."""

    program_key: str
    sips: str
    assume_edb: int
    plans: list[SpecializationPlan]
    #: Planner hints for the *original* program.
    hints: dict[str, int] = field(default_factory=dict)
    source: str | None = None
    version: int = ADVISE_SCHEMA_VERSION

    def plan_for(self, predicate: str, adornment_suffix: str) -> SpecializationPlan | None:
        for plan in self.plans:
            if plan.predicate == predicate and plan.adornment == adornment_suffix:
                return plan
        return None

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "schema": f"repro.advise/{self.version}",
            "program_key": self.program_key,
            "sips": self.sips,
            "assume_edb": self.assume_edb,
            "source": self.source,
            "hints": dict(self.hints),
            "plans": [plan.to_dict() for plan in self.plans],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "PlanCertificate":
        errors = validate_certificate_document(doc)
        if errors:
            raise CertificateError("; ".join(errors))
        return cls(
            program_key=doc["program_key"],
            sips=doc["sips"],
            assume_edb=int(doc["assume_edb"]),
            plans=[SpecializationPlan.from_dict(p) for p in doc["plans"]],
            hints={p: int(n) for p, n in doc.get("hints", {}).items()},
            source=doc.get("source"),
            version=int(doc["version"]),
        )


def validate_certificate_document(doc: Any) -> list[str]:
    """Schema-validate a certificate document; returns human findings."""
    errors: list[str] = []
    if not isinstance(doc, Mapping):
        return ["certificate must be a JSON object"]
    version = doc.get("version")
    if version != ADVISE_SCHEMA_VERSION:
        errors.append(
            f"unsupported certificate version {version!r}; "
            f"this build reads version {ADVISE_SCHEMA_VERSION}"
        )
        return errors
    for key in ("program_key", "sips"):
        if not isinstance(doc.get(key), str) or not doc.get(key):
            errors.append(f"missing or non-string field {key!r}")
    if not isinstance(doc.get("assume_edb"), int) or doc.get("assume_edb", 0) <= 0:
        errors.append("assume_edb must be a positive integer")
    plans = doc.get("plans")
    if not isinstance(plans, list):
        return errors + ["plans must be a list"]
    seen: set[tuple[str, str]] = set()
    for i, plan in enumerate(plans):
        where = f"plans[{i}]"
        if not isinstance(plan, Mapping):
            errors.append(f"{where} must be an object")
            continue
        pred = plan.get("predicate")
        suffix = plan.get("adornment")
        if not isinstance(pred, str) or not pred:
            errors.append(f"{where}.predicate missing")
            continue
        if not isinstance(suffix, str) or any(ch not in "bf" for ch in suffix):
            errors.append(f"{where}.adornment must be a string over 'b'/'f'")
            continue
        if (pred, suffix) in seen:
            errors.append(f"{where} duplicates query form {pred}({suffix})")
        seen.add((pred, suffix))
        closure = plan.get("closure")
        if not isinstance(closure, list) or not all(
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], str)
            and all(ch in "bf" for ch in pair[1])
            for pair in closure
        ):
            errors.append(f"{where}.closure must be a list of [predicate, adornment] pairs")
        rec = plan.get("recommendation")
        if not isinstance(rec, Mapping):
            errors.append(f"{where}.recommendation missing")
        else:
            if rec.get("rewrite") not in REWRITES:
                errors.append(f"{where}.recommendation.rewrite must be one of {REWRITES}")
            if rec.get("method") not in METHODS:
                errors.append(f"{where}.recommendation.method must be one of {METHODS}")
            if not isinstance(rec.get("engine"), str) or not rec.get("engine"):
                errors.append(f"{where}.recommendation.engine missing")
        hints = plan.get("hints", {})
        if not isinstance(hints, Mapping) or not all(
            isinstance(k, str) and isinstance(v, int) for k, v in hints.items()
        ):
            errors.append(f"{where}.hints must map predicates to integers")
    return errors


def load_certificate(path: str) -> PlanCertificate:
    """Read, schema-validate, and deserialize a certificate file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:  # JSON and UTF-8 decode errors are ValueErrors
        raise CertificateError(f"cannot read certificate {path}: {exc}") from exc
    return PlanCertificate.from_dict(doc)


def save_certificate(certificate: PlanCertificate, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(certificate.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


__all__ = [
    "ADVISE_SCHEMA_VERSION",
    "CertificateError",
    "PlanCertificate",
    "Recommendation",
    "SpecializationPlan",
    "load_certificate",
    "save_certificate",
    "validate_certificate_document",
]
