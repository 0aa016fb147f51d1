"""Command-line interface: ``repro-datalog``.

Subcommands::

    repro-datalog parse      PROGRAM            # validate + profile
    repro-datalog lint       PROGRAM            # static diagnostics
    repro-datalog analyze    PROGRAM            # abstract-interpretation report
    repro-datalog advise     PROGRAM            # specialization plans per query form
    repro-datalog eval       PROGRAM --edb F    # bottom-up evaluation
    repro-datalog resume     CHECKPOINT         # continue an interrupted eval
    repro-datalog minimize   PROGRAM            # Fig. 2 minimization
    repro-datalog optimize   PROGRAM            # + Section X/XI layer
    repro-datalog contains   P1 P2              # uniform containment, both ways
    repro-datalog preserves  PROGRAM --tgds F   # Fig. 3 preservation
    repro-datalog prove      P1 P2 --tgds F     # Section X equivalence proof
    repro-datalog query      PROGRAM --edb F Q  # goal-directed query (magic sets)
    repro-datalog explain    PROGRAM --edb F A  # why-provenance proof of a fact
    repro-datalog bounded    PROGRAM            # recursion-elimination search
    repro-datalog profile    PROGRAM --edb F    # per-rule/per-span work breakdown
    repro-datalog fuzz                          # differential self-test on random inputs
    repro-datalog examples                      # run the paper's examples

Programs and EDB files use the Datalog syntax of
:mod:`repro.lang.parser`; an EDB file is simply a program of ground
facts (``A(1, 2).``).  Tgd files hold one tgd per line
(``G(x, z) -> A(x, w)``).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analysis import profile
from .core import (
    check_uniform_containment,
    minimize_program,
    optimize,
    preserves_nonrecursively,
)
from .core.tgds import Tgd
from .data.database import Database
from .engine import engine_names, evaluate, get_engine
from .errors import ReproError
from .lang import format_database, format_program, parse_program, parse_tgds
from .lang.programs import Program

#: Exit code for a run that completed PARTIALLY under a resource limit:
#: the printed facts are sound but the fixpoint was not reached.
EXIT_PARTIAL = 3
#: Standard output was closed by its reader (128 + SIGPIPE, as a shell reports it).
EXIT_BROKEN_PIPE = 141


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as bad:
        raise ReproError(f"{path} is not UTF-8 text: {bad}") from bad


def _number_at_least(parse, minimum, expected: str):
    """An argparse ``type=`` that rejects (exit 2, flag named) what is
    not ``parse``-able or is below *minimum*; nan fails the comparison."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not value >= minimum:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return convert


#: Cadence counts: zero or fewer has no meaning.
_positive_int = _number_at_least(int, 1, "an integer >= 1")
#: Caps and budgets (facts, rounds, nulls): zero is a legal, tight cap.
_limit_int = _number_at_least(int, 0, "an integer >= 0")
_limit_seconds = _number_at_least(float, 0, "a number of seconds >= 0")


def _add_governor_flags(p: argparse.ArgumentParser, with_on_limit: bool = True) -> None:
    """Resource-governance flags shared by evaluation-driving verbs."""
    p.add_argument(
        "--deadline",
        type=_limit_seconds,
        metavar="SECONDS",
        help="wall-clock budget; on expiry the run degrades or raises (see --on-limit)",
    )
    p.add_argument(
        "--max-facts", type=_limit_int, metavar="N", help="cap on facts derived during the run"
    )
    p.add_argument(
        "--max-rounds", type=_limit_int, metavar="N", help="cap on fixpoint rounds/passes"
    )
    if with_on_limit:
        p.add_argument(
            "--on-limit",
            choices=["partial", "raise"],
            default="partial",
            help="what a tripped limit does: print the sound partial result and "
            f"exit {EXIT_PARTIAL} (default), or raise and exit 2",
        )


def _governor_from_args(args: argparse.Namespace):
    """Build a ResourceGovernor from the shared flags, or None if unset."""
    if args.deadline is None and args.max_facts is None and args.max_rounds is None:
        return None
    from .resilience import ResourceGovernor

    return ResourceGovernor(
        deadline_s=args.deadline,
        max_facts=args.max_facts,
        max_rounds=args.max_rounds,
    )


def _add_chase_flags(p: argparse.ArgumentParser) -> None:
    """ChaseBudget flags for the chase-backed verbs."""
    p.add_argument(
        "--chase-rounds",
        type=_limit_int,
        metavar="N",
        help="chase budget: max rounds per chase run (default 200)",
    )
    p.add_argument(
        "--chase-nulls",
        type=_limit_int,
        metavar="N",
        help="chase budget: max labelled nulls per chase run (default 2000)",
    )


def _chase_budget_from_args(args: argparse.Namespace):
    from .core.chase import DEFAULT_BUDGET, ChaseBudget

    if args.chase_rounds is None and args.chase_nulls is None:
        return DEFAULT_BUDGET
    return ChaseBudget(
        max_rounds=args.chase_rounds if args.chase_rounds is not None else DEFAULT_BUDGET.max_rounds,
        max_nulls=args.chase_nulls if args.chase_nulls is not None else DEFAULT_BUDGET.max_nulls,
    )


def _load_program(path: str) -> Program:
    return parse_program(_read(path))


def _load_edb(path: str) -> Database:
    facts_program = parse_program(_read(path))
    db = Database()
    for rule in facts_program.rules:
        if not rule.is_fact:
            raise ReproError(f"EDB file {path} contains a non-fact rule: {rule}")
        db.add(rule.head)
    return db


def _load_tgds(path: str) -> list[Tgd]:
    return parse_tgds(_read(path))


def _cmd_parse(args: argparse.Namespace) -> int:
    import json

    program = _load_program(args.program)
    if args.json:
        print(json.dumps(profile(program).to_dict(), indent=2))
        return 0
    print(format_program(program))
    print()
    print(profile(program))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import known_rule_ids, lint_source, severity_at_least
    from .analysis.lint import LintConfig
    from .analysis.lint_report import render_json, render_text

    select = frozenset(args.select.split(",")) if args.select else None
    ignore = frozenset(args.ignore.split(",")) if args.ignore else frozenset()
    unknown = ((select or frozenset()) | ignore) - known_rule_ids()
    if unknown:
        known = ", ".join(sorted(known_rule_ids()))
        print(
            f"error: unknown lint rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2
    config = LintConfig(
        select=select,
        ignore=ignore,
        max_containment_checks=args.max_containment_checks,
        exported=frozenset(args.export) if args.export else None,
    )
    diagnostics = lint_source(_read(args.program), config)
    if args.format == "json":
        print(render_json(diagnostics, filename=args.program))
    else:
        print(render_text(diagnostics, filename=args.program))
    if args.fail_on != "never" and any(
        severity_at_least(d.severity, args.fail_on) for d in diagnostics
    ):
        return 1
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import known_rule_ids, severity_at_least
    from .analysis.absint.report import (
        ABSINT_LINT_RULES,
        analyze_program,
        render_analysis_json,
        render_analysis_text,
    )
    from .analysis.lint import LintConfig, lint_source
    from .analysis.lint_report import render_json, render_text
    from .errors import ArityError, ParseError, UnsafeRuleError
    from .lang import parse_atom
    from .lang.parser import parse_program_with_spans

    # ``termination`` selects the chase-termination lint pair in one
    # word; the termination JSON/text block itself is always present.
    termination_alias = frozenset(
        {"weakly-acyclic-certified", "nonterminating-chase-risk"}
    )
    select = (
        frozenset(args.select.split(",")) if args.select else ABSINT_LINT_RULES
    )
    ignore = frozenset(args.ignore.split(",")) if args.ignore else frozenset()
    if "termination" in select:
        select = (select - {"termination"}) | termination_alias
    if "termination" in ignore:
        ignore = (ignore - {"termination"}) | termination_alias
    unknown = (select | ignore) - known_rule_ids()
    if unknown:
        known = ", ".join(sorted(known_rule_ids() | {"termination"}))
        print(
            f"error: unknown lint rule id(s): {', '.join(sorted(unknown))} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2
    tgds = tuple(_load_tgds(args.tgds)) if args.tgds else ()
    config = LintConfig(
        select=select,
        ignore=ignore,
        max_containment_checks=args.max_containment_checks,
        tgds=tgds,
    )
    source = _read(args.program)
    try:
        parsed = parse_program_with_spans(source)
    except (ParseError, ArityError, UnsafeRuleError):
        # An unconstructible program gets the same construction
        # diagnostics (and exit 1) the lint verb would produce.
        diagnostics = lint_source(
            source, LintConfig(select=frozenset({"syntax", "arity", "safety"}))
        )
        if args.format == "json":
            print(render_json(diagnostics, filename=args.program))
        else:
            print(render_text(diagnostics, filename=args.program))
        return 1
    query = parse_atom(args.query) if args.query else None
    report = analyze_program(
        parsed.program,
        parsed.spans,
        query=query,
        config=config,
        default_edb=args.assume_edb,
        tgds=tgds,
    )
    if args.format == "json":
        print(render_analysis_json(report, filename=args.program))
    else:
        print(render_analysis_text(report, filename=args.program))
    if args.fail_on != "never" and any(
        severity_at_least(d.severity, args.fail_on) for d in report.diagnostics
    ):
        return 1
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .analysis import severity_at_least
    from .analysis.lint import LintConfig, lint_source
    from .analysis.specialize import (
        QueryFormError,
        advise_program,
        parse_query_form,
        save_certificate,
    )
    from .analysis.specialize.report import render_advise_json, render_advise_text

    source = _read(args.program)
    program = parse_program(source)
    forms = None
    if args.query:
        try:
            forms = [parse_query_form(q, program) for q in args.query]
        except QueryFormError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    config = LintConfig(
        select=frozenset({"adornment-space-explosion", "magic-unstratifiable"}),
        adornment_budget=args.adornment_budget,
    )
    diagnostics = lint_source(source, config)
    certificate = advise_program(
        program,
        forms,
        sips=args.sips,
        assume_edb=args.assume_edb,
        source=args.program,
    )
    if args.export:
        save_certificate(certificate, args.export)
        print(f"wrote certificate {args.export}", file=sys.stderr)
    if args.json:
        print(render_advise_json(certificate, diagnostics, filename=args.program))
    else:
        print(render_advise_text(certificate, diagnostics, filename=args.program))
    if args.fail_on != "never" and any(
        severity_at_least(d.severity, args.fail_on) for d in diagnostics
    ):
        return 1
    return 0


def _add_checkpoint_flags(p: argparse.ArgumentParser) -> None:
    """Durable-checkpoint flags of ``eval``."""
    p.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write a durable checkpoint of the evaluation at round "
        "boundaries; an interrupted run continues with 'resume PATH' "
        "(see docs/STORAGE.md for the file format)",
    )
    p.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=1,
        metavar="N",
        help="checkpoint cadence in fixpoint rounds (default 1)",
    )


def _checkpointed_governor(args: argparse.Namespace, governor, program, engine: str):
    """Wire a CheckpointManager into *governor* when --checkpoint is set.

    Checkpoints ride the governor's round hook, so a limitless governor
    is created if the user set no limits.  Returns (governor, manager).
    """
    if not getattr(args, "checkpoint", None):
        return governor, None
    from .resilience import CheckpointManager, ResourceGovernor

    manager = CheckpointManager(
        args.checkpoint, program=program, engine=engine, every=args.checkpoint_every
    )
    if governor is None:
        governor = ResourceGovernor()
    governor.on_round = manager.on_round
    return governor, manager


def _result_document(result, database=None) -> dict:
    """The --json document shared by eval/query/resume.

    ``degradation`` is present (non-null) exactly on PARTIAL runs, so
    machine consumers see which limit tripped and where without parsing
    stderr.
    """
    from .lang.serialize import database_to_dict

    return {
        "status": result.status.value,
        "database": database_to_dict(database if database is not None else result.database),
        "stats": result.stats.to_dict(),
        "degradation": (
            result.degradation.to_dict() if result.degradation is not None else None
        ),
    }


def _emit_result(args: argparse.Namespace, result, database=None) -> int:
    """Shared output tail of eval/resume: text or JSON, PARTIAL exit code."""
    import json

    if getattr(args, "json", False):
        print(json.dumps(_result_document(result, database), indent=2))
    else:
        print(format_database(database if database is not None else result.database))
        if args.stats:
            print()
            print(result.stats.summary())
    if result.is_partial:
        print(result.degradation.summary(), file=sys.stderr)
        return EXIT_PARTIAL
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    edb = _load_edb(args.edb)
    governor = _governor_from_args(args)
    governor, _manager = _checkpointed_governor(args, governor, program, args.engine)
    result = evaluate(
        program,
        edb,
        engine=args.engine,
        governor=governor,
        on_limit=args.on_limit,
    )
    return _emit_result(args, result)


def _cmd_resume(args: argparse.Namespace) -> int:
    from .resilience import CheckpointManager, resume_evaluation

    every = args.checkpoint_every
    manager = CheckpointManager(args.checkpoint, every=every or 1)
    checkpoint = manager.latest()
    if checkpoint is None:
        print(
            f"error: no valid checkpoint generation at {args.checkpoint}",
            file=sys.stderr,
        )
        return 2
    program = _load_program(args.program) if args.program else None
    governor = _governor_from_args(args)
    if not args.no_checkpoint:
        from .resilience import ResourceGovernor

        manager.adopt(checkpoint, every=every)
        if governor is None:
            governor = ResourceGovernor()
        governor.on_round = manager.on_round
    if governor is not None:
        state = checkpoint.governor_state or {}
        governor.restore(facts=state.get("facts", 0), rounds=state.get("rounds", 0))
    if not args.json:
        print(
            f"resuming {checkpoint.engine} evaluation from round "
            f"{checkpoint.round} ({len(checkpoint.database)} facts)",
            file=sys.stderr,
        )
    result = resume_evaluation(checkpoint, governor=governor, program=program)
    if args.on_limit == "raise" and result.is_partial:
        from .errors import ResourceLimitExceeded

        raise ResourceLimitExceeded(
            result.degradation.summary(), report=result.degradation
        )
    return _emit_result(args, result)


def _cmd_minimize(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    governor = _governor_from_args(args)
    result = minimize_program(program, governor=governor)
    print(format_program(result.program))
    print()
    print(result.summary())
    if result.degradation is not None:
        print(result.degradation.summary(), file=sys.stderr)
        return EXIT_PARTIAL
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    import json

    program = _load_program(args.program)
    governor = _governor_from_args(args)
    report = optimize(
        program,
        use_equivalence=not args.uniform_only,
        budget=_chase_budget_from_args(args),
        governor=governor,
    )
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(format_program(report.optimized))
        print()
        print(report.summary())
    if report.degradation is not None:
        print(report.degradation.summary(), file=sys.stderr)
        return EXIT_PARTIAL
    return 0


def _cmd_contains(args: argparse.Namespace) -> int:
    p1 = _load_program(args.p1)
    p2 = _load_program(args.p2)
    forward = check_uniform_containment(container=p1, contained=p2)
    backward = check_uniform_containment(container=p2, contained=p1)
    if args.verbose:
        from .core.transcripts import render_uniform_containment

        print(render_uniform_containment(forward))
        print()
        print(
            render_uniform_containment(
                backward, container_name="P2", contained_name="P1"
            )
        )
        print()
    print(f"P2 ⊑u P1: {'yes' if forward.holds else 'no'}")
    for witness in forward.witnesses:
        if not witness.holds:
            print(f"  fails for: {witness.rule}")
    print(f"P1 ⊑u P2: {'yes' if backward.holds else 'no'}")
    for witness in backward.witnesses:
        if not witness.holds:
            print(f"  fails for: {witness.rule}")
    if forward.holds and backward.holds:
        print("P1 ≡u P2")
    return 0


def _cmd_preserves(args: argparse.Namespace) -> int:
    from .core.chase import termination_certificate

    program = _load_program(args.program)
    tgds = _load_tgds(args.tgds)
    certificate = termination_certificate(tgds, program)
    report = preserves_nonrecursively(
        program,
        tgds,
        budget=_chase_budget_from_args(args),
        certificate=certificate,
    )
    if args.verbose:
        from .core.transcripts import render_preservation

        print(render_preservation(report))
        print()
    print(f"termination certificate: {certificate.describe()}")
    print(f"non-recursive preservation: {report.verdict.value}")
    print(f"combinations examined: {report.combinations_examined}")
    if report.exhausted:
        print(f"chase budget exhausted: {report.exhausted}")
    return 0 if report.verdict.value == "proved" else 1


def _cmd_prove(args: argparse.Namespace) -> int:
    from .core import prove_equivalence_with_constraints
    from .core.transcripts import render_equivalence_proof

    p1 = _load_program(args.p1)
    p2 = _load_program(args.p2)
    tgds = _load_tgds(args.tgds)
    proof = prove_equivalence_with_constraints(
        p1, p2, tgds, budget=_chase_budget_from_args(args)
    )
    if args.verbose:
        if proof.certificate is not None:
            print(f"termination certificate: {proof.certificate.describe()}")
        print(render_equivalence_proof(proof))
    else:
        print(proof.explain())
    return 0 if proof.verdict.value == "proved" else 1


def _cmd_query(args: argparse.Namespace) -> int:
    from .lang import parse_atom

    program = _load_program(args.program)
    edb = _load_edb(args.edb)
    query = parse_atom(args.query)
    governor = _governor_from_args(args)
    plan = None
    certificate = None
    if args.certificate:
        from .analysis.specialize import (
            CertificateError,
            apply_certificate,
            load_certificate,
        )

        try:
            certificate = load_certificate(args.certificate)
            plan = apply_certificate(certificate, program, query)
        except CertificateError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if plan is None:
            print(
                "note: certificate holds no plan for this query form; "
                "analyzing fresh",
                file=sys.stderr,
            )
    if plan is not None and args.method is None:
        from .analysis.specialize import execute_plan

        if args.stats and not args.json:
            rec = plan.recommendation
            print(
                f"certificate plan {plan.query}: rewrite={rec.rewrite} "
                f"method={rec.method} engine={rec.engine}",
                file=sys.stderr,
            )
        answers, result = execute_plan(
            program, edb, query, plan, sips=certificate.sips, governor=governor
        )
    else:
        method = args.method or "magic"
        spec = get_engine(method)
        kwargs = {"governor": governor}
        if method in ("magic", "supplementary"):
            kwargs["engine"] = args.engine
        answers, result = spec.answer(program, edb, query, **kwargs)
    if args.on_limit == "raise" and result.is_partial:
        from .errors import ResourceLimitExceeded

        raise ResourceLimitExceeded(
            result.degradation.summary(), report=result.degradation
        )
    if args.json:
        import json

        print(json.dumps(_result_document(result, database=answers), indent=2))
    else:
        for atom in sorted(answers.atoms(), key=lambda a: a.sort_key()):
            print(atom)
        if args.stats:
            print()
            print(result.stats.summary())
    if result.is_partial:
        print(result.degradation.summary(), file=sys.stderr)
        return EXIT_PARTIAL
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from .engine.provenance import evaluate_with_provenance, explain
    from .lang import parse_atom

    program = _load_program(args.program)
    edb = _load_edb(args.edb)
    fact = parse_atom(args.fact)
    provenance = evaluate_with_provenance(program, edb)
    try:
        print(explain(provenance, fact))
    except KeyError:
        print(f"{fact} does not hold", file=sys.stderr)
        return 1
    return 0


def _cmd_bounded(args: argparse.Namespace) -> int:
    from .core.boundedness import uniform_boundedness

    program = _load_program(args.program)
    report = uniform_boundedness(program, max_depth=args.max_depth)
    if report.verdict.value == "proved":
        print(f"recursion eliminable: uniformly bounded at depth {report.depth}")
        print()
        print(format_program(report.nonrecursive))
        return 0
    print(
        f"not shown bounded up to depth {args.max_depth} "
        "(the program may be unbounded, or bounded only deeper)"
    )
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .lang import parse_atom
    from .obs.profiler import (
        profile_comparison,
        profile_evaluation,
        render_comparison,
        render_profile,
    )

    if args.engine in ("magic", "supplementary", "topdown") and not args.query:
        print(f"error: engine {args.engine!r} requires a query atom (--query)", file=sys.stderr)
        return 2
    program = _load_program(args.program)
    edb = _load_edb(args.edb)
    query = parse_atom(args.query) if args.query else None
    if args.compare_minimized:
        comparison = profile_comparison(program, edb, engine=args.engine, query=query)
        if args.json:
            print(json.dumps(comparison.to_dict(), indent=2))
        else:
            print(render_comparison(comparison))
        return 0
    report = profile_evaluation(program, edb, engine=args.engine, query=query)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(render_profile(report, max_depth=args.max_depth))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .testing import run_differential_suite

    report = run_differential_suite(seeds=args.seeds, start_seed=args.start_seed)
    print(report.summary())
    for failure in report.failures:
        print(f"  {failure}")
    return 0 if report.ok else 1


def _cmd_examples(_args: argparse.Namespace) -> int:
    from . import paper

    for ident in sorted(paper.EXAMPLES):
        example = paper.EXAMPLES[ident]
        print(f"{ident} (§{example.section}): {example.claim}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-datalog",
        description="Datalog program optimization (Sagiv, PODS 1987 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate and profile a program")
    p.add_argument("program")
    p.add_argument(
        "--json", action="store_true", help="emit the profile as machine-readable JSON"
    )
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser(
        "lint", help="static diagnostics: redundancy, stratification, tgd candidates"
    )
    p.add_argument("program")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--select",
        metavar="RULE_IDS",
        help="comma-separated lint rule ids to run (default: all)",
    )
    p.add_argument(
        "--ignore",
        metavar="RULE_IDS",
        help="comma-separated lint rule ids to skip",
    )
    p.add_argument(
        "--max-containment-checks",
        type=int,
        default=64,
        metavar="N",
        help="budget for the Fig. 1/2 uniform-containment tests (default 64)",
    )
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "info", "hint", "never"],
        default="warning",
        help="exit 1 when a finding at/above this severity exists (default warning)",
    )
    p.add_argument(
        "--export",
        action="append",
        metavar="PRED",
        help="declare an exported (output) predicate; enables the unused-idb rule",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="abstract-interpretation report: sorts, cardinality, recursion, "
        "binding, chase termination",
    )
    p.add_argument("program")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument(
        "--query",
        metavar="ATOM",
        help="query atom for binding/adornment analysis, e.g. 'T(\"a\", y)'",
    )
    p.add_argument(
        "--tgds",
        metavar="FILE",
        help="file of tgds (one per line) for the chase-termination domain; "
        "also enables the weakly-acyclic-certified / "
        "nonterminating-chase-risk findings (--select termination)",
    )
    p.add_argument(
        "--assume-edb",
        type=int,
        default=1000,
        metavar="N",
        help="assumed facts per EDB relation for cardinality (default 1000)",
    )
    p.add_argument(
        "--select",
        metavar="RULE_IDS",
        help="comma-separated analysis lint rule ids to run "
        "(default: the abstract-interpretation passes)",
    )
    p.add_argument(
        "--ignore",
        metavar="RULE_IDS",
        help="comma-separated lint rule ids to skip",
    )
    p.add_argument(
        "--max-containment-checks",
        type=int,
        default=64,
        metavar="N",
        help="budget for §VI dead-rule certification (default 64)",
    )
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "info", "hint", "never"],
        default="error",
        help="exit 1 when a finding at/above this severity exists (default error)",
    )
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "advise",
        help="whole-program specialization analysis: per query form, the "
        "recommended rewrite and engine with evidence (a plan certificate)",
    )
    p.add_argument("program")
    p.add_argument(
        "--query",
        action="append",
        metavar="FORM",
        help="query form to plan for: an atom ('Tc(\"a\", y)') or an "
        "adornment pattern ('Tc(bf)', predicate case-insensitive); "
        "repeatable (default: the all-bound and all-free forms of every "
        "IDB predicate)",
    )
    p.add_argument(
        "--assume-edb",
        type=int,
        default=1000,
        metavar="N",
        help="assumed facts per EDB relation for cost estimates (default 1000)",
    )
    p.add_argument(
        "--sips",
        choices=["left-to-right", "most-bound"],
        default="left-to-right",
        help="sideways-information-passing strategy for the closure "
        "(default left-to-right)",
    )
    p.add_argument(
        "--export",
        metavar="FILE",
        help="write the plan certificate JSON to FILE; reuse it with "
        "'query --certificate FILE' to skip re-analysis",
    )
    p.add_argument(
        "--adornment-budget",
        type=int,
        default=64,
        metavar="N",
        help="closure size above which adornment-space-explosion warns "
        "(default 64)",
    )
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--fail-on",
        choices=["error", "warning", "info", "hint", "never"],
        default="error",
        help="exit 1 when a finding at/above this severity exists (default error)",
    )
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser("eval", help="bottom-up evaluation")
    p.add_argument("program")
    p.add_argument("--edb", required=True, help="file of ground facts")
    p.add_argument(
        "--engine", choices=list(engine_names("fixpoint")), default="seminaive"
    )
    p.add_argument("--stats", action="store_true", help="print join-work statistics")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the result (database, stats, status, and on PARTIAL "
        "the degradation report) as machine-readable JSON",
    )
    _add_governor_flags(p)
    _add_checkpoint_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "resume",
        help="continue an interrupted eval from its durable checkpoint "
        "(falls back to the previous generation if the latest is corrupt)",
    )
    p.add_argument(
        "checkpoint", help="checkpoint file written by eval --checkpoint"
    )
    p.add_argument(
        "--program",
        metavar="FILE",
        help="verify the checkpoint against this program's fingerprint "
        "before resuming (a mismatch aborts instead of computing the "
        "wrong model)",
    )
    p.add_argument(
        "--no-checkpoint",
        action="store_true",
        help="do not keep checkpointing the resumed run",
    )
    p.add_argument(
        "--checkpoint-every",
        type=_positive_int,
        default=None,
        metavar="N",
        help="checkpoint cadence for the resumed run "
        "(default: the cadence stored in the checkpoint)",
    )
    p.add_argument("--stats", action="store_true", help="print join-work statistics")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the result (database, stats, status, degradation) as JSON",
    )
    _add_governor_flags(p)
    p.set_defaults(func=_cmd_resume)

    p = sub.add_parser("minimize", help="minimize under uniform equivalence (Fig. 2)")
    p.add_argument("program")
    _add_governor_flags(p, with_on_limit=False)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("optimize", help="minimize + equivalence-based optimization")
    p.add_argument("program")
    p.add_argument(
        "--uniform-only", action="store_true", help="skip the Section X/XI layer"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the full report (removals, certificates, budget "
        "exhaustion) as machine-readable JSON",
    )
    _add_governor_flags(p, with_on_limit=False)
    _add_chase_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("contains", help="test uniform containment both ways")
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--verbose", action="store_true", help="print the full freezing-test transcripts")
    p.set_defaults(func=_cmd_contains)

    p = sub.add_parser("preserves", help="test non-recursive tgd preservation (Fig. 3)")
    p.add_argument("program")
    p.add_argument("--tgds", required=True, help="file of tgds, one per line")
    p.add_argument("--verbose", action="store_true", help="print per-combination transcripts")
    _add_chase_flags(p)
    p.set_defaults(func=_cmd_preserves)

    p = sub.add_parser(
        "prove", help="prove P2 ⊑ P1 and P1 ≡ P2 under tgd constraints (Section X)"
    )
    p.add_argument("p1")
    p.add_argument("p2")
    p.add_argument("--tgds", required=True, help="file of tgds, one per line")
    p.add_argument("--verbose", action="store_true", help="print the full three-condition transcript")
    _add_chase_flags(p)
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("query", help="answer a query goal-directed")
    p.add_argument("program")
    p.add_argument("query", help="query atom, e.g. 'G(0, x)'")
    p.add_argument("--edb", required=True, help="file of ground facts")
    p.add_argument(
        "--method",
        choices=list(engine_names("query")),
        default=None,
        help="query-evaluation strategy (default magic sets, or the "
        "certificate's recommendation under --certificate)",
    )
    p.add_argument(
        "--certificate",
        metavar="FILE",
        help="plan certificate from 'advise --export'; preloads the "
        "adornment closure and planner hints and runs the recommended "
        "plan, skipping query-time analysis",
    )
    p.add_argument(
        "--engine",
        choices=["naive", "seminaive"],
        default="seminaive",
        help="bottom-up engine under magic/supplementary (ignored by topdown)",
    )
    p.add_argument("--stats", action="store_true", help="print join-work statistics")
    p.add_argument(
        "--json",
        action="store_true",
        help="emit the answers (plus stats, status, and on PARTIAL the "
        "degradation report) as machine-readable JSON",
    )
    _add_governor_flags(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("explain", help="show a proof tree for a derived fact")
    p.add_argument("program")
    p.add_argument("fact", help="ground atom to explain, e.g. 'G(1, 3)'")
    p.add_argument("--edb", required=True, help="file of ground facts")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser(
        "bounded", help="search for a non-recursive uniformly-equivalent program"
    )
    p.add_argument("program")
    p.add_argument("--max-depth", type=int, default=4, help="unrolling depth bound")
    p.set_defaults(func=_cmd_bounded)

    p = sub.add_parser(
        "profile", help="profile one evaluation: per-rule and per-span breakdown"
    )
    p.add_argument("program")
    p.add_argument("--edb", required=True, help="file of ground facts")
    from .obs.profiler import PROFILE_ENGINES

    p.add_argument(
        "--engine",
        choices=list(PROFILE_ENGINES),
        default="seminaive",
    )
    p.add_argument("--query", help="query atom (required for magic/supplementary/topdown)")
    p.add_argument("--json", action="store_true", help="emit the profile as JSON")
    p.add_argument(
        "--compare-minimized",
        action="store_true",
        help="also minimize (Fig. 2) and profile both, reporting the join-work saving",
    )
    p.add_argument(
        "--max-depth", type=int, default=2, help="span-tree depth in text output"
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser(
        "fuzz", help="differential-test the engines and optimizers on random inputs"
    )
    p.add_argument("--seeds", type=int, default=25)
    p.add_argument("--start-seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("examples", help="list the paper's worked examples")
    p.set_defaults(func=_cmd_examples)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (``| head``): close quietly.  Standard
        # output goes to devnull so the exit-time flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
