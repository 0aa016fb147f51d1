"""Tests for the specialization advisor, plan certificates, and ``advise``.

Covers the certificate schema (pinned to version 1), the advisor's
recommendations, the differential property that executing a recommended
plan matches the semi-naive reference (including under a tripping
governor and on a database read from a legacy columnar document), the certificate fast path
(``query --certificate`` skips analysis), and the two specialization
lint rules.
"""

from __future__ import annotations

import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, parse_program
from repro.analysis.lint import LintConfig, lint
from repro.analysis.specialize import (
    ADVISE_SCHEMA_VERSION,
    CertificateError,
    PlanCertificate,
    QueryFormError,
    advise_form,
    advise_program,
    apply_certificate,
    default_query_forms,
    execute_plan,
    load_certificate,
    parse_query_form,
    save_certificate,
    select_answers,
    validate_certificate_document,
)
from repro.analysis.specialize.rewrite import QueryForm
from repro.cli import main
from repro.engine.compile import clear_certificate_hints
from repro.engine.fixpoint import evaluate
from repro.engine.magic import Adornment, clear_closure_cache
from repro.lang.atoms import Atom
from repro.lang.terms import Constant, Variable
from repro.obs.metrics import metrics_registry
from repro.resilience.governor import EvaluationStatus, ResourceGovernor
from repro.testing import random_database, random_program

from .legacy import on_backend

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

TC = """
Tc(x, y) :- E(x, y).
Tc(x, z) :- E(x, y), Tc(y, z).
"""

#: Stratified as written, but the magic rewriting of ``H(b)`` creates a
#: negative cycle through the magic predicate of ``Q``.
MAGIC_BREAKS = """
H(x) :- P(x, y), Q(y).
P(x, y) :- E(x, y), not Q(x).
Q(x) :- F(x).
"""

EDB_CHAIN = "\n".join(f"E({i}, {i + 1})." for i in range(8))


@pytest.fixture(autouse=True)
def _fresh_state():
    """Certificate hints and the closure cache are process-global."""
    clear_closure_cache()
    clear_certificate_hints()
    metrics_registry().reset()
    yield
    clear_closure_cache()
    clear_certificate_hints()
    metrics_registry().reset()


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestQueryForms:
    def test_pattern_form_case_insensitive(self):
        program = parse_program(TC)
        form = parse_query_form("tc(bf)", program)
        assert form.predicate == "Tc"
        assert form.suffix == "bf"

    def test_atom_form(self):
        program = parse_program(TC)
        form = parse_query_form('Tc("a", y)', program)
        assert form.suffix == "bf"
        assert form.probe.args[0] == Constant("a")

    def test_unknown_predicate_rejected(self):
        program = parse_program(TC)
        with pytest.raises(QueryFormError):
            parse_query_form("Nope(bf)", program)

    def test_arity_mismatch_rejected(self):
        program = parse_program(TC)
        with pytest.raises(QueryFormError):
            parse_query_form("tc(bff)", program)

    def test_default_forms_cover_idb_bound_and_free(self):
        program = parse_program(TC)
        forms = {(f.predicate, f.suffix) for f in default_query_forms(program)}
        assert forms == {("Tc", "bb"), ("Tc", "ff")}


class TestCertificateSchema:
    def test_schema_version_pinned(self):
        # The certificate format is consumed by ``query --certificate``;
        # bumping the version is a contract change that needs migration
        # notes, not a silent edit.
        assert ADVISE_SCHEMA_VERSION == 1

    def certificate(self):
        return advise_program(parse_program(TC))

    def test_document_declares_schema(self):
        doc = self.certificate().to_dict()
        assert doc["schema"] == "repro.advise/1"
        assert validate_certificate_document(doc) == []

    def test_round_trip(self, tmp_path):
        certificate = self.certificate()
        path = tmp_path / "cert.json"
        save_certificate(certificate, str(path))
        loaded = load_certificate(str(path))
        assert loaded.to_dict() == certificate.to_dict()

    def test_wrong_version_rejected(self):
        doc = self.certificate().to_dict()
        doc["version"] = 2
        assert validate_certificate_document(doc)
        with pytest.raises(CertificateError):
            PlanCertificate.from_dict(doc)

    def test_bad_adornment_rejected(self):
        doc = self.certificate().to_dict()
        doc["plans"][0]["adornment"] = "bq"
        assert validate_certificate_document(doc)

    def test_duplicate_forms_rejected(self):
        doc = self.certificate().to_dict()
        doc["plans"].append(dict(doc["plans"][0]))
        assert validate_certificate_document(doc)

    def test_exported_file_is_schema_valid(self, files, tmp_path, capsys):
        cert_path = tmp_path / "cert.json"
        code = main(
            ["advise", files("tc.dl", TC), "--query", "tc(bf)",
             "--export", str(cert_path)]
        )
        assert code == 0
        doc = json.loads(cert_path.read_text(encoding="utf-8"))
        assert validate_certificate_document(doc) == []


class TestAdvisor:
    def test_bound_query_recommends_magic(self):
        program = parse_program(TC)
        plan = advise_form(program, parse_query_form("tc(bf)", program))
        assert plan.recommendation.rewrite == "magic"
        assert plan.recommendation.engine == "seminaive"
        assert ("Tc", "bf") in plan.closure
        assert plan.classification["stratifiable_after_magic"] is True
        assert plan.classification["linear"] is True

    def test_free_query_recommends_plain_evaluation(self):
        program = parse_program(TC)
        plan = advise_form(program, parse_query_form("tc(ff)", program))
        assert plan.recommendation.rewrite == "none"
        assert plan.recommendation.method == "evaluate"

    def test_edb_predicate_gets_trivial_plan(self):
        program = parse_program(TC)
        plan = advise_form(
            program, QueryForm("E", Adornment((True, False)), Atom("E", (Constant(0), Variable("y"))))
        )
        assert plan.recommendation.rewrite == "none"
        assert plan.closure == ()

    def test_negation_stays_on_stratified_engine(self):
        program = parse_program(MAGIC_BREAKS)
        plan = advise_form(program, parse_query_form("h(b)", program))
        assert plan.recommendation.rewrite == "none"
        assert plan.recommendation.engine == "stratified"
        assert plan.classification["stratifiable_after_magic"] is False
        assert plan.stratification["status"] == "unstratifiable"

    def test_advise_records_its_own_analysis_domain(self):
        advise_program(parse_program(TC))
        assert metrics_registry().counter("analysis.specialize.runs") == 1


class TestExecutePlanDifferential:
    """Advise-recommended execution equals the semi-naive reference."""

    def reference(self, program, db, query):
        return select_answers(evaluate(program, db, engine="seminaive").database, query)

    @given(seed=st.integers(min_value=0, max_value=400), bound=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_matches_reference_on_random_programs(self, seed, bound):
        clear_closure_cache()
        clear_certificate_hints()
        program = random_program(seed)
        db = random_database(seed)
        predicate = sorted(program.idb_predicates)[0]
        query = Atom(predicate, (Constant(bound), Variable("qy")))
        form = QueryForm(predicate, Adornment((True, False)), query)
        plan = advise_form(program, form)
        answers, _ = execute_plan(program, db, query, plan)
        assert answers == self.reference(program, db, query)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=10, deadline=None)
    def test_matches_reference_on_columnar_backend(self, seed):
        clear_closure_cache()
        clear_certificate_hints()
        program = random_program(seed)
        atoms = list(random_database(seed).atoms())
        predicate = sorted(program.idb_predicates)[0]
        query = Atom(predicate, (Constant(0), Variable("qy")))
        plan = advise_form(program, QueryForm(predicate, Adornment((True, False)), query))
        results = {}
        for backend in ("rows", "columnar"):
            db = on_backend(Database(atoms), backend)
            answers, _ = execute_plan(program, db, query, plan)
            assert answers == self.reference(program, db, query)
            results[backend] = {str(a) for a in answers.atoms()}
        assert results["rows"] == results["columnar"]

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=15, deadline=None)
    def test_partial_under_governor_is_sound_subset(self, seed):
        clear_closure_cache()
        clear_certificate_hints()
        program = random_program(seed)
        db = random_database(seed)
        predicate = sorted(program.idb_predicates)[0]
        query = Atom(predicate, (Constant(0), Variable("qy")))
        plan = advise_form(program, QueryForm(predicate, Adornment((True, False)), query))
        governor = ResourceGovernor(max_facts=2)
        answers, result = execute_plan(program, db, query, plan, governor=governor)
        reference = self.reference(program, db, query)
        if result.status is EvaluationStatus.PARTIAL:
            assert set(answers.atoms()) <= set(reference.atoms())
        else:
            assert answers == reference

    def test_negation_plan_executes_stratified(self):
        program = parse_program(MAGIC_BREAKS)
        db = Database.from_facts({"E": [(1, 2), (2, 3)], "F": [(2,)]})
        query = Atom("H", (Variable("x"),))
        plan = advise_form(program, QueryForm("H", Adornment((False,)), query))
        answers, _ = execute_plan(program, db, query, plan)
        reference = select_answers(
            evaluate(program, db, engine="stratified").database, query
        )
        assert answers == reference


class TestCertificateFastPath:
    """``query --certificate`` runs the plan without re-analysis."""

    def test_query_with_certificate_skips_analysis(self, files, tmp_path, capsys):
        program_path = files("tc.dl", TC)
        edb_path = files("edb.dl", EDB_CHAIN)
        cert_path = str(tmp_path / "cert.json")
        assert main(["advise", program_path, "--query", "tc(bf)",
                     "--export", cert_path]) == 0
        capsys.readouterr()

        clear_closure_cache()
        clear_certificate_hints()
        metrics_registry().reset()
        code = main(["query", program_path, "Tc(0, y)", "--edb", edb_path,
                     "--certificate", cert_path])
        assert code == 0
        certified_out = capsys.readouterr().out
        registry = metrics_registry()
        assert registry.counter("analysis.runs") == 0
        assert registry.counter("advise.certificate_loads") == 1
        assert registry.counter("magic.closure_cache_hits") >= 1

        # The plain path re-runs the binding analysis and must produce
        # the same answers.
        clear_closure_cache()
        clear_certificate_hints()
        metrics_registry().reset()
        assert main(["query", program_path, "Tc(0, y)", "--edb", edb_path]) == 0
        plain_out = capsys.readouterr().out
        assert certified_out == plain_out
        assert metrics_registry().counter("analysis.runs") >= 1

    def test_certificate_for_other_program_rejected(self, files, tmp_path, capsys):
        cert_path = str(tmp_path / "cert.json")
        assert main(["advise", files("tc.dl", TC), "--export", cert_path]) == 0
        other = files("other.dl", "P(x) :- E(x, y).")
        edb_path = files("edb.dl", "E(1, 2).")
        code = main(["query", other, "P(x)", "--edb", edb_path,
                     "--certificate", cert_path])
        assert code == 2

    def test_apply_certificate_returns_matching_plan(self):
        program = parse_program(TC)
        certificate = advise_program(
            program, [parse_query_form("tc(bf)", program)]
        )
        plan = apply_certificate(
            certificate, program, Atom("Tc", (Constant(0), Variable("y")))
        )
        assert plan is not None
        assert plan.predicate == "Tc"

    def test_apply_certificate_without_matching_form_is_none(self):
        program = parse_program(TC)
        certificate = advise_program(program)  # default forms: bb and ff
        plan = apply_certificate(
            certificate, program, Atom("Tc", (Constant(0), Variable("y")))
        )
        assert plan is None

    def test_apply_certificate_checks_program_key(self):
        certificate = advise_program(parse_program(TC))
        other = parse_program("P(x) :- E(x, y).")
        with pytest.raises(CertificateError):
            apply_certificate(
                certificate, other, Atom("P", (Variable("x"),))
            )


class TestAdviseCli:
    def test_text_report(self, files, capsys):
        assert main(["advise", files("tc.dl", TC)]) == 0
        out = capsys.readouterr().out
        assert "specialization advice" in out
        assert "recommend:" in out

    def test_json_report(self, files, capsys):
        assert main(["advise", files("tc.dl", TC), "--query", "tc(bf)", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == f"repro.advise/{ADVISE_SCHEMA_VERSION}"
        assert doc["plans"][0]["recommendation"]["rewrite"] == "magic"
        assert "diagnostics" in doc and "counts" in doc

    def test_bad_query_form_exits_2(self, files, capsys):
        assert main(["advise", files("tc.dl", TC), "--query", "zzz(bf)"]) == 2

    def test_shipped_examples_are_clean(self, capsys):
        for path in sorted(EXAMPLES_DIR.glob("*.dl")):
            assert main(["advise", str(path)]) == 0, path.name
            capsys.readouterr()


class TestSpecializationLints:
    def test_magic_unstratifiable_fires(self):
        diagnostics = lint(
            parse_program(MAGIC_BREAKS),
            LintConfig(select=frozenset({"magic-unstratifiable"})),
        )
        assert any(d.rule_id == "magic-unstratifiable" for d in diagnostics)
        assert all(str(d.severity).endswith("error")
                   for d in diagnostics if d.rule_id == "magic-unstratifiable")

    def test_magic_unstratifiable_silent_on_positive_programs(self):
        diagnostics = lint(
            parse_program(TC),
            LintConfig(select=frozenset({"magic-unstratifiable"})),
        )
        assert diagnostics == []

    def test_adornment_space_explosion_respects_budget(self):
        program = parse_program(TC)
        config = LintConfig(
            select=frozenset({"adornment-space-explosion"}), adornment_budget=0
        )
        diagnostics = lint(program, config)
        assert any(d.rule_id == "adornment-space-explosion" for d in diagnostics)
        relaxed = LintConfig(
            select=frozenset({"adornment-space-explosion"}), adornment_budget=64
        )
        assert lint(program, relaxed) == []
