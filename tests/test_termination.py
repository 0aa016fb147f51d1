"""Tests for the chase-termination certificate domain (fifth absint domain).

Covers the classification cascade (full-only ⊂ weakly acyclic ⊂ jointly
acyclic ⊂ sticky / weakly sticky ⊂ unknown), the evidence each class
carries, the certificate → chase-budget contract, and the CLI surface
(``analyze --tgds --select termination``).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import paper, parse_program, parse_tgd
from repro.analysis.absint.report import ANALYZE_SCHEMA_VERSION, analyze_program
from repro.analysis.absint.termination import (
    FULL_ONLY,
    JOINTLY_ACYCLIC,
    STICKY,
    UNKNOWN_CLASS,
    WEAKLY_ACYCLIC,
    WEAKLY_STICKY,
    classify_termination,
)
from repro.cli import main
from repro.core.chase import (
    ChaseBudget,
    Verdict,
    certified_budget,
    chase,
    check_model_containment,
    termination_certificate,
)
from repro.workloads.graphs import random_graph
from repro.workloads.suites import load


def _classify(*tgd_texts, program=None):
    return classify_termination(
        tuple(parse_tgd(t) for t in tgd_texts), program
    ).certificate


class TestClassification:
    def test_full_only(self):
        cert = _classify("A(x, y) -> B(x, y)", "A(x, y) & B(y, z) -> C(x, z)")
        assert cert.classification == FULL_ONLY
        assert cert.guarantees_termination
        assert cert.guarantees_decidability
        # No invented values: the bound is the input's value count.
        assert cert.value_bound(17) == 17

    def test_paper_example_11_is_weakly_acyclic(self):
        cert = classify_termination((paper.EX11_TGD,), paper.EX11_P1).certificate
        assert cert.classification == WEAKLY_ACYCLIC
        assert cert.guarantees_termination
        assert cert.special_cycle is None
        # The program's rules participate in the position graph.
        origins = {edge.origin for edge in cert.graph.edges}
        assert any(origin.startswith("rule[") for origin in origins)
        assert any(origin.startswith("tgd[") for origin in origins)

    def test_jointly_acyclic_but_not_weakly_acyclic(self):
        cert = _classify("P(x) -> E(x, y) & Q(y)", "E(x, y) & Q(x) -> P(x)")
        assert cert.classification == JOINTLY_ACYCLIC
        assert cert.guarantees_termination
        assert not cert.properties["weakly_acyclic"]
        assert cert.ja_cycle is None

    def test_joint_acyclicity_depth_is_the_longest_null_chain(self):
        """Each existential fed by another's null adds a level to the
        value bound; two independent cycles name the first one's variable."""
        base = ("P(x) -> E(x, y) & Q(y)", "E(x, y) & Q(x) -> P(x)")
        chain = ("Q(x) -> R(x, z)", "R(x, z) -> S(z, w)")
        for extra, depth, bound in ((0, 1, 20), (1, 2, 90), (2, 3, 640)):
            cert = _classify(*base, *chain[:extra])
            assert cert.classification == JOINTLY_ACYCLIC
            assert (cert.bound_depth, cert.value_bound(10)) == (depth, bound)
        cert = _classify(
            "A(x) -> B(x, y)", "B(x, y) -> A(y)", "C(x) -> D(x, u)", "D(x, u) -> C(u)"
        )
        assert cert.ja_cycle == ("tgd[0]:y",)

    def test_sticky_but_not_terminating(self):
        cert = _classify("B(x, y) -> B(y, w)")
        assert cert.classification == STICKY
        assert cert.guarantees_decidability
        assert not cert.guarantees_termination
        assert cert.value_bound(10) is None

    def test_weakly_sticky(self):
        cert = _classify("R(x, y) -> R(y, w)", "R(x, y) & S(y, y2) -> T(x)")
        assert cert.classification == WEAKLY_STICKY
        assert cert.guarantees_decidability
        assert not cert.guarantees_termination
        # The repeated marked variable has a finite-rank occurrence.
        assert all(v.finite_rank_occurrences for v in cert.sticky_violations)

    def test_unknown_with_both_evidence_kinds(self):
        cert = _classify("R(x, y) -> R(y, w)", "R(x, y) & R(y, z) -> T(x, z)")
        assert cert.classification == UNKNOWN_CLASS
        assert not cert.guarantees_termination
        assert not cert.guarantees_decidability
        # Evidence: the special-edge cycle and the infinite-rank join.
        assert cert.special_cycle is not None
        assert any(edge.special for edge in cert.special_cycle)
        assert any(
            not v.finite_rank_occurrences for v in cert.sticky_violations
        )
        assert "special-edge cycle" in cert.describe()

    def test_hierarchy_flags_are_monotone(self):
        # A weakly acyclic set is also jointly acyclic (WA ⊂ JA).
        cert = _classify("A(x, y) -> F(x, w) & F(w, y)", "F(x, y) -> H(x, v)")
        assert cert.classification == WEAKLY_ACYCLIC
        assert cert.properties["jointly_acyclic"]

    def test_empty_tgd_set_with_program_is_full_only(self):
        cert = classify_termination((), paper.TC_NONLINEAR).certificate
        assert cert.classification == FULL_ONLY


#: A pool of tgds whose every subset is weakly acyclic (the position
#: graph flows strictly forward: A -> F/T -> H -> K).
WA_POOL = (
    "A(x, y) -> T(x, y)",
    "A(x, y) -> F(x, w) & F(w, y)",
    "F(x, y) -> H(x, v)",
    "H(x, y) -> K(y, v)",
    "A(x, y) & A(y, z) -> H(x, z)",
)


class TestCertifiedBudget:
    @given(
        picks=st.sets(
            st.integers(min_value=0, max_value=len(WA_POOL) - 1), min_size=1
        ),
        edges=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_wa_sets_saturate_within_certified_budget(self, picks, edges, seed):
        """The property behind the UNKNOWN -> DISPROVED upgrade: for any
        weakly acyclic subset and any EDB, the chase saturates inside
        the budget the certificate computes from the EDB's values."""
        tgds = [parse_tgd(WA_POOL[i]) for i in sorted(picks)]
        cert = classify_termination(tuple(tgds)).certificate
        assert cert.guarantees_termination
        db = random_graph(8, edges, seed=seed)
        tiny = ChaseBudget(max_rounds=1, max_nulls=0, max_atoms=1)
        widened = certified_budget(tiny, cert, db, None, tgds)
        outcome = chase(db, None, tgds, budget=widened)
        assert outcome.saturated
        assert outcome.exhausted is None

    def test_budget_never_shrinks_below_base(self):
        cert = _classify("A(x, y) -> T(x, y)")
        base = ChaseBudget(max_rounds=10**6, max_nulls=10**6, max_atoms=10**7)
        widened = certified_budget(base, cert, random_graph(4, 3, seed=1), None, [])
        assert widened.max_rounds >= base.max_rounds
        assert widened.max_nulls >= base.max_nulls
        assert widened.max_atoms >= base.max_atoms

    def test_sticky_certificate_leaves_budget_unchanged(self):
        cert = _classify("B(x, y) -> B(y, w)")
        base = ChaseBudget(max_rounds=7, max_nulls=9, max_atoms=11)
        assert certified_budget(base, cert) is base


class TestDifferential:
    def test_certificate_upgrades_unknown_to_disproved(self):
        """The acceptance scenario: the seed's budget-bound UNKNOWN
        becomes DISPROVED once the weak-acyclicity certificate lets the
        chase run to genuine saturation."""
        p1 = parse_program("G(x, y) :- B(x, y).")
        p2 = parse_program("G(x, y) :- A(x, y).")
        levels = ["A", "H", "K", "L", "M", "N", "O"]
        tgds = [
            parse_tgd(f"{src}(x, y) -> {dst}(x, v) & {dst}(v, y)")
            for src, dst in zip(levels, levels[1:])
        ]
        budget = ChaseBudget(max_rounds=5, max_nulls=20)
        blind = check_model_containment(
            p1, tgds, p2, budget=budget, use_certificate=False
        )
        assert blind.verdict is Verdict.UNKNOWN
        assert blind.exhausted == "nulls"
        certified = check_model_containment(p1, tgds, p2, budget=budget)
        assert certified.verdict is Verdict.DISPROVED
        assert certified.certificate.classification == WEAKLY_ACYCLIC
        assert certified.exhausted is None

    def test_sticky_set_stays_unknown(self):
        """Sticky certifies decidable answering, not chase termination,
        so the seed behaviour (budget-bound UNKNOWN) is preserved."""
        p1 = parse_program("G(x, z) :- A(x, z).")
        p2 = parse_program("G(x, z) :- B(x, z).")
        tgd = parse_tgd("B(x, y) -> B(y, w)")
        budget = ChaseBudget(max_rounds=10, max_nulls=50)
        report = check_model_containment(p1, [tgd], p2, budget=budget)
        assert report.verdict is Verdict.UNKNOWN
        assert report.certificate.classification == STICKY
        assert report.exhausted is not None

    def test_chase_outcome_names_exhausted_limit(self):
        from repro import Database

        tgd = parse_tgd("G(x, y) -> G(y, w)")
        db = Database.from_facts({"G": [(0, 1)]})
        outcome = chase(db, None, [tgd], budget=ChaseBudget(max_rounds=3, max_nulls=1000))
        assert not outcome.saturated
        assert outcome.exhausted == "rounds"
        outcome = chase(db, None, [tgd], budget=ChaseBudget(max_rounds=1000, max_nulls=5))
        assert not outcome.saturated
        assert outcome.exhausted == "nulls"

    def test_data_exchange_suites_are_certified(self):
        for name, expected in (
            ("de-copy", FULL_ONLY),
            ("de-fusion", WEAKLY_ACYCLIC),
            ("de-chain", WEAKLY_ACYCLIC),
        ):
            workload = load(name)
            cert = termination_certificate(list(workload.tgds), workload.program)
            assert cert.classification == expected, name
            outcome = chase(
                workload.edb(8),
                workload.program,
                list(workload.tgds),
                certificate=cert,
            )
            assert outcome.saturated, name


#: Every key of the analyze document's ``termination`` block, sorted.
#: Extending the block requires an ANALYZE_SCHEMA_VERSION bump and an
#: update here -- this is the stability contract for consumers.
TERMINATION_BLOCK_KEYS = (
    "classification",
    "decidable",
    "ja_cycle",
    "marking_trace",
    "position_graph",
    "properties",
    "special_cycle",
    "sticky_violations",
    "terminating",
    "tgds",
)


class TestSchema:
    def test_schema_version_is_two(self):
        assert ANALYZE_SCHEMA_VERSION == 2

    def test_termination_block_keys_stable(self):
        report = analyze_program(
            parse_program("G(x, y) :- A(x, y)."),
            tgds=(parse_tgd("A(x, y) -> F(x, w) & F(w, y)"),),
        )
        block = report.to_dict()["termination"]
        assert tuple(sorted(block)) == TERMINATION_BLOCK_KEYS
        # The whole block must be JSON-serializable as-is.
        round_tripped = json.loads(json.dumps(block))
        assert round_tripped["classification"] == "weakly-acyclic"
        assert round_tripped["terminating"] is True

    def test_block_carries_evidence_for_unknown(self):
        report = analyze_program(
            parse_program("G(x, y) :- A(x, y)."),
            tgds=(
                parse_tgd("R(x, y) -> R(y, w)"),
                parse_tgd("R(x, y) & R(y, z) -> T(x, z)"),
            ),
        )
        block = report.to_dict()["termination"]
        assert block["classification"] == "unknown"
        assert block["special_cycle"]
        assert block["marking_trace"]


TC = "G(x, y) :- A(x, y).\nG(x, z) :- A(x, y), G(y, z).\n"


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCli:
    def test_select_termination_alias(self, files, capsys):
        code = main(
            [
                "analyze",
                files("tc.dl", TC),
                "--tgds",
                files("wa.tgds", "A(x, y) -> F(x, w) & F(w, y)\n"),
                "--select",
                "termination",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "weakly-acyclic" in out
        assert "weakly-acyclic-certified" in out

    def test_nonterminating_risk_fails_on_warning(self, files, capsys):
        code = main(
            [
                "analyze",
                files("tc.dl", TC),
                "--tgds",
                files(
                    "bad.tgds",
                    "R(x, y) -> R(y, w)\nR(x, y) & R(y, z) -> T(x, z)\n",
                ),
                "--select",
                "termination",
                "--fail-on",
                "warning",
            ]
        )
        assert code != 0
        assert "nonterminating-chase-risk" in capsys.readouterr().out

    def test_json_document_includes_tgds(self, files, capsys):
        code = main(
            [
                "analyze",
                files("tc.dl", TC),
                "--tgds",
                files("wa.tgds", "A(x, y) -> T(x, y)\n"),
                "--format",
                "json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["termination"]["classification"] == "full-only"
        assert data["termination"]["tgds"] == ["A(x, y) -> T(x, y)"]
