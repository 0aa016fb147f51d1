"""Tests of the benchmark itself.  Run with ``python -m pytest bench -q``;
tier-1's ``testpaths`` stays ``tests``, so these never ride along there."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

CATALOG = run.load_catalog()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def smoke():
    """One ``--smoke`` run of every workload, end to end and traced."""
    return run.run_all(inputs.DEFAULT_SEED, 1.0, True, CATALOG)


def test_catalog_meets_the_contract():
    assert set(CATALOG) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in CATALOG["workloads"]] == list(inputs.WORKLOADS)
    names = [m["name"] for m in CATALOG["end_to_end"] + CATALOG["per_layer"]]
    names += [w["name"] for w in CATALOG["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in CATALOG["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in CATALOG["end_to_end"])
    setup = next(m for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CATALOG["end_to_end"])
    assert 1 <= CATALOG["run_seconds"] <= 60


def test_smoke_emits_every_metric_and_nothing_else(smoke):
    assert len(smoke["results"]) == 2 * len(inputs.WORKLOADS)
    for result in smoke["results"]:
        line = json.loads(run.contract_line(result, CATALOG))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        listed = CATALOG["per_layer" if result["trace"] else "end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in listed]
        for metric in listed:
            cell = line["metrics"][metric["name"]]
            assert cell["unit"] == metric["unit"]
            assert isinstance(cell["value"], (int, float)) and not isinstance(cell["value"], bool)
        if not result["trace"]:
            assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_every_layer_metric_is_measured_by_some_workload(smoke):
    measured = {
        name
        for result in smoke["results"] if result["trace"]
        for name, cell in result["cells"].items() if cell["value"] is not None
    }
    assert measured == {m["name"] for m in CATALOG["per_layer"]}
    assert all(result["skipped"] == [] for result in smoke["results"] if result["trace"])


def test_layers_account_for_the_traced_pass(smoke):
    # Smoke operations last well under a millisecond, so the harness's own
    # glue weighs more than at full size, where the band is 0.98-1.02.
    for result in smoke["results"]:
        if result["trace"]:
            assert 0.85 <= result["cells"]["bench.layer_sum_ratio"]["value"] <= 1.02, result["workload"]


def test_trace_file_is_trace_event_json_with_every_span_parented(smoke):
    for result in smoke["results"]:
        if not result["trace"]:
            continue
        with open(result["trace_file"]) as handle:
            events = [e for e in json.load(handle)["traceEvents"] if e["ph"] == "X"]
        assert events
        by_id = {e["args"]["id"]: e for e in events}
        for event in events:
            assert {"name", "cat", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["args"]["workload"] == result["workload"]
            assert event["cat"] == event["args"]["layer"] and event["cat"] in spans.LAYERS
            parent = event["args"]["parent"]
            if parent is None:
                assert event["name"].startswith("op.") or event["name"] == "setup"
                continue
            outer = by_id[parent]
            assert outer["ts"] <= event["ts"] + 1e-3
            assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3


def test_the_checker_checks(monkeypatch, capsys):
    """A wrong expected digest must fail operations and the exit code."""
    real = inputs.expected

    def corrupted(built):
        expected = real(built)
        expected["tc"]["digest"] = "0" * 64
        return expected

    monkeypatch.setattr(inputs, "expected", corrupted)
    result = run.run_end_to_end("join-dense", 7, 1.0, True, run.time.monotonic() + 60)
    assert result["failed"] > 0 and result["failed_ratio"] > 0
    assert json.loads(run.contract_line(result, CATALOG))["correct"] is False
    assert run.main(["--smoke", "--workload", "join-dense"]) == 1
    assert "FAILED: tc" in capsys.readouterr().out


def test_a_second_seed_verifies_on_other_inputs():
    for workload in inputs.WORKLOADS:
        first = inputs.build(workload, inputs.DEFAULT_SEED, smoke=True)
        again = inputs.build(workload, inputs.DEFAULT_SEED, smoke=True)
        other = inputs.build(workload, 2, smoke=True)
        assert first.sha256 == again.sha256 != other.sha256
        result = run.run_end_to_end(workload, 2, 1.0, True, run.time.monotonic() + 60)
        assert result["failed"] == 0 and result["inputs_sha256"] == other.sha256


def test_a_missing_entry_point_is_skipped_not_fatal():
    recorder = spans.Recorder("test")
    assert spans.resolve("repro.engine.compile:no_such_kernel") is None
    assert spans.resolve("repro.no_such_module:anything") is None
    assert recorder.patch("repro.engine.compile:no_such_kernel", "engine", "x") is False
    assert recorder.patch("repro.engine.compile:compile_kernel", "engine", "x") is True
    recorder.unpatch()
    assert recorder.skipped == ["repro.engine.compile:no_such_kernel"]
    result = {"trace": 1, "failed": 0, "attempted": 1,
              "cells": {"engine.workers2_speedup": {"value": None, "n": 0}}}
    line = json.loads(run.contract_line(result, CATALOG))
    assert line["metrics"]["engine.workers2_speedup"]["value"] == 0.0


def test_a_crashed_child_names_its_workload(monkeypatch):
    monkeypatch.setattr(run, "BENCH", BENCH / "nowhere")
    with pytest.raises(run.ChildFailed, match="workload edb-wide"):
        run.spawn({"workload": "edb-wide", "mode": "setup"}, 10)


def test_compare_verdicts():
    metric = {"name": "run_s", "better": "lower", "bound": 0.10}

    def cell(value, q3):
        return {"value": value, "median": (value + q3) / 2, "q3": q3}

    tight = cell(1.0, 1.02)
    assert run.verdict(metric, tight, cell(1.2, 1.22))[1] == "regressed"
    assert run.verdict(metric, tight, cell(0.8, 0.82))[1] == "improved"
    assert run.verdict(metric, tight, cell(1.05, 1.07))[1] == "unchanged"
    assert run.verdict(metric, cell(1.0, 1.25), cell(1.12, 1.4))[1] == "unresolved"
    higher = {"name": "units_per_s", "better": "higher", "bound": 0.10}
    assert run.verdict(higher, tight, cell(1.2, 1.18))[1] == "improved"
    assert run.verdict(metric, {"value": 50.0}, {"value": 60.0})[1] == "regressed"


def test_oracle_agrees_with_closed_forms():
    labels = [5, 3, 9, 1, 7]
    chain = {"A": {(labels[i], labels[i + 1]) for i in range(4)}}
    tc = oracle.evaluate(oracle.parse_program(inputs.TC_NONLINEAR), chain)["G"]
    assert tc == oracle.chain_closure(labels) == oracle.closure(chain["A"]) and len(tc) == 10
    planted = inputs.tc_with_redundant_atoms(3)
    assert oracle.redundant_atoms(planted) == 3 and oracle.is_minimal(oracle.parse_program(inputs.TC_NONLINEAR))
    assert oracle.redundant_rules(inputs.tc_with_redundant_rules(2)) == 2
    renamed = oracle.parse_program("G(a, b) :- G(c, b), G(a, c).\nG(p, q) :- A(p, q).\n")
    assert oracle.isomorphic(renamed, oracle.parse_program(inputs.TC_NONLINEAR))
    assert not oracle.isomorphic(renamed, oracle.parse_program(inputs.TC_LINEAR))
    db, nulls, _ = oracle.chase([], [oracle.parse_tgd("A(x, y) -> F(x, w) & F(w, y)")], chain)
    assert nulls == 4 and len(db["F"]) == 8
