"""Experiment Q1: minimization cost scales with *program* size, not EDB size.

Paper, Section I: "The algorithm has an exponential running time in the
worst case, but the time is exponential only in the size of the
program, which is typically much smaller than the size of the database.
Therefore, minimizing a program is expected to reduce the total time
spent on optimization and evaluation."

Two series substantiate this:

* minimization time as the rule body grows (the only driver);
* minimization time is *constant* in the EDB (it never reads the EDB),
  while evaluation time grows -- so the optimize-then-evaluate total is
  dominated by evaluation, exactly the paper's argument.
"""

from __future__ import annotations

import pytest

from repro import evaluate, minimize_program
from repro.core.minimize import minimize_rule
from repro.lang import Program
from repro.workloads import chain, tc_with_redundant_atoms, wide_rule


@pytest.mark.parametrize("redundant", [1, 2, 4, 6, 8])
def test_q1_rule_minimization_vs_body_size(benchmark, redundant):
    """Fig. 1 cost as the body grows (core fixed at 3 atoms)."""
    rule = wide_rule(core_atoms=3, redundant_atoms=redundant, seed=7)
    minimized = benchmark(lambda: minimize_rule(rule))
    assert len(minimized.body) == len(rule.body) - redundant
    benchmark.extra_info["body_atoms"] = len(rule.body)
    benchmark.extra_info["atoms_removed"] = redundant


@pytest.mark.parametrize("planted", [1, 3, 5])
def test_q1_program_minimization_vs_planted_atoms(benchmark, planted):
    """Fig. 2 cost over the TC family with planted redundant atoms."""
    program = tc_with_redundant_atoms(planted)
    result = benchmark(lambda: minimize_program(program))
    assert len(result.atom_removals) == planted
    benchmark.extra_info["containment_tests"] = result.containment_tests


def test_q1_minimization_independent_of_edb(benchmark):
    """Minimization reads only the program; its cost must not change as
    the (conceptual) database grows, while evaluation cost does."""
    program = tc_with_redundant_atoms(2)
    evaluation_times = {}
    firings = {}
    for n in (20, 45):
        result = evaluate(program, chain(n))
        evaluation_times[n] = result.stats.elapsed
        firings[n] = result.stats.rule_firings
    # Evaluation grows with the EDB (counted in firings: inside the full
    # suite one collector pause outweighs a 20-edge run's wall time)...
    assert firings[45] > firings[20]
    # ...minimization does not involve the EDB at all (benchmarked once,
    # identical regardless of any database in scope).
    result = benchmark(lambda: minimize_program(program))
    assert result.program is not None
    benchmark.extra_info["evaluation_elapsed_by_edb"] = {
        str(k): v for k, v in evaluation_times.items()
    }


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_q1_recursion_elimination_search(benchmark, depth):
    """Cost of the unroll-and-test boundedness search (extension), one
    depth at a time -- the same §VI test drives it, so the curve mirrors
    the containment benchmarks."""
    from repro.core.boundedness import unroll
    from repro.core.containment import uniformly_contains
    from repro.workloads import tc_linear

    program = tc_linear()

    def run():
        candidate = unroll(program, depth)
        return uniformly_contains(container=candidate, contained=program)

    bounded = benchmark(run)
    assert not bounded  # TC is unbounded at every depth
    benchmark.extra_info["depth"] = depth


def test_q1_worst_case_exponential_shape():
    """The containment-test count grows with body size -- record the
    curve (a shape claim, not a wall-clock claim)."""
    tests_by_size = {}
    for redundant in (1, 3, 5, 7):
        rule = wide_rule(core_atoms=3, redundant_atoms=redundant, seed=7)
        result = minimize_program(Program.of(rule))
        tests_by_size[len(rule.body)] = result.containment_tests
    sizes = sorted(tests_by_size)
    counts = [tests_by_size[s] for s in sizes]
    assert counts == sorted(counts), "more atoms must mean more tests"
