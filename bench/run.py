#!/usr/bin/env python3
"""The repository's benchmark: four verified workloads, one command.

    python3 bench/run.py                      every workload, end to end then traced
    python3 bench/run.py --smoke              the same at tiny sizes (seconds)
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1
                                              one run, as the driver makes it
    python3 bench/run.py --compare A.json B.json
    python3 bench/run.py --repeat-check       two sets of runs must agree

This process never imports the program under test.  It builds the
inputs, computes what the outputs must be (``inputs.expected``), and
runs each workload in fresh child processes (``child.py``) that receive
the expected digests and report times and failures.  The last line of
standard output of a one-workload run is the result object of the
benchmark contract; metric names, units and bounds are read from
``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

#: Set-up is sampled in this many fresh processes per run; the median is
#: reported, so the one that compiles bytecode in a new checkout is dropped.
SETUP_SAMPLES = 5
#: A run must end inside the contract's 180 s whatever a child does.
RUN_CAP_S = 170.0
MIN_PASSES = 21
#: End-to-end runs per workload in each set of --repeat-check.
REPEAT_RUNS = 3


class ChildFailed(Exception):
    """A child crashed, timed out or printed no result."""


def load_catalog() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def spawn(spec: dict, timeout: float) -> dict:
    """Run one child to completion; fail loudly, naming the workload."""
    label = f"workload {spec['workload']} ({spec['mode']})"
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(BENCH / "child.py")],
            input=json.dumps(spec), capture_output=True, text=True,
            timeout=max(timeout, 1.0), env=env, cwd=str(ROOT),
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{label}: no result within its {timeout:.0f} s cap") from None
    if done.returncode != 0:
        raise ChildFailed(f"{label}: exit code {done.returncode}\n{done.stderr[-2000:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise ChildFailed(f"{label}: printed no result\n{done.stderr[-2000:]}") from None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def steady(values: list[float]) -> dict:
    """A time sampled once per pass, reported as its first quartile.

    On this host a busy neighbour only ever adds time, in spells of
    several passes (README.md, "Method"), so the lower quartile repeats
    between runs about twice as closely as the median does; the median
    and the upper quartile are kept beside it.
    """
    q1, q2, q3 = quartiles(values)
    return {"value": q1, "median": q2, "q3": q3, "n": len(values)}


def summary(values: list[float]) -> dict:
    q1, q2, q3 = quartiles(values)
    return {"value": q2, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], p: float) -> float:
    if len(values) < 2:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[min(98, max(0, round(p) - 1))]


def tail_percentile(n: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    return max(50, int(100.0 * (1.0 - 10.0 / n))) if n else 50


def outcome(built: inputs.Inputs, smoke: bool, trace: int, child: dict) -> dict:
    """What every result carries: which run it was and what failed."""
    return {
        "workload": built.workload, "seed": built.seed, "smoke": smoke, "trace": trace,
        "inputs_sha256": built.sha256,
        "attempted": child["attempted"], "failed": child["failed"],
        "failures": child["failures"],
        "failed_ratio": child["failed"] / child["attempted"],
    }


def run_end_to_end(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    """One end-to-end run: all tracing off, outputs verified."""
    built = inputs.build(workload, seed, smoke)
    expected = inputs.expected(built)
    units = expected["units"]
    spec = {
        "workload": workload, "seed": seed, "smoke": smoke, "mode": "measure",
        "seconds": seconds, "min_passes": 2 if smoke else MIN_PASSES, "expected": expected,
    }
    if smoke:
        spec["max_passes"] = 2
    measured = spawn(spec, min(1.5 * seconds + 60.0, deadline - time.monotonic()))
    if measured["inputs_sha256"] != built.sha256:
        raise ChildFailed(f"workload {workload}: the child built other inputs than the parent")
    setups = [measured["setup_s"]]
    for _ in range(1 if smoke else SETUP_SAMPLES - 1):
        sample = spawn({**spec, "mode": "setup", "expected": None},
                       min(60.0, deadline - time.monotonic()))
        setups.append(sample["setup_s"])

    passes = measured["passes"]
    wall_ms = [[wall * 1e3 for _, wall, _ in ops] for ops in passes]
    run = steady([sum(wall for kind, wall, _ in ops if kind != "load") for ops in passes])
    cells = {
        "setup_s": summary(setups),
        "load_s": steady([sum(wall for kind, wall, _ in ops if kind == "load") for ops in passes]),
        "run_s": run,
        "units_per_s": {"value": units / run["value"], "median": units / run["median"],
                        "q3": units / run["q3"], "n": run["n"]},
        "op_p50_ms": steady([percentile(ms, 50) for ms in wall_ms]),
        "op_p95_ms": steady([percentile(ms, 95) for ms in wall_ms]),
        "peak_rss_mb": {"value": measured["peak_rss_mb"], "n": 1},
    }
    pool = [ms for one in wall_ms for ms in one]
    tail = tail_percentile(len(pool))
    return {
        **outcome(built, smoke, 0, measured),
        "units": units,
        "cells": cells,
        "extra": {
            "passes": len(passes),
            "operations": len(pool),
            "pooled_op_p50_ms": percentile(pool, 50),
            f"pooled_op_p{tail}_ms": percentile(pool, tail),
            "cpu_over_wall": sum(cpu for ops in passes for _, _, cpu in ops)
            / sum(wall for ops in passes for _, wall, _ in ops),
            "op_kinds": sorted({kind for ops in passes for kind, _, _ in ops}),
        },
    }


def run_traced(workload: str, seed: int, seconds: float, smoke: bool, deadline: float) -> dict:
    """One traced run: per-layer numbers from spans around the program."""
    built = inputs.build(workload, seed, smoke)
    spec = {
        "workload": workload, "seed": seed, "smoke": smoke, "mode": "trace",
        "seconds": seconds / 2, "min_passes": 3, "expected": inputs.expected(built),
        "out_dir": str(OUT),
    }
    if smoke:
        spec.update(max_passes=3, plain_passes=2)
    traced = spawn(spec, min(1.5 * seconds + 60.0, deadline - time.monotonic()))
    return {
        **outcome(built, smoke, 1, traced),
        "cells": {name: {"value": value, "n": traced["traced_passes"]}
                  for name, value in traced["layer"].items()},
        "skipped": traced["skipped"], "exact": traced["exact"],
        "trace_file": str(OUT / f"trace-{workload}.json"),
    }


def contract_line(result: dict, catalog: dict) -> str:
    """The benchmark contract's result object for one run.

    Every metric of the run's kind is present and numeric; a per-layer
    metric the workload does not exercise, or whose entry point is gone,
    reads 0 here and ``null`` (with ``skipped``) in ``out/``.
    """
    listed = catalog["per_layer" if result["trace"] else "end_to_end"]
    unknown = set(result["cells"]) - {m["name"] for m in listed}
    if unknown:
        raise ChildFailed(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    metrics = {}
    for metric in listed:
        cell = result["cells"].get(metric["name"])
        value = cell["value"] if cell is not None else None
        if value is None and not result["trace"]:
            raise ChildFailed(f"end-to-end metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value if value is not None else 0.0, "unit": metric["unit"]}
    return json.dumps(
        {"correct": result["failed"] == 0, "attempted": result["attempted"],
         "failed": result["failed"], "metrics": metrics}
    )


def show(result: dict, catalog: dict) -> None:
    kind = "traced" if result["trace"] else "end-to-end"
    print(f"== {result['workload']}  seed {result['seed']}  {kind}  "
          f"inputs {result['inputs_sha256'][:12]}")
    for metric in catalog["per_layer" if result["trace"] else "end_to_end"]:
        cell = result["cells"].get(metric["name"])
        if cell is None or cell["value"] is None:
            continue
        spread = "".join(f"  {k} {cell[k]:.6g}" for k in ("q1", "median", "q3") if k in cell)
        print(f"  {metric['name']:36s} {cell['value']:>14.6g} {metric['unit']:6s} n={cell['n']}{spread}")
    print(f"  {'failed_ratio':36s} {result['failed_ratio']:>14.6g} {'ratio':6s} "
          f"n={result['attempted']}  ({result['failed']} of {result['attempted']} operations)")
    for name, value in result.get("extra", {}).items():
        print(f"  ({name}: {value if not isinstance(value, float) else round(value, 6)})")
    if result.get("skipped"):
        print(f"  skipped (entry point gone): {', '.join(result['skipped'])}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")


def host() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": model or platform.processor(),
            "python": platform.python_version(), "platform": platform.platform(),
            "governor_caps": "none"}


def document(seed: int, seconds: float, smoke: bool) -> dict:
    """An empty result file: the settings, the host, the sizes."""
    return {"seed": seed, "smoke": smoke, "seconds": seconds, "host": host(),
            "sizes": inputs.SIZES["smoke" if smoke else "full"], "results": []}


def run_all(seed: int, seconds: float, smoke: bool, catalog: dict, only=None) -> dict:
    out = document(seed, seconds, smoke)
    for workload in only or inputs.WORKLOADS:
        for runner in (run_end_to_end, run_traced):
            result = runner(workload, seed, seconds, smoke, time.monotonic() + RUN_CAP_S)
            show(result, catalog)
            out["results"].append(result)
    return out


def write_results(results: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(results, handle, indent=1)


# -- comparing two result documents -------------------------------------------

def _cells(results: dict, trace: int) -> dict:
    """``(workload, metric) -> cell``; where the file holds several runs
    of a workload, the median of each field over those runs."""
    grouped: dict = {}
    for result in results["results"]:
        if result["trace"] == trace:
            for name, cell in result["cells"].items():
                grouped.setdefault((result["workload"], name), []).append(cell)
    return {
        key: {
            field: statistics.median(c[field] for c in cells)
            for field in cells[0]
            if all(c.get(field) is not None for c in cells)
        }
        for key, cells in grouped.items()
    }


def band(cell: dict):
    """The quartile band a cell was reported with, if any."""
    if "q1" in cell:
        return cell["q1"], cell["q3"]
    if "q3" in cell:
        return min(cell["value"], cell["q3"]), max(cell["value"], cell["q3"])
    return None


def verdict(metric: dict, a: dict, b: dict) -> tuple[float, str]:
    """B against A under the metric's own bound; the ratio's base is A."""
    bound = metric["bound"]
    worse = (b["value"] - a["value"]) / a["value"]
    if metric["better"] == "higher":
        worse = -worse
    band_a, band_b = band(a), band(b)
    if band_a and band_b:
        spread = max((hi - lo) / c["value"] for (lo, hi), c in ((band_a, a), (band_b, b)))
        overlap = band_a[0] <= band_b[1] and band_b[0] <= band_a[1]
        if spread > bound and overlap:
            return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def compare(path_a: str, path_b: str, catalog: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    cells_a, cells_b = _cells(doc_a, 0), _cells(doc_b, 0)
    print(f"{'workload':16s} {'metric':12s} {'A':>11s} {'A q1..q3':>22s} {'B':>11s} "
          f"{'B q1..q3':>22s} {'B/A':>7s}  verdict (bound)")
    regressed = 0
    for metric in catalog["end_to_end"]:
        for workload in inputs.WORKLOADS:
            a, b = cells_a.get((workload, metric["name"])), cells_b.get((workload, metric["name"]))
            if a is None or b is None:
                continue
            _, word = verdict(metric, a, b)
            regressed += word == "regressed"

            def quartile_band(cell):
                return "{:.5g}..{:.5g}".format(*band(cell)) if band(cell) else "-"

            print(f"{workload:16s} {metric['name']:12s} {a['value']:>11.5g} {quartile_band(a):>22s} "
                  f"{b['value']:>11.5g} {quartile_band(b):>22s} {b['value'] / a['value']:>7.3f}  "
                  f"{word} ({metric['bound']:.0%} of A, {metric['better']} is better)")
    return 1 if regressed else 0


def repeat_check(seed: int, seconds: float, smoke: bool, catalog: dict) -> int:
    """Two full sets of the same code: every end-to-end cell within its
    bound, every exact count and input digest identical.

    A neighbour's slow spell can cover a whole 20 s run, so a set is
    REPEAT_RUNS end-to-end runs per workload, the two sets' runs taken in
    turn, and a cell is the median over its set's runs.
    """
    sets = [document(seed, seconds, smoke) for _ in range(2)]
    for workload in inputs.WORKLOADS:
        for runner, repeats in ((run_end_to_end, REPEAT_RUNS), (run_traced, 1)):
            for _ in range(repeats):
                for one in sets:
                    result = runner(workload, seed, seconds, smoke, time.monotonic() + RUN_CAP_S)
                    show(result, catalog)
                    one["results"].append(result)
    for number, one in enumerate(sets, 1):
        write_results(one, OUT / f"repeat-{number}.json")
    bad = 0
    cells_a, cells_b = _cells(sets[0], 0), _cells(sets[1], 0)
    for metric in catalog["end_to_end"]:
        for workload in inputs.WORKLOADS:
            a, b = cells_a[(workload, metric["name"])], cells_b[(workload, metric["name"])]
            gap = abs(b["value"] - a["value"]) / a["value"]
            ok = gap <= metric["bound"]
            bad += not ok
            print(f"{workload:16s} {metric['name']:12s} {a['value']:>12.6g} {b['value']:>12.6g} "
                  f"gap {gap:6.2%} of the first (bound {metric['bound']:.0%})  {'ok' if ok else 'DISAGREE'}")
    for ra, rb in zip(sets[0]["results"], sets[1]["results"]):
        same = ra["inputs_sha256"] == rb["inputs_sha256"] and ra.get("exact") == rb.get("exact")
        bad += not same
        if ra["trace"]:
            print(f"{ra['workload']:16s} exact counts and inputs_sha256 "
                  f"{'identical' if same else 'DIFFER'}: {ra['exact']}")
        bad += ra["failed"] + rb["failed"]
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, two passes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat-check", action="store_true")
    parser.add_argument("--out", type=Path, default=OUT / "results.json")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing: nothing to measure", file=sys.stderr)
        return 2
    catalog = load_catalog()
    seconds = args.seconds if args.seconds is not None else float(catalog["run_seconds"])
    try:
        if args.compare:
            return compare(*args.compare, catalog)
        if args.repeat_check:
            return repeat_check(args.seed, seconds, args.smoke, catalog)
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            runner = run_traced if args.trace else run_end_to_end
            result = runner(args.workload, args.seed, seconds, args.smoke,
                            time.monotonic() + RUN_CAP_S)
            show(result, catalog)
            write_results(result, OUT / f"run-{args.workload}-trace{args.trace}.json")
            print(contract_line(result, catalog))
            return 0 if result["failed"] == 0 else 1
        results = run_all(args.seed, seconds, args.smoke, catalog,
                          only=[args.workload] if args.workload else None)
        write_results(results, args.out)
        failed = sum(r["failed"] for r in results["results"])
        print(f"wrote {args.out}; {failed} failed operations")
        return 1 if failed else 0
    except ChildFailed as error:
        print(f"bench: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
