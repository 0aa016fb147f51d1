"""One workload in one fresh process (started by run.py, never by hand).

Reads a JSON spec on standard input, prints one JSON document as the
last line of standard output.  A fresh process per workload keeps the
process-wide SymbolTable, metrics registry and kernel caches of one
workload out of the next, and makes ``ru_maxrss`` the workload's own.

Modes: ``setup`` (set up, then exit: one ``setup_s`` sample),
``measure`` (set up, timed passes with all tracing off, verification),
``trace`` (per-layer numbers from spans recorded around the program).
"""

from time import perf_counter

_STARTED = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Api, Direct, Pass, Traced  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

#: Calls the program makes across a layer boundary, timed in the traced
#: run by swapping the module attribute the caller looks up.
PATCHES = (
    ("repro.core.containment:evaluate", "engine", "engine.evaluate"),
    ("repro.core.chase:evaluate", "engine", "engine.evaluate"),
    ("repro.core.minimize:rule_uniformly_contained_in", "core", "core.containment_test"),
    ("repro.engine.compile:compile_kernel", "engine", "engine.compile_kernel"),
    ("repro.engine.magic:magic_transform", "engine", "engine.magic_transform"),
    ("repro.analysis.absint.cardinality:cardinality_hints", "analysis", "analysis.cardinality_hints"),
)

#: Registry counters read as deltas around each traced pass.
REGISTRY = {
    "engine.rule_firings": "evaluation.rule_firings",
    "engine.subgoal_attempts": "evaluation.subgoal_attempts",
    "engine.facts_derived": "evaluation.facts_derived",
    "engine.iterations": "evaluation.iterations",
    "engine.duplicates_avoided": "delta.duplicate_derivations_avoided",
    "engine.kernels_built": "compile.kernels_built",
    "core.containment_tests": "containment.rule_tests",
    "core.chase_rounds": "chase.rounds",
    "core.chase_nulls": "chase.nulls_created",
}


def run_pass(workload, recorder=None):
    """One pass with the collector off, so a collection lands in no
    operation's time."""
    gc.collect()
    gc.disable()
    try:
        p = Pass(recorder)
        workload.one_pass(p)
    finally:
        gc.enable()
    return p


def timed_passes(workload, spec, recorder=None, each=None):
    """Passes until ``seconds`` have gone by, at least ``min_passes`` of
    them unless that would take half as long again."""
    passes, started = [], perf_counter()
    while True:
        p = run_pass(workload, recorder)
        passes.append(p)
        if each is not None:
            each(p)
        elapsed = perf_counter() - started
        if len(passes) >= spec.get("max_passes", 10**9):
            break
        if elapsed >= spec["seconds"] and (
            len(passes) >= spec["min_passes"] or elapsed >= 1.5 * spec["seconds"]
        ):
            break
    return passes


def failures_of(passes) -> dict:
    return {
        "attempted": sum(len(p.ops) for p in passes),
        "failed": sum(len(p.failed_ops) for p in passes),
        "failures": [reason for p in passes for reason in p.failures][:8],
    }


def measure(spec, workload, setup_s, warm_up) -> dict:
    passes = timed_passes(workload, spec)
    return {
        "setup_s": setup_s,
        "passes": [[[kind, wall, cpu] for kind, wall, cpu in p.ops] for p in passes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **failures_of([warm_up, *passes]),
    }


def median(values):
    values = list(values)
    return statistics.median(values) if values else None


def ratio(numerator, denominator):
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def trace(spec, built, expected, api) -> dict:
    cls = WORKLOADS[spec["workload"]]

    # Untraced passes first, before any module attribute is swapped: the
    # base of bench.trace_overhead_ratio and of the informational probes.
    plain = cls(built, None, Direct(api))
    run_pass(plain)
    plain_passes = [run_pass(plain) for _ in range(spec.get("plain_passes", 3))]
    probes = plain.probes()

    recorder = spans.Recorder(spec["workload"])
    for path, layer, name in PATCHES:
        recorder.patch(path, layer, name)
    ctx = Traced(api, recorder)
    recorder.replace("repro.core.containment:Database", lambda _original: ctx.classes[None])
    registry = spans.resolve("repro:metrics_registry")
    if registry is None:
        recorder.skipped.append("repro:metrics_registry")

    samples: list[dict] = []

    def snapshot() -> dict:
        """The running totals a pass is the difference of."""
        live = registry() if registry is not None else None
        return {
            "counts": {m: live.counter(name) for m, name in REGISTRY.items()} if live else {},
            "seams": dict(recorder.counts),
            "seam_s": recorder.seam_total,
        }

    try:
        with recorder.span("bench", "setup"):
            workload = cls(built, expected, ctx)
        setup_spans = {s.name: s.duration for s in recorder.end_pass(keep=True)}
        warm_up = run_pass(workload, recorder)
        recorder.end_pass(keep=False)
        before = snapshot()

        def each(p):
            nonlocal before
            # Spans are kept for the trace file from the first three passes.
            pass_spans = recorder.end_pass(keep=len(samples) < 3)
            after = snapshot()
            samples.append(pass_sample(p, pass_spans, before, after))
            before = after

        passes = timed_passes(workload, spec, recorder, each)
    finally:
        recorder.unpatch()

    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    recorder.write(out_dir / f"trace-{spec['workload']}.json")

    layer = layer_metrics(samples, plain_passes)
    layer["engine.view_build_s"] = setup_spans.get("engine.view_build")
    advise = setup_spans.get("analysis.advise_form")
    layer["analysis.advise_ms"] = None if advise is None else advise * 1e3
    layer.update(probes)
    return {
        "layer": layer,
        "skipped": sorted(set(recorder.skipped)),
        "traced_passes": len(passes),
        "exact": {k: samples[0]["counts"].get(k) for k in REGISTRY},
        **failures_of([warm_up, *passes]),
    }


def pass_sample(p, pass_spans, before: dict, after: dict) -> dict:
    """What one traced pass contributes to the per-layer metrics."""
    by_id = {s.ident: s for s in pass_spans}
    totals: dict[str, float] = {}
    containment = []
    fixpoint = 0.0
    for s in pass_spans:
        totals[s.name] = totals.get(s.name, 0.0) + s.duration
        if s.name == "core.containment_test":
            containment.append(s.duration)
        if s.layer == "engine":
            # Engine time is counted once, at the outermost engine span.
            parent = by_id.get(s.parent)
            while parent is not None and parent.layer != "engine":
                parent = by_id.get(parent.parent)
            if parent is None:
                fixpoint += s.duration
    # Seam work during load is bulk insertion, reported as data.insert_s;
    # the seam time and counters describe the run.
    load_seams = sum(s.seam_s for s in pass_spans if s.name == "data.insert")
    seams = {k: after["seams"][k] - before["seams"][k] for k in after["seams"]}
    seams["add_calls"] -= int(p.notes.get("facts_parsed", 0))
    seams["add_new"] -= int(p.notes.get("rows_inserted", 0))
    return {
        "ops_s": sum(wall for _, wall, _ in p.ops),
        "run_s": p.run_s,
        "cpu_s": sum(cpu for _, _, cpu in p.ops),
        "layers": spans.layer_self_times(pass_spans),
        "totals": totals,
        "containment": containment,
        "fixpoint_s": fixpoint,
        "seam_s": after["seam_s"] - before["seam_s"] - load_seams,
        "seams": seams,
        "counts": {k: after["counts"][k] - before["counts"][k] for k in after["counts"]},
        "notes": dict(p.notes),
        "op_s": [(kind, wall) for kind, wall, _ in p.ops],
    }


def layer_metrics(samples, plain_passes) -> dict:
    """Per-layer metrics: medians over the traced passes for times, the
    first pass for counts (they repeat exactly)."""
    first = samples[0]

    def total(name, scale=1.0):
        values = [s["totals"][name] * scale for s in samples if name in s["totals"]]
        return median(values)

    def note(key):
        return first["notes"].get(key)

    def op_p50_ms(kind):
        return median(wall * 1e3 for s in samples for k, wall in s["op_s"] if k == kind)

    counts, seams = first["counts"], first["seams"]
    m: dict = {}
    m["lang.parse_facts_s"] = total("lang.parse_facts")
    m["lang.parse_facts_per_s"] = ratio(note("facts_parsed"), m["lang.parse_facts_s"])
    m["lang.parse_program_ms"] = total("lang.parse_program", 1e3)
    m["lang.format_program_ms"] = total("lang.format_program", 1e3)
    m["data.insert_s"] = total("data.insert")
    m["data.insert_rows_per_s"] = ratio(note("rows_inserted"), m["data.insert_s"])
    m["data.bytes_per_fact"] = ratio(note("bytes"), note("rows_inserted"))
    m["data.symbols"] = note("symbols")
    m["data.seam_s"] = median(s["seam_s"] for s in samples)
    for key in ("candidates_calls", "candidates_rows", "add_calls", "contains_calls", "copy_calls", "index_probes", "full_scans"):
        m[f"data.{key}"] = seams[key]
    m["data.add_new_ratio"] = ratio(seams["add_new"], seams["add_calls"])
    m["engine.fixpoint_s"] = median(s["fixpoint_s"] for s in samples)
    m["engine.self_s"] = median(s["layers"]["engine"] for s in samples)
    for metric in REGISTRY:
        m[metric] = counts.get(metric)
    m["engine.us_per_firing"] = ratio(m["engine.self_s"], counts.get("engine.rule_firings"))
    if m["engine.us_per_firing"] is not None:
        m["engine.us_per_firing"] *= 1e6
    m["engine.useful_firing_ratio"] = ratio(counts.get("engine.facts_derived"), counts.get("engine.rule_firings"))
    m["engine.kernel_compile_ms"] = total("engine.compile_kernel", 1e3)
    m["engine.magic_transform_ms"] = total("engine.magic_transform", 1e3)
    m["engine.magic_query_p50_ms"] = op_p50_ms("magic")
    m["engine.supplementary_query_p50_ms"] = op_p50_ms("supplementary")
    m["engine.topdown_query_p50_ms"] = op_p50_ms("tabled")
    m["engine.view_insert_p50_ms"] = op_p50_ms("insert")
    m["engine.view_delete_p50_ms"] = op_p50_ms("delete")
    m["engine.dred_rederive_ratio"] = ratio(note("rederived"), note("overdeleted"))
    m["core.minimize_s"] = total("core.minimize_program")
    m["core.optimize_s"] = total("core.optimize")
    m["core.chase_s"] = total("core.chase")
    m["core.containment_test_p50_ms"] = median(d * 1e3 for s in samples for d in s["containment"])
    m["core.atoms_removed"] = note("atoms_removed")
    m["core.rules_removed"] = note("rules_removed")
    m["analysis.lint_s"] = total("analysis.lint_source")
    m["analysis.diagnostics"] = note("diagnostics")
    plain_run = median(p.run_s for p in plain_passes)
    m["bench.trace_overhead_ratio"] = ratio(median(s["run_s"] for s in samples), plain_run)
    m["bench.cpu_over_wall"] = ratio(sum(s["cpu_s"] for s in samples), sum(s["ops_s"] for s in samples))
    m["bench.layer_sum_ratio"] = median(
        ratio(sum(v for layer, v in s["layers"].items() if layer != "bench"), s["ops_s"]) for s in samples
    )
    return m


def main() -> int:
    spec = json.load(sys.stdin)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"bench: {ROOT / 'src' / 'repro'} is missing; the benchmark runs the "
              "program from source and has nothing to measure here", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    built = inputs.build(spec["workload"], spec["seed"], spec["smoke"])
    api = Api()
    expected = spec.get("expected")
    if spec["mode"] == "trace":
        result = trace(spec, built, expected, api)
    else:
        workload = WORKLOADS[spec["workload"]](built, expected, Direct(api))
        ready = perf_counter()
        warm_up = run_pass(workload)
        # Set-up ends with the warm-up pass; its verification is not set-up.
        setup_s = (ready - _STARTED) + sum(wall for _, wall, _ in warm_up.ops)
        if spec["mode"] == "setup":
            result = {"setup_s": setup_s}
        else:
            result = measure(spec, workload, setup_s, warm_up)
    result["inputs_sha256"] = built.sha256
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
