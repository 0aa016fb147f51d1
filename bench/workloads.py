"""The four workloads: what one pass does and how each output is checked.

Every workload is a closed loop of one client.  A pass is one sweep over
the workload's operations; each operation is timed on its own and
checked, outside the timed region, against ``inputs.expected``.  The
first operation of every pass is ``load`` (text to ready objects, the
part of a command-line run that precedes evaluation); the rest are the
run.

The benchmark never names the ``rows`` backend: ``join-dense`` and
``optimize-corpus`` take library defaults, the other two ask for
``columnar`` as docs/STORAGE.md tells users with large EDBs to.
"""

from __future__ import annotations

import statistics
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import oracle
from spans import Recorder, resolve, traced_database


class Api:
    """The public entry points the end-to-end operations call.

    Resolved once, after ``import repro``; a missing one is an error
    (end-to-end metrics never skip).
    """

    def __init__(self):
        import repro
        from repro import engine

        self.parse_program = repro.parse_program
        self.parse_atom = repro.parse_atom
        self.parse_tgds = repro.parse_tgds
        self.format_program = repro.format_program
        self.Database = repro.Database
        self.evaluate = repro.evaluate
        self.minimize_program = repro.minimize_program
        self.optimize = repro.optimize
        self.chase = repro.chase
        self.lint_source = repro.lint_source
        self.MaterializedView = repro.MaterializedView
        self.queries = {
            "magic": repro.answer_query,
            "supplementary": repro.answer_query_supplementary,
            "tabled": engine.tabled_answer_query,
        }


class Direct:
    """How a workload reaches the program in an end-to-end run: plainly."""

    def __init__(self, api: Api):
        self.api = api

    def call(self, layer, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def database(self, backend=None):
        return self.api.Database(backend=backend)


class Traced(Direct):
    """The same calls, each under a span, on seam-timed databases."""

    def __init__(self, api: Api, recorder: Recorder):
        super().__init__(api)
        self.classes = {
            backend: traced_database(type(api.Database(backend=backend)), recorder)
            for backend in (None, "columnar")
        }
        self.call = recorder.call

    def database(self, backend=None):
        return self.classes[backend]()


class Pass:
    """One sweep: the time of each operation, and what failed."""

    FAILED = object()

    def __init__(self, recorder: Recorder | None = None):
        self.recorder = recorder
        self.ops: list[tuple[str, float, float]] = []
        self.failed_ops: set[int] = set()
        self.failures: list[str] = []
        self.notes: dict[str, float] = {}

    def timed(self, kind: str, fn, *args):
        """Run one operation under the clock; an exception fails it."""
        index = len(self.ops)
        cpu0, t0 = process_time(), perf_counter()
        try:
            if self.recorder is None:
                out = fn(*args)
            else:
                with self.recorder.span("bench", f"op.{kind}"):
                    out = fn(*args)
        except Exception:
            out = self.FAILED
            self.fail(index, f"{kind} raised: {traceback.format_exc(limit=3)}")
        t1, cpu1 = perf_counter(), process_time()
        self.ops.append((kind, t1 - t0, cpu1 - cpu0))
        return out

    def fail(self, index: int, reason: str) -> None:
        self.failed_ops.add(index)
        if len(self.failures) < 5:
            self.failures.append(reason)

    def check(self, ok: bool, reason: str) -> None:
        """A verdict on the operation timed last."""
        if not ok:
            self.fail(len(self.ops) - 1, reason)

    def note(self, key: str, amount: float) -> None:
        self.notes[key] = self.notes.get(key, 0) + amount

    @property
    def load_s(self) -> float:
        return sum(wall for kind, wall, _ in self.ops if kind == "load")

    @property
    def run_s(self) -> float:
        return sum(wall for kind, wall, _ in self.ops if kind != "load")


def rows_of(db, predicate: str) -> list[tuple]:
    """The facts of *predicate* as tuples of plain values; an invented
    value (no ``.value``) reads as ``None``."""
    return [
        tuple(getattr(term, "value", None) for term in atom.args)
        for atom in db.atoms_for(predicate)
    ]


class Workload:
    name = ""

    def __init__(self, inputs, expected, ctx: Direct):
        self.inputs = inputs
        self.texts = inputs.texts
        self.expected = expected
        self.ctx = ctx
        self.api = ctx.api
        self.setup_notes: dict[str, float] = {}
        self.build()

    def build(self) -> None:
        """Program-side objects that outlive a pass (part of set-up)."""

    def one_pass(self, p: Pass) -> None:
        raise NotImplementedError

    def probes(self) -> dict:
        """Informational layer cells, measured once in the traced run."""
        return {}

    # -- shared steps ---------------------------------------------------------
    def parse(self, text: str):
        return self.ctx.call("lang", "lang.parse_program", self.api.parse_program, text)

    def load_database(self, p: Pass, text: str, backend=None):
        """Fact text to a ready ``Database``, as ``repro-datalog eval --edb``."""
        facts = self.ctx.call("lang", "lang.parse_facts", self.api.parse_program, text)
        db = self.ctx.database(backend)

        def insert():
            for rule in facts.rules:
                if not rule.is_fact:
                    raise ValueError(f"fact text holds a rule: {rule}")
                db.add(rule.head)

        self.ctx.call("data", "data.insert", insert)
        p.note("facts_parsed", len(facts.rules))
        p.note("rows_inserted", len(db))
        p.note("bytes", db.approximate_bytes())
        p.note("symbols", db.symbol_cardinality())
        return db

    def evaluate(self, program, db, **kwargs):
        return self.ctx.call("engine", "engine.evaluate", self.api.evaluate, program, db, **kwargs)

    def check_relation(self, p: Pass, label: str, db, predicate: str, want: dict) -> None:
        rows = rows_of(db, predicate)
        p.check(len(rows) == want["count"], f"{label}: {len(rows)} {predicate} facts, expected {want['count']}")
        p.check(oracle.digest(rows) == want["digest"], f"{label}: {predicate} facts differ from the reference")

    def check_fixpoint(self, p: Pass, label: str, result, predicate: str) -> None:
        if result is Pass.FAILED or self.expected is None:
            return
        p.check(not result.is_partial, f"{label}: evaluation returned PARTIAL")
        self.check_relation(p, label, result.database, predicate, self.expected[label])


class JoinDense(Workload):
    """Join enumeration and head dedup: nonlinear TC over a chain, and
    Andersen points-to, whose three-way joins a TC-only trick misses."""

    name = "join-dense"

    def build(self):
        self.tc = self.parse(self.texts["tc_program"])
        self.andersen = self.parse(self.texts["andersen_program"])

    def load(self, p: Pass):
        return {
            name: self.load_database(p, self.texts[name])
            for name in ("tc_facts", "andersen_facts")
        }

    def one_pass(self, p: Pass) -> None:
        dbs = p.timed("load", self.load, p)
        if dbs is Pass.FAILED:
            return
        if self.expected is not None:
            for name, db in dbs.items():
                want = self.expected["load"][name]
                p.check(len(db) == want, f"load: {len(db)} {name}, expected {want}")
        result = p.timed("tc", self.evaluate, self.tc, dbs["tc_facts"])
        self.check_fixpoint(p, "tc", result, "G")
        result = p.timed("andersen", self.evaluate, self.andersen, dbs["andersen_facts"])
        self.check_fixpoint(p, "andersen", result, "Pts")

    def probes(self) -> dict:
        api, out = self.api, {}
        # Probes run on the untraced twin, whose loads record no span.
        tc_db = self.load_database(Pass(), self.texts["tc_facts"])
        andersen_db = self.load_database(Pass(), self.texts["andersen_facts"])

        def run_s(**options) -> float:
            def run():
                api.evaluate(self.tc, tc_db, **{k: make() for k, make in options.items()})
                api.evaluate(self.andersen, andersen_db, **{k: make() for k, make in options.items()})

            return median_seconds(run)

        base = run_s()
        governor = resolve("repro.resilience:ResourceGovernor")
        if governor is not None:
            # Limits far above the workload: the cost of asking, not of stopping.
            out["resilience.governor_on_ratio"] = run_s(
                governor=lambda: governor(
                    deadline_s=1e9, max_facts=10**12, max_rounds=10**9, max_memory_bytes=10**15
                )
            ) / base
        tracing = resolve("repro:tracing")
        if tracing is not None:
            with tracing() as collected:
                traced = run_s()
            out["obs.tracer_on_ratio"] = traced / base
            out["obs.spans"] = count_spans(collected) / 3
        serial = median_seconds(lambda: api.evaluate(self.tc, tc_db))
        try:
            out["engine.workers2_speedup"] = serial / median_seconds(
                lambda: api.evaluate(self.tc, tc_db, workers=2)
            )
        except TypeError:
            pass  # evaluate() no longer takes workers=; the cell reads as skipped
        return out


def count_spans(spans) -> int:
    return sum(1 + count_spans(span.children) for span in spans)


def median_seconds(fn, samples: int = 3) -> float:
    times = []
    for _ in range(samples):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class EdbWide(Workload):
    """Parsing, interning and index build: a wide EDB with a tiny IDB, and
    same-generation, where every firing is a new fact."""

    name = "edb-wide"

    def build(self):
        self.reach = self.parse(self.texts["reach_program"])
        self.sg = self.parse(self.texts["sg_program"])

    def load(self, p: Pass):
        return {
            name: self.load_database(p, self.texts[name], "columnar")
            for name in ("reach_facts", "sg_facts")
        }

    def one_pass(self, p: Pass) -> None:
        dbs = p.timed("load", self.load, p)
        if dbs is Pass.FAILED:
            return
        if self.expected is not None:
            for name, db in dbs.items():
                want = self.expected["load"][name]
                p.check(len(db) == want, f"load: {len(db)} {name}, expected {want}")
        result = p.timed("reach", self.evaluate, self.reach, dbs["reach_facts"])
        self.check_fixpoint(p, "reach", result, "R")
        result = p.timed("sg", self.evaluate, self.sg, dbs["sg_facts"])
        self.check_fixpoint(p, "sg", result, "Sg")

    def probes(self) -> dict:
        manager_cls = resolve("repro.resilience.checkpoint:CheckpointManager")
        governor_cls = resolve("repro.resilience:ResourceGovernor")
        if manager_cls is None or governor_cls is None:
            return {}
        api = self.api
        db = self.load_database(Pass(), self.texts["reach_facts"], "columnar")
        base = median_seconds(lambda: api.evaluate(self.reach, db))
        out_dir = Path(__file__).resolve().parent / "out"
        out_dir.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out_dir) as folder:
            path = Path(folder) / "reach.ckpt"
            manager = manager_cls(path, self.reach, engine="seminaive", every=1)
            governed = median_seconds(
                lambda: api.evaluate(self.reach, db, governor=governor_cls(on_round=manager.on_round))
            )
            size = path.stat().st_size
        return {
            "resilience.checkpoint_on_ratio": governed / base,
            "resilience.checkpoint_bytes": size,
        }


class OptimizeCorpus(Workload):
    """The paper's use: many small programs from source text, each
    minimised (Fig. 2), optimised under tgds (§X-XI), chased or linted.
    Thousands of tiny evaluations on frozen rule bodies, so parsing,
    kernel compilation and containment bookkeeping dominate."""

    name = "optimize-corpus"

    def build(self):
        self.entries = self.inputs.plan["entries"]
        # Equivalence of a rewritten program is decided by the oracle once
        # per distinct output text, not once per pass.
        self._verified: dict[tuple[str, str], bool] = {}

    def load(self, p: Pass):
        for entry in self.entries:
            self.parse(self.texts[entry["id"]])

    def minimize(self, text: str):
        result = self.ctx.call("core", "core.minimize_program", self.api.minimize_program, self.parse(text))
        out = self.ctx.call("lang", "lang.format_program", self.api.format_program, result.program)
        return out, len(result.atom_removals), len(result.rule_removals), result.degradation

    def optimize(self, text: str):
        report = self.ctx.call("core", "core.optimize", self.api.optimize, self.parse(text))
        out = self.ctx.call("lang", "lang.format_program", self.api.format_program, report.optimized)
        atoms = len(report.minimization.atom_removals)
        atoms += sum(len(removal.removed_atoms) for removal in report.equivalence_removals)
        return out, atoms, len(report.minimization.rule_removals), report.degradation

    def chase(self, p: Pass, ident: str):
        program = self.parse(self.texts[ident])
        tgds = self.ctx.call("lang", "lang.parse_tgds", self.api.parse_tgds, self.texts[f"{ident}.tgds"])
        db = self.load_database(p, self.texts[f"{ident}.facts"])
        return self.ctx.call("core", "core.chase", self.api.chase, db, program, list(tgds))

    def lint(self, text: str):
        return self.ctx.call("analysis", "analysis.lint_source", self.api.lint_source, text)

    def one_pass(self, p: Pass) -> None:
        p.timed("load", self.load, p)
        for entry in self.entries:
            ident, kind = entry["id"], entry["kind"]
            if kind == "chase":
                self.check_chase(p, ident, p.timed("chase", self.chase, p, ident))
            else:
                step = self.minimize if kind == "minimize" else self.optimize
                self.check_rewrite(p, entry, p.timed(kind, step, self.texts[ident]))
            if entry["lint"]:
                self.check_lint(p, ident, p.timed("lint", self.lint, self.texts[ident]))

    def check_rewrite(self, p: Pass, entry: dict, out) -> None:
        if out is Pass.FAILED:
            return
        text, atoms, rules, degradation = out
        p.note("atoms_removed", atoms)
        p.note("rules_removed", rules)
        if self.expected is None:
            return
        ident = entry["id"]
        p.check(degradation is None, f"{ident}: result is PARTIAL")
        p.check(
            (atoms, rules) == (entry["atoms"], entry["rules"]),
            f"{ident}: removed {atoms} atoms and {rules} rules, planted {entry['atoms']} and {entry['rules']}",
        )
        verdict = self._verified.get((ident, text))
        if verdict is None:
            program = oracle.parse_program(text)
            verdict = oracle.isomorphic(program, oracle.parse_program(entry["minimal"]))
            for facts, want in zip(entry["databases"], self.expected["entries"][ident]["outputs"]):
                got = oracle.evaluate(program, oracle.parse_facts(facts))
                verdict = verdict and oracle.digest(oracle.output_rows(got)) == want
            self._verified[(ident, text)] = verdict
        p.check(verdict, f"{ident}: result is not the known minimal program, or not equivalent to the input")

    def check_chase(self, p: Pass, ident: str, outcome) -> None:
        if outcome is Pass.FAILED:
            return
        p.note("chase_nulls", outcome.nulls_created)
        p.note("chase_rounds", outcome.rounds)
        if self.expected is None:
            return
        want = self.expected["entries"][ident]
        db = outcome.database
        p.check(outcome.saturated, f"{ident}: chase did not saturate")
        p.check(outcome.nulls_created == want["nulls"], f"{ident}: {outcome.nulls_created} nulls, expected {want['nulls']}")
        counts = {predicate: db.count(predicate) for predicate in sorted(db.predicates)}
        p.check(counts == want["counts"], f"{ident}: fact counts {counts}, expected {want['counts']}")
        ground = [
            (predicate, *row)
            for predicate in counts
            for row in rows_of(db, predicate)
            if None not in row
        ]
        p.check(oracle.digest(ground) == want["ground"], f"{ident}: ground facts differ from the reference")

    def check_lint(self, p: Pass, ident: str, diagnostics) -> None:
        if diagnostics is Pass.FAILED:
            return
        p.note("diagnostics", len(diagnostics))
        if self.expected is None:
            return
        want = self.expected["entries"][ident]
        for rule_id, key in (("redundant-atom", "redundant_atoms"), ("redundant-rule", "redundant_rules")):
            found = sum(1 for d in diagnostics if d.rule_id == rule_id)
            p.check(found == want[key], f"{ident}: lint found {found} {rule_id}, the reference {want[key]}")


class QueryMaintain(Workload):
    """Reads beside writes on one view: goal-directed point queries by
    three engines, and DRed insert/delete batches, each undone later in
    the pass so every pass starts from the same view."""

    name = "query-maintain"

    def build(self):
        self.program = self.parse(self.texts["program"])
        self.ops = self.inputs.plan["ops"]
        scratch = Pass()
        base = self.load_database(scratch, self.texts["facts"], "columnar")
        t0 = perf_counter()
        self.view = self.ctx.call("engine", "engine.view_build", self.api.MaterializedView, self.program, base)
        self.setup_notes["view_build_s"] = perf_counter() - t0
        parse_form = resolve("repro.analysis.specialize:parse_query_form")
        advise = resolve("repro.analysis.specialize:advise_form")
        if parse_form is not None and advise is not None:
            t0 = perf_counter()
            form = parse_form(self.texts["query_form"], self.program)
            self.ctx.call("analysis", "analysis.advise_form", advise, self.program, form)
            self.setup_notes["advise_ms"] = (perf_counter() - t0) * 1e3
        self.current = None

    def load(self, p: Pass):
        return self.load_database(p, self.texts["facts"], "columnar")

    def atom(self, text: str):
        return self.ctx.call("lang", "lang.parse_atom", self.api.parse_atom, text)

    def query(self, kind: str, node: int):
        goal = self.atom(f"G({node}, x)")
        return self.ctx.call("engine", f"engine.query.{kind}", self.api.queries[kind], self.program, self.current, goal)

    def write(self, p: Pass, kind: str, edges: list):
        atoms = [self.atom(f"A({u}, {v})") for u, v in edges]
        if kind == "insert":
            stats = self.ctx.call("engine", "engine.view_insert", self.view.insert_all, atoms)
            self.ctx.call("data", "data.add", lambda: [self.current.add(a) for a in atoms])
        else:
            stats = self.ctx.call("engine", "engine.view_delete", self.view.delete_all, atoms)
            self.ctx.call("data", "data.discard", lambda: [self.current.discard(a) for a in atoms])
            p.note("overdeleted", stats.overdeleted)
            p.note("rederived", stats.rederived)
        return stats

    def one_pass(self, p: Pass) -> None:
        self.current = p.timed("load", self.load, p)
        if self.current is Pass.FAILED:
            return
        if self.expected is not None:
            want = self.expected["load"]["facts"]
            p.check(len(self.current) == want, f"load: {len(self.current)} facts, expected {want}")
        for index, op in enumerate(self.ops):
            want = self.expected["ops"][index] if self.expected is not None else None
            if "node" in op:
                out = p.timed(op["kind"], self.query, op["kind"], op["node"])
                if out is not Pass.FAILED and want is not None:
                    answers, result = out
                    label = f"{op['kind']} query G({op['node']}, x)"
                    p.check(not result.is_partial, f"{label}: PARTIAL")
                    self.check_relation(p, label, answers, "G", want)
            else:
                out = p.timed(op["kind"], self.write, p, op["kind"], op["edges"])
                if out is not Pass.FAILED and want is not None:
                    self.check_relation(p, f"view after {op['kind']} #{index}", self.view.database, "G", want)


WORKLOADS = {w.name: w for w in (JoinDense, EdbWide, OptimizeCorpus, QueryMaintain)}
