"""Seeded inputs of the four workloads, and the results they must give.

The generators are frozen copies of the shapes in ``repro.workloads``
(chain, single-source graph, layered DAG, pointer statements, the
planted-redundancy program families), kept here so a later change under
``src/`` cannot alter what the benchmark feeds the program.  Nothing in
this module imports ``repro``; the program under test receives only the
text in ``Inputs.texts``.

What ``--seed`` varies.  Work must not move with the seed, or the spread
between seeds would drown the bounds (random pointer programs of one
size differ by +-20 % in rule firings, random DAG delete batches by
more).  So wherever the shape decides the work -- pointer statements,
DAG, operation order, program families -- the shape comes from
``STRUCTURE_SEED`` and the seed relabels constants and variables and
reorders the fact lines.  Where the work is the same for every draw
(random graph at average degree 10, tree with fixed level widths), the
seed draws the shape itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import oracle
from oracle import Var

STRUCTURE_SEED = 1987
DEFAULT_SEED = 1987
WORKLOADS = ("join-dense", "edb-wide", "optimize-corpus", "query-maintain")

#: Final sizes, calibrated so that one pass takes 0.6-0.8 s on the
#: reference host (see README.md, "Sizing").
SIZES = {
    "full": {
        "join-dense": {"chain": 104, "statements": 256},
        "edb-wide": {"edges": 12000, "tree_levels": 8, "tree_width": 56},
        "optimize-corpus": {
            "tc_atoms": 10, "tc_rules": 6, "wide": (4, 10), "random": 16,
            "guarded": 3, "chase_chain": 24, "lint_every": 4,
        },
        "query-maintain": {
            "layers": 8, "width": 24, "fanout": 2, "queries": (16, 4, 4),
            "batches": 4, "batch": 4,
        },
    },
    "smoke": {
        "join-dense": {"chain": 16, "statements": 48},
        "edb-wide": {"edges": 300, "tree_levels": 4, "tree_width": 8},
        "optimize-corpus": {
            "tc_atoms": 2, "tc_rules": 2, "wide": (4, 4), "random": 2,
            "guarded": 1, "chase_chain": 4, "lint_every": 4,
        },
        "query-maintain": {
            "layers": 4, "width": 6, "fanout": 2, "queries": (3, 1, 1),
            "batches": 1, "batch": 2,
        },
    },
}

TC_NONLINEAR = "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z).\n"
TC_LINEAR = "G(x, z) :- A(x, z).\nG(x, z) :- A(x, y), G(y, z).\n"
ANDERSEN = (
    "Pts(p, a) :- Addr(p, a).\n"
    "Pts(p, a) :- Copy(p, q), Pts(q, a).\n"
    "Pts(p, a) :- Load(p, q), Pts(q, v), Pts(v, a).\n"
    "Pts(v, a) :- Store(p, q), Pts(p, v), Pts(q, a).\n"
)
REACHABILITY = "R(x) :- S(x).\nR(y) :- R(x), A(x, y).\n"
SAME_GENERATION = (
    "Sg(x, x) :- Per(x).\nSg(x, y) :- Par(xp, x), Sg(xp, yp), Par(yp, y).\n"
)


@dataclass
class Inputs:
    """One workload's inputs for one seed."""

    workload: str
    seed: int
    #: Everything handed to the program under test, by name.
    texts: dict[str, str] = field(default_factory=dict)
    #: What the harness needs besides: operation plans, planted counts,
    #: known minimal programs, verification databases.
    plan: dict = field(default_factory=dict)

    @property
    def sha256(self) -> str:
        return oracle.text_digest(*(f"{k}\n{v}" for k, v in sorted(self.texts.items())))


class _Labels:
    """The seed's relabelling: permutations and line orders."""

    def __init__(self, seed: int, workload: str):
        self.rng = random.Random(f"labels/{workload}/{seed}")

    def permutation(self, n: int) -> list[int]:
        out = list(range(n))
        self.rng.shuffle(out)
        return out

    def shuffled(self, items: list) -> list:
        out = list(items)
        self.rng.shuffle(out)
        return out


def _structure(name: str) -> random.Random:
    return random.Random(f"structure/{name}/{STRUCTURE_SEED}")


# -- join-dense ---------------------------------------------------------------

def pointer_statements(statements: int, variables: int, rng: random.Random) -> list:
    """A random straight-line pointer program as ``(kind, p, q)`` indexes."""
    out = []
    for _ in range(statements):
        kind = rng.random()
        p, q = rng.randrange(variables), rng.randrange(variables)
        if kind < 0.35:
            out.append(("Addr", p, rng.randrange(variables)))
        elif kind < 0.65:
            out.append(("Copy", p, q))
        elif kind < 0.85:
            out.append(("Load", p, q))
        else:
            out.append(("Store", p, q))
    return out


def join_dense(seed: int, size: dict) -> Inputs:
    labels = _Labels(seed, "join-dense")
    n = size["chain"]
    node = labels.permutation(n + 1)
    chain = [("A", (node[i], node[i + 1])) for i in range(n)]

    variables = max(4, size["statements"] // 8)
    var, obj = labels.permutation(variables), labels.permutation(variables)
    statements = []
    for kind, p, q in pointer_statements(size["statements"], variables, _structure("andersen")):
        target = f"obj{obj[q]}" if kind == "Addr" else f"v{var[q]}"
        statements.append((kind, (f"v{var[p]}", target)))

    return Inputs(
        "join-dense",
        seed,
        texts={
            "tc_program": TC_NONLINEAR,
            "tc_facts": oracle.format_facts(labels.shuffled(chain)),
            "andersen_program": ANDERSEN,
            "andersen_facts": oracle.format_facts(labels.shuffled(statements)),
        },
        plan={"chain_labels": node},
    )


def expected_join_dense(inputs: Inputs) -> dict:
    closure = oracle.chain_closure(inputs.plan["chain_labels"])
    n = len(inputs.plan["chain_labels"]) - 1
    assert len(closure) == n * (n + 1) // 2
    facts = oracle.parse_facts(inputs.texts["andersen_facts"])
    pts = oracle.evaluate(oracle.parse_program(ANDERSEN), facts)["Pts"]
    return {
        "load": {
            "tc_facts": n,
            "andersen_facts": sum(len(rows) for rows in facts.values()),
        },
        "tc": {"count": len(closure), "digest": oracle.digest(closure)},
        "andersen": {"count": len(pts), "digest": oracle.digest(pts)},
        "units": len(closure) + len(pts),
    }


# -- edb-wide -----------------------------------------------------------------

def single_source(edges: int, rng: random.Random) -> list:
    """*edges* random edges over ``edges // 10`` nodes; duplicates and
    self-loops allowed, as in a scraped edge list."""
    nodes = max(2, edges // 10)
    return [("A", (rng.randrange(nodes), rng.randrange(nodes))) for _ in range(edges)]


def level_tree(levels: int, width: int, rng: random.Random, label: list[int]) -> list:
    """A tree whose every level below the root has *width* nodes, each
    with a random parent one level up.  Same-generation over it has
    exactly ``1 + levels * width**2`` facts whatever the draw."""
    facts, previous, next_id = [("Per", (label[0],))], [0], 1
    for _ in range(levels):
        current = list(range(next_id, next_id + width))
        next_id += width
        for child in current:
            facts.append(("Par", (label[rng.choice(previous)], label[child])))
            facts.append(("Per", (label[child],)))
        previous = current
    return facts


def edb_wide(seed: int, size: dict) -> Inputs:
    labels = _Labels(seed, "edb-wide")
    graph = [("S", (0,))] + single_source(size["edges"], labels.rng)
    nodes = 1 + size["tree_levels"] * size["tree_width"]
    tree = level_tree(
        size["tree_levels"], size["tree_width"], labels.rng, labels.permutation(nodes)
    )
    return Inputs(
        "edb-wide",
        seed,
        texts={
            "reach_program": REACHABILITY,
            "reach_facts": oracle.format_facts(graph),
            "sg_program": SAME_GENERATION,
            "sg_facts": oracle.format_facts(labels.shuffled(tree)),
        },
    )


def expected_edb_wide(inputs: Inputs) -> dict:
    graph = oracle.parse_facts(inputs.texts["reach_facts"])
    reached = {(0,)} | {(v,) for v in oracle.reachable(oracle.successors(graph["A"]), 0)}
    tree = oracle.parse_facts(inputs.texts["sg_facts"])
    sg = oracle.evaluate(oracle.parse_program(SAME_GENERATION), tree)["Sg"]
    loaded = {
        "reach_facts": sum(len(rows) for rows in graph.values()),
        "sg_facts": sum(len(rows) for rows in tree.values()),
    }
    return {
        "load": loaded,
        "reach": {"count": len(reached), "digest": oracle.digest(reached)},
        "sg": {"count": len(sg), "digest": oracle.digest(sg)},
        "units": sum(loaded.values()) + len(reached) + len(sg),
    }


# -- query-maintain -----------------------------------------------------------

def layered_dag(layers: int, width: int, fanout: int, rng: random.Random) -> list:
    """``layers`` layers of ``width`` nodes, ``fanout`` edges from each node
    to the next layer; returned as index pairs."""
    edges = []
    for layer in range(layers - 1):
        for position in range(width):
            for target in rng.sample(range(width), min(fanout, width)):
                edges.append((layer * width + position, (layer + 1) * width + target))
    return edges


def query_maintain(seed: int, size: dict) -> Inputs:
    labels = _Labels(seed, "query-maintain")
    rng = _structure("query-maintain")
    layers, width = size["layers"], size["width"]
    edges = layered_dag(layers, width, size["fanout"], rng)
    label = labels.permutation(layers * width)

    present = set(edges)
    removable = rng.sample(edges, size["batches"] * size["batch"])
    addable: list = []
    while len(addable) < size["batches"] * size["batch"]:
        layer = rng.randrange(layers - 1)
        edge = (layer * width + rng.randrange(width), (layer + 1) * width + rng.randrange(width))
        if edge not in present:
            present.add(edge)
            addable.append(edge)
    step = size["batch"]
    batches = [("delete", removable[i:i + step]) for i in range(0, len(removable), step)]
    batches += [("insert", addable[i:i + step]) for i in range(0, len(addable), step)]

    # Each batch appears twice in the order: first applied, later undone,
    # so every pass ends on the view it began with.
    magic, supplementary, tabled = size["queries"]
    slots = ["magic"] * magic + ["supplementary"] * supplementary + ["tabled"] * tabled
    slots += [i for i in range(len(batches)) for _ in range(2)]
    rng.shuffle(slots)
    undo = {"delete": "insert", "insert": "delete"}
    seen: set = set()
    ops = []
    for slot in slots:
        if isinstance(slot, str):
            source = rng.randrange((layers - 1) * width)
            ops.append({"kind": slot, "node": label[source]})
            continue
        kind, batch = batches[slot]
        if slot in seen:
            kind = undo[kind]
        seen.add(slot)
        ops.append({"kind": kind, "edges": [[label[u], label[v]] for u, v in batch]})

    facts = [("A", (label[u], label[v])) for u, v in edges]
    return Inputs(
        "query-maintain",
        seed,
        texts={
            "program": TC_LINEAR,
            "facts": oracle.format_facts(labels.shuffled(facts)),
            "query_form": "G(bf)",
        },
        plan={"ops": ops},
    )


def expected_query_maintain(inputs: Inputs) -> dict:
    edges = set(oracle.parse_facts(inputs.texts["facts"])["A"])
    out = {"load": {"facts": len(edges)}, "ops": []}
    for op in inputs.plan["ops"]:
        if "node" in op:
            node = op["node"]
            rows = {(node, x) for x in oracle.reachable(oracle.successors(edges), node)}
        else:
            batch = {tuple(e) for e in op["edges"]}
            edges = edges | batch if op["kind"] == "insert" else edges - batch
            rows = oracle.closure(edges)
        out["ops"].append({"count": len(rows), "digest": oracle.digest(rows)})
    out["units"] = 1 + len(inputs.plan["ops"])
    return out


# -- optimize-corpus ----------------------------------------------------------

def _atom(predicate: str, *args):
    return predicate, tuple(Var(a) if isinstance(a, str) else a for a in args)


_TC = oracle.parse_program(TC_NONLINEAR)


def tc_with_redundant_atoms(k: int) -> list:
    """TC whose recursive rule carries *k* weakened copies of ``G(x, y)``."""
    body = [_atom("G", "x", "y"), _atom("G", "y", "z")]
    body += [_atom("G", "x", f"s{i + 1}") for i in range(k)]
    return [_TC[0], (_atom("G", "x", "z"), tuple(body))]


def tc_with_redundant_rules(k: int) -> list:
    """TC plus *k* path rules of lengths 2..k+1, each contained in TC."""
    rules = list(_TC)
    for length in range(2, k + 2):
        names = ["x"] + [f"y{i}" for i in range(1, length)] + ["z"]
        body = tuple(_atom("A", names[i], names[i + 1]) for i in range(length))
        rules.append((_atom("G", "x", "z"), body))
    return rules


def guarded_tc(k: int) -> list:
    """Example 18's family: *k* guards ``A(y, w_i)``; all but one fold under
    uniform equivalence, the last only under equivalence (tgd G(x,z) -> A(x,w))."""
    body = [_atom("G", "x", "y"), _atom("G", "y", "z")]
    body += [_atom("A", "y", f"w{i + 1}") for i in range(k)]
    return [_TC[0], (_atom("G", "x", "z"), tuple(body))]


def _weakened(atom, fresh: str, rng: random.Random):
    predicate, args = atom
    args = list(args)
    args[rng.randrange(len(args))] = Var(fresh)
    return predicate, tuple(args)


def wide_rule(core_atoms: int, planted: int, rng: random.Random):
    """One recursive chain rule and the same rule with *planted* weakened
    copies of random core atoms appended; returns ``(planted, core)``."""
    names = [f"v{i}" for i in range(core_atoms)]
    core = [_atom("G", "x", names[0])]
    core += [_atom("A", names[i], names[i + 1]) for i in range(core_atoms - 1)]
    core.append(_atom("A", names[-1], "z"))
    extra = [_weakened(rng.choice(core), f"f{i}", rng) for i in range(planted)]
    head = _atom("G", "x", "z")
    return [(head, tuple(core + extra))], [(head, tuple(core))]


def random_minimal_program(rng: random.Random) -> list:
    """A small random positive program with no redundant atom or rule
    (drawn again until the oracle finds none)."""
    while True:
        rules = []
        for _ in range(rng.randint(2, 3)):
            size = rng.randint(2, 3)
            names = ["x"] + [f"m{i}" for i in range(size - 1)] + ["z"]
            body = []
            for i in range(size):
                idb = rng.random() < 0.4
                predicate = f"{'G' if idb else 'E'}{rng.randrange(2 if idb else 3)}"
                body.append(_atom(predicate, names[i], names[i + 1]))
            rules.append((_atom(f"G{rng.randrange(2)}", "x", "z"), tuple(body)))
        if len(set(rules)) == len(rules) and oracle.is_minimal(rules):
            return rules


def planted_random_program(rng: random.Random):
    base = random_minimal_program(rng)
    planted, count = [], 0
    for head, body in base:
        extra = [
            _weakened(rng.choice(body), f"f{i}", rng) for i in range(rng.randint(0, 2))
        ]
        count += len(extra)
        planted.append((head, body + tuple(extra)))
    if not count:
        head, body = planted[0]
        planted[0] = (head, body + (_weakened(body[0], "f0", rng),))
        count = 1
    return planted, base, count


#: The paper's worked examples that are programs to optimise:
#: (id, kind, program, known result, atoms removed).
_PAPER = [
    ("E01", "minimize", TC_NONLINEAR, TC_NONLINEAR, 0),
    ("E04", "minimize", TC_LINEAR, TC_LINEAR, 0),
    (
        "E07", "minimize",
        "G(x, y, z) :- G(x, w, z), A(w, y), A(w, z), A(z, z), A(z, y).\n",
        "G(x, y, z) :- G(x, w, z), A(w, z), A(z, z), A(z, y).\n",
        1,
    ),
    (
        "E18", "optimize",
        "G(x, z) :- A(x, z).\nG(x, z) :- G(x, y), G(y, z), A(y, w).\n",
        TC_NONLINEAR,
        1,
    ),
    (
        "E19", "optimize",
        "G(x, z) :- A(x, z), C(z).\nG(x, z) :- A(x, y), G(y, z), G(y, w), C(w).\n",
        "G(x, z) :- A(x, z), C(z).\nG(x, z) :- A(x, y), G(y, z).\n",
        2,
    ),
]

#: Data-exchange tgd sets (Grahne--Onet shapes): full, weakly acyclic of
#: rank 1, weakly acyclic of rank 3.
_TGD_SETS = [
    ("de-copy", ["A(x, y) -> T(x, y)"]),
    ("de-fusion", ["A(x, y) -> F(x, w) & F(w, y)"]),
    ("de-chain", ["A(x, y) -> H(x, w)", "H(x, y) -> K(y, v)", "K(x, y) -> L(y, v)"]),
]


def _renamed(program: list, labels: _Labels) -> list:
    """*program* with each rule's variables renamed by the seed."""
    out = []
    for head, body in program:
        names = sorted({t.name for a in (head, *body) for t in a[1] if isinstance(t, Var)})
        fresh = [f"{stem}{i}" for i in range(len(names)) for stem in "uvw"][: len(names)]
        mapping = dict(zip(names, labels.shuffled(fresh)))

        def rename(atom, mapping=mapping):
            return atom[0], tuple(
                Var(mapping[t.name]) if isinstance(t, Var) else t for t in atom[1]
            )

        out.append((rename(head), tuple(rename(a) for a in body)))
    return out


def _signature(program: list) -> tuple[dict, set]:
    arity, idb = {}, set()
    for head, body in program:
        idb.add(head[0])
        for predicate, args in (head, *body):
            arity[predicate] = len(args)
    return arity, idb


def _random_database(program: list, rng: random.Random, with_idb: bool) -> str:
    """A small database over the program's predicates.  With IDB facts it
    tests uniform equivalence (§VI); without, plain equivalence."""
    arity, idb = _signature(program)
    facts = []
    for predicate in sorted(arity):
        if predicate in idb and not with_idb:
            continue
        for _ in range(5):
            facts.append((predicate, tuple(rng.randrange(4) for _ in range(arity[predicate]))))
    return oracle.format_facts(facts)


def optimize_corpus(seed: int, size: dict) -> Inputs:
    labels = _Labels(seed, "optimize-corpus")
    rng = _structure("optimize-corpus")
    entries: list = []

    def add(ident, kind, program, minimal, atoms=0, rules=0):
        entries.append(
            {
                "id": ident, "kind": kind, "program": program, "minimal": minimal,
                "atoms": atoms, "rules": rules,
            }
        )

    for k in range(1, size["tc_atoms"] + 1):
        add(f"tc+{k}atoms", "minimize", tc_with_redundant_atoms(k), _TC, atoms=k)
    for k in range(1, size["tc_rules"] + 1):
        add(f"tc+{k}rules", "minimize", tc_with_redundant_rules(k), _TC, rules=k)
    low, high = size["wide"]
    for core in range(low, high + 1):
        for variant in "ab":
            planted, minimal = wide_rule(core, core, rng)
            add(f"wide{core}{variant}", "minimize", planted, minimal, atoms=core)
    for i in range(size["random"]):
        planted, minimal, count = planted_random_program(rng)
        add(f"random{i}", "minimize", planted, minimal, atoms=count)
    for ident, kind, text, result, atoms in _PAPER:
        add(ident, kind, oracle.parse_program(text), oracle.parse_program(result), atoms=atoms)
    for k in range(1, size["guarded"] + 1):
        add(f"guarded-tc+{k}", "optimize", guarded_tc(k), _TC, atoms=k)

    texts, plan = {}, []
    for index, entry in enumerate(entries):
        program = _renamed(entry["program"], labels)
        texts[entry["id"]] = oracle.format_program(program)
        uniform = entry["kind"] == "minimize"
        plan.append(
            {
                "id": entry["id"],
                "kind": entry["kind"],
                "lint": index % size["lint_every"] == 0,
                "atoms": entry["atoms"],
                "rules": entry["rules"],
                "minimal": oracle.format_program(entry["minimal"]),
                "databases": [_random_database(program, labels.rng, uniform) for _ in range(2)],
            }
        )

    node = labels.permutation(size["chase_chain"] + 1)
    chain = [("A", (node[i], node[i + 1])) for i in range(size["chase_chain"])]
    for ident, tgds in _TGD_SETS:
        texts[ident] = TC_NONLINEAR
        texts[f"{ident}.tgds"] = "\n".join(tgds) + "\n"
        texts[f"{ident}.facts"] = oracle.format_facts(labels.shuffled(chain))
        plan.append({"id": ident, "kind": "chase", "lint": False})
    return Inputs("optimize-corpus", seed, texts=texts, plan={"entries": plan})


def expected_optimize_corpus(inputs: Inputs) -> dict:
    out: dict = {"entries": {}, "units": len(inputs.plan["entries"])}
    for entry in inputs.plan["entries"]:
        ident = entry["id"]
        program = oracle.parse_program(inputs.texts[ident])
        expected: dict = {}
        if entry["kind"] == "chase":
            tgds = [
                oracle.parse_tgd(line)
                for line in inputs.texts[f"{ident}.tgds"].splitlines()
            ]
            facts = oracle.parse_facts(inputs.texts[f"{ident}.facts"])
            db, nulls, _rounds = oracle.chase(program, tgds, facts)
            expected = {
                "nulls": nulls,
                "counts": {p: len(rows) for p, rows in sorted(db.items())},
                "ground": oracle.digest(oracle.ground_rows(db)),
            }
        else:
            expected["outputs"] = [
                oracle.digest(oracle.output_rows(oracle.evaluate(program, oracle.parse_facts(db))))
                for db in entry["databases"]
            ]
        if entry["lint"]:
            expected["redundant_atoms"] = oracle.redundant_atoms(program)
            expected["redundant_rules"] = oracle.redundant_rules(program)
        out["entries"][ident] = expected
    return out


# -- dispatch -----------------------------------------------------------------

_BUILD = {
    "join-dense": (join_dense, expected_join_dense),
    "edb-wide": (edb_wide, expected_edb_wide),
    "optimize-corpus": (optimize_corpus, expected_optimize_corpus),
    "query-maintain": (query_maintain, expected_query_maintain),
}


def build(workload: str, seed: int, smoke: bool = False) -> Inputs:
    """The inputs of *workload* for *seed*: same arguments, same bytes."""
    size = SIZES["smoke" if smoke else "full"][workload]
    return _BUILD[workload][0](seed, size)


def expected(inputs: Inputs) -> dict:
    """What the outputs must be, computed without the program under test."""
    return _BUILD[inputs.workload][1](inputs)
