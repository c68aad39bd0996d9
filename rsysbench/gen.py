"""Seeded input generators for the rsys benchmark workloads.

Every generator is plain Python and imports nothing from rsys: it returns
a JSON-serialisable dict of texts and name lists, so the same seed gives
byte-identical inputs (see `inputs_bytes`) and the program under test only
ever sees the generated inputs.
"""

from __future__ import annotations

import itertools
import json
import random

WORKLOADS = ("oncogenic-steer", "decide-synthetic", "bn-replay", "cli-batch")

# The bundled model's blocking species, in table order, and its published
# named states (the aliases such as S_19 are left out).
BLOCKERS = (
    "iRTK", "iRAS", "iMAPK", "iPI3K", "iPIP3", "iFOXO3", "iAKT", "icycE",
    "iRb", "iE2F", "iTSC", "iPRAS40", "imTORC1", "iEIF4F", "iS6K", "iPro",
    "iuPro",
)
NAMED_STATES = tuple(f"S{k}" for k in range(1, 20)) + tuple(
    f"{p}{k}" for k in range(8) for p in "XY"
)
# The constant contexts of the model's three reference traces.
REFERENCE_CONTEXTS = (("GF",), ("GF", "iPI3K"), ("GF", "iPI3K", "icycE"))
# Projected goals over the markers {Pro, uPro}.
GOALS = {"quiet": (), "pro": ("Pro",), "upro": ("uPro",)}
MARKERS = ("Pro", "uPro")

# Share of generated networks whose index-suffixed names make
# bn_to_reactions emit one reaction label twice (x1 with two conjunctions
# and x11 with one both give "rx11"). Their imports are expected to fail.
COLLISION_EVERY = 8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def inputs_bytes(inputs: dict) -> bytes:
    return json.dumps(inputs, sort_keys=True, separators=(",", ":")).encode()


def generate(workload: str, seed: int) -> dict:
    if workload == "oncogenic-steer":
        return steer_inputs(seed)
    if workload == "decide-synthetic":
        return decide_inputs(seed)
    if workload == "bn-replay":
        return bn_inputs(seed)
    if workload == "cli-batch":
        return cli_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def _balanced(rng: random.Random, items: list, count: int) -> list:
    """`count` draws that use every item equally often (up to one)."""
    out: list = []
    while len(out) < count:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


# ---------------------------------------------------------------- steer


# The goal each named state (plus GF) already satisfies: a query for it
# would return the empty witness without searching, so it is not asked.
OWN_GOAL = {
    **{name: "upro" for name in (
        "S8", "S9", "S10", "S11", "S12", "S13", "S19", "X0", "Y0", "X1", "Y1",
        "X2", "Y2", "X3", "Y3", "X4", "X5",
    )},
    **{name: "pro" for name in (
        "S2", "S3", "S5", "S14", "S15", "S16", "S17", "S18", "Y4", "Y5", "X6", "X7",
    )},
    **{name: "quiet" for name in ("S1", "S4", "S6", "S7", "Y6", "Y7")},
}
STEER_SOURCES_PER_PAIR = 3


def steer_inputs(seed: int) -> dict:
    """Witness queries on the bundled model, orbits and one context graph.

    Seeded part: every pair of blocking species gives I = {GF, b1, b2}
    (|I| = 3) and gets STEER_SOURCES_PER_PAIR sources, drawn so that every
    named state is used equally often; each source is asked the two goals
    it does not already satisfy. Fixed part: from S19, the paper's blockers
    {GF, iPI3K, icycE} plus one more (|I| = 4), orbits of every named state
    under the reference contexts, and the |I| = 3 context graph from S19.
    """
    rng = _rng("oncogenic-steer", seed)
    pairs = list(itertools.combinations(BLOCKERS, 2))
    sources = _balanced(rng, list(NAMED_STATES), len(pairs) * STEER_SOURCES_PER_PAIR)
    queries = []
    for k, source in enumerate(sources):
        pair = pairs[k // STEER_SOURCES_PER_PAIR]
        for goal in GOALS:
            if goal != OWN_GOAL[source]:
                queries.append({"source": source, "goal": goal, "I": ["GF", *pair]})
    for b in BLOCKERS:
        if b in ("iPI3K", "icycE"):
            continue
        for goal in GOALS:
            if goal != OWN_GOAL["S19"]:
                queries.append(
                    {"source": "S19", "goal": goal, "I": ["GF", "iPI3K", "icycE", b]}
                )
    rng.shuffle(queries)
    orbits = [
        {"start": name, "context": list(ctx)}
        for name in NAMED_STATES
        for ctx in REFERENCE_CONTEXTS
    ]
    graph = {"seed": "S19", "I": ["GF", "iPI3K", "icycE"]}
    return {"queries": queries, "orbits": orbits, "graph": graph}


# ---------------------------------------------------------------- decide

# The decide systems are a fixed, unfiltered draw from the random-system
# generator below, so the verdict mix is the generator's own. A run seed
# renames every species and shuffles the reactions (and the query order);
# it keeps the species order, so verdicts, counterexamples, pairs_checked
# and with them the cost of every query are the same for every seed. A
# fresh draw per seed, or a relabelling that moves species in the
# canonical order, changed the cost of a pass by up to 60 %: the rare
# true verdicts and late counterexamples dominate it, and a run holds too
# few of them to average out.
DECIDE_CATALOGUE_SEED = "decide-catalogue/2020"
DECIDE_KINDS = ("decide", "target", "minimal-n", "minimal-I", "sampled")
DECIDE_SIZES = (8, 9, 10)
DECIDE_SYSTEMS = 100


def random_reactions(n: int, m: int, rng: random.Random) -> list:
    """`m` reactions over species 0..n-1: up to 2 reactants, up to 2
    inhibitors and 1 to 3 products, all distinct."""
    out = []
    for _ in range(m):
        universe = list(range(n))
        rng.shuffle(universe)
        r = universe[: rng.randint(0, 2)]
        i = universe[2:4][: rng.randint(0, 2)]
        p = universe[4 : 4 + rng.randint(1, 3)]
        out.append((sorted(r), sorted(i), sorted(p)))
    return out


def decide_catalogue() -> list:
    rng = random.Random(DECIDE_CATALOGUE_SEED)
    items = []
    for k in range(DECIDE_SYSTEMS):
        kind = DECIDE_KINDS[k % len(DECIDE_KINDS)]
        n = DECIDE_SIZES[(k // len(DECIDE_KINDS)) % len(DECIDE_SIZES)]
        if kind == "minimal-n":
            # One |S| = 10 scan up to a true probe takes 6-9 s on the pure
            # kernel, longer than a whole pass should.
            n = min(n, 9)
        item = {"n": n, "kind": kind, "reactions": random_reactions(n, 2 * n, rng)}
        if kind == "decide":
            item["constraint"] = {"kind": "max-cardinality", "n": 2}
        elif kind == "target":
            item["targets"] = sorted(rng.sample(range(n), rng.randint(4, 6)))
            item["constraint"] = {"kind": "max-cardinality", "n": 1}
        elif kind == "minimal-I":
            item["start"] = sorted(rng.sample(range(n), n - 2))
        elif kind == "sampled":
            item["constraint"] = {"kind": "max-cardinality", "n": 2}
            item["pairs"] = 200
            item["seed"] = k
        items.append(item)
    return items


def model_text(name: str, species: list, reactions: list) -> str:
    """Model file text; `reactions` hold species names."""
    lines = [f"@name {name}", "@species " + ", ".join(species), ""]
    for k, (r, i, p) in enumerate(reactions, start=1):
        lines.append(
            f"r{k}: {{{', '.join(r)}}} | {{{', '.join(i)}}} -> {{{', '.join(p)}}}"
        )
    return "\n".join(lines) + "\n"


def decide_inputs(seed: int) -> dict:
    rng = _rng("decide-synthetic", seed)
    queries = []
    for k, item in enumerate(decide_catalogue()):
        n = item["n"]
        species = [f"s{tag}" for tag in rng.sample(range(100, 1000), n)]
        reactions = [
            tuple([species[x] for x in part] for part in rx) for rx in item["reactions"]
        ]
        rng.shuffle(reactions)
        q = {
            "name": f"sys{k}",
            "kind": item["kind"],
            "model": model_text(f"sys{k}", species, reactions),
        }
        for key in ("targets", "start"):
            if key in item:
                q[key] = [species[x] for x in item[key]]
        for key in ("constraint", "pairs", "seed"):
            if key in item:
                q[key] = item[key]
        queries.append(q)
    rng.shuffle(queries)
    return {"queries": queries}


# ---------------------------------------------------------------- networks


def _letters(rng: random.Random, used: set, prefix: str) -> str:
    # Digit-free names that do not start with "i": their "r"+name labels
    # and "i"+name blocking species cannot collide with anything.
    while True:
        name = prefix + "".join(rng.choice("abcdefghjkmnpqrstuwxyz") for _ in range(3))
        if name not in used:
            used.add(name)
            return name


def network_text(rng: random.Random, n_vars: int, colliding: bool, name: str) -> dict:
    used: set = set()
    if colliding:
        variables = [f"x{k}" for k in range(1, n_vars + 1)]
    else:
        variables = [_letters(rng, used, "v") for _ in range(n_vars)]
    inputs = [_letters(rng, used, "u") for _ in range(3)]
    updates = {}
    for v in variables:
        terms = []
        for _ in range(rng.randint(1, 3)):
            lits = rng.sample(variables + inputs, rng.randint(1, 3))
            terms.append(
                [("!" if rng.random() < 0.4 else "") + lit for lit in lits]
            )
        updates[v] = terms
    if colliding:
        # x1 with two conjunctions labels its reactions rx11, rx12; x11
        # with one conjunction is labelled rx11 as well.
        first = updates["x1"][0]
        second = ["!" + variables[1]]
        updates["x1"] = [first, second if first != second else [variables[1]]]
        updates["x11"] = updates["x11"][:1]
    lines = [f"@name {name}", "@inputs " + ", ".join(inputs)]
    for v in variables:
        lines.append(f"{v} = " + " | ".join(" & ".join(t) for t in updates[v]))
    return {
        "name": name,
        "text": "\n".join(lines) + "\n",
        "variables": variables,
        "inputs": inputs,
        "updates": updates,
        "colliding": colliding,
    }


BN_NETWORKS = 48
BN_REPLAY_STEPS = 1500
BN_ORBITS = 5
BN_IMAGE_QUERIES = 4
# Exact image_membership is a backtracking search: on networks of 50 or
# more variables some targets take seconds (up to 2.7 s seen), which no
# 10-second run can average out. Exact queries go to the smaller networks,
# superset queries to all.
BN_EXACT_IMAGE_MAX_VARS = 40


def bn_inputs(seed: int) -> dict:
    """Networks of 35-60 variables; every COLLISION_EVERY-th one collides.

    Per importable network: one context sequence of BN_REPLAY_STEPS steps
    (random input subsets, now and then a blocking species), orbits from
    random states under a random input context, and image queries on
    targets made by one synchronous update of a random state.
    """
    rng = _rng("bn-replay", seed)
    networks = []
    for k in range(BN_NETWORKS):
        colliding = k % COLLISION_EVERY == COLLISION_EVERY - 1
        n_vars = 35 + (k * 25) // (BN_NETWORKS - 1)
        net = network_text(rng, n_vars, colliding, f"net{k}")
        variables, inputs = net["variables"], net["inputs"]
        blockers = ["i" + v for v in variables]
        contexts = []
        for _ in range(BN_REPLAY_STEPS):
            c = [x for x in inputs if rng.random() < 0.5]
            if rng.random() < 0.1:
                c.append(rng.choice(blockers))
            contexts.append(c)
        net["replay"] = {
            "initial": sorted(rng.sample(variables, n_vars // 3)),
            "contexts": contexts,
        }
        net["orbits"] = [
            {
                "start": sorted(rng.sample(variables, n_vars // 3)),
                "context": sorted(rng.sample(inputs, rng.randint(0, 3))),
            }
            for _ in range(BN_ORBITS)
        ]
        exact = n_vars <= BN_EXACT_IMAGE_MAX_VARS
        net["images"] = [
            {
                "state": sorted(rng.sample(variables + inputs, n_vars // 2)),
                "mode": "exact" if exact and j % 2 == 0 else "superset",
            }
            for j in range(BN_IMAGE_QUERIES)
        ]
        networks.append(net)
    order = list(range(BN_NETWORKS))
    rng.shuffle(order)
    return {"networks": [networks[k] for k in order]}


# ---------------------------------------------------------------- cli


CLI_SMALL_MODELS = 10
CLI_NETWORKS = 10
CLI_ORBITS = 12
CLI_REACH = 12


def cli_inputs(seed: int) -> dict:
    """A fixed mix of subcommands whose arguments the seed draws.

    One pass runs each entry once, in a seeded order: validate and
    corpus, simulate of the three reference traces in the three formats,
    orbits and reach queries on the bundled model, decisions on small
    random models, import-bn of generated networks (one of them
    colliding), and one graph --dot of the README example (1824 nodes).
    """
    rng = _rng("cli-batch", seed)
    models = []
    for k in range(CLI_SMALL_MODELS):
        n = 5 + k % 2
        species = [f"m{k}{c}" for c in "abcdef"[:n]]
        reactions = [
            tuple([species[x] for x in part] for part in rx)
            for rx in random_reactions(n, 2 * n, rng)
        ]
        models.append(
            {"file": f"small{k}.rs.txt", "text": model_text(f"small{k}", species, reactions)}
        )
    networks = []
    for k in range(CLI_NETWORKS):
        colliding = k == CLI_NETWORKS - 1
        n_vars = 12 if colliding else rng.randint(8, 16)
        net = network_text(rng, n_vars, colliding, f"cbn{k}")
        net["file"] = f"net{k}.bn.txt"
        networks.append(net)
    calls = []
    calls.append({"cmd": "validate", "model": "oncogenic"})
    for m in models[:2]:
        calls.append({"cmd": "validate", "model": m["file"]})
    calls.append({"cmd": "corpus"})
    # The reference traces: table3 from S1, table4 and table5 from S19.
    for initial, ctx in (("S1", "{GF} x19"), ("S19", "{GF, iPI3K} x8"), ("S19", "{GF, iPI3K, icycE} x8")):
        for fmt in ("table", "csv", "json"):
            calls.append({"cmd": "simulate", "contexts": ctx, "initial": initial, "format": fmt})
    for _ in range(CLI_ORBITS):
        calls.append({
            "cmd": "orbit",
            "start": rng.choice(NAMED_STATES),
            "context": list(rng.choice(REFERENCE_CONTEXTS)),
        })
    for k in range(CLI_REACH):
        pair = rng.sample(BLOCKERS, 2)
        source = rng.choice(NAMED_STATES)
        goal = [g for g in GOALS if g != OWN_GOAL[source]][k % 2]
        calls.append({
            "cmd": "reach",
            "file": f"query{k}.json",
            "query": {"source": source, "goal": goal, "I": ["GF", *pair]},
        })
    for k, m in enumerate(models):
        args = ["--constraint", "max-cardinality=1"] if k % 2 == 0 else ["--minimal-n"]
        calls.append({"cmd": "decide", "model": m["file"], "args": args})
    for k, net in enumerate(networks):
        calls.append({"cmd": "import-bn", "network": net["file"], "output": f"net{k}.out.rs.txt"})
    # Fixed, so that the one long call of a pass costs the same every seed.
    calls.append({"cmd": "graph", "I": ["GF", "iPI3K"], "seed": "S19", "dot": "graph.dot"})
    rng.shuffle(calls)
    return {"models": models, "networks": networks, "calls": calls}
