"""Kernel micro-benchmarks, taken for every importable backend.

They locate a saving rather than show one end to end: the `res` sweep,
the random witness searches and the oncogenic closure are the three
measurements of benchmarks/bench_kernels.py; `res_us`, `build_us` and the
README "quiet" reach query reproduce the ROADMAP baseline table. Each
time is the best of a few repeats.
"""

from __future__ import annotations

import os
import random
from time import perf_counter

from gen import random_reactions

REPEAT = 3
RES_CALLS = 20000
BUILDS = 2000
QUIET_VISITED = 1978
QUIET_STEPS = 6


def _best(fn, repeat: int = REPEAT) -> float:
    best = float("inf")
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _system(n: int, m: int, rng: random.Random):
    from rsys.core import Reaction, ReactionSystem, SpeciesTable

    table = SpeciesTable(f"s{k}" for k in range(n))

    def part(idx):
        return table.set_of(f"s{k}" for k in idx)

    return ReactionSystem(
        table, [Reaction(part(r), part(i), part(p)) for r, i, p in random_reactions(n, m, rng)]
    )


def backends() -> list:
    from rsys._engine import compiled_available

    return ["pure"] + (["compiled"] if compiled_available() else [])


def run(backend: str) -> tuple:
    """Micro metrics for one backend, and problems found on the way."""
    from rsys._engine import Engine, submasks_ascending
    from rsys.control import AllowedSet, ControlQuery, MaxCardinality, find_witness
    from rsys.models import load_builtin

    problems = []
    corpus = load_builtin()
    system = corpus.model.system
    table = system.species
    eng = Engine(system, backend=backend)
    kernel = eng.kernel
    rng = random.Random(7)
    states = [rng.getrandbits(len(table)) for _ in range(RES_CALLS)]
    rm, im, pm = eng.rmasks, eng.imasks, eng.pmasks

    def res_calls():
        for s in states:
            kernel.res_mask(s, rm, im, pm)

    res_us = _best(res_calls) / RES_CALLS * 1e6

    def builds():
        for _ in range(BUILDS):
            Engine(system, backend=backend)

    build_us = _best(builds) / BUILDS * 1e6

    sweep_eng = Engine(_system(16, 40, random.Random(7)), backend=backend)

    def sweep():
        sweep_eng._res_cache.clear()
        acc = 0
        for mask in range(1 << 16):
            acc ^= sweep_eng.res(mask)

    sweep_ms = _best(sweep) * 1e3

    wrng = random.Random(11)
    systems = [_system(12, 24, wrng) for _ in range(20)]

    def witnesses():
        for s in systems:
            t = s.species
            find_witness(
                s, ControlQuery(t.empty_set, t.full_set & s.producible, MaxCardinality(2))
            )

    start = corpus.named_states["S19"] | table.set_of(["GF"])
    blockers = table.set_of(["GF", "iPI3K", "icycE"])
    contexts = submasks_ascending(blockers.mask)

    def closure():
        eng.bfs_closure([start.mask], contexts, 1 << 62)

    quiet = ControlQuery(
        start, table.empty_set, AllowedSet(blockers), targets=table.set_of(["Pro", "uPro"])
    )
    found = []

    def reach():
        found.append(find_witness(system, quiet))

    old = os.environ.get("RSYS_KERNEL")
    os.environ["RSYS_KERNEL"] = backend
    try:
        witness_ms = _best(witnesses) * 1e3
        closure_ms = _best(closure) * 1e3
        reach_ms = _best(reach, 5) * 1e3
    finally:
        if old is None:
            os.environ.pop("RSYS_KERNEL", None)
        else:
            os.environ["RSYS_KERNEL"] = old
    w = found[-1]
    if w is None or w.hit_index != QUIET_STEPS or w.visited != QUIET_VISITED:
        problems.append(
            f"micro/{backend}: quiet reach query gave "
            f"{None if w is None else (w.hit_index, w.visited)}, "
            f"expected ({QUIET_STEPS}, {QUIET_VISITED})"
        )
    metrics = {
        "kernel.res_us": res_us,
        "engine.build_us": build_us,
        "kernel.res_sweep_ms": sweep_ms,
        "kernel.witness_random_ms": witness_ms,
        "kernel.closure_oncogenic_ms": closure_ms,
        "control.quiet_reach_ms": reach_ms,
    }
    return metrics, problems
