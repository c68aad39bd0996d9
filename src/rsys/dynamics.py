"""Dynamics under a fixed context: orbits, context graphs, image queries,
and nonce extensions.

Nothing here runs a kernel search: `orbit` and the image queries evaluate
`core.res_mask` over the system's mask tuples, and `context_graph` expands
results with `core.res_split`. The functions here accept and return
species sets, never raw masks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Union

from .core import (
    INPUT_SET_LIMIT,
    MAX_STEPS_DEFAULT,
    NODE_BUDGET_DEFAULT,
    Reaction,
    ReactionSystem,
    SpeciesSet,
    SpeciesTable,
    _check_table,
    res_mask,
    res_split,
    submasks_ascending,
)
from .errors import BudgetError, RefusalError, RsysError

FULL_EXTENSION_LIMIT = 10


@dataclass(frozen=True)
class Orbit:
    """Eventual behaviour under a constant context: transient, then cycle.

    `transient + cycle` lists the visited full states in order starting
    from the initial state; the successor of `cycle[-1]` is `cycle[0]`.
    """

    transient: tuple[SpeciesSet, ...]
    cycle: tuple[SpeciesSet, ...]
    context: SpeciesSet

    @property
    def period(self) -> int:
        return len(self.cycle)

    def __repr__(self) -> str:
        return (
            f"Orbit(transient={len(self.transient)}, period={self.period}, "
            f"context={self.context!r})"
        )


def orbit(
    system: ReactionSystem,
    start: SpeciesSet,
    context: SpeciesSet,
    max_steps: int = MAX_STEPS_DEFAULT,
) -> Orbit:
    """Iterate W ↦ context ∪ res(W) from `start` until a state repeats.

    Raises BudgetError when no state recurs within `max_steps` iterations
    (cannot happen when max_steps ≥ 2^|S|, but the default keeps runtime
    bounded on large species tables).
    """
    if max_steps < 0:
        raise RsysError(f"max steps must be at least 0, got {max_steps}")
    _check_table(start, system, "start state")
    _check_table(context, system, "context")
    rmasks, imasks, pmasks = system.rmasks, system.imasks, system.pmasks
    table = system.species
    ctx = context.mask
    seen: dict[int, int] = {}
    seq: list[int] = []
    w = start.mask
    for _ in range(max_steps + 1):
        if w in seen:
            split = seen[w]
            states = [table.from_mask(m) for m in seq]
            return Orbit(tuple(states[:split]), tuple(states[split:]), context)
        seen[w] = len(seq)
        seq.append(w)
        w = ctx | res_mask(w, rmasks, imasks, pmasks)
    raise BudgetError(
        f"no recurrence within {max_steps} steps", visited=len(seq)
    )


def attractor_report(orbit: Orbit, markers: Sequence[str]) -> dict[str, int]:
    """Count, per marker species, the cycle states containing it.

    Transient states are ignored; the counts describe only the attractor.
    """
    table = orbit.context.table
    counts: dict[str, int] = {}
    for name in markers:
        bit = 1 << table.index(name)
        counts[name] = sum(1 for w in orbit.cycle if w.mask & bit)
    return counts


@dataclass(frozen=True)
class ContextGraph:
    """Reachable full states under all contexts drawn from an input set.

    Nodes are full states in discovery order (seeds first); each edge
    carries the smallest context producing that transition, namely the
    target state minus the source's result.
    """

    input_set: SpeciesSet
    seeds: tuple[SpeciesSet, ...]
    nodes: tuple[SpeciesSet, ...]
    edges: tuple[tuple[int, SpeciesSet, int], ...]
    truncated: bool

    def to_dot(self) -> str:
        lines = ["digraph context_graph {"]
        if self.truncated:
            lines.append("  truncated=true;")
        for k, node in enumerate(self.nodes):
            lines.append(f'  n{k} [label="{node!r}"];')
        for src, ctx, dst in self.edges:
            lines.append(f'  n{src} -> n{dst} [label="{ctx!r}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def context_graph(
    system: ReactionSystem,
    input_set: SpeciesSet,
    seeds: Iterable[SpeciesSet],
    node_budget: int = NODE_BUDGET_DEFAULT,
    input_limit: int = INPUT_SET_LIMIT,
) -> ContextGraph:
    """Breadth-first closure of step(W, C) = C ∪ res(W) over C ⊆ input_set.

    Refuses input sets larger than `input_limit` (every node can branch
    2^|input_set| ways; raise the limit explicitly to go bigger). When the
    node budget stops discovery the graph comes back `truncated` with all
    edges between the admitted nodes intact.

    Each distinct result d is expanded once, with one `res_split` that
    gives the results of all its new successors; later nodes with result d
    copy its out-edges. Edges with equal labels share one SpeciesSet.
    """
    if node_budget < 0:
        raise RsysError(f"node budget must be at least 0, got {node_budget}")
    if input_limit < 0:
        raise RsysError(f"input limit must be at least 0, got {input_limit}")
    _check_table(input_set, system, "input set")
    seed_sets = tuple(seeds)
    if not seed_sets:
        raise RsysError("at least one seed state is required")
    for s in seed_sets:
        _check_table(s, system, "seed state")
    if len(input_set) > input_limit:
        raise RefusalError(
            f"input set has {len(input_set)} species; each node branches "
            f"2^{len(input_set)} ways (limit {input_limit}; pass a larger "
            "input_limit to proceed anyway)"
        )
    rmasks, imasks, pmasks = system.rmasks, system.imasks, system.pmasks
    table = system.species
    imask = input_set.mask
    index: dict[int, int] = {}
    order: list[int] = []
    results: list[int] = []
    truncated = False
    for s in seed_sets:
        if s.mask not in index:
            if len(order) >= node_budget:
                truncated = True
                break
            index[s.mask] = len(order)
            order.append(s.mask)
            results.append(res_mask(s.mask, rmasks, imasks, pmasks))
    # Sources are expanded in index order and submasks_ascending yields each
    # source's contexts by (size, encoding), so the edges come out sorted.
    # A node's out-edges depend only on its result d. Once a later node
    # repeats a d, every successor of d is indexed or the budget is full,
    # so copying the first node's out-edges gives the same edges.
    out_edges: dict[int, list[tuple[SpeciesSet, int]]] = {}
    labels: dict[int, SpeciesSet] = {}
    edges: list[tuple[int, SpeciesSet, int]] = []
    for head, d in enumerate(results):  # results grows as nodes are found
        outs = out_edges.get(d)
        if outs is None:
            outs = out_edges[d] = []
            base, rest = res_split(d, imask, rmasks, imasks, pmasks)
            for extra in submasks_ascending(imask & ~d):
                succ = d | extra
                dst = index.get(succ)
                if dst is None:
                    if len(order) >= node_budget:
                        truncated = True
                        continue
                    dst = index[succ] = len(order)
                    order.append(succ)
                    d2 = base
                    for r, i, p in rest:
                        if extra & r == r and not extra & i:
                            d2 |= p
                    results.append(d2)
                label = labels.get(extra)
                if label is None:
                    label = labels[extra] = table.from_mask(extra)
                outs.append((label, dst))
        edges.extend([(head, label, dst) for label, dst in outs])
    return ContextGraph(
        input_set=input_set,
        seeds=seed_sets,
        nodes=tuple(table.from_mask(m) for m in order),
        edges=tuple(edges),
        truncated=truncated,
    )


@dataclass(frozen=True)
class PreimageCertificate:
    """Witness that `target` is in the image: res(preimage) relates to it.

    `fired` is the exact set of reactions enabled in the preimage.
    """

    target: SpeciesSet
    preimage: SpeciesSet
    fired: tuple[Reaction, ...]


def _cover_search(
    system: ReactionSystem,
    v_mask: int,
    good: Sequence[int],
    bad: Sequence[int],
) -> Optional[int]:
    """Pick an enabled reaction from `good` per target species, then
    neutralise every reaction in `bad`.

    Assignments pin species IN (part of the preimage) or OUT; species left
    free end up OUT, so the search only has to add inhibitor species for
    reactions whose reactants are already fully pinned IN. Returns the IN
    mask of the first solution in canonical order, or None.

    Once the search has backtracked, a node is abandoned when `hopeless`
    shows that no completion of its pins succeeds; this skips only
    subtrees without a solution, so the answer is the one the plain search
    finds. Pins only grow down a branch, so a reaction that covers a
    species later is one of its candidates that can fire now: a species
    with one such candidate left forces that candidate's pins, and one with
    none ends the branch.
    """
    rm, im, pm = system.rmasks, system.imasks, system.pmasks
    vbits = []
    candidates_for: dict[int, list[int]] = {}
    m = v_mask
    while m:
        low = m & -m
        m ^= low
        vbits.append(low)
        candidates_for[low] = [k for k in good if pm[k] & low]
        if not candidates_for[low]:
            return None

    def fire(k: int, inm: int, outm: int) -> Optional[tuple[int, int]]:
        if rm[k] & outm or im[k] & inm:
            return None
        return inm | rm[k], outm | im[k]

    def solve_bad(inm: int, outm: int) -> Optional[int]:
        for k in bad:
            if rm[k] & outm or im[k] & inm:
                continue
            if rm[k] & ~inm:
                continue
            choices = im[k] & ~outm
            while choices:
                y = choices & -choices
                choices ^= y
                got = solve_bad(inm | y, outm)
                if got is not None:
                    return got
            return None
        return inm

    # The check costs a pass over the open target species per node, so it
    # starts at the first dead end: a search that never backtracks skips it.
    dead_ends = 0

    def hopeless(pos: int, covered: int, inm: int, outm: int) -> bool:
        pending = vbits[pos:]
        forced = True
        while forced:
            forced = False
            rest = []
            for b in pending:
                if covered & b:
                    continue
                live = -1
                for k in candidates_for[b]:
                    if not (rm[k] & outm or im[k] & inm):
                        if live >= 0:
                            rest.append(b)
                            break
                        live = k
                else:
                    if live < 0:
                        return True
                    inm |= rm[live]
                    outm |= im[live]
                    covered |= pm[live]
                    forced = True
            pending = rest
        return False

    def cover(pos: int, covered: int, inm: int, outm: int) -> Optional[int]:
        nonlocal dead_ends
        while pos < len(vbits) and covered & vbits[pos]:
            pos += 1
        if pos == len(vbits):
            return solve_bad(inm, outm)
        if dead_ends and hopeless(pos, covered, inm, outm):
            return None
        for k in candidates_for[vbits[pos]]:
            fired = fire(k, inm, outm)
            if fired is None:
                continue
            got = cover(pos + 1, covered | pm[k], *fired)
            if got is not None:
                return got
        dead_ends += 1
        return None

    return cover(0, 0, 0, 0)


def _preimage_search(
    system: ReactionSystem, target: SpeciesSet, exact: bool
) -> Optional[PreimageCertificate]:
    """Find U with res(U) equal to `target` (`exact`) or a superset of it.

    Every target species needs a covering reaction; an exact image also
    confines the cover to reactions producing inside the target and
    disables every reaction that would produce outside it.
    """
    _check_table(target, system, "target")
    rm, im, pm = system.rmasks, system.imasks, system.pmasks
    v = target.mask
    reactions = range(len(pm))
    bad = [k for k in reactions if pm[k] & ~v] if exact else []
    good = [k for k in reactions if not pm[k] & ~v] if exact else reactions
    inm = _cover_search(system, v, good, bad)
    if inm is None:
        return None
    res = res_mask(inm, rm, im, pm)
    if (res if exact else res & v) != v:
        raise AssertionError("image search produced an invalid preimage")
    fired = tuple(
        r
        for k, r in enumerate(system.reactions)
        if not (rm[k] & ~inm) and not (im[k] & inm)
    )
    return PreimageCertificate(
        target=target, preimage=system.species.from_mask(inm), fired=fired
    )


def image_membership(
    system: ReactionSystem, target: SpeciesSet
) -> Optional[PreimageCertificate]:
    """Find U with res(U) exactly equal to `target`, or None."""
    return _preimage_search(system, target, exact=True)


def superset_image_membership(
    system: ReactionSystem, target: SpeciesSet
) -> Optional[PreimageCertificate]:
    """Find U with res(U) ⊇ `target`, or None."""
    return _preimage_search(system, target, exact=False)


def nonce_extension(
    system: ReactionSystem,
    extra: Sequence[str],
    mode: str = "full",
    k: Optional[int] = None,
    seed: int = 0,
) -> ReactionSystem:
    """Extend the species table by `extra` names and widen every reaction.

    Each reaction (R, I, P) is replaced by the variants (R ∪ R', I ∪ I', P)
    over disjoint R', I' ⊆ extra; products never mention the new species,
    so for any state Z over the extended table the extended result equals
    the base result of Z restricted to the base species (the variant with
    R' = I' = ∅ is always kept, and any variant it enables under the
    restriction is enabled on some extension of the same state).

    mode="full" keeps all 3^|extra| variants per reaction and refuses more
    than FULL_EXTENSION_LIMIT extra species; mode="sample" keeps the plain
    variant plus k−1 distinct random ones drawn with the given seed.
    """
    extra = list(extra)
    if not extra:
        return system
    base = system.species
    table = SpeciesTable(list(base.names) + extra)
    e = len(extra)
    total = 3**e
    if mode == "full":
        if e > FULL_EXTENSION_LIMIT:
            raise RefusalError(
                f"full extension over {e} extra species adds 3^{e} variants "
                f"per reaction (limit {FULL_EXTENSION_LIMIT}; use "
                "mode='sample' with a draw count k)"
            )
        combos = range(total)
    elif mode == "sample":
        if k is None or k < 1:
            raise RsysError("mode='sample' needs a draw count k >= 1")
        k = min(k, total)
        rng = random.Random(seed)
        picked = {0}
        while len(picked) < k:
            picked.add(rng.randrange(total))
        combos = sorted(picked)
    else:
        raise RsysError(f"unknown extension mode {mode!r} (full or sample)")

    extra_bits = [1 << table.index(name) for name in extra]
    reactions: list[Reaction] = []
    for r in system.reactions:
        rmask, imask, pmask = r.rmask, r.imask, r.pmask
        for combo in combos:
            add_r = 0
            add_i = 0
            c = combo
            for bit in extra_bits:
                c, digit = divmod(c, 3)
                if digit == 1:
                    add_r |= bit
                elif digit == 2:
                    add_i |= bit
            if combo == 0:
                label = r.label
            elif r.label is None:
                label = None
            else:
                label = f"{r.label}__x{combo}"
            reactions.append(
                Reaction.unchecked(
                    SpeciesSet(table, rmask | add_r),
                    SpeciesSet(table, imask | add_i),
                    SpeciesSet(table, pmask),
                    label,
                )
            )
    return ReactionSystem(table, reactions)
