"""Independent reference implementations used to cross-check the package.

Everything here works on plain frozensets of species names and never imports
package internals beyond the public constructors. Deliberately naive: clarity
over speed, so disagreements point at the package, not the oracle.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from typing import Optional

Triple = tuple[frozenset, frozenset, frozenset]


def res_oracle(reactions: list[Triple], state: frozenset) -> frozenset:
    """Union of products over reactions enabled in `state`."""
    out: set = set()
    for reactants, inhibitors, products in reactions:
        if reactants <= state and not (inhibitors & state):
            out |= products
    return frozenset(out)


def run_oracle(
    reactions: list[Triple],
    contexts: list[frozenset],
    initial_result: frozenset | None = None,
) -> list[frozenset]:
    """Result sets D_0..D_n of the interactive process over `contexts`.

    D_0 is empty (or the supplied initial result); each later result feeds
    on the previous context and result, so the final context only pads the
    final state and the result count equals the context count.
    """
    results = [frozenset() if initial_result is None else frozenset(initial_result)]
    for ctx in contexts[:-1]:
        results.append(res_oracle(reactions, ctx | results[-1]))
    return results


def image_oracle(reactions: list[Triple], species: frozenset) -> set[frozenset]:
    """All result sets over every subset of `species` (exponential scan)."""
    names = sorted(species)
    out: set[frozenset] = set()
    for bits in itertools.product((False, True), repeat=len(names)):
        state = frozenset(n for n, b in zip(names, bits) if b)
        out.add(res_oracle(reactions, state))
    return out


def shortest_witness_len(
    reactions: list[Triple],
    contexts: list[frozenset],
    start: frozenset,
    goal: frozenset,
    target: frozenset | None = None,
    depth_limit: int = 64,
) -> int | None:
    """Length of the shortest steering sequence from `start` to `goal`.

    Layered breadth-first search over full states W; a state hits the goal
    when W == goal (or W & target == goal in target mode). Depth 0 is the
    start itself. Returns None when unreachable within `depth_limit`.
    """

    def hits(w: frozenset) -> bool:
        return (w & target == goal) if target is not None else (w == goal)

    if hits(start):
        return 0
    seen = {start}
    frontier = [start]
    for depth in range(1, depth_limit + 1):
        nxt = []
        for w in frontier:
            d = res_oracle(reactions, w)
            for ctx in contexts:
                w2 = ctx | d
                if w2 in seen:
                    continue
                if hits(w2):
                    return depth
                seen.add(w2)
                nxt.append(w2)
        if not nxt:
            return None
        frontier = nxt
    return None


def reachable_states(
    reactions: list[Triple],
    contexts: list[frozenset],
    start: frozenset,
) -> set[frozenset]:
    """All full states reachable from `start` (start included)."""
    return reachable_from(reactions, contexts, [start])


def reachable_from(
    reactions: list[Triple],
    contexts: list[frozenset],
    starts: list[frozenset],
) -> set[frozenset]:
    """All full states reachable from some state of `starts` (included):
    the union of `reachable_states` over the starts.

    States with equal results have the same successors, so a popped state
    whose result was already expanded adds nothing and is skipped.
    """
    seen = set(starts)
    queue = deque(seen)
    expanded = set()
    while queue:
        w = queue.popleft()
        d = res_oracle(reactions, w)
        if d in expanded:
            continue
        expanded.add(d)
        for ctx in contexts:
            w2 = ctx | d
            if w2 not in seen:
                seen.add(w2)
                queue.append(w2)
    return seen


def result_closure(
    reactions: list[Triple],
    contexts: list[frozenset],
    results: set[frozenset],
) -> set[frozenset]:
    """Result values reachable from `results` (included), where a result d
    leads to res(c ∪ d) for every context c."""
    seen = set(results)
    queue = deque(seen)
    while queue:
        d = queue.popleft()
        for ctx in contexts:
            d2 = res_oracle(reactions, ctx | d)
            if d2 not in seen:
                seen.add(d2)
                queue.append(d2)
    return seen


def _res_mask(state: int, rmasks, imasks, pmasks) -> int:
    """res over bit masks: union of products of the reactions enabled."""
    out = 0
    for r, i, p in zip(rmasks, imasks, pmasks):
        if state & r == r and state & i == 0:
            out |= p
    return out


def bfs_witness_oracle(
    starts, contexts, rmasks, imasks, pmasks,
    goal_mask, t_mask, depth_limit, node_budget,
):
    """The search kernel's witness BFS over full states, one `res`
    evaluation per expanded state, nothing shared between states with the
    same result. Same arguments and return value as `_kernel_py.bfs_witness`
    (statuses 0-3 are found, exhausted, depth-limited, budget stop)."""
    res_mask = _res_mask
    # parent[w] = (previous state, context index); starts use index -1-k
    parent: dict[int, tuple[int, int]] = {}
    queue: deque[tuple[int, int]] = deque()
    truncated = False

    for k, w in enumerate(starts):
        if w in parent:
            continue
        if len(parent) >= node_budget:
            return (3, 0, [], -1, len(parent))
        parent[w] = (w, -1 - k)
        if w & t_mask == goal_mask:
            return (0, w, [], k, len(parent))
        if depth_limit == 0:
            truncated = True
        else:
            queue.append((w, 0))

    while queue:
        w, depth = queue.popleft()
        d = res_mask(w, rmasks, imasks, pmasks)
        child_depth = depth + 1
        for ci, c in enumerate(contexts):
            w2 = c | d
            if w2 in parent:
                continue
            if len(parent) >= node_budget:
                return (3, 0, [], -1, len(parent))
            parent[w2] = (w, ci)
            if w2 & t_mask == goal_mask:
                path = [ci]
                cur = w
                while True:
                    prev, pci = parent[cur]
                    if pci < 0:
                        return (0, w2, path[::-1], -1 - pci, len(parent))
                    path.append(pci)
                    cur = prev
            if child_depth == depth_limit:
                truncated = True
            else:
                queue.append((w2, child_depth))

    return (2 if truncated else 1, 0, [], -1, len(parent))


def bfs_closure_oracle(starts, contexts, rmasks, imasks, pmasks, node_budget):
    """The search kernel's closure BFS over full states, one `res`
    evaluation per state. Same arguments and return value as
    `_kernel_py.bfs_closure`."""
    res_mask = _res_mask
    seen: set[int] = set()
    order: list[int] = []
    successor_seen: set[int] = set()
    queue: deque[int] = deque()
    for w in starts:
        if w in seen:
            continue
        if len(seen) >= node_budget:
            return (order, successor_seen, True)
        seen.add(w)
        order.append(w)
        queue.append(w)
    while queue:
        w = queue.popleft()
        d = res_mask(w, rmasks, imasks, pmasks)
        for c in contexts:
            w2 = c | d
            successor_seen.add(w2)
            if w2 in seen:
                continue
            if len(seen) >= node_budget:
                return (order, successor_seen, True)
            seen.add(w2)
            order.append(w2)
            queue.append(w2)
    return (order, successor_seen, False)


def context_graph_oracle(rmasks, imasks, pmasks, imask, seed_masks, node_budget):
    """The context graph's BFS over masks, one `res` evaluation and one
    context enumeration per node. Returns (node masks in index order,
    (source, context mask, target) edges, truncated flag)."""
    index: dict[int, int] = {}
    order: list[int] = []
    truncated = False
    for s in seed_masks:
        if s not in index:
            if len(order) >= node_budget:
                truncated = True
                break
            index[s] = len(order)
            order.append(s)
    edges: list[tuple[int, int, int]] = []
    head = 0
    while head < len(order):
        d = _res_mask(order[head], rmasks, imasks, pmasks)
        free = imask & ~d
        extras = sorted(
            (m for m in range(free + 1) if m & ~free == 0),
            key=lambda m: (m.bit_count(), m),
        )
        for extra in extras:
            succ = d | extra
            if succ not in index:
                if len(order) >= node_budget:
                    truncated = True
                    continue
                index[succ] = len(order)
                order.append(succ)
            edges.append((head, extra, index[succ]))
        head += 1
    return order, edges, truncated


def controllable_oracle(
    reactions: list[Triple],
    species: frozenset,
    contexts: list[frozenset],
) -> tuple[bool, tuple[frozenset, frozenset] | None]:
    """Exhaustive controllability check over all (X, Y) with Y in the image."""
    names = sorted(species)
    image = image_oracle(reactions, species)
    subsets = [
        frozenset(n for n, b in zip(names, bits) if b)
        for bits in itertools.product((False, True), repeat=len(names))
    ]
    for x in subsets:
        reach = reachable_states(reactions, contexts, x)
        for y in subsets:
            if y == x or y not in image:
                continue
            if y not in reach:
                return False, (x, y)
    return True, None


def pair_scan_oracle(
    reactions: list[Triple],
    names: list[str],
    targets: frozenset,
    contexts: list[frozenset],
    proviso: str = "projection",
) -> tuple[bool, tuple[frozenset, frozenset] | None, int, int]:
    """Target-controllability by a canonical-order pair scan, one closure
    per source and nothing shared between sources.

    `names` lists the species in table order: bit k of a set's encoding
    stands for names[k], and sets ascend by (size, encoding). Sources X
    range over the subsets of `targets`; ends Y over the image's
    projections onto `targets` ("projection") or over every subset of one
    ("superset"). The closure of X is the union of `reachable_states` over
    its completions X ∪ Z, Z ⊆ S ∖ T, one search from all of them.
    Returns (decision, first counterexample or None, pairs checked,
    result values expanded). The last is what a decision's node budget
    counts: the `result_closure` of the start results of every source
    scanned through the decision point.
    """

    def encoding(s: frozenset) -> tuple[int, int]:
        return len(s), sum(1 << names.index(n) for n in s)

    def all_subsets(pool) -> list[frozenset]:
        pool = sorted(pool)
        return [
            frozenset(c)
            for k in range(len(pool) + 1)
            for c in itertools.combinations(pool, k)
        ]

    image = image_oracle(reactions, frozenset(names))
    ends = {v & targets for v in image}
    if proviso == "superset":
        ends = {sub for v in ends for sub in all_subsets(v)}
    ends = sorted(ends, key=encoding)
    completions = all_subsets(frozenset(names) - targets)
    checked = 0
    start_results: set[frozenset] = set()

    def expanded() -> int:
        return len(result_closure(reactions, contexts, start_results))

    for x in sorted(all_subsets(targets), key=encoding):
        starts = [x | z for z in completions]
        closure = reachable_from(reactions, contexts, starts)
        start_results.update(res_oracle(reactions, w) for w in starts)
        observed = {w & targets for w in closure}
        for y in ends:
            if y == x:
                continue
            checked += 1
            if y not in observed:
                return False, (x, y), checked, expanded()
    return True, None, checked, expanded()


def source_scan_oracle(
    reached, n_species: int, y_masks: list[int], rmasks, imasks, pmasks
) -> tuple[int, Optional[tuple[int, int]]]:
    """A full-mode (T = S) decision's pair scan, one source at a time.

    Sources are every subset of the n species in canonical order,
    ascending by (size, encoding); `y_masks` are the end sets in that
    order. `reached(d)` is the bitset of end sets reachable from the
    result d (a decision's `ResultGraph.reached`), called once per source
    on its `res`, so a budgeted graph stops where a per-source scan would.
    Each source is paired with every end set but itself. Returns (pairs
    checked through the first counterexample, that counterexample as
    (source, end set) masks, or None)."""
    sources = sorted(range(1 << n_species), key=lambda m: (m.bit_count(), m))
    checked = 0
    for x in sources:
        covered = reached(_res_mask(x, rmasks, imasks, pmasks))
        for j, y in enumerate(y_masks):
            if y == x:
                continue
            checked += 1
            if not covered >> j & 1:
                return checked, (x, y)
    return checked, None


def sampled_scan_oracle(
    rmasks, imasks, pmasks, n_species: int, t_mask: int, contexts,
    k: int, seed: int, proviso: str, node_budget,
) -> tuple[Optional[bool], Optional[tuple[int, int]], int, Optional[int]]:
    """A sampled decision's pair scan, one `bfs_witness_oracle` search per
    pair and nothing shared between pairs.

    Replays the decision's draw from `random.Random(seed)`: per sample an
    end set res(W) ∩ T for a random W (under "superset" also intersected
    with a random mask), then a source X ⊆ T redrawn until X ≠ Y, and
    skipped when T leaves no other choice. Each source's starts are X ∪ Z
    for every Z ⊆ S ∖ T, ascending by (size, encoding). `contexts` are
    the admitted context masks in canonical order, and a `node_budget` of
    None means unlimited. Returns (decision, first counterexample as
    (source, end set) masks or None, pairs checked, states visited by the
    search the budget stopped or None); a budget stop has decision None.
    """
    rng = random.Random(seed)
    outside = ((1 << n_species) - 1) & ~t_mask
    completions = sorted(
        (z for z in range(outside + 1) if z & ~outside == 0),
        key=lambda m: (m.bit_count(), m),
    )
    budget = float("inf") if node_budget is None else node_budget
    checked = 0
    for _ in range(k):
        y = _res_mask(rng.getrandbits(n_species), rmasks, imasks, pmasks) & t_mask
        if proviso == "superset":
            y &= rng.getrandbits(n_species)
        x = rng.getrandbits(n_species) & t_mask
        while x == y and t_mask:
            x = rng.getrandbits(n_species) & t_mask
        if x == y:
            continue
        checked += 1
        status, _, _, _, visited = bfs_witness_oracle(
            [x | z for z in completions], contexts, rmasks, imasks, pmasks,
            y, t_mask, -1, budget,
        )
        if status == 3:
            return None, None, checked, visited
        if status != 0:
            return False, (x, y), checked, None
    return True, None, checked, None


def random_system(
    rng: random.Random, n_species: int, n_reactions: int
) -> tuple[list[str], list[Triple]]:
    """A random reaction system over species s0..s{n-1}."""
    names = [f"s{i}" for i in range(n_species)]
    reactions: list[Triple] = []
    while len(reactions) < n_reactions:
        k_r = rng.randint(0, min(2, n_species))
        reactants = frozenset(rng.sample(names, k_r))
        rest = [n for n in names if n not in reactants]
        k_i = rng.randint(0, min(2, len(rest)))
        inhibitors = frozenset(rng.sample(rest, k_i))
        k_p = rng.randint(1, min(2, n_species))
        products = frozenset(rng.sample(names, k_p))
        reactions.append((reactants, inhibitors, products))
    return names, reactions


def random_dnf_network(
    rng: random.Random, n_vars: int, max_terms: int = 3
) -> dict[str, list[tuple[frozenset, frozenset]]]:
    """A random Boolean network: var -> DNF as (positive, negative) terms."""
    names = [f"v{i}" for i in range(n_vars)]
    net: dict[str, list[tuple[frozenset, frozenset]]] = {}
    for name in names:
        terms = []
        for _ in range(rng.randint(1, max_terms)):
            k = rng.randint(1, min(3, n_vars))
            chosen = rng.sample(names, k)
            pos = frozenset(v for v in chosen if rng.random() < 0.6)
            neg = frozenset(set(chosen) - pos)
            if not pos and not neg:
                pos = frozenset({rng.choice(names)})
            terms.append((pos, neg))
        net[name] = terms
    return net


def bn_step_oracle(
    net: dict[str, list[tuple[frozenset, frozenset]]], state: frozenset
) -> frozenset:
    """Synchronous update: var is on next step iff some term fires."""
    out = set()
    for name, terms in net.items():
        for pos, neg in terms:
            if pos <= state and not (neg & state):
                out.add(name)
                break
    return frozenset(out)


def cover_search_oracle(
    rmasks, imasks, pmasks, v_mask: int, exact: bool
) -> Optional[int]:
    """The preimage mask `image_membership` (exact) or
    `superset_image_membership` returns, found by the plain depth-first
    cover search with no pruning: per target species in ascending bit order
    a candidate reaction is fired, pinning its reactants IN and inhibitors
    OUT; in exact mode every reaction producing outside the target is then
    disabled by pinning one of its inhibitors IN. The first solution wins."""
    n = len(rmasks)
    if exact:
        good = [k for k in range(n) if not pmasks[k] & ~v_mask]
        bad = [k for k in range(n) if pmasks[k] & ~v_mask]
    else:
        good, bad = list(range(n)), []
    vbits = [1 << b for b in range(v_mask.bit_length()) if v_mask >> b & 1]
    cands = [[k for k in good if pmasks[k] & b] for b in vbits]
    if not all(cands):
        return None

    def solve_bad(inm: int, outm: int) -> Optional[int]:
        for k in bad:
            if rmasks[k] & outm or imasks[k] & inm or rmasks[k] & ~inm:
                continue
            for b in range(imasks[k].bit_length()):
                y = 1 << b
                if imasks[k] & y and not outm & y:
                    got = solve_bad(inm | y, outm)
                    if got is not None:
                        return got
            return None
        return inm

    def cover(pos: int, covered: int, inm: int, outm: int) -> Optional[int]:
        while pos < len(vbits) and covered & vbits[pos]:
            pos += 1
        if pos == len(vbits):
            return solve_bad(inm, outm)
        for k in cands[pos]:
            if rmasks[k] & outm or imasks[k] & inm:
                continue
            got = cover(
                pos + 1, covered | pmasks[k], inm | rmasks[k], outm | imasks[k]
            )
            if got is not None:
                return got
        return None

    return cover(0, 0, 0, 0)


def cover_oracle(
    d: int, y_masks: list[int], t_mask: int, union: int, limit: int
) -> int:
    """The end sets the result d covers, as a bitset with bit j for
    y_masks[j], by the string form of `ResultGraph._cover`: d covers Y
    when d ∩ T ⊆ Y and Y ∖ d is an admitted context, a subset of `union`
    with at most `limit` species."""
    dt = d & t_mask
    return int(
        "0"
        + "".join(
            "1"
            if y & dt == dt
            and not (y & ~d & ~union)
            and (y & ~d).bit_count() <= limit
            else "0"
            for y in y_masks[::-1]
        ),
        2,
    )
