"""Pure-Python search kernel over int bit masks.

This module defines the kernel contract; the compiled kernel
(`_kernel_c.cpp`) takes the same arguments and returns the same values for
masks below 2^64. This one works for any species count because Python
ints are unbounded. Status codes for bfs_witness: 0 = goal found, 1 =
frontier exhausted (definitive absence), 2 = stopped by the depth limit,
3 = stopped by the node budget.

Both kernels expand each distinct result value once. The compiled one
evaluates each popped state in full. This one evaluates successors'
results from one `core.res_split` per expanded result, and a witness
search that has expanded SPLIT_AFTER results, a large one, changes how it
expands them: it splits from the system's `core.res_split_tables`, and it
inserts and queues most expansions' successors at once (see
`_search_tables`). Statuses, hit states, paths, start indices, `visited`
counts and depth and budget stops are the same either way; a search that
stays small builds no tables.
"""

from __future__ import annotations

from collections import deque
from itertools import count, repeat
from typing import Callable, Optional

# res_mask belongs to the kernel API (Engine.res calls kernel.res_mask); the
# searches below look it up as a module global.
from .core import RES_CHUNK_BITS, res_mask, res_split, res_split_tables

BACKEND = "pure"

FOUND = 0
EXHAUSTED = 1
DEPTH_LIMITED = 2
BUDGET_STOP = 3

# results a witness search expands before it switches to split tables
SPLIT_AFTER = 64


def bfs_witness(
    starts: list[int],
    contexts: list[int],
    rmasks: tuple[int, ...],
    imasks: tuple[int, ...],
    pmasks: tuple[int, ...],
    goal_mask: int,
    t_mask: int,
    depth_limit: int,
    node_budget: int,
    tables: Optional[Callable[[], tuple]] = None,
) -> tuple[int, int, list[int], int, int]:
    """Shortest-path search over full states W with successors C ∪ res(W).

    Contexts are tried in list order and states expanded first-in first-out,
    so the first goal hit is the shortest witness with the lexicographically
    least (start, context indices) path under that order. A state w is a
    goal when w & t_mask == goal_mask; a full-state goal passes every
    species in `t_mask`. `depth_limit` < 0 means unbounded. Returns
    (status, hit_state, context_index_path, start_index, visited).

    A state's successors depend only on its result d, so each distinct d is
    expanded once: an earlier state with the same d already inserted every
    successor, with the same parents, budget checks and depth marks. A
    queued state carries its parent's `res_split` and its own context, and
    its result is evaluated from them only when it is popped.

    `tables`, when given, returns the system's `core.res_split_tables`; it
    is called only once the search expands more than SPLIT_AFTER results.
    Without it a large search builds the tables for itself.
    """
    union = 0
    for c in contexts:
        union |= c
    # parent[w] = (previous state, context index); starts use index -1-k
    parent: dict[int, tuple[int, int]] = {}
    # (state, depth, context, base, rest): res(state) = base plus the
    # products of the rest entries that context enables
    queue: deque[tuple[int, int, int, int, tuple]] = deque()
    expanded: set[int] = set()
    truncated = False

    for k, w in enumerate(starts):
        if w in parent:
            continue
        if len(parent) >= node_budget:
            return (BUDGET_STOP, 0, [], -1, len(parent))
        parent[w] = (w, -1 - k)
        if w & t_mask == goal_mask:
            return _found(parent, w)
        if depth_limit == 0:
            truncated = True
        else:
            queue.append((w, 0, 0, res_mask(w, rmasks, imasks, pmasks), ()))

    while queue:
        w, depth, c, d, rest = queue.popleft()
        for r, i, p in rest:
            if c & r == r and not c & i:
                d |= p
        if d in expanded:
            continue
        if len(expanded) == SPLIT_AFTER:
            queue.appendleft((w, depth, 0, d, ()))
            return _search_tables(
                tables() if tables else res_split_tables(rmasks, imasks, pmasks),
                parent, queue, expanded, truncated, contexts, union,
                rmasks, imasks, pmasks, goal_mask, t_mask, depth_limit, node_budget,
            )
        expanded.add(d)
        base, rest = res_split(d, union, rmasks, imasks, pmasks)
        child_depth = depth + 1
        for ci, c in enumerate(contexts):
            w2 = c | d
            if w2 in parent:
                continue
            if len(parent) >= node_budget:
                return (BUDGET_STOP, 0, [], -1, len(parent))
            parent[w2] = (w, ci)
            if w2 & t_mask == goal_mask:
                return _found(parent, w2)
            if child_depth == depth_limit:
                truncated = True
            else:
                queue.append((w2, child_depth, c, base, rest))
    return (DEPTH_LIMITED if truncated else EXHAUSTED, 0, [], -1, len(parent))


def _search_tables(
    tables: tuple,
    parent: dict[int, tuple[int, int]],
    queue: deque[tuple],
    expanded: set[int],
    truncated: bool,
    contexts: list[int],
    union: int,
    rmasks: tuple[int, ...],
    imasks: tuple[int, ...],
    pmasks: tuple[int, ...],
    goal_mask: int,
    t_mask: int,
    depth_limit: int,
    node_budget: int,
) -> tuple[int, int, list[int], int, int]:
    """The rest of a large `bfs_witness` search, from the state it was in.

    Each result d is split from `tables` (see `core.res_split_tables`).
    When the successors c | d are pairwise distinct, all new, no goal and
    within the budget, one dict update inserts them all and one batch
    (result, depth, base, adds) queues them. `adds` lists (context index,
    products) for the first context that adds each distinct set of
    products to `base`, memoized per split remainder: a later context with
    the same products yields a result that is expanded by the time it is
    popped. Every other expansion runs the first phase's per-state loop.
    """
    split = _table_split(tables, union, len(rmasks))
    n_ctx = len(contexts)
    distinct = len(set(contexts)) == n_ctx
    # goal_hits[d & t_mask]: whether some successor c | d is a goal
    goal_hits: dict[int, bool] = {}
    rests: dict[tuple[int, int], tuple] = {}
    batches: dict[tuple[int, int], tuple] = {}

    for w, depth, d in _popped(queue, expanded, contexts):
        expanded.add(d)
        base, kept = split(d)
        # the rest entries depend on d only through d & union
        key = (kept, d & union)
        rest = rests.get(key)
        if rest is None:
            rest = rests[key] = tuple(
                (rmasks[j] & ~d, imasks[j], pmasks[j]) for j in _bits(kept)
            )
        child_depth = depth + 1
        dt = d & t_mask
        hit = goal_hits.get(dt)
        if hit is None:
            hit = goal_hits[dt] = any(c & t_mask | dt == goal_mask for c in contexts)
        if not hit and len(parent) + n_ctx <= node_budget:
            ws = [c | d for c in contexts]
            if (
                (distinct and not d & union) or len(set(ws)) == n_ctx
            ) and parent.keys().isdisjoint(ws):
                parent.update(zip(ws, zip(repeat(w), count())))
                if child_depth == depth_limit:
                    truncated = True
                else:
                    adds = batches.get(key)
                    if adds is None:
                        adds = batches[key] = _first_adds(contexts, rest)
                    queue.append((d, child_depth, base, adds))
                continue
        for ci, c in enumerate(contexts):
            w2 = c | d
            if w2 in parent:
                continue
            if len(parent) >= node_budget:
                return (BUDGET_STOP, 0, [], -1, len(parent))
            parent[w2] = (w, ci)
            if w2 & t_mask == goal_mask:
                return _found(parent, w2)
            if child_depth == depth_limit:
                truncated = True
            else:
                queue.append((w2, child_depth, c, base, rest))
    return (DEPTH_LIMITED if truncated else EXHAUSTED, 0, [], -1, len(parent))


def _table_split(tables: tuple, union: int, n_r: int) -> Callable[[int], tuple[int, int]]:
    """`res_split(d, union)` from `core.res_split_tables`, as a function of
    d that returns (base, mask of the reactions in rest)."""
    absent, present, produces = tables
    every = (1 << n_r) - 1
    low = (1 << RES_CHUNK_BITS) - 1
    # One lookup per species chunk of d: the low n_r bits of chunks[c][v]
    # hold the reactions present[d] | absent[d | union] drops, the high
    # ones those in absent[d]. `inhibited` is present[union].
    chunks = []
    inhibited = 0
    u = union
    for at, pt in zip(absent, present):
        uc = u & len(at) - 1
        row = [p | at[v | uc] | a << n_r for v, (a, p) in enumerate(zip(at, pt))]
        chunks.append(row * ((low + 1) // len(row)))
        inhibited |= pt[uc]
        u >>= RES_CHUNK_BITS

    def split(d: int) -> tuple[int, int]:
        acc = 0
        for t in chunks:
            acc |= t[d & low]
            d >>= RES_CHUNK_BITS
        live = every & ~acc
        kept = live & (acc >> n_r | inhibited)
        on = live ^ kept
        base = 0
        for t in produces:
            base |= t[on & low]
            on >>= RES_CHUNK_BITS
        return base, kept

    return split


def _popped(queue: deque[tuple], expanded: set[int], contexts: list[int]):
    """(state, depth, result) of each queued state whose result is not yet
    expanded, in queue order; a batch stands for its states in order."""
    while queue:
        item = queue.popleft()
        if len(item) == 4:
            dp, depth, base, adds = item
            for ci, a in adds:
                d = base | a
                if d not in expanded:
                    yield contexts[ci] | dp, depth, d
        else:
            w, depth, c, d, rest = item
            for r, i, p in rest:
                if c & r == r and not c & i:
                    d |= p
            if d not in expanded:
                yield w, depth, d


def _found(
    parent: dict[int, tuple[int, int]], hit: int
) -> tuple[int, int, list[int], int, int]:
    """The FOUND result for goal state `hit`, its path read off `parent`."""
    path = []
    prev, ci = parent[hit]
    while ci >= 0:
        path.append(ci)
        prev, ci = parent[prev]
    return (FOUND, hit, path[::-1], -1 - ci, len(parent))


def _bits(mask: int):
    """Indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _first_adds(contexts: list[int], rest: tuple) -> tuple[tuple[int, int], ...]:
    """(index, products) of the first context to add each distinct set of
    products from `rest` entries of a `res_split`."""
    first: dict[int, int] = {}
    for ci, c in enumerate(contexts):
        a = 0
        for r, i, p in rest:
            if c & r == r and not c & i:
                a |= p
        first.setdefault(a, ci)
    return tuple((ci, a) for a, ci in first.items())


def bfs_closure(
    starts: list[int],
    contexts: list[int],
    rmasks: tuple[int, ...],
    imasks: tuple[int, ...],
    pmasks: tuple[int, ...],
    node_budget: int,
) -> tuple[list[int], set[int], bool]:
    """Closure of `starts` under successors C ∪ res(W).

    Returns (all states in discovery order, states seen as a successor of
    something, truncated flag). A truncated closure may be missing states
    and successor marks.

    The queue holds results, not states: each distinct result is queued and
    expanded once, in the order its first state was discovered, which is
    the order a state-by-state search would expand it in. A new state's
    result is evaluated from its parent's `res_split` when it is inserted.
    """
    union = 0
    for c in contexts:
        union |= c
    seen: set[int] = set()
    order: list[int] = []
    successor_seen: set[int] = set()
    queue: deque[int] = deque()
    queued: set[int] = set()
    for w in starts:
        if w in seen:
            continue
        if len(seen) >= node_budget:
            return (order, successor_seen, True)
        seen.add(w)
        order.append(w)
        d = res_mask(w, rmasks, imasks, pmasks)
        if d not in queued:
            queued.add(d)
            queue.append(d)
    while queue:
        d = queue.popleft()
        base, rest = res_split(d, union, rmasks, imasks, pmasks)
        for c in contexts:
            w2 = c | d
            successor_seen.add(w2)
            if w2 in seen:
                continue
            if len(seen) >= node_budget:
                return (order, successor_seen, True)
            seen.add(w2)
            order.append(w2)
            d2 = base
            for r, i, p in rest:
                if c & r == r and not c & i:
                    d2 |= p
            if d2 not in queued:
                queued.add(d2)
                queue.append(d2)
    return (order, successor_seen, False)
