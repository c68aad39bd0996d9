"""Pure-Python search kernel over int bit masks.

This module defines the kernel contract; the compiled kernel
(`_kernel_c.cpp`) takes the same arguments and returns the same values for
masks below 2^64. This one works for any species count because Python
ints are unbounded. Both expand each distinct result value once; this one
also evaluates successors' results from one `core.res_split` per expanded
result, where the compiled one evaluates each popped state in full.
Status codes for bfs_witness: 0 = goal found, 1 = frontier exhausted
(definitive absence), 2 = stopped by the depth limit, 3 = stopped by the
node budget.
"""

from __future__ import annotations

from collections import deque

# res_mask belongs to the kernel API (Engine.res calls kernel.res_mask); the
# searches below look it up as a module global.
from .core import res_mask, res_split

BACKEND = "pure"

FOUND = 0
EXHAUSTED = 1
DEPTH_LIMITED = 2
BUDGET_STOP = 3


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
            return (FOUND, w, [], k, len(parent))
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
                path = [ci]
                cur = w
                while True:
                    prev, pci = parent[cur]
                    if pci < 0:
                        return (FOUND, w2, path[::-1], -1 - pci, len(parent))
                    path.append(pci)
                    cur = prev
            if child_depth == depth_limit:
                truncated = True
            else:
                queue.append((w2, child_depth, c, base, rest))

    return (DEPTH_LIMITED if truncated else EXHAUSTED, 0, [], -1, len(parent))


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
