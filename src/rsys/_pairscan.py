"""The exhaustive pair scan behind a decision, over the result graph.

`control._decide` imports this module when a decision first needs it, so
the commands that never decide do not load it.
"""

from __future__ import annotations

from typing import Collection, Optional, Sequence

from ._engine import Engine
from .core import res_split, res_values
from .errors import BudgetError


class ResultGraph:
    """The result values reachable under the admitted contexts, and the end
    sets each one reaches.

    A successor C ∪ res(W) depends only on res(W), so reachability runs
    over result values. The edges of a node d go to the distinct
    res(c | d) over the admitted contexts c, the subsets of `union` with
    at most `limit` species, enumerated by `core.res_values` from one
    `res_split` of d. Node d covers end set Y when some admitted c has
    (c | d) ∩ T = Y, that is d ∩ T ⊆ Y and Y ∖ d is an admitted context.
    Covers are bitsets over `y_masks`, propagated over the strongly
    connected components of Tarjan's algorithm, so each node is expanded
    once.
    """

    def __init__(
        self,
        eng: Engine,
        union: int,
        limit: int,
        y_masks: list[int],
        t_mask: int,
    ):
        self.union = union
        self.limit = limit
        self.masks = (eng.rmasks, eng.imasks, eng.pmasks)
        self.ends_high_first = y_masks[::-1]
        self.t_mask = t_mask
        # node -> bitset of the end sets reached from it; set once the
        # node's strongly connected component is complete
        self.reach: dict[int, int] = {}

    def _cover(self, d: int) -> int:
        dt = d & self.t_mask
        union, limit = self.union, self.limit
        return int(
            "".join(
                "1"
                if y & dt == dt
                and not (y & ~d & ~union)
                and (y & ~d).bit_count() <= limit
                else "0"
                for y in self.ends_high_first
            ),
            2,
        )

    def _successors(self, d: int):
        base, rest = res_split(d, self.union, *self.masks)
        return iter(res_values(base, rest, self.union, self.limit))

    def reached(self, root: int) -> int:
        """Bitset of the end sets reachable from the result `root`."""
        reach = self.reach
        if root in reach:
            return reach[root]
        # Tarjan's algorithm with an explicit stack. Nodes met in earlier
        # calls are complete; acc[v] gathers the covers of v, of its
        # completed successors and of its search-tree descendants, so at a
        # component's root it is the component's whole reach.
        order: dict[int, int] = {}
        low: dict[int, int] = {}
        acc: dict[int, int] = {}
        component: list[int] = []
        calls: list = []

        def enter(w: int) -> None:
            order[w] = low[w] = len(order)
            acc[w] = self._cover(w)
            component.append(w)
            calls.append((w, self._successors(w)))

        enter(root)
        while calls:
            v, successors = calls[-1]
            for w in successors:
                if w in reach:
                    acc[v] |= reach[w]
                elif w not in order:
                    enter(w)
                    break
                elif order[w] < low[v]:
                    low[v] = order[w]
            else:
                calls.pop()
                if calls:
                    u = calls[-1][0]
                    acc[u] |= acc[v]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    total = acc[v]
                    while True:
                        w = component.pop()
                        reach[w] = total
                        if w == v:
                            break
        return reach[root]


def scan_pairs(
    eng: Engine,
    graph: ResultGraph,
    x_masks: Sequence[int],
    y_masks: list[int],
    outside_subs: list[int],
    ctx_masks: Optional[list[int]],
    budget: int,
) -> tuple[int, Optional[tuple[int, int]]]:
    """Scan pairs in canonical order; return (pairs checked through the
    decision point, first counterexample or None).

    A source X reaches end set Y when some result reachable from the
    results of its starts covers Y, so each source is one bitset test
    against the result graph; only a miss looks up the first end set
    missed and the pairs checked before it.

    The node budget caps each source's own closure, starts ∪ successors,
    in full states, which the result graph never builds. So under a
    budget every start-result set still gets one kernel closure, only to
    raise the same BudgetError; the verdict comes from the graph either
    way. `ctx_masks` lists the admitted contexts for those closures, and
    is None when there is no budget.
    """
    full = outside_subs == [0]
    y_index = {y: j for j, y in enumerate(y_masks)}
    every = (1 << len(y_masks)) - 1
    # start-result key -> successor states, kept only while the budget
    # could cut a later source's closure
    closures: dict = {}
    checked = 0
    for x in x_masks:
        starts = [x | z for z in outside_subs]
        results = [eng.res(x)] if full else {eng.res(w) for w in starts}
        if ctx_masks is not None:
            _check_budget(eng, closures, results, starts, ctx_masks, budget)
        covered = 0
        for d in results:
            covered |= graph.reached(d)
        own = y_index.get(x)
        missed = every & ~covered
        if own is not None:
            missed &= ~(1 << own)
        if not missed:
            checked += len(y_masks) - (own is not None)
            continue
        j = (missed & -missed).bit_length() - 1
        checked += j + 1 - (own is not None and own < j)
        return checked, (x, y_masks[j])
    return checked, None


def _check_budget(
    eng: Engine,
    closures: dict,
    results: Collection[int],
    starts: list[int],
    ctx_masks: list[int],
    budget: int,
) -> None:
    """Raise BudgetError when the source's closure exceeds the budget.

    The states seen as successors depend only on the starts' results, so
    one kernel closure serves every source with the same result set, and
    each source adds its own starts.
    """
    key = frozenset(results)
    if key in closures:
        seen = closures[key]
        truncated = (
            seen is not None
            and len(seen) + sum(w not in seen for w in starts) > budget
        )
    else:
        _, seen, truncated = eng.bfs_closure(starts, ctx_masks, budget)
        closures[key] = seen if len(seen) + len(starts) > budget else None
    if truncated:
        raise BudgetError(
            "reachability closure stopped by the node budget",
            visited=budget,
        )
