"""The exhaustive pair scan behind a decision, over the result graph.

A decision's verdict, counterexample, `pairs_checked` and node budget all
come from one `ResultGraph`: no full state is built, no context is listed
and no kernel is called; everything reads the system's masks. The budget
counts the result values the graph expands, so a budget that is never hit
costs nothing beyond the count. Target mode scans its sources one by one
(`scan_pairs`), each over the results of its start frontier, which one
Shannon expansion (`core.res_values`) lists; full mode scans the image's
results, whose sources share one answer (`scan_results`), in the order of
the system's `least_sources`.

`control._decide` imports this module when a decision first needs it, so
the commands that never decide do not load it.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb
from typing import Optional, Sequence

from .core import ReactionSystem, res_split, res_values
from .errors import BudgetError


class ResultGraph:
    """The result values reachable under the admitted contexts, and the end
    sets each one reaches.

    A successor C ∪ res(W) depends only on res(W), so reachability runs
    over result values. The edges of a node d go to the distinct
    res(c | d) over the admitted contexts c, the subsets of `union` with
    at most `limit` species, enumerated by `core.res_values` from one
    `res_split` of d. Node d covers end set Y when some admitted c has
    (c | d) ∩ T = Y, that is d ∩ T ⊆ Y and Y ∖ d is an admitted context;
    `_cover` lists them from the end sets or from the subsets of what an
    end set may add to d ∩ T, whichever is shorter. Covers are bitsets
    over the distinct `y_masks`, bit j for y_masks[j], propagated over the
    strongly connected components of Tarjan's algorithm, so each node is
    expanded once. Expanding more than `budget` nodes over the graph's
    life raises BudgetError.
    """

    def __init__(
        self,
        system: ReactionSystem,
        union: int,
        limit: int,
        y_masks: list[int],
        t_mask: int,
        budget: int,
    ):
        self.union = union
        self.limit = limit
        self.masks = (system.rmasks, system.imasks, system.pmasks)
        self.ends = y_masks
        self.index = {y: j for j, y in enumerate(y_masks)}
        self.end_bits = 0
        for y in y_masks:
            self.end_bits |= y
        self.t_mask = t_mask
        self.budget = budget
        self.expanded = 0
        # node -> bitset of the end sets reached from it; set once the
        # node's strongly connected component is complete
        self.reach: dict[int, int] = {}

    def _cover(self, d: int) -> int:
        """Bitset of the end sets d covers, listed from the shorter side.

        Y is covered exactly when Y = (d ∩ T) ∪ s, where s is a subset of
        `free`, the end sets' species outside d ∩ T that lie in `union`
        or in d, with at most `limit` species outside d: those come from
        the context. For end sets within T, as a decision's are, free is
        T ∩ union ∖ d cut to the end sets' species. When free has fewer
        subsets than there are end sets, each subset is looked up in the
        end sets' index; otherwise each end set is tested."""
        dt = d & self.t_mask
        free = self.end_bits & ~dt & (self.union | d)
        if 1 << free.bit_count() < len(self.ends):
            return self._cover_from_free(d, dt, free)
        return self._cover_from_ends(d, dt)

    def _cover_from_free(self, d: int, dt: int, free: int) -> int:
        index, limit, not_d = self.index, self.limit, ~d
        cover = 0
        s = free
        while True:
            if (s & not_d).bit_count() <= limit:
                j = index.get(dt | s)
                if j is not None:
                    cover |= 1 << j
            if not s:
                return cover
            s = (s - 1) & free

    def _cover_from_ends(self, d: int, dt: int) -> int:
        union, limit = self.union, self.limit
        cover = 0
        for j, y in enumerate(self.ends):
            if (
                y & dt == dt
                and not (y & ~d & ~union)
                and (y & ~d).bit_count() <= limit
            ):
                cover |= 1 << j
        return cover

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
            if self.expanded >= self.budget:
                raise BudgetError(
                    f"decision stopped by the node budget after expanding "
                    f"{self.expanded} result values",
                    visited=self.expanded,
                )
            self.expanded += 1
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
    system: ReactionSystem,
    graph: ResultGraph,
    x_masks: Sequence[int],
    y_masks: list[int],
    outside: int,
) -> tuple[int, Optional[tuple[int, int]]]:
    """Target mode: scan pairs in canonical order; return (pairs checked
    through the decision point, first counterexample or None).

    A source X reaches end set Y when some result reachable from the
    results of its starts X ∪ Z, Z ⊆ S ∖ T = `outside`, covers Y, so each
    source is one bitset test against the result graph; only a miss looks
    up the first end set missed and the pairs checked before it. The
    frontier results {res(X ∪ Z)} come from one Shannon expansion of X
    over the outside species, with no limit on Z. Their order does not
    matter: covers are OR-ed, every frontier result is reached before the
    miss test, and the budget stops at the same count whichever comes
    first.
    """
    every = (1 << len(y_masks)) - 1
    masks = (system.rmasks, system.imasks, system.pmasks)
    n_outside = outside.bit_count()
    checked = 0
    for x in x_masks:
        covered = 0
        base, rest = res_split(x, outside, *masks)
        for d in res_values(base, rest, outside, n_outside):
            covered |= graph.reached(d)
        own = graph.index.get(x)
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


def scan_results(
    system: ReactionSystem, graph: ResultGraph, y_masks: list[int]
) -> tuple[int, Optional[tuple[int, int]]]:
    """Full mode (T = S): the same answer as a canonical pair scan over
    every source, from one graph test per distinct result.

    Every source W with res(W) = d misses the end sets d's bitset lacks,
    except that W need not reach itself. So the sources of d fail from
    its least source on, unless the one end set d misses is that least
    source: then they fail from its second source on, or never when it
    has no second. Results are taken in the order of their least sources,
    which is the order in which a scan over sources first meets them, so
    the graph expands the same values in the same order, and the scan
    stops at the first result whose least source comes after the first
    failing source found. `pairs_checked` follows in closed form.
    """
    every = (1 << len(y_masks)) - 1
    first = None
    for least, second, d in system.least_sources():
        if first is not None and (least.bit_count(), least) > first[0]:
            break
        missed = every & ~graph.reached(d)
        if not missed:
            continue
        x = least
        only = missed.bit_length() - 1
        if missed == 1 << only and y_masks[only] == least:
            if second is None:
                continue
            x = second
        key = (x.bit_count(), x)
        if first is None or key < first[0]:
            first = (key, x, missed)
    n_ends = len(y_masks)
    n = len(system.species)
    if first is None:
        # each of the 2^n sources is paired with every end set but itself
        return ((1 << n) - 1) * n_ends, None
    key, x, missed = first
    # the sources before x are paired with every end set but themselves,
    # and `before` end sets are among them
    before = bisect_left([(y.bit_count(), y) for y in y_masks], key)
    own = before if before < n_ends and y_masks[before] == x else None
    if own is not None:
        missed &= ~(1 << own)
    j = (missed & -missed).bit_length() - 1
    checked = _rank(x, n) * n_ends - before
    return checked + j + 1 - (own is not None and own < j), (x, y_masks[j])


def _rank(x: int, n: int) -> int:
    """The position of x among the subsets of n species in canonical
    order, by the combinatorial number system."""
    k = x.bit_count()
    rank = sum(comb(n, size) for size in range(k))
    for i in range(1, k + 1):
        low = x & -x
        rank += comb(low.bit_length() - 1, i)
        x ^= low
    return rank
