"""Independent reference computations used by the answer checks.

Nothing here calls into rsys: the result map, the breadth-first reachable
set and the Boolean-network update are re-implemented over plain int masks
so that a check does not repeat the code path it checks.
"""

from __future__ import annotations

from collections import deque


class MaskSystem:
    """A reaction system as (reactants, inhibitors, products) mask triples."""

    def __init__(self, triples) -> None:
        self.triples = tuple(triples)

    @classmethod
    def of(cls, system) -> "MaskSystem":
        return cls(
            (r.reactants.mask, r.inhibitors.mask, r.products.mask)
            for r in system.reactions
        )

    def res(self, w: int) -> int:
        out = 0
        for r, i, p in self.triples:
            if w & r == r and not w & i:
                out |= p
        return out

    def reachable(self, start: int, contexts: list, stop=None) -> tuple:
        """States reachable from `start` (itself included) under steps
        W -> C | res(W) with C in `contexts`; stops early at the first
        state for which `stop` holds. Returns (states, hit)."""
        seen = {start}
        if stop is not None and stop(start):
            return seen, start
        queue = deque([start])
        while queue:
            d = self.res(queue.popleft())
            for c in contexts:
                w = c | d
                if w not in seen:
                    if stop is not None and stop(w):
                        seen.add(w)
                        return seen, w
                    seen.add(w)
                    queue.append(w)
        return seen, None

    def image(self, n_species: int) -> set:
        return {self.res(w) for w in range(1 << n_species)}

    def orbit(self, start: int, context: int) -> list:
        """States from `start` up to and including the first repeat."""
        seen = set()
        seq = []
        w = start
        while w not in seen:
            seen.add(w)
            seq.append(w)
            w = context | self.res(w)
        seq.append(w)
        return seq


def submasks(universe: int) -> list:
    subs = [0]
    sub = universe
    while sub:
        subs.append(sub)
        sub = (sub - 1) & universe
    return subs


class Network:
    """Synchronous Boolean-network update with blocking species."""

    def __init__(self, updates: dict, index) -> None:
        self.rules = []
        for var, terms in updates.items():
            conj = []
            for term in terms:
                pos = neg = 0
                for lit in term:
                    if lit.startswith("!"):
                        neg |= 1 << index(lit[1:])
                    else:
                        pos |= 1 << index(lit)
                conj.append((pos, neg))
            self.rules.append((1 << index(var), 1 << index("i" + var), conj))

    def update(self, w: int) -> int:
        out = 0
        for bit, block, conj in self.rules:
            if w & block:
                continue
            for pos, neg in conj:
                if w & pos == pos and not w & neg:
                    out |= bit
                    break
        return out

    def orbit(self, start: int, context: int) -> list:
        seen = set()
        seq = []
        w = start
        while w not in seen:
            seen.add(w)
            seq.append(w)
            w = context | self.update(w)
        seq.append(w)
        return seq
