"""Generated reaction systems whose answers are known by construction.

The brute-force oracles in `oracles.py` stop at about 10-12 species. The
families here carry their answers as formulas in k, so a test can check
the package far beyond that and check each formula against the oracles at
small k first.
"""

from __future__ import annotations

from util import make_system


def counter(k: int):
    """The k-bit binary counter: species b0..b{k-1} and `inc`, with
    k(k+3)/2 reactions.

    Without `inc` every bit persists. With `inc`, bit b_j flips when
    b_0..b_{j-1} are all present: one reaction turns it on, and one per
    lower bit keeps it on while that bit is absent. So res(X) = X and
    res(X ∪ {inc}) = X + 1 mod 2^k, reading X as a binary number with
    b0 lowest. Nothing produces `inc`; only a context supplies it.
    """
    bits = [f"b{j}" for j in range(k)]
    triples = []
    for j, b in enumerate(bits):
        triples.append(({b}, {"inc"}, {b}))
        triples.append(({"inc", *bits[:j]}, {b}, {b}))
        for lower in bits[:j]:
            triples.append(({"inc", b}, {lower}, {b}))
    return make_system(bits + ["inc"], triples), bits
