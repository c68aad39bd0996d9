"""Shared helpers for the test suite: plain-set bridges to the oracles."""

from __future__ import annotations

import os
import subprocess
import sys

import rsys
from rsys.core import Reaction, ReactionSystem, SpeciesSet, SpeciesTable

SRC = os.path.dirname(os.path.dirname(os.path.abspath(rsys.__file__)))


def make_system(names, triples, labels=None) -> ReactionSystem:
    """Build a system from plain name collections (r, i, p) per reaction."""
    table = SpeciesTable(names)
    reactions = []
    for k, (r, i, p) in enumerate(triples):
        label = labels[k] if labels else None
        reactions.append(
            Reaction(table.set_of(r), table.set_of(i), table.set_of(p), label)
        )
    return ReactionSystem(table, reactions)


def plain_reactions(system: ReactionSystem):
    """The system's reactions as plain frozenset triples for the oracles."""
    return [
        (
            frozenset(r.reactants.members),
            frozenset(r.inhibitors.members),
            frozenset(r.products.members),
        )
        for r in system.reactions
    ]


def names_of(sset: SpeciesSet) -> frozenset:
    return frozenset(sset.members)


def canonical_subsets(names):
    """All subsets of `names` as frozensets, in (cardinality, encoding) order
    with bit k of the encoding standing for names[k]."""
    out = []
    for mask in range(1 << len(names)):
        out.append(
            (
                bin(mask).count("1"),
                mask,
                frozenset(n for k, n in enumerate(names) if mask >> k & 1),
            )
        )
    out.sort(key=lambda t: (t[0], t[1]))
    return [t[2] for t in out]


def fresh_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run `code` with `args` in a new interpreter that imports this
    checkout's `rsys` and writes no bytecode into it."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        check=True,
    )
