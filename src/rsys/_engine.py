"""Mask-level engine: backend selection, memoized results and image.

The engine reads the mask tuples a ReactionSystem builds once, memoizes
results, the image and the least states of each image result for the life
of one call, and routes the witness searches to a kernel: the pure
`_kernel_py`, or `_kernel_c`, a hand-written C++ extension with the same
contract that `setup.py` builds when a C++ compiler is present. Only the
kernel searches (`find_witness` and the decisions) build one; plain
result-map evaluation calls `core.res_mask`.
Backend choice: an explicit argument wins, then the RSYS_KERNEL
environment variable ("pure" or "compiled"), then the compiled kernel
whenever it is importable and the species table fits in 64 bits.
"""

from __future__ import annotations

import os
from typing import Optional

from . import _kernel_py
from .core import ReactionSystem, res_split, res_values
from .core import submasks_ascending  # noqa: F401  (re-exported for callers)
from .errors import RsysError

try:
    from . import _kernel_c
except ImportError:
    _kernel_c = None

FOUND = _kernel_py.FOUND
EXHAUSTED = _kernel_py.EXHAUSTED
DEPTH_LIMITED = _kernel_py.DEPTH_LIMITED
BUDGET_STOP = _kernel_py.BUDGET_STOP

COMPILED_SPECIES_LIMIT = 64


def compiled_available() -> bool:
    return _kernel_c is not None


def _pick_kernel(n_species: int, backend: Optional[str]):
    if backend is None:
        backend = os.environ.get("RSYS_KERNEL") or None
    if backend is None:
        if _kernel_c is not None and n_species <= COMPILED_SPECIES_LIMIT:
            return _kernel_c
        return _kernel_py
    if backend == "pure":
        return _kernel_py
    if backend == "compiled":
        if _kernel_c is None:
            raise RsysError("compiled kernel requested but not built")
        if n_species > COMPILED_SPECIES_LIMIT:
            raise RsysError(
                f"compiled kernel supports at most {COMPILED_SPECIES_LIMIT} "
                f"species, got {n_species}"
            )
        return _kernel_c
    raise RsysError(f"unknown kernel backend {backend!r} (use 'pure' or 'compiled')")


class Engine:
    """Mask-level view of one system, bound to a kernel backend.

    The pure kernel's witness searches also get the system's
    `split_tables`, which a search calls only once it is large; the tables
    are then built once per system and kept on it (see `_kernel_py`).
    """

    __slots__ = (
        "rmasks",
        "imasks",
        "pmasks",
        "resource_mask",
        "species_mask",
        "kernel",
        "_split_tables",
        "_res_cache",
        "_image",
        "_cubes",
        "_least_sources",
    )

    def __init__(self, system: ReactionSystem, backend: Optional[str] = None):
        self.rmasks = system.rmasks
        self.imasks = system.imasks
        self.pmasks = system.pmasks
        self.resource_mask = system.resource_mask
        self.species_mask = (1 << len(system.species)) - 1
        self.kernel = _pick_kernel(len(system.species), backend)
        self._split_tables = system.split_tables
        self._res_cache: dict[int, int] = {}
        self._image: Optional[frozenset[int]] = None
        self._cubes: list[tuple[int, int, int]] = []
        self._least_sources: Optional[list] = None

    @property
    def backend(self) -> str:
        return self.kernel.BACKEND

    def res(self, state: int) -> int:
        """Memoized result mask; keyed on the sensed part of the state."""
        key = state & self.resource_mask
        cached = self._res_cache.get(key)
        if cached is None:
            cached = self.kernel.res_mask(key, self.rmasks, self.imasks, self.pmasks)
            self._res_cache[key] = cached
        return cached

    def bfs_witness(
        self,
        starts: list[int],
        contexts: list[int],
        goal_mask: int,
        t_mask: int,
        depth_limit: int,
        node_budget: int,
    ) -> tuple[int, int, list[int], int, int]:
        args = (
            starts,
            contexts,
            self.rmasks,
            self.imasks,
            self.pmasks,
            goal_mask,
            t_mask,
            depth_limit,
            node_budget,
        )
        if self.kernel is _kernel_py:
            # the system's split tables, built by the first large search
            return _kernel_py.bfs_witness(*args, self._split_tables)
        return self.kernel.bfs_witness(*args)

    def bfs_closure(
        self, starts: list[int], contexts: list[int], node_budget: int
    ) -> tuple[list[int], set[int], bool]:
        return self.kernel.bfs_closure(
            starts, contexts, self.rmasks, self.imasks, self.pmasks, node_budget
        )

    def image(self) -> frozenset[int]:
        """All result masks: res over every subset of the sensed species.

        Enumerated once per engine by Shannon expansion (`core.res_values`
        on the split of the empty result), so the probes of a minimal scan
        share it; the work follows the reactions' structure, not the 2^k
        subsets of the k sensed species. The same expansion keeps its
        leaves, the cubes of sources that share one result, for
        `least_sources`.
        """
        if self._image is None:
            full = self.resource_mask
            base, rest = res_split(0, full, self.rmasks, self.imasks, self.pmasks)
            self._image = frozenset(
                res_values(base, rest, full, full.bit_count(), self._cubes)
            )
        return self._image

    def least_sources(self) -> list[tuple[int, Optional[int], int]]:
        """(least, second, d) for each result d of the image: the two
        canonically least states W with res(W) = d, second None when d has
        one such state. Ascending by least, in canonical order.

        A cube (P, A, d) holds every W ⊇ P that misses A, so its least
        member is P and its next is P plus its lowest free species; the
        second state of d is the smaller of that and the next cube's P.
        Built from the image's cubes once per engine, so it never has
        more entries than the image.
        """
        if self._least_sources is None:
            if self._image is None:
                self.image()
            cubes = sorted((p.bit_count(), p, a, d) for p, a, d in self._cubes)
            heads: dict[int, list] = {}
            for size, p, a, d in cubes:
                head = heads.get(d)
                if head is None:
                    free = self.species_mask & ~(p | a)
                    heads[d] = [p, p | free & -free if free else None]
                    continue
                second = head[1]
                if second is None or (size, p) < (second.bit_count(), second):
                    head[1] = p
            self._least_sources = [(p, q, d) for d, (p, q) in heads.items()]
        return self._least_sources
