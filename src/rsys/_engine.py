"""Mask-level engine: backend selection, memoized results, closures.

The engine reads the mask tuples a ReactionSystem builds once, memoizes
results and the image for the life of one call, and routes hot loops to a
kernel: the pure `_kernel_py`, or `_kernel_c`, a hand-written C++
extension with the same contract that `setup.py` builds when a C++
compiler is present.
Backend choice: an explicit argument wins, then the RSYS_KERNEL
environment variable ("pure" or "compiled"), then the compiled kernel
whenever it is importable and the species table fits in 64 bits.
"""

from __future__ import annotations

import os
from typing import Iterable, Optional

from . import _kernel_py
from .core import ReactionSystem, res_split, res_values
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
    """Mask-level view of one system, bound to a kernel backend."""

    __slots__ = (
        "rmasks",
        "imasks",
        "pmasks",
        "resource_mask",
        "kernel",
        "_res_cache",
        "_image",
    )

    def __init__(self, system: ReactionSystem, backend: Optional[str] = None):
        self.rmasks = system.rmasks
        self.imasks = system.imasks
        self.pmasks = system.pmasks
        self.resource_mask = system.resource_mask
        self.kernel = _pick_kernel(len(system.species), backend)
        self._res_cache: dict[int, int] = {}
        self._image: Optional[frozenset[int]] = None

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
        return self.kernel.bfs_witness(
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
        subsets of the k sensed species.
        """
        if self._image is None:
            full = self.resource_mask
            base, rest = res_split(0, full, self.rmasks, self.imasks, self.pmasks)
            self._image = frozenset(res_values(base, rest, full, full.bit_count()))
        return self._image


def canonical_sorted(masks: Iterable[int]) -> list[int]:
    """The masks in canonical order: ascending by (cardinality, value)."""
    out = sorted(masks)
    # Two stable sorts with a built-in key: by value, then by cardinality.
    out.sort(key=int.bit_count)
    return out


def submasks_ascending(universe: int) -> list[int]:
    """All submasks of `universe`, ascending by (cardinality, value)."""
    subs = [0]
    sub = universe
    while sub:
        subs.append(sub)
        sub = (sub - 1) & universe
    return canonical_sorted(subs)
