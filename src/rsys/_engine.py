"""Mask-level engine: backend selection and the kernel searches.

The engine reads the mask tuples a ReactionSystem builds once, memoizes
results for the life of one call, and routes the witness searches to a
kernel: the pure `_kernel_py`, or `_kernel_c`, a hand-written C++
extension with the same contract that `setup.py` builds when a C++
compiler is present. Only `find_witness` and sampled decisions build one.
Plain result-map evaluation calls `core.res_mask`, and an exhaustive
decision reads the image and its least sources from the system
(`ReactionSystem.least_sources`), which builds them once per system.
Backend choice: an explicit argument wins, then the RSYS_KERNEL
environment variable ("pure" or "compiled"), then the compiled kernel
whenever it is importable and the species table fits in 64 bits.
"""

from __future__ import annotations

import os
from typing import Optional

from . import _kernel_py
from .core import ReactionSystem
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
        "kernel",
        "system",
        "_res_cache",
    )

    def __init__(self, system: ReactionSystem, backend: Optional[str] = None):
        self.rmasks = system.rmasks
        self.imasks = system.imasks
        self.pmasks = system.pmasks
        self.resource_mask = system.resource_mask
        self.kernel = _pick_kernel(len(system.species), backend)
        self.system = system
        self._res_cache: dict[int, int] = {}

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
            return _kernel_py.bfs_witness(*args, self.system.split_tables)
        return self.kernel.bfs_witness(*args)

    def bfs_closure(
        self, starts: list[int], contexts: list[int], node_budget: int
    ) -> tuple[list[int], set[int], bool]:
        return self.kernel.bfs_closure(
            starts, contexts, self.rmasks, self.imasks, self.pmasks, node_budget
        )

    def image(self) -> frozenset[int]:
        """All result masks; a view over the system's `least_sources`."""
        return frozenset(d for _, _, d in self.system.least_sources())
