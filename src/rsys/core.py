"""Exact set semantics: species tables, reactions, systems, and processes.

States are subsets of a fixed species table, stored as bit masks (bit k is
species k in table order). All values are immutable and safe to share.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Optional, Union

from .errors import ReactionError, RsysError, SpeciesMismatchError

NAME_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# Defaults of the `rsys.dynamics` searches. They live here because the CLI
# reads them when it declares its options, before it loads `dynamics`.
INPUT_SET_LIMIT = 20
NODE_BUDGET_DEFAULT = 4096
MAX_STEPS_DEFAULT = 100_000


def _valid_name(name: object) -> bool:
    return isinstance(name, str) and NAME_PATTERN.match(name) is not None


class SpeciesTable:
    """Ordered universe of species names; positions define the bit layout."""

    __slots__ = ("names", "_index", "_hash")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        index: dict[str, int] = {}
        for k, name in enumerate(names):
            if not _valid_name(name):
                raise SpeciesMismatchError(
                    f"invalid species name {name!r}: names match [A-Za-z][A-Za-z0-9_]*"
                )
            if name in index:
                raise SpeciesMismatchError(f"duplicate species name {name!r}")
            index[name] = k
        self.names = names
        self._index = index
        self._hash = hash(names)

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SpeciesTable) and self.names == other.names

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SpeciesTable({list(self.names)!r})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SpeciesMismatchError(f"unknown species {name!r}") from None

    def display_name(self, name: str) -> str:
        """Pretty form for reports: a blocking species iX renders as ι_X."""
        if name.startswith("i") and name[1:] in self._index:
            return "ι_" + name[1:]
        return name

    def set_of(self, names: Iterable[str] = ()) -> SpeciesSet:
        mask = 0
        for name in names:
            mask |= 1 << self.index(name)
        return SpeciesSet(self, mask)

    def from_mask(self, mask: int) -> SpeciesSet:
        return SpeciesSet(self, mask)

    @property
    def empty_set(self) -> SpeciesSet:
        return SpeciesSet(self, 0)

    @property
    def full_set(self) -> SpeciesSet:
        return SpeciesSet(self, (1 << len(self.names)) - 1)


def _same_table(a: SpeciesSet, b: SpeciesSet) -> None:
    if a.table is b.table or a.table.names == b.table.names:
        return
    raise SpeciesMismatchError(
        "species tables differ: "
        f"{len(a.table)} names starting {a.table.names[:3]} vs "
        f"{len(b.table)} names starting {b.table.names[:3]}"
    )


class SpeciesSet:
    """Immutable subset of a species table, backed by an int bit mask."""

    __slots__ = ("table", "mask")

    def __init__(self, table: SpeciesTable, mask: int):
        if not 0 <= mask < (1 << len(table)):
            raise SpeciesMismatchError(
                f"mask {mask:#x} out of range for {len(table)} species"
            )
        self.table = table
        self.mask = mask

    @property
    def members(self) -> tuple[str, ...]:
        names = self.table.names
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(names[low.bit_length() - 1])
            m ^= low
        return tuple(out)

    def sort_key(self) -> tuple[int, int]:
        """Canonical order: ascending cardinality, then ascending encoding."""
        return (self.mask.bit_count(), self.mask)

    def __or__(self, other: SpeciesSet) -> SpeciesSet:
        _same_table(self, other)
        return SpeciesSet(self.table, self.mask | other.mask)

    def __and__(self, other: SpeciesSet) -> SpeciesSet:
        _same_table(self, other)
        return SpeciesSet(self.table, self.mask & other.mask)

    def __sub__(self, other: SpeciesSet) -> SpeciesSet:
        _same_table(self, other)
        return SpeciesSet(self.table, self.mask & ~other.mask)

    def __le__(self, other: SpeciesSet) -> bool:
        _same_table(self, other)
        return self.mask & ~other.mask == 0

    def __ge__(self, other: SpeciesSet) -> bool:
        _same_table(self, other)
        return other.mask & ~self.mask == 0

    def __lt__(self, other: SpeciesSet) -> bool:
        return self <= other and self.mask != other.mask

    def isdisjoint(self, other: SpeciesSet) -> bool:
        _same_table(self, other)
        return self.mask & other.mask == 0

    def __contains__(self, name: str) -> bool:
        return self.mask >> self.table.index(name) & 1 == 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def __iter__(self) -> Iterator[str]:
        return iter(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SpeciesSet)
            and self.mask == other.mask
            and (self.table is other.table or self.table.names == other.table.names)
        )

    def __hash__(self) -> int:
        return hash(self.mask) ^ self.table._hash

    def __repr__(self) -> str:
        return "{" + ", ".join(self.members) + "}"

    def pretty(self) -> str:
        disp = self.table.display_name
        return "{" + ", ".join(disp(n) for n in self.members) + "}"


def _unchecked_set(table: SpeciesTable, mask: int) -> SpeciesSet:
    d = object.__new__(SpeciesSet)
    d.table = table
    d.mask = mask
    return d


class Reaction:
    """A reactants/inhibitors/products triple over one species table.

    A reaction keeps its table and one mask per part (`rmask`, `imask`,
    `pmask`); `reactants`, `inhibitors` and `products` build the species
    set when read. So a reaction is one object for the garbage collector
    to trace instead of four: an imported 60-variable network holds about
    140 reactions, and every full collection walks all of them.
    """

    __slots__ = ("label", "table", "rmask", "imask", "pmask")

    def __init__(
        self,
        reactants: SpeciesSet,
        inhibitors: SpeciesSet,
        products: SpeciesSet,
        label: Optional[str] = None,
    ):
        _same_table(reactants, inhibitors)
        _same_table(reactants, products)
        if label is not None and not _valid_name(label):
            raise ReactionError(
                f"invalid reaction label {label!r}: labels match [A-Za-z][A-Za-z0-9_]*"
            )
        if reactants.mask & inhibitors.mask:
            overlap = SpeciesSet(reactants.table, reactants.mask & inhibitors.mask)
            raise ReactionError(
                "reactants and inhibitors overlap: " + ", ".join(overlap.members)
            )
        if products.mask == 0:
            raise ReactionError("empty product set")
        self.label = label
        self.table = reactants.table
        self.rmask = reactants.mask
        self.imask = inhibitors.mask
        self.pmask = products.mask

    @classmethod
    def unchecked(
        cls,
        reactants: SpeciesSet,
        inhibitors: SpeciesSet,
        products: SpeciesSet,
        label: Optional[str] = None,
    ) -> Reaction:
        """Build without invariant checks, for diagnostics and negative tests.

        All three masks are read over the reactants' table, even where a
        part comes from another table.
        """
        self = object.__new__(cls)
        self.label = label
        self.table = reactants.table
        self.rmask = reactants.mask
        self.imask = inhibitors.mask
        self.pmask = products.mask
        return self

    # The parts skip SpeciesSet's range check: a checked reaction's masks
    # passed it when the reaction was built, and an unchecked one keeps
    # whatever it was given, for validate_system and run_process to report.
    @property
    def reactants(self) -> SpeciesSet:
        return _unchecked_set(self.table, self.rmask)

    @property
    def inhibitors(self) -> SpeciesSet:
        return _unchecked_set(self.table, self.imask)

    @property
    def products(self) -> SpeciesSet:
        return _unchecked_set(self.table, self.pmask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Reaction)
            and self.label == other.label
            and self.rmask == other.rmask
            and self.imask == other.imask
            and self.pmask == other.pmask
            and (self.table is other.table or self.table.names == other.table.names)
        )

    def __hash__(self) -> int:
        return hash((self.label, self.rmask, self.imask, self.pmask))

    def __repr__(self) -> str:
        head = f"{self.label}: " if self.label else ""
        return f"{head}{self.reactants!r} | {self.inhibitors!r} -> {self.products!r}"


class ReactionSystem:
    """A species table plus a list of reactions over it.

    The reactions are also kept as parallel reactant, inhibitor and product
    mask tuples, the form every search loop reads.
    """

    __slots__ = (
        "species",
        "reactions",
        "rmasks",
        "imasks",
        "pmasks",
        "resource_mask",
        "_split_tables",
    )

    def __init__(self, species: SpeciesTable, reactions: Iterable[Reaction]):
        reactions = tuple(reactions)
        probe = SpeciesSet(species, 0)
        seen_labels: set[str] = set()
        resource_mask = 0
        for r in reactions:
            _same_table(probe, r.reactants)
            if r.label is not None:
                if r.label in seen_labels:
                    raise ReactionError(f"duplicate reaction label {r.label!r}")
                seen_labels.add(r.label)
            resource_mask |= r.rmask | r.imask
        self.species = species
        self.reactions = reactions
        self.rmasks = tuple(r.rmask for r in reactions)
        self.imasks = tuple(r.imask for r in reactions)
        self.pmasks = tuple(r.pmask for r in reactions)
        self.resource_mask = resource_mask
        self._split_tables = None

    @property
    def resources(self) -> SpeciesSet:
        """Species some reaction senses (union of reactants and inhibitors).

        Results depend only on the state's intersection with this set:
        result_all(A, T) = result_all(A, T ∩ resources).
        """
        return SpeciesSet(self.species, self.resource_mask)

    def split_tables(self) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
        """`res_split_tables` of the reactions, built on first use and kept
        for the life of the system."""
        if self._split_tables is None:
            self._split_tables = res_split_tables(self.rmasks, self.imasks, self.pmasks)
        return self._split_tables

    @property
    def producible(self) -> SpeciesSet:
        """Union of all product sets."""
        mask = 0
        for p in self.pmasks:
            mask |= p
        return SpeciesSet(self.species, mask)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReactionSystem)
            and self.species.names == other.species.names
            and self.reactions == other.reactions
        )

    def __hash__(self) -> int:
        return hash((self.species.names, self.reactions))

    def __repr__(self) -> str:
        return (
            f"ReactionSystem({len(self.species)} species, "
            f"{len(self.reactions)} reactions)"
        )


class ContextSequence:
    """Non-empty sequence of context sets C_0 … C_n over one table."""

    __slots__ = ("table", "contexts")

    def __init__(self, table: SpeciesTable, contexts: Iterable[SpeciesSet]):
        contexts = tuple(contexts)
        if not contexts:
            raise RsysError("empty context sequence")
        probe = SpeciesSet(table, 0)
        for c in contexts:
            _same_table(probe, c)
        self.table = table
        self.contexts = contexts

    def __len__(self) -> int:
        return len(self.contexts)

    def __iter__(self) -> Iterator[SpeciesSet]:
        return iter(self.contexts)

    def __getitem__(self, k: int) -> SpeciesSet:
        return self.contexts[k]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ContextSequence) and self.contexts == other.contexts

    def __repr__(self) -> str:
        return f"ContextSequence({list(self.contexts)!r})"


class ProcessTrace:
    """Contexts C_i and results D_i of an interactive process; W_i = C_i ∪ D_i."""

    __slots__ = ("contexts", "results", "initial_mode")

    def __init__(
        self,
        contexts: tuple[SpeciesSet, ...],
        results: tuple[SpeciesSet, ...],
        initial_mode: str,
    ):
        if len(contexts) != len(results) or not contexts:
            raise RsysError("trace needs equal non-zero context and result counts")
        if initial_mode not in ("context", "given"):
            raise RsysError(f"unknown initial mode {initial_mode!r}")
        self.contexts = contexts
        self.results = results
        self.initial_mode = initial_mode

    @property
    def states(self) -> tuple[SpeciesSet, ...]:
        return tuple(c | d for c, d in zip(self.contexts, self.results))

    @property
    def table(self) -> SpeciesTable:
        return self.contexts[0].table

    def __len__(self) -> int:
        return len(self.contexts)

    def __repr__(self) -> str:
        return f"ProcessTrace({len(self)} steps, {self.initial_mode!r} start)"


def validate_system(system: ReactionSystem) -> list[str]:
    """Defensive re-check of every structural invariant; empty list = valid."""
    problems: list[str] = []
    table = system.species
    limit = 1 << len(table)
    labels: set[str] = set()
    for k, r in enumerate(system.reactions):
        who = f"reaction {k}" + (f" ({r.label})" if r.label else "")
        for part, name in (
            (r.reactants, "reactants"),
            (r.inhibitors, "inhibitors"),
            (r.products, "products"),
        ):
            if part.table is not table and part.table.names != table.names:
                problems.append(f"{who}: {name} use a different species table")
            elif not 0 <= part.mask < limit:
                problems.append(f"{who}: {name} mask out of range")
        overlap = r.reactants.mask & r.inhibitors.mask
        if overlap:
            names = SpeciesSet(r.reactants.table, overlap).members
            problems.append(
                f"{who}: reactants and inhibitors overlap: " + ", ".join(names)
            )
        if r.products.mask == 0:
            problems.append(f"{who}: empty product set")
        if r.label is not None:
            if not _valid_name(r.label):
                problems.append(f"{who}: invalid label {r.label!r}")
            elif r.label in labels:
                problems.append(f"{who}: duplicate reaction label {r.label!r}")
            labels.add(r.label)
    return problems


def enabled(reaction: Reaction, state: SpeciesSet) -> bool:
    """True iff all reactants are present and no inhibitor is."""
    _same_table(reaction.reactants, state)
    m = state.mask
    return reaction.rmask & ~m == 0 and reaction.imask & m == 0


def result_reaction(reaction: Reaction, state: SpeciesSet) -> SpeciesSet:
    """The reaction's products if enabled in `state`, else the empty set."""
    if enabled(reaction, state):
        return reaction.products
    return SpeciesSet(state.table, 0)


def _check_table(sset: SpeciesSet, system: ReactionSystem, what: str) -> None:
    if sset.table is not system.species and sset.table != system.species:
        raise SpeciesMismatchError(
            f"{what} uses a different species table than the system"
        )


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


def res_mask(
    state: int, rmasks: tuple[int, ...], imasks: tuple[int, ...], pmasks: tuple[int, ...]
) -> int:
    """Union of products of the reactions enabled in `state`."""
    out = 0
    for r, i, p in zip(rmasks, imasks, pmasks):
        if state & r == r and state & i == 0:
            out |= p
    return out


def res_split(
    d: int,
    union: int,
    rmasks: tuple[int, ...],
    imasks: tuple[int, ...],
    pmasks: tuple[int, ...],
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """Split the reactions once for every result res(c | d) with c ⊆ union.

    Returns (base, rest). `base` holds the products of the reactions enabled
    in every c | d; `rest` holds (reactants ∖ d, inhibitors, products) of the
    reactions that some c may enable. Reactions that no c | d enables are
    dropped. Then res(c | d) is `base` joined with the products of every
    `rest` entry whose reactants lie in c and whose inhibitors miss c.
    """
    reach = d | union
    base = 0
    rest = []
    for r, i, p in zip(rmasks, imasks, pmasks):
        if i & d or r & ~reach:
            continue
        need = r & ~d
        if need or i & union:
            rest.append((need, i, p))
        else:
            base |= p
    return base, tuple(rest)


def res_values(
    base: int,
    rest: tuple[tuple[int, int, int], ...],
    union: int,
    limit: int,
    leaves: Optional[list[tuple[int, int, int]]] = None,
) -> set[int]:
    """Every distinct result of a `res_split(d, union)` over the contexts
    c ⊆ union with at most `limit` species: the set of res(c | d).

    Shannon expansion, as a BDD cofactor splits: each step picks a species
    of the first live entry, and the branch where it is absent and the one
    where it is present each drop the entries the choice decides. A branch
    stops once no live entry can add a product to its base; the species
    left unassigned are then absent, which every limit admits. Branches
    wait on a list, not on the call stack, so an entry with thousands of
    reactants needs no deep recursion.

    With `leaves`, each branch's end is also appended to it as a cube
    (present, absent, result): every admitted c that holds the species
    `present` and none of `absent` has res(c | d) = result. The cubes are
    disjoint, and without a binding limit they cover every c ⊆ union.
    """
    out: set[int] = set()
    # An inhibitor outside the union is never in c, so it blocks nothing.
    todo = [(base, [(r, i & union, p) for r, i, p in rest], limit, 0, 0)]
    while todo:
        base, live, room, present, absent = todo.pop()
        while True:
            kept = []
            for r, i, p in live:
                if not p & ~base or r.bit_count() > room:
                    continue
                if not r and (not i or not room):
                    base |= p
                else:
                    kept.append((r, i, p))
            if not kept:
                out.add(base)
                if leaves is not None:
                    leaves.append((present, absent, base))
                break
            r, i, _ = kept[0]
            split = r or i
            s = split & -split
            todo.append(
                (
                    base,
                    [(r, i & ~s, p) for r, i, p in kept if not r & s],
                    room,
                    present,
                    absent | s,
                )
            )
            live = [(r & ~s, i, p) for r, i, p in kept if not i & s]
            room -= 1
            present |= s
    return out


RES_CHUNK_BITS = 6


def _or_table(masks: Iterable[int]) -> list[int]:
    """t[u] is the union of masks[k] over the set bits k of u."""
    t = [0]
    for m in masks:
        t += [x | m for x in t]
    return t


def _species_tables(
    n: int, rmasks: tuple[int, ...], imasks: tuple[int, ...]
) -> list[tuple[list[int], list[int]]]:
    """(lacks, present) for each W-bit chunk c of the first `n` species.

    lacks[u] is the mask of reactions with a reactant among the bits u of
    chunk c; present[v] is the mask of reactions with an inhibitor among
    the bits v of chunk c. Inhibitor bits at n or above are left out.
    """
    w = RES_CHUNK_BITS
    in_range = (1 << n) - 1
    needed_by = [0] * n
    inhibits = [0] * n
    for j, (r, i) in enumerate(zip(rmasks, imasks)):
        bit = 1 << j
        while r:
            low = r & -r
            needed_by[low.bit_length() - 1] |= bit
            r ^= low
        i &= in_range
        while i:
            low = i & -i
            inhibits[low.bit_length() - 1] |= bit
            i ^= low
    return [
        (_or_table(needed_by[lo : lo + w]), _or_table(inhibits[lo : lo + w]))
        for lo in range(0, n, w)
    ]


def _products_tables(pmasks: tuple[int, ...]) -> list[list[int]]:
    w = RES_CHUNK_BITS
    return [_or_table(pmasks[lo : lo + w]) for lo in range(0, len(pmasks), w)]


def res_tables(
    n: int, rmasks: tuple[int, ...], imasks: tuple[int, ...], pmasks: tuple[int, ...]
) -> tuple[list[list[int]], list[list[int]]]:
    """Lookup tables that evaluate res over states of `n` species a chunk
    of W = RES_CHUNK_BITS bits at a time, as byte-wise CRC tables do.

    Returns (disables, produces); chunk c covers bits c*W … c*W+W-1.
    disables[c][v] is the mask of reactions that chunk c of a state
    disables when it holds v: a reactant absent or an inhibitor present.
    produces[c][v] is the union of the products of the reactions whose
    bits v sets in chunk c of an enabled-reaction mask. So for a state s
    below 2^n, the enabled reactions e are those in no disables[c][chunk
    c of s], and res(s) is the union of produces[c][chunk c of e].
    Reactant masks must lie below 2^n, as a ReactionSystem's do; inhibitor
    bits at n or above are never present, so they disable nothing.
    """
    disables = []
    for lacks, present in _species_tables(n, rmasks, imasks):
        full = len(lacks) - 1
        disables.append([lacks[full ^ v] | present[v] for v in range(full + 1)])
    return disables, _products_tables(pmasks)


def res_split_tables(
    rmasks: tuple[int, ...], imasks: tuple[int, ...], pmasks: tuple[int, ...]
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Lookup tables that compute `res_split` a chunk at a time.

    Returns (absent, present, produces), chunked as in `res_tables` over
    every species some reaction senses. absent[c][v] is the mask of
    reactions with a reactant in chunk c that v lacks, present[c][v] the
    mask of those with an inhibitor in chunk c that v holds. Write t[x]
    for the union of t[c][chunk c of x] over the chunks. For a result d
    and a union u, `res_split(d, u)` drops the reactions in present[d] |
    absent[d | u]; of the others, those in absent[d] or in present[u] make
    up `rest`, and `base` is produces[] of the remaining ones. Bits of d
    and u above the last chunk are sensed by no reaction.
    """
    sensed = 0
    for r, i in zip(rmasks, imasks):
        sensed |= r | i
    absent = []
    present = []
    for lacks, holds in _species_tables(sensed.bit_length(), rmasks, imasks):
        full = len(lacks) - 1
        absent.append([lacks[full ^ v] for v in range(full + 1)])
        present.append(holds)
    return absent, present, _products_tables(pmasks)


def result_all(system: ReactionSystem, state: SpeciesSet) -> SpeciesSet:
    """Union of products of all reactions enabled in `state`."""
    probe = SpeciesSet(system.species, 0)
    _same_table(probe, state)
    return SpeciesSet(
        system.species,
        res_mask(state.mask, system.rmasks, system.imasks, system.pmasks),
    )


def step(system: ReactionSystem, state: SpeciesSet, context: SpeciesSet) -> SpeciesSet:
    """Next full state: the new step's context joined with res(state)."""
    _same_table(state, context)
    return context | result_all(system, state)


def run_process(
    system: ReactionSystem,
    contexts: Union[ContextSequence, Iterable[SpeciesSet]],
    initial_result: Optional[SpeciesSet] = None,
) -> ProcessTrace:
    """Replay the interactive process driven by `contexts`.

    Without `initial_result` the first result set is empty (mode "context");
    with it, the supplied set is installed as D_0 (mode "given"). Either way
    D_i = res(C_{i-1} ∪ D_{i-1}), the trace has one step per context, and the
    final context only pads the final state.
    """
    if isinstance(contexts, ContextSequence):
        ctxs = contexts.contexts
    else:
        ctxs = tuple(contexts)
    if not ctxs:
        raise RsysError("empty context sequence")
    table = system.species
    probe = SpeciesSet(table, 0)
    for c in ctxs:
        _same_table(probe, c)
    if initial_result is None:
        mode = "context"
        d = probe
    else:
        mode = "given"
        _same_table(probe, initial_result)
        d = initial_result
    results = [d]
    rmasks, imasks, pmasks = system.rmasks, system.imasks, system.pmasks
    m = d.mask
    n = len(table)
    w = RES_CHUNK_BITS
    # The tables cost about as much to build as 2^W steps save. Products
    # from outside the table (unchecked reactions) keep the checked path,
    # which raises at the first result out of range.
    if len(ctxs) <= 1 << w or any(p >> n for p in pmasks):
        for c in ctxs[:-1]:
            m = res_mask(c.mask | m, rmasks, imasks, pmasks)
            results.append(SpeciesSet(table, m))
        return ProcessTrace(ctxs, tuple(results), mode)
    disables, produces = res_tables(n, rmasks, imasks, pmasks)
    chunk = (1 << w) - 1
    every = (1 << len(rmasks)) - 1
    seen: dict[int, SpeciesSet] = {}
    for c in ctxs[:-1]:
        s = c.mask | m
        off = 0
        for t in disables:
            off |= t[s & chunk]
            s >>= w
        e = every & ~off
        m = 0
        for t in produces:
            m |= t[e & chunk]
            e >>= w
        # Equal results share one SpeciesSet: a long replay repeats about a
        # third of its results, and each object it skips is one fewer for
        # the garbage collector to trace while the trace is alive.
        d = seen.get(m)
        if d is None:
            # Every product lies in the table, so m needs no range check.
            d = seen[m] = _unchecked_set(table, m)
        results.append(d)
    return ProcessTrace(ctxs, tuple(results), mode)
