"""Controllability: context constraints, witness search, decisions.

Semantics in one paragraph: a witness for (X, Y) is a run W_0, W_1, …, W_r
with W_k = C_k ∪ res(W_{k-1}) whose end condition holds at some index r
(full mode: W_r = Y; target mode: W_r ∩ T = Y). In the default "given"
initial mode the source X is installed wholesale as W_0 and the constraint
applies to the steering contexts C_1 … C_r only; in "context" mode the
source must itself be the first context (W_0 = C_0 = X) and is
constraint-checked like every other context. Decisions quantify over all
ordered pairs (X, Y), X ≠ Y, with Y restricted to the image of the result
map (target mode: to projections of the image onto T), and report the
first counterexample in canonical order: ascending (|X|, X encoding,
|Y|, Y encoding).

An exhaustive decision never searches full states, lists contexts or
builds an `Engine`: it walks one graph over result values per call
(`_pairscan.ResultGraph`), expanding each value once, and takes its end
sets from the image that `ReactionSystem.least_sources` builds once per
system. In target mode it tests each source against the end sets its
starts' results reach; in full mode (T = S) the sources that share a
result share its answer, so it tests each result of the image once, in
the order of its least source. Its node budget counts the result values
expanded; a sampled decision and `find_witness` search full states with
a kernel `Engine`, and their budgets count states. In full mode without a
budget, a sampled decision searches only the pairs that no result an
earlier search reached from the source's result already covers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from math import comb
from itertools import combinations
from typing import Callable, Optional, Sequence, Union

from ._engine import BUDGET_STOP, FOUND, Engine
from .core import (
    ContextSequence,
    ProcessTrace,
    ReactionSystem,
    SpeciesSet,
    SpeciesTable,
    _check_table,
    canonical_sorted,
    res_mask,
    run_process,
    submasks_ascending,
)
from .errors import BudgetError, RefusalError, RsysError, SpeciesMismatchError
from .formats import export_trace

CONTEXT_UNIVERSE_LIMIT = 1 << 20
SPECIES_LIMIT_DEFAULT = 16
FRONTIER_LIMIT_DEFAULT = 16
UNLIMITED = 1 << 62


def _node_budget(node_budget: Optional[int]) -> int:
    """The cap on a search's work, None meaning unlimited: states for a
    kernel search, result values expanded for an exhaustive decision.

    Budgets are capped at UNLIMITED so they fit the compiled kernel's
    64-bit counter; no search can visit that many states anyway.
    """
    if node_budget is None:
        return UNLIMITED
    if node_budget < 0:
        raise RsysError(f"node budget must be at least 0, got {node_budget}")
    return min(node_budget, UNLIMITED)


class ContextConstraint:
    """Restriction on the contexts a steering sequence may use.

    `span(table)` is (union, limit): the admitted contexts are exactly the
    subsets of `union` with at most `limit` species. `count`,
    `context_masks` and `satisfied_by` follow from it, so a subclass
    defines only `span`, `bind_check`, `violation` and `to_json`.
    """

    def bind_check(self, table: SpeciesTable) -> None:
        raise NotImplementedError

    def span(self, table: SpeciesTable) -> tuple[int, int]:
        raise NotImplementedError

    def violation(self) -> str:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError

    def count(self, table: SpeciesTable) -> int:
        """How many contexts the constraint admits."""
        union, limit = self.span(table)
        k = union.bit_count()
        if limit >= k:
            return 1 << k
        return sum(comb(k, j) for j in range(limit + 1))

    def context_masks(self, table: SpeciesTable) -> list[int]:
        """The admitted contexts, ascending by (size, encoding)."""
        union, limit = self.span(table)
        if limit >= union.bit_count():
            return submasks_ascending(union)
        bits = [1 << i for i in range(union.bit_length()) if union >> i & 1]
        return canonical_sorted(
            sum(combo) for k in range(limit + 1) for combo in combinations(bits, k)
        )

    def satisfied_by(self, context: SpeciesSet) -> bool:
        union, limit = self.span(context.table)
        return context.mask & ~union == 0 and len(context) <= limit


@dataclass(frozen=True)
class MaxCardinality(ContextConstraint):
    """Allow every context with at most `n` species."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise RsysError("cardinality bound must be at least 0")

    def bind_check(self, table: SpeciesTable) -> None:
        if self.n >= len(table):
            raise RsysError(
                f"cardinality bound {self.n} must stay below the species "
                f"count {len(table)} (the unconstrained case)"
            )

    def span(self, table: SpeciesTable) -> tuple[int, int]:
        return table.full_set.mask, self.n

    def violation(self) -> str:
        return f"context has more than {self.n} species"

    def to_json(self) -> dict:
        return {"kind": "max-cardinality", "n": self.n}


@dataclass(frozen=True)
class AllowedSet(ContextConstraint):
    """Allow every context drawn from the fixed species set I."""

    allowed: SpeciesSet

    def bind_check(self, table: SpeciesTable) -> None:
        if self.allowed.table is not table and self.allowed.table != table:
            raise SpeciesMismatchError(
                "allowed set uses a different species table than the system"
            )

    def span(self, table: SpeciesTable) -> tuple[int, int]:
        self.bind_check(table)
        return self.allowed.mask, len(self.allowed)

    def violation(self) -> str:
        return "context not ⊆ I"

    def to_json(self) -> dict:
        return {"kind": "allowed-set", "I": list(self.allowed.members)}


def _json_names(value, field: str) -> list[str]:
    """A JSON list of species names; a bare string is refused, since
    iterating it would read each letter as a species."""
    if not isinstance(value, list) or not all(isinstance(n, str) for n in value):
        raise RsysError(f"{field!r} must be a list of species names, got {value!r}")
    return value


def _json_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise RsysError(f"{field!r} must be an integer, got {value!r}")
    return value


def constraint_from_json(data: dict, table: SpeciesTable) -> ContextConstraint:
    if not isinstance(data, dict):
        raise RsysError(f"'constraint' must be a JSON object, got {data!r}")
    kind = str(data.get("kind", "")).lower().replace("_", "-")
    if kind in ("max-cardinality", "maxcardinality"):
        return MaxCardinality(_json_int(data["n"], "n"))
    if kind in ("allowed-set", "allowedset"):
        return AllowedSet(table.set_of(_json_names(data["I"], "I")))
    raise RsysError(f"unknown constraint kind {data.get('kind')!r}")


@dataclass(frozen=True)
class Exhaustive:
    """Check every pair."""


@dataclass(frozen=True)
class Sampled:
    """Check `k` random pairs drawn with the given seed."""

    k: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.k < 1:
            raise RsysError("sample size must be at least 1")


Scope = Union[Exhaustive, Sampled]


@dataclass(frozen=True)
class ControlQuery:
    """One witness-search problem: steer `source` to `target`.

    With `targets` set, source and target are read as projections onto
    that set and the end condition becomes W_r ∩ targets = target.
    `depth_limit` of None means unbounded (absence is then definitive);
    note the source is still taken literally as the full start state, so
    callers quantifying over all states that project to X must issue one
    query per completion (decide_target_controllable does).
    """

    source: SpeciesSet
    target: SpeciesSet
    constraint: ContextConstraint
    targets: Optional[SpeciesSet] = None
    initial_mode: str = "given"
    depth_limit: Optional[int] = None

    def __post_init__(self) -> None:
        if self.initial_mode not in ("given", "context"):
            raise RsysError(
                f"initial_mode must be 'given' or 'context', "
                f"not {self.initial_mode!r}"
            )
        if self.depth_limit is not None and self.depth_limit < 1:
            raise RsysError("depth_limit must be at least 1")
        if self.targets is not None and not self.target <= self.targets:
            raise RsysError("target must be a subset of the target set")

    def to_json(self) -> dict:
        out: dict = {
            "source": list(self.source.members),
            "target": list(self.target.members),
            "constraint": self.constraint.to_json(),
            "initial_mode": self.initial_mode,
        }
        if self.targets is not None:
            out["targets"] = list(self.targets.members)
        if self.depth_limit is not None:
            out["depth_limit"] = self.depth_limit
        return out


def query_from_json(data: dict, table: SpeciesTable) -> ControlQuery:
    if not isinstance(data, dict):
        raise RsysError("query must be a JSON object")
    try:
        source = table.set_of(_json_names(data["source"], "source"))
        target = table.set_of(_json_names(data["target"], "target"))
        constraint = constraint_from_json(data["constraint"], table)
    except KeyError as exc:
        raise RsysError(f"query is missing the {exc.args[0]!r} field") from None
    targets = data.get("targets")
    depth = data.get("depth_limit")
    return ControlQuery(
        source=source,
        target=target,
        constraint=constraint,
        targets=(
            table.set_of(_json_names(targets, "targets"))
            if targets is not None
            else None
        ),
        initial_mode=data.get("initial_mode", "given"),
        depth_limit=_json_int(depth, "depth_limit") if depth is not None else None,
    )


@dataclass(frozen=True)
class ControlWitness:
    """A steering sequence together with its replayed trace.

    In "given" mode `contexts` holds the steering contexts C_1 … C_r (empty
    when the source already satisfies the end condition); in "context" mode
    it additionally starts with C_0 = source. `trace` replays the whole
    run; the end condition holds at trace state `hit_index`.
    """

    contexts: tuple[SpeciesSet, ...]
    trace: ProcessTrace
    hit_index: int
    visited: int = 0

    def to_json(self) -> dict:
        return {
            "contexts": [list(c.members) for c in self.contexts],
            "hit_index": self.hit_index,
            "visited": self.visited,
            "trace": json.loads(export_trace(self.trace, "json")),
        }


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None
    hit_index: Optional[int] = None


@dataclass(frozen=True)
class ControllabilityVerdict:
    """Outcome of a pair scan.

    `counterexample` is the canonically first witness-free pair; under a
    sampled scope a true decision only means no counterexample was found
    among the pairs checked.
    """

    decision: bool
    counterexample: Optional[tuple[SpeciesSet, SpeciesSet]] = None
    pairs_checked: int = 0


def _context_masks(
    system: ReactionSystem,
    constraint: ContextConstraint,
    limit: int = CONTEXT_UNIVERSE_LIMIT,
    advice: str = "",
) -> list[int]:
    """The contexts the constraint admits, in canonical order; refuse to
    list them when there are more than `limit`."""
    table = system.species
    constraint.bind_check(table)
    count = constraint.count(table)
    if count > limit:
        raise RefusalError(
            f"constraint admits {count} contexts, above the enumeration "
            f"limit {limit}{advice}"
        )
    return constraint.context_masks(table)


def allowed_contexts(
    system: ReactionSystem,
    constraint: ContextConstraint,
    limit: int = CONTEXT_UNIVERSE_LIMIT,
) -> list[SpeciesSet]:
    """All contexts the constraint admits, ascending by (size, encoding)."""
    table = system.species
    masks = _context_masks(
        system, constraint, limit, "; pass a larger limit to enumerate anyway"
    )
    return [table.from_mask(m) for m in masks]


def _target_mask(system: ReactionSystem, targets: Optional[SpeciesSet]) -> int:
    """The target set's mask; None means every species, since a full-state
    goal is the projected goal with every species projected."""
    if targets is None:
        return system.species.full_set.mask
    _check_table(targets, system, "target set")
    return targets.mask


def _bind_query(system: ReactionSystem, query: ControlQuery) -> int:
    """Check a witness query against the system; return its target mask."""
    _check_table(query.source, system, "source")
    _check_table(query.target, system, "target")
    t_mask = _target_mask(system, query.targets)
    query.constraint.bind_check(system.species)
    return t_mask


def find_witness(
    system: ReactionSystem,
    query: ControlQuery,
    node_budget: Optional[int] = None,
) -> Optional[ControlWitness]:
    """Shortest steering sequence for the query, or None when none exists.

    Breadth-first over full states with successors C ∪ res(W), contexts
    tried in canonical order, so the returned witness is shortest with
    ties broken canonically. None is definitive when the depth limit is
    unbounded (the search memoizes states); with a depth limit it only
    covers runs up to that length. A node budget turns an inconclusive
    search into a BudgetError instead.
    """
    budget = _node_budget(node_budget)
    t_mask = _bind_query(system, query)
    table = system.species
    ctx_masks = _context_masks(system, query.constraint)
    if query.initial_mode == "context" and not query.constraint.satisfied_by(
        query.source
    ):
        return None
    eng = Engine(system)
    depth = -1 if query.depth_limit is None else query.depth_limit
    status, _, path, _, visited = eng.bfs_witness(
        [query.source.mask],
        ctx_masks,
        query.target.mask,
        t_mask,
        depth,
        budget,
    )
    if status == BUDGET_STOP:
        raise BudgetError(
            f"witness search stopped by the node budget after visiting "
            f"{visited} states",
            visited=visited,
        )
    if status != FOUND:
        return None
    steering = tuple(table.from_mask(ctx_masks[ci]) for ci in path)
    empty = table.set_of()
    if query.initial_mode == "given":
        trace = run_process(
            system, (empty,) + steering, initial_result=query.source
        )
        contexts = steering
    else:
        contexts = (query.source,) + steering
        trace = run_process(system, contexts)
    return ControlWitness(
        contexts=contexts,
        trace=trace,
        hit_index=len(steering),
        visited=visited,
    )


def verify_witness(
    system: ReactionSystem,
    query: ControlQuery,
    contexts: Union[ContextSequence, Sequence[SpeciesSet], ControlWitness],
) -> VerifyResult:
    """Replay a context sequence against a query, reporting the first
    index where the end condition holds or the first rule it breaks.

    The query is refused where `find_witness` refuses it; the replay runs
    on `core.res_mask`, not on the kernel that found the witness."""
    if isinstance(contexts, ControlWitness):
        contexts = contexts.contexts
    t_mask = _bind_query(system, query)
    seq = tuple(contexts)
    for c in seq:
        _check_table(c, system, "context")
    first = 1
    if query.initial_mode == "context":
        if not seq:
            return VerifyResult(False, "no contexts to replay", None)
        if seq[0] != query.source:
            return VerifyResult(
                False, "first context differs from the source", None
            )
        first = 0
    for k, c in enumerate(seq, start=first):
        if not query.constraint.satisfied_by(c):
            return VerifyResult(
                False, f"{query.constraint.violation()} at step {k}", None
            )
    w = query.source.mask
    states = [w]
    for c in seq[1 - first :]:
        w = c.mask | res_mask(w, system.rmasks, system.imasks, system.pmasks)
        states.append(w)
    for r, w in enumerate(states):
        if w & t_mask == query.target.mask:
            if query.depth_limit is not None and r > query.depth_limit:
                return VerifyResult(
                    False,
                    f"end condition first holds at step {r}, beyond the "
                    f"depth limit {query.depth_limit}",
                    None,
                )
            return VerifyResult(True, None, r)
    return VerifyResult(False, "end condition never holds along the replay", None)


def trivial_witness(
    system: ReactionSystem, source: SpeciesSet, target: SpeciesSet
) -> ControlWitness:
    """The constraint-free three-context run (X, S, Y).

    Installing the full species set as the middle context makes the run
    independent of X; it verifies exactly when res(S) ⊆ Y, and otherwise
    the refusal names the final-state deviation.
    """
    _check_table(source, system, "source")
    _check_table(target, system, "target")
    table = system.species
    contexts = (source, table.full_set, target)
    trace = run_process(system, contexts)
    final = trace.states[2]
    if final != target:
        extra = final - target
        raise RefusalError(
            f"trivial witness replay deviates at step 2: expected "
            f"{target!r}, got {final!r} (the full-set result contributes "
            f"{extra!r})"
        )
    return ControlWitness(contexts=contexts, trace=trace, hit_index=2, visited=3)


def _decide(
    system: ReactionSystem,
    t_mask: int,
    constraint: ContextConstraint,
    scope: Scope,
    proviso: str,
    species_limit: int,
    frontier_limit: int,
    node_budget: Optional[int],
) -> ControllabilityVerdict:
    """The pair scan behind every decision. An exhaustive one reads the
    image and least sources that the system keeps, so the decisions and
    minimal-scan probes on one system build them once. A sampled one runs
    one kernel search per drawn pair, except in full mode without a
    budget: there it keeps, per source result, the results its searches
    proved reachable, and answers a pair that one of them covers without
    a search. Verdicts, counterexamples and `pairs_checked` are those of
    a search per pair."""
    budget = _node_budget(node_budget)
    if species_limit < 0:
        raise RsysError(f"species limit must be at least 0, got {species_limit}")
    if frontier_limit < 0:
        raise RsysError(
            f"frontier limit must be at least 0, got {frontier_limit}"
        )
    table = system.species
    if proviso not in ("projection", "superset"):
        raise RsysError(
            f"unknown proviso {proviso!r} (projection or superset)"
        )
    n_targets = t_mask.bit_count()
    full_mask = table.full_set.mask
    outside = full_mask & ~t_mask
    n_outside = outside.bit_count()
    if isinstance(scope, Exhaustive) and n_targets > species_limit:
        raise RefusalError(
            f"exhaustive scope over {n_targets} target species checks up to "
            f"4^{n_targets} pairs (ceiling {species_limit}; pass "
            "species_limit to override)"
        )
    if n_outside > frontier_limit:
        raise RefusalError(
            f"start frontier spans 2^{n_outside} states per source "
            f"(limit {frontier_limit}); pin the full start state with "
            "find_witness instead, or raise frontier_limit"
        )

    if isinstance(scope, Sampled):
        # Only the kernel searches of a sampled decision list the contexts;
        # the result graph reads the constraint's span instead.
        ctx_masks = _context_masks(system, constraint)
        eng = Engine(system)
        masks = (system.rmasks, system.imasks, system.pmasks)
        rng = random.Random(scope.seed)
        n = len(table)
        checked = 0
        # Full mode without a budget: x ≠ y rules out a hit at depth 0, so
        # a pair's answer depends on d0 = res(x) alone. known[d0] holds the
        # results that earlier searches proved reachable from d0; a pair
        # whose end set one of them covers needs no search. A budgeted
        # search must still run, since it may stop where this would not.
        known: Optional[dict[int, set[int]]] = (
            {} if not outside and budget == UNLIMITED else None
        )
        union, limit = constraint.span(table)
        outside_subs = submasks_ascending(outside)
        for _ in range(scope.k):
            y = res_mask(rng.getrandbits(n), *masks) & t_mask
            if proviso == "superset":
                y &= rng.getrandbits(n)
            x = rng.getrandbits(n) & t_mask
            while x == y and t_mask:
                x = rng.getrandbits(n) & t_mask
            if x == y:
                continue
            checked += 1
            if known is not None:
                d0 = res_mask(x, *masks)
                reached = known.setdefault(d0, {d0})
                # ResultGraph._cover with T = S: some admitted context c
                # has c | d = y; the admitted contexts are downward closed,
                # so c = y ∖ d is the one to test
                if any(
                    d & ~y == 0
                    and (y & ~d) & ~union == 0
                    and (y & ~d).bit_count() <= limit
                    for d in reached
                ):
                    continue
            starts = [x | z for z in outside_subs]
            status, _, path, _, visited = eng.bfs_witness(
                starts, ctx_masks, y, t_mask, -1, budget
            )
            if status == BUDGET_STOP:
                raise BudgetError(
                    f"witness search stopped by the node budget after "
                    f"visiting {visited} states",
                    visited=visited,
                )
            if status != FOUND:
                return ControllabilityVerdict(
                    False,
                    (table.from_mask(x), table.from_mask(y)),
                    checked,
                )
            if known is not None:
                # every result along the witness is reachable from d0, and
                # so is everything known to be reachable from one of them
                d = d0
                for ci in path:
                    d = res_mask(ctx_masks[ci] | d, *masks)
                    reached.update(known.get(d, (d,)))
        return ControllabilityVerdict(True, None, checked)

    constraint.bind_check(table)
    # End sets come from the image of the result map; enumerating it can
    # be exponential in the sensed species, so only the exhaustive scope
    # (whose size the ceilings above already bound) may pay for it. In full
    # mode the same expansion also gives the least sources of each result.
    ends = {d & t_mask for _, _, d in system.least_sources()}
    if proviso == "superset":
        down: set[int] = set()
        for proj in ends:
            if proj not in down:
                down.update(submasks_ascending(proj))
        ends = down
    y_masks = canonical_sorted(ends)

    # Imported here so that commands that never decide do not load it.
    from ._pairscan import ResultGraph, scan_pairs, scan_results

    union, limit = constraint.span(table)
    graph = ResultGraph(system, union, limit, y_masks, t_mask, budget)
    if outside:
        # target mode: each source's start frontier X ∪ Z, Z ⊆ S ∖ T,
        # spans several results, so the sources are scanned one by one
        checked, cex = scan_pairs(
            system, graph, submasks_ascending(t_mask), y_masks, outside
        )
    else:
        # full mode: the sources sharing a result share its answer, so
        # the scan runs over the image's results, not over 2^|S| sources
        checked, cex = scan_results(system, graph, y_masks)
    if cex is None:
        return ControllabilityVerdict(True, None, checked)
    return ControllabilityVerdict(
        False, (table.from_mask(cex[0]), table.from_mask(cex[1])), checked
    )


def decide_controllable(
    system: ReactionSystem,
    constraint: ContextConstraint,
    scope: Scope = Exhaustive(),
    species_limit: int = SPECIES_LIMIT_DEFAULT,
    node_budget: Optional[int] = None,
) -> ControllabilityVerdict:
    """Can every source be steered to every image state under the
    constraint?

    Sources range over all subsets; ends range over the image of the
    result map (unreachable-by-definition ends are skipped, not counted).
    """
    return _decide(
        system,
        system.species.full_set.mask,
        constraint,
        scope,
        "projection",
        species_limit,
        frontier_limit=0,
        node_budget=node_budget,
    )


def decide_target_controllable(
    system: ReactionSystem,
    targets: SpeciesSet,
    constraint: ContextConstraint,
    scope: Scope = Exhaustive(),
    proviso: str = "projection",
    species_limit: int = SPECIES_LIMIT_DEFAULT,
    frontier_limit: int = FRONTIER_LIMIT_DEFAULT,
    node_budget: Optional[int] = None,
) -> ControllabilityVerdict:
    """decide_controllable restricted to projections onto `targets`.

    Pairs (X, Y) range over subsets of the target set; the start frontier
    is every full state projecting to X (one reachable completion
    suffices), and admissible ends are image projections ("projection",
    the default) or any subset of one ("superset"). With targets = S the
    verdict coincides with decide_controllable.
    """
    _check_table(targets, system, "target set")
    return _decide(
        system,
        targets.mask,
        constraint,
        scope,
        proviso,
        species_limit,
        frontier_limit,
        node_budget,
    )


def _minimal_probe(
    system: ReactionSystem,
    scope: Scope,
    targets: Optional[SpeciesSet],
    species_limit: int,
    frontier_limit: int,
    node_budget: Optional[int],
) -> Callable[[ContextConstraint], ControllabilityVerdict]:
    """The decision a minimal scan repeats with one constraint after
    another. The budget and target set (None means every species) are
    checked once; exhaustive probes share the image and least sources the
    system keeps."""
    _node_budget(node_budget)
    return partial(
        _decide,
        system,
        _target_mask(system, targets),
        scope=scope,
        proviso="projection",
        species_limit=species_limit,
        frontier_limit=frontier_limit,
        node_budget=node_budget,
    )


@dataclass(frozen=True)
class MinimalNReport:
    """Smallest cardinality bound that decides true, with the probe trail."""

    minimal: Optional[int]
    verdicts: tuple[tuple[int, ControllabilityVerdict], ...]


def minimal_n(
    system: ReactionSystem,
    scope: Scope = Exhaustive(),
    targets: Optional[SpeciesSet] = None,
    species_limit: int = SPECIES_LIMIT_DEFAULT,
    frontier_limit: int = FRONTIER_LIMIT_DEFAULT,
    node_budget: Optional[int] = None,
) -> MinimalNReport:
    """Ascending scan n = 0, 1, …, |S|−1; the first true n is minimal
    because larger bounds only add contexts."""
    probe = _minimal_probe(
        system, scope, targets, species_limit, frontier_limit, node_budget
    )
    verdicts: list[tuple[int, ControllabilityVerdict]] = []
    for n in range(len(system.species)):
        verdict = probe(MaxCardinality(n))
        verdicts.append((n, verdict))
        if verdict.decision:
            return MinimalNReport(n, tuple(verdicts))
    return MinimalNReport(None, tuple(verdicts))


@dataclass(frozen=True)
class MinimalSetReport:
    """Inclusion-minimal allowed set reached by greedy drops.

    `steps` records each drop probe as (species, dropped, verdict); when
    the starting set already fails, `minimal` is None and `start_verdict`
    carries the counterexample.
    """

    minimal: Optional[SpeciesSet]
    start_verdict: ControllabilityVerdict
    steps: tuple[tuple[str, bool, ControllabilityVerdict], ...] = ()


def minimal_I(
    system: ReactionSystem,
    start: SpeciesSet,
    scope: Scope = Exhaustive(),
    targets: Optional[SpeciesSet] = None,
    species_limit: int = SPECIES_LIMIT_DEFAULT,
    frontier_limit: int = FRONTIER_LIMIT_DEFAULT,
    node_budget: Optional[int] = None,
) -> MinimalSetReport:
    """Greedy single pass over `start` in species order, dropping every
    element whose removal keeps the verdict true.

    Monotonicity (smaller allowed sets admit fewer contexts) makes one
    pass sound: a drop that fails now would fail against any later subset,
    so the result is inclusion-minimal. It need not have minimum size.
    """
    _check_table(start, system, "allowed set")
    probe = _minimal_probe(
        system, scope, targets, species_limit, frontier_limit, node_budget
    )
    start_verdict = probe(AllowedSet(start))
    if not start_verdict.decision:
        return MinimalSetReport(None, start_verdict)
    table = system.species
    current = start
    steps: list[tuple[str, bool, ControllabilityVerdict]] = []
    for name in start.members:
        candidate = current - table.set_of([name])
        verdict = probe(AllowedSet(candidate))
        if verdict.decision:
            current = candidate
        steps.append((name, verdict.decision, verdict))
    return MinimalSetReport(current, start_verdict, tuple(steps))

