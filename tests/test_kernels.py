"""Both kernels must agree with the reference searches on every output."""

import random

import pytest

import oracles
from rsys import RsysError
from rsys import _kernel_py
from rsys._engine import (
    BUDGET_STOP,
    COMPILED_SPECIES_LIMIT,
    DEPTH_LIMITED,
    EXHAUSTED,
    FOUND,
    Engine,
    submasks_ascending,
)
from rsys.control import UNLIMITED, AllowedSet, MaxCardinality
from util import make_system


def random_system(rng, n_species=6, n_reactions=5):
    names = [f"s{i}" for i in range(n_species)]
    triples = []
    for _ in range(n_reactions):
        reactants = rng.sample(names, rng.randint(0, min(2, n_species)))
        remaining = [x for x in names if x not in reactants]
        inhibitors = rng.sample(remaining, rng.randint(0, min(2, len(remaining))))
        products = rng.sample(names, rng.randint(1, min(3, n_species)))
        triples.append((set(reactants), set(inhibitors), set(products)))
    return make_system(names, triples)


class TestBackendSelection:
    def test_explicit_pure(self):
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        assert Engine(system, backend="pure").backend == "pure"

    def test_explicit_compiled(self, compiled):
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        assert Engine(system, backend="compiled").backend == "compiled"

    def test_unknown_backend_rejected(self):
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        with pytest.raises(RsysError, match="unknown kernel backend"):
            Engine(system, backend="sse9")

    def test_env_var_forces_pure(self, monkeypatch):
        monkeypatch.setenv("RSYS_KERNEL", "pure")
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        assert Engine(system).backend == "pure"

    def test_explicit_argument_beats_env_var(self, monkeypatch, compiled):
        monkeypatch.setenv("RSYS_KERNEL", "compiled")
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        assert Engine(system, backend="pure").backend == "pure"

    def test_wide_tables_fall_back_to_pure(self, monkeypatch):
        monkeypatch.delenv("RSYS_KERNEL", raising=False)
        n = COMPILED_SPECIES_LIMIT + 1
        names = [f"s{i}" for i in range(n)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        assert Engine(system).backend == "pure"

    def test_wide_tables_cannot_request_compiled(self, compiled):
        n = COMPILED_SPECIES_LIMIT + 1
        names = [f"s{i}" for i in range(n)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        with pytest.raises(RsysError, match="at most 64"):
            Engine(system, backend="compiled")

    def test_pure_handles_wide_tables(self):
        n = COMPILED_SPECIES_LIMIT + 8
        names = [f"s{i}" for i in range(n)]
        system = make_system(names, [(set(), set(), set(names))])
        engine = Engine(system, backend="pure")
        assert engine.res(0) == (1 << n) - 1


class TestResMask:
    def test_result_ignores_unsensed_species(self):
        # c is neither a reactant nor an inhibitor anywhere, so its
        # presence cannot change any result.
        system = make_system(
            ["a", "b", "c"], [({"a"}, {"b"}, {"c"}), ({"b"}, set(), {"b"})]
        )
        engine = Engine(system, backend="pure")
        c_bit = 1 << 2
        for state in range(4):
            assert engine.res(state) == engine.res(state | c_bit)

    def test_kernels_agree_on_every_state(self, compiled):
        rng = random.Random(11)
        for _ in range(30):
            system = random_system(rng, n_species=rng.randint(1, 6))
            pure = Engine(system, backend="pure")
            fast = Engine(system, backend="compiled")
            for state in range(1 << len(system.species)):
                assert pure.res(state) == fast.res(state)

    def test_kernels_agree_near_the_width_limit(self, compiled):
        rng = random.Random(12)
        names = [f"s{i}" for i in range(COMPILED_SPECIES_LIMIT)]
        triples = []
        for _ in range(40):
            reactants = set(rng.sample(names, 3))
            inhibitors = set(rng.sample(sorted(set(names) - reactants), 3))
            products = set(rng.sample(names, 4))
            triples.append((reactants, inhibitors, products))
        system = make_system(names, triples)
        pure = Engine(system, backend="pure")
        fast = Engine(system, backend="compiled")
        for _ in range(200):
            state = rng.getrandbits(COMPILED_SPECIES_LIMIT)
            assert pure.res(state) == fast.res(state)


def witness_oracle(system, starts, contexts, *goal_depth_budget):
    return oracles.bfs_witness_oracle(
        starts, contexts, system.rmasks, system.imasks, system.pmasks,
        *goal_depth_budget,
    )


def closure_oracle(system, starts, contexts, budget):
    return oracles.bfs_closure_oracle(
        starts, contexts, system.rmasks, system.imasks, system.pmasks, budget
    )


def constraint_contexts(rng, system):
    """Context lists of both constraint kinds: an allowed set and a
    cardinality bound."""
    table = system.species
    allowed = AllowedSet(table.from_mask(rng.getrandbits(len(table))))
    bounded = MaxCardinality(rng.randint(0, 2))
    return [allowed.context_masks(table), bounded.context_masks(table)]


def goal_masks(rng, n):
    """(goal, t_mask) of a projected goal. Half of them project every
    species, which makes the goal a full state."""
    full_state = rng.choice([True, False])
    t_mask = rng.getrandbits(n)
    if full_state:
        t_mask = (1 << n) - 1
    return rng.getrandbits(n) & t_mask, t_mask


def budgets_around(k):
    """Budgets 0, 1 and k-1, k, k+1 around a visit count k."""
    return sorted({b for b in (0, 1, k - 1, k, k + 1) if b >= 0})


class TestSearchAgreement:
    """Each kernel against the full-state search loops in `oracles`, which
    evaluate res once per state and share nothing between states."""

    def queries(self, rng, n):
        universe = rng.getrandbits(n) or 1
        contexts = submasks_ascending(universe)
        starts = [rng.getrandbits(n) for _ in range(rng.randint(1, 3))]
        goal, t_mask = goal_masks(rng, n)
        depth = rng.choice([-1, 0, 1, 3])
        budget = rng.choice([1, 7, 1 << 40])
        return starts, contexts, goal, t_mask, depth, budget

    def test_bfs_witness_matches_everywhere(self, backend):
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(1, 5)
            system = random_system(rng, n_species=n)
            engine = Engine(system, backend=backend)
            args = self.queries(rng, n)
            assert engine.bfs_witness(*args) == witness_oracle(system, *args)

    def test_all_statuses_reached_and_agree(self, backend):
        rng = random.Random(22)
        seen = set()
        for _ in range(300):
            system = random_system(rng, n_species=4)
            engine = Engine(system, backend=backend)
            args = self.queries(rng, 4)
            out = engine.bfs_witness(*args)
            assert out == witness_oracle(system, *args)
            seen.add(out[0])
        assert {FOUND, EXHAUSTED, DEPTH_LIMITED, BUDGET_STOP} <= seen

    def test_witness_budgets_around_the_visit_count(self, backend):
        rng = random.Random(25)
        for _ in range(40):
            n = rng.randint(1, 6)
            system = random_system(rng, n_species=n, n_reactions=rng.randint(2, 8))
            engine = Engine(system, backend=backend)
            for contexts in constraint_contexts(rng, system):
                starts = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
                goal, t_mask = goal_masks(rng, n)
                for depth in (-1, 0, 1, 2):
                    args = (starts, contexts, goal, t_mask, depth)
                    k = witness_oracle(system, *args, UNLIMITED)[4]
                    for budget in budgets_around(k) + [UNLIMITED]:
                        assert engine.bfs_witness(*args, budget) == witness_oracle(
                            system, *args, budget
                        )

    def test_bfs_closure_matches(self, backend):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 5)
            system = random_system(rng, n_species=n)
            engine = Engine(system, backend=backend)
            universe = rng.getrandbits(n)
            contexts = submasks_ascending(universe)
            starts = [rng.getrandbits(n)]
            budget = rng.choice([2, 1 << 40])
            assert engine.bfs_closure(starts, contexts, budget) == closure_oracle(
                system, starts, contexts, budget
            )

    def test_closure_budgets_around_the_state_count(self, backend):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(1, 6)
            system = random_system(rng, n_species=n, n_reactions=rng.randint(2, 8))
            engine = Engine(system, backend=backend)
            for contexts in constraint_contexts(rng, system):
                starts = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
                k = len(closure_oracle(system, starts, contexts, UNLIMITED)[0])
                for budget in budgets_around(k) + [UNLIMITED]:
                    assert engine.bfs_closure(starts, contexts, budget) == (
                        closure_oracle(system, starts, contexts, budget)
                    )

    def test_image_matches(self, compiled):
        # The image is enumerated in Python on either backend; the compiled
        # result map over every sensed subset must give the same set.
        rng = random.Random(24)
        for _ in range(40):
            system = random_system(rng, n_species=6)
            fast = Engine(system, backend="compiled")
            sensed = submasks_ascending(system.resource_mask)
            assert fast.image() == {fast.res(s) for s in sensed}

    def test_budget_stop_reports_same_visit_count(self, backend):
        system = make_system(
            [f"s{i}" for i in range(6)],
            [({"s0"}, set(), {"s1"}), ({"s1"}, set(), {"s2"})],
        )
        contexts = submasks_ascending((1 << 6) - 1)
        full = (1 << 6) - 1
        args = ([0], contexts, full, full, -1, 17)
        out = Engine(system, backend=backend).bfs_witness(*args)
        assert out == witness_oracle(system, *args)
        assert out[0] == BUDGET_STOP
        assert out[4] <= 17


REACTIONS = {"rmasks": (0b001,), "imasks": (0b010,), "pmasks": (0b100,)}
CALLS = {
    "res_mask": dict(state=0b001, **REACTIONS),
    "bfs_witness": dict(
        starts=[0b001], contexts=[0, 0b001], **REACTIONS,
        goal_mask=0b100, t_mask=0b100, depth_limit=-1, node_budget=UNLIMITED,
    ),
    "bfs_closure": dict(
        starts=[0b001], contexts=[0, 0b001], **REACTIONS, node_budget=UNLIMITED
    ),
}
MASK_ARGUMENTS = [
    (fn, name)
    for fn, kwargs in CALLS.items()
    for name in kwargs
    if name not in ("depth_limit", "node_budget")
]


class TestInvalidInput:
    def test_keyword_calls_agree(self, compiled):
        for fn, kwargs in CALLS.items():
            assert getattr(compiled, fn)(**kwargs) == getattr(_kernel_py, fn)(**kwargs)

    @pytest.mark.parametrize("bad", [1 << 64, -1])
    @pytest.mark.parametrize("fn, name", MASK_ARGUMENTS)
    def test_masks_outside_64_bits_raise(self, compiled, fn, name, bad):
        """Every mask is read as an unsigned 64-bit int: one it cannot hold
        raises instead of being truncated to a wrong answer."""
        kwargs = dict(CALLS[fn])
        value = kwargs[name]
        if isinstance(value, int):
            kwargs[name] = bad
        else:
            kwargs[name] = type(value)([*value[:-1], bad])
        with pytest.raises(OverflowError):
            getattr(compiled, fn)(**kwargs)

    @pytest.mark.parametrize("budget", [UNLIMITED, 1 << 64, 1 << 100])
    def test_budgets_from_unlimited_up_run_as_no_budget(self, backend, budget):
        system = make_system(
            [f"s{i}" for i in range(6)],
            [({"s0"}, set(), {"s1"}), ({"s1"}, {"s0"}, {"s2"})],
        )
        engine = Engine(system, backend=backend)
        contexts = submasks_ascending(0b001001)
        witness = ([0], contexts, 1 << 5, 1 << 5, -1)
        out = engine.bfs_witness(*witness, budget)
        assert out == witness_oracle(system, *witness, budget)
        assert out[0] == EXHAUSTED
        closure = engine.bfs_closure([0], contexts, budget)
        assert closure == closure_oracle(system, [0], contexts, budget)
        assert closure[2] is False


class TestSubmaskOrder:
    def test_ascending_by_cardinality_then_value(self):
        subs = submasks_ascending(0b1011)
        assert subs == sorted(subs, key=lambda m: (bin(m).count("1"), m))
        assert subs[0] == 0
        assert set(subs) == {m for m in range(16) if m & ~0b1011 == 0}

    def test_empty_universe(self):
        assert submasks_ascending(0) == [0]
