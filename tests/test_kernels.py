"""Both kernels must agree with the reference searches on every output."""

import random

import pytest

import oracles
from rsys import RsysError
from rsys._engine import (
    BUDGET_STOP,
    COMPILED_SPECIES_LIMIT,
    DEPTH_LIMITED,
    EXHAUSTED,
    FOUND,
    GOAL_FULL,
    GOAL_PROJECTED,
    Engine,
    compiled_available,
    submasks_ascending,
)
from rsys.control import AllowedSet, MaxCardinality
from util import make_system

needs_compiled = pytest.mark.skipif(
    not compiled_available(), reason="compiled kernel not built"
)


def random_system(rng, n_species=6, n_reactions=5):
    names = [f"s{i}" for i in range(n_species)]
    triples = []
    for _ in range(n_reactions):
        reactants = rng.sample(names, rng.randint(0, 2))
        remaining = [x for x in names if x not in reactants]
        inhibitors = rng.sample(remaining, rng.randint(0, 2))
        products = rng.sample(names, rng.randint(1, 3))
        triples.append((set(reactants), set(inhibitors), set(products)))
    return make_system(names, triples)


class TestBackendSelection:
    def test_explicit_pure(self):
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        assert Engine(system, backend="pure").backend == "pure"

    @needs_compiled
    def test_explicit_compiled(self):
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

    @needs_compiled
    def test_explicit_argument_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("RSYS_KERNEL", "compiled")
        system = make_system(["a"], [({"a"}, set(), {"a"})])
        assert Engine(system, backend="pure").backend == "pure"

    def test_wide_tables_fall_back_to_pure(self, monkeypatch):
        monkeypatch.delenv("RSYS_KERNEL", raising=False)
        n = COMPILED_SPECIES_LIMIT + 1
        names = [f"s{i}" for i in range(n)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        assert Engine(system).backend == "pure"

    @needs_compiled
    def test_wide_tables_cannot_request_compiled(self):
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

    @needs_compiled
    def test_kernels_agree_on_every_state(self):
        rng = random.Random(11)
        for _ in range(30):
            system = random_system(rng)
            pure = Engine(system, backend="pure")
            fast = Engine(system, backend="compiled")
            for state in range(1 << len(system.species)):
                assert pure.res(state) == fast.res(state)

    @needs_compiled
    def test_kernels_agree_near_the_width_limit(self):
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


BACKENDS = ["pure", pytest.param("compiled", marks=needs_compiled)]
UNBOUNDED = 1 << 62


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
        goal_kind = rng.choice([GOAL_FULL, GOAL_PROJECTED])
        t_mask = rng.getrandbits(n)
        if goal_kind == GOAL_FULL:
            goal = rng.getrandbits(n)
        else:
            goal = rng.getrandbits(n) & t_mask
        depth = rng.choice([-1, 0, 1, 3])
        budget = rng.choice([1, 7, 1 << 40])
        return starts, contexts, goal_kind, goal, t_mask, depth, budget

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bfs_witness_matches_everywhere(self, backend):
        rng = random.Random(21)
        for _ in range(120):
            system = random_system(rng, n_species=5)
            engine = Engine(system, backend=backend)
            args = self.queries(rng, 5)
            assert engine.bfs_witness(*args) == witness_oracle(system, *args)

    @pytest.mark.parametrize("backend", BACKENDS)
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_witness_budgets_around_the_visit_count(self, backend):
        rng = random.Random(25)
        for _ in range(40):
            n = rng.randint(4, 6)
            system = random_system(rng, n_species=n, n_reactions=rng.randint(2, 8))
            engine = Engine(system, backend=backend)
            for contexts in constraint_contexts(rng, system):
                starts = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
                goal_kind = rng.choice([GOAL_FULL, GOAL_PROJECTED])
                t_mask = rng.getrandbits(n)
                goal = rng.getrandbits(n) & (t_mask if goal_kind else -1)
                for depth in (-1, 0, 1, 2):
                    args = (starts, contexts, goal_kind, goal, t_mask, depth)
                    k = witness_oracle(system, *args, UNBOUNDED)[4]
                    for budget in budgets_around(k) + [UNBOUNDED]:
                        assert engine.bfs_witness(*args, budget) == witness_oracle(
                            system, *args, budget
                        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_bfs_closure_matches(self, backend):
        rng = random.Random(23)
        for _ in range(60):
            system = random_system(rng, n_species=5)
            engine = Engine(system, backend=backend)
            universe = rng.getrandbits(5)
            contexts = submasks_ascending(universe)
            starts = [rng.getrandbits(5)]
            budget = rng.choice([2, 1 << 40])
            assert engine.bfs_closure(starts, contexts, budget) == closure_oracle(
                system, starts, contexts, budget
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_closure_budgets_around_the_state_count(self, backend):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(4, 6)
            system = random_system(rng, n_species=n, n_reactions=rng.randint(2, 8))
            engine = Engine(system, backend=backend)
            for contexts in constraint_contexts(rng, system):
                starts = [rng.getrandbits(n) for _ in range(rng.randint(1, 4))]
                k = len(closure_oracle(system, starts, contexts, UNBOUNDED)[0])
                for budget in budgets_around(k) + [UNBOUNDED]:
                    assert engine.bfs_closure(starts, contexts, budget) == (
                        closure_oracle(system, starts, contexts, budget)
                    )

    @needs_compiled
    def test_image_matches(self):
        rng = random.Random(24)
        for _ in range(40):
            system = random_system(rng, n_species=6)
            pure = Engine(system, backend="pure")
            fast = Engine(system, backend="compiled")
            assert pure.image() == fast.image()

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_budget_stop_reports_same_visit_count(self, backend):
        system = make_system(
            [f"s{i}" for i in range(6)],
            [({"s0"}, set(), {"s1"}), ({"s1"}, set(), {"s2"})],
        )
        contexts = submasks_ascending((1 << 6) - 1)
        args = ([0], contexts, GOAL_FULL, (1 << 6) - 1, 0, -1, 17)
        out = Engine(system, backend=backend).bfs_witness(*args)
        assert out == witness_oracle(system, *args)
        assert out[0] == BUDGET_STOP
        assert out[4] <= 17


class TestSubmaskOrder:
    def test_ascending_by_cardinality_then_value(self):
        subs = submasks_ascending(0b1011)
        assert subs == sorted(subs, key=lambda m: (bin(m).count("1"), m))
        assert subs[0] == 0
        assert set(subs) == {m for m in range(16) if m & ~0b1011 == 0}

    def test_empty_universe(self):
        assert submasks_ascending(0) == [0]
