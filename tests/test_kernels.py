"""Both kernels must agree with the reference searches on every output."""

import random

import pytest

import oracles
from rsys import RsysError
from rsys import _kernel_py
from rsys.core import res_split, res_split_tables
from rsys._engine import (
    BUDGET_STOP,
    COMPILED_SPECIES_LIMIT,
    DEPTH_LIMITED,
    EXHAUSTED,
    FOUND,
    Engine,
    submasks_ascending,
)
from rsys.control import UNLIMITED, AllowedSet, ControlQuery, MaxCardinality, find_witness
from rsys.models import load_builtin
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


def shift_system(rng, n_species, n_extra=3, inputs=0):
    """A shift register s_k -> s_{k+1}, each step with random inhibitors,
    plus `n_extra` random reactions: it keeps results distinct, so its
    searches expand more than SPLIT_AFTER results. No reaction produces
    the first `inputs` species; s0 feeds the register behind them."""
    names = [f"s{i}" for i in range(n_species)]
    chain = names[inputs:]
    triples = [({names[0]}, set(), {chain[0]})] if inputs else []
    for a, b in zip(chain, chain[1:]):
        others = [x for x in names if x != a]
        triples.append(({a}, set(rng.sample(others, rng.randint(0, 1))), {b}))
    for r in random_system(rng, n_species, n_extra).reactions:
        products = set(r.products) - set(names[:inputs]) or {names[-1]}
        triples.append((set(r.reactants), set(r.inhibitors), products))
    return make_system(names, triples)


def count_switches(monkeypatch):
    """A list that grows by one each time a pure search switches to tables."""
    calls = []
    switch = _kernel_py._search_tables

    def counting(*args):
        calls.append(1)
        return switch(*args)

    monkeypatch.setattr(_kernel_py, "_search_tables", counting)
    return calls


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

    def large_cases(self, rng):
        """(system, starts, contexts) over 10-16 species, under both
        constraint kinds, with a repeated start. The last case of each
        round allows only species no reaction produces, as the bundled
        model's steering queries do, so successors rarely collide."""
        for _ in range(4):
            n = rng.randint(10, 16)
            system = shift_system(rng, n)
            steered = shift_system(rng, n, inputs=3)
            table = system.species
            allowed = AllowedSet(table.set_of(rng.sample(table.names, 3)))
            inputs = AllowedSet(table.set_of(["s0", "s1", "s2"]))
            for s, constraint in (
                (system, allowed), (system, MaxCardinality(1)), (steered, inputs)
            ):
                first = rng.getrandbits(n)
                starts = [first, rng.getrandbits(n), first]
                yield s, starts, constraint.context_masks(table)

    def test_large_searches_match(self, backend, monkeypatch):
        """Budgets k-1, k and k+1 around the visit count k of an exhaustive
        search, budgets that stop it midway, and depth limits."""
        switches = count_switches(monkeypatch)
        rng = random.Random(27)
        statuses = set()
        for system, starts, contexts in self.large_cases(rng):
            engine = Engine(system, backend=backend)
            for depth in (-1, rng.randint(3, 8), rng.randint(9, 20)):
                # t_mask 0 never matches goal 1: the search runs out
                args = (starts, contexts, 1, 0, depth)
                k = witness_oracle(system, *args, UNLIMITED)[4]
                midway = rng.sample(range(k), min(k, 2))
                for budget in budgets_around(k) + midway + [UNLIMITED]:
                    before = len(switches)
                    out = engine.bfs_witness(*args, budget)
                    assert out == witness_oracle(system, *args, budget)
                    if len(switches) > before:
                        statuses.add(out[0])
        if backend == "pure":
            assert statuses == {EXHAUSTED, DEPTH_LIMITED, BUDGET_STOP}

    def test_late_goals_match(self, backend, monkeypatch):
        """Goals among the last states a large search inserts, full-state
        and projected, each also the last context's successor of a late
        state's result."""
        switches = count_switches(monkeypatch)
        rng = random.Random(28)
        last_context_hits = 0
        for system, starts, contexts in self.large_cases(rng):
            n = len(system.species)
            engine = Engine(system, backend=backend)
            order = closure_oracle(system, starts, contexts, UNLIMITED)[0]
            late = order[len(order) // 2 :]
            goals = [(w, (1 << n) - 1) for w in rng.sample(late, min(len(late), 3))]
            for w in rng.sample(late, min(len(late), 3)):
                d = engine.res(w)
                goals.append((contexts[-1] | d, (1 << n) - 1))
                t_mask = rng.getrandbits(n)
                goals.append(((contexts[-1] | d) & t_mask, t_mask))
            for goal, t_mask in goals:
                args = (starts, contexts, goal, t_mask, -1, UNLIMITED)
                out = engine.bfs_witness(*args)
                assert out == witness_oracle(system, *args)
                assert out[0] == FOUND
                last_context_hits += out[2][-1:] == [len(contexts) - 1]
        assert last_context_hits > 0
        if backend == "pure":
            assert len(switches) >= 10

    def test_colliding_successors_match(self, backend, monkeypatch):
        """Contexts over produced species, so c | d of distinct contexts
        meet, and a context list that repeats contexts."""
        switches = count_switches(monkeypatch)
        rng = random.Random(29)
        for _ in range(6):
            n = rng.randint(10, 14)
            system = shift_system(rng, n)
            contexts = submasks_ascending(0b1011 | 1 << rng.randrange(4, n))
            for ctx in (contexts, contexts + contexts[:3]):
                starts = [rng.getrandbits(n), 0, 0]
                order = closure_oracle(system, starts, ctx, UNLIMITED)[0]
                late = rng.sample(order[len(order) // 2 :], 2)
                goals = [goal_masks(rng, n)] + [(w, (1 << n) - 1) for w in late]
                for goal, t_mask in goals:
                    for budget in (UNLIMITED, rng.randint(100, 2000)):
                        args = (starts, ctx, goal, t_mask, -1, budget)
                        out = Engine(system, backend=backend).bfs_witness(*args)
                        assert out == witness_oracle(system, *args)
        if backend == "pure":
            assert switches

    def test_pure_search_above_64_species(self, monkeypatch):
        switches = count_switches(monkeypatch)
        rng = random.Random(30)
        n = COMPILED_SPECIES_LIMIT + 6
        system = shift_system(rng, n, n_extra=10)
        engine = Engine(system, backend="pure")
        contexts = AllowedSet(system.species.set_of(["s0", "s1", "s67"])).context_masks(
            system.species
        )
        starts = [rng.getrandbits(n), 1 << 69]
        for depth, budget in ((-1, 3000), (12, UNLIMITED)):
            args = (starts, contexts, 1, 0, depth, budget)
            assert engine.bfs_witness(*args) == witness_oracle(system, *args)
        goal = closure_oracle(system, starts, contexts, 3000)[0][-1]
        args = (starts, contexts, goal, (1 << n) - 1, -1, UNLIMITED)
        out = engine.bfs_witness(*args)
        assert out == witness_oracle(system, *args)
        assert out[0] == FOUND
        assert len(switches) == 3

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


class TestTableSplit:
    """The split a large pure search reads off `core.res_split_tables`
    against `core.res_split`."""

    @staticmethod
    def assert_splits_agree(system, rng, extra_bits=0):
        rm, im, pm = system.rmasks, system.imasks, system.pmasks
        n = len(system.species) + extra_bits
        tables = res_split_tables(rm, im, pm)
        for _ in range(40):
            union = rng.getrandbits(n)
            split = _kernel_py._table_split(tables, union, len(rm))
            for _ in range(10):
                d = rng.getrandbits(n) & rng.getrandbits(n)
                base, kept = split(d)
                rest = tuple(
                    (rm[j] & ~d, im[j], pm[j]) for j in _kernel_py._bits(kept)
                )
                assert (base, rest) == res_split(d, union, rm, im, pm)

    @pytest.mark.parametrize("n", [1, 6, 7, 64, 65])
    def test_chunk_edges(self, n):
        rng = random.Random(n)
        for _ in range(5):
            system = random_system(rng, n_species=n, n_reactions=rng.randint(1, 20))
            self.assert_splits_agree(system, rng)

    def test_no_reactions(self):
        system = make_system([f"s{i}" for i in range(8)], [])
        assert res_split_tables((), (), ()) == ([], [], [])
        self.assert_splits_agree(system, random.Random(1))

    def test_inhibitors_no_reaction_needs(self):
        # s9 and s13 only inhibit, so they alone widen the species chunks
        names = [f"s{i}" for i in range(14)]
        system = make_system(
            names,
            [({"s0"}, {"s13"}, {"s1"}), (set(), {"s9"}, {"s2"}), ({"s1"}, set(), {"s13"})],
        )
        absent, present, _ = res_split_tables(system.rmasks, system.imasks, system.pmasks)
        assert [len(t) for t in absent] == [len(t) for t in present] == [64, 64, 4]
        self.assert_splits_agree(system, random.Random(2))

    def test_union_bits_above_the_last_reactant(self):
        # 20 species, sensed only up to s4; d and union range over 30 bits
        names = [f"s{i}" for i in range(20)]
        system = make_system(
            names,
            [({"s0", "s4"}, {"s2"}, {"s19"}), ({"s3"}, set(), {"s10", "s4"}),
             (set(), {"s1"}, {"s0"})],
        )
        self.assert_splits_agree(system, random.Random(3), extra_bits=10)


class TestSplitTables:
    def test_small_searches_build_no_tables(self):
        rng = random.Random(32)
        system = shift_system(rng, 12)
        engine = Engine(system, backend="pure")
        contexts = MaxCardinality(1).context_masks(system.species)
        for depth in (0, 1, 2):
            engine.bfs_witness([0], contexts, 1, 0, depth, UNLIMITED)
        assert system._split_tables is None
        out = engine.bfs_witness([0], contexts, 1, 0, -1, UNLIMITED)
        assert out[0] == EXHAUSTED
        tables = system._split_tables
        assert tables is not None
        Engine(system, backend="pure").bfs_witness([1], contexts, 1, 0, -1, UNLIMITED)
        assert system._split_tables is tables

    def test_a_search_below_the_switch_builds_none(self, monkeypatch):
        switches = count_switches(monkeypatch)
        rng = random.Random(32)
        for _ in range(20):
            system = shift_system(rng, rng.randint(8, 12))
            contexts = MaxCardinality(1).context_masks(system.species)
            start = [rng.getrandbits(len(system.species))]
            out = Engine(system, backend="pure").bfs_witness(
                start, contexts, 1, 0, -1, UNLIMITED
            )
            expanded = len({system_res(system, w) for w in closure_oracle(
                system, start, contexts, UNLIMITED)[0]})
            assert (system._split_tables is None) == (expanded <= _kernel_py.SPLIT_AFTER)
            assert out == witness_oracle(system, start, contexts, 1, 0, -1, UNLIMITED)
        assert 0 < len(switches) < 20


def system_res(system, state):
    return oracles._res_mask(state, system.rmasks, system.imasks, system.pmasks)


# (source, blockers, goal) over the bundled model, shaped like the
# benchmark's steering queries: I = {GF} plus two blockers, markers Pro and
# uPro as targets; the first three have no witness.
STEER_QUERIES = [
    ("S16", ("iRAS", "imTORC1"), ()),
    ("Y0", ("iFOXO3", "iTSC"), ()),
    ("S10", ("iRb", "imTORC1"), ()),
    ("Y5", ("iPRAS40", "iS6K"), ("uPro",)),
    ("S8", ("iPI3K", "iE2F"), ()),
    ("S19", ("icycE", "iPRAS40"), ()),
    ("Y6", ("iAKT", "iEIF4F"), ("uPro",)),
    ("Y4", ("iMAPK", "imTORC1"), ("uPro",)),
    ("X5", ("icycE", "iPRAS40"), ()),
    ("X2", ("iRAS", "iS6K"), ("Pro",)),
    ("S10", ("iMAPK", "iS6K"), ("Pro",)),
    ("X1", ("iRAS", "iMAPK"), ("Pro",)),
]


class TestBundledModel:
    def test_pure_and_compiled_steer_alike(self, compiled, monkeypatch):
        corpus = load_builtin()
        system = corpus.model.system
        table = system.species
        outs = []
        search = Engine.bfs_witness

        def recording(engine, *args):
            outs.append(search(engine, *args))
            return outs[-1]

        monkeypatch.setattr(Engine, "bfs_witness", recording)
        switches = count_switches(monkeypatch)
        answers = {}
        for backend in ("pure", "compiled"):
            monkeypatch.setenv("RSYS_KERNEL", backend)
            for source, blockers, goal in STEER_QUERIES:
                query = ControlQuery(
                    source=corpus.named_states[source] | table.set_of(["GF"]),
                    target=table.set_of(goal),
                    constraint=AllowedSet(table.set_of(["GF", *blockers])),
                    targets=table.set_of(["Pro", "uPro"]),
                )
                w = find_witness(system, query)
                found = None if w is None else (w.contexts, w.hit_index, w.visited)
                answers.setdefault(backend, []).append((found, outs[-1]))
        assert answers["pure"] == answers["compiled"]
        assert [a[0] is None for a in answers["pure"]].count(True) == 3
        assert [a[1][0] for a in answers["pure"]].count(EXHAUSTED) == 3
        assert len(switches) >= 6


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
