"""Species tables, sets, reactions, the result map, and process replay."""

import gc
import random

import pytest

import rsys.core
from rsys.control import ControlQuery, MaxCardinality, find_witness
from rsys.core import (
    REPLAY_TABLE_STEPS,
    ContextSequence,
    Reaction,
    ReactionSystem,
    SpeciesSet,
    SpeciesTable,
    enabled,
    res_mask,
    result_all,
    result_reaction,
    run_process,
    step,
    validate_system,
)
from rsys.errors import ReactionError, RsysError, SpeciesMismatchError
from rsys.models import golden_replay, load_builtin

from oracles import random_system, res_oracle, run_oracle
from util import make_system, names_of, plain_reactions


@pytest.fixture
def toy():
    return make_system(
        ["a", "b", "c"], [({"a"}, set(), {"b"}), ({"b"}, set(), {"c"})]
    )


class TestSpeciesTable:
    def test_order_is_declaration_order(self):
        table = SpeciesTable(["z", "a", "m"])
        assert list(table) == ["z", "a", "m"]
        assert table.index("z") == 0 and table.index("m") == 2

    def test_duplicate_name_rejected(self):
        with pytest.raises(RsysError, match="duplicate"):
            SpeciesTable(["a", "b", "a"])

    def test_invalid_name_rejected(self):
        with pytest.raises(RsysError):
            SpeciesTable(["a b"])
        with pytest.raises(RsysError):
            SpeciesTable(["1x"])

    def test_unknown_species_lookup(self):
        table = SpeciesTable(["a"])
        with pytest.raises(SpeciesMismatchError, match="unknown species 'q'"):
            table.index("q")

    def test_set_of_rejects_what_index_rejects(self):
        table = SpeciesTable(["a", "b"])
        assert table.set_of(["b", "a", "b"]) == table.full_set
        with pytest.raises(SpeciesMismatchError) as err:
            table.set_of(["a", "q"])
        assert str(err.value) == "unknown species 'q'"
        # Not a string: hashable names are unknown, unhashable ones cannot
        # be looked up at all, exactly as with `index`.
        with pytest.raises(SpeciesMismatchError) as err:
            table.set_of(["a", 3])
        assert str(err.value) == "unknown species 3"
        with pytest.raises(TypeError) as err:
            table.set_of([["a"]])
        assert str(err.value) == "unhashable type: 'list'"

    def test_full_and_empty_sets(self):
        table = SpeciesTable(["a", "b"])
        assert table.full_set.members == ("a", "b")
        assert len(table.empty_set) == 0


class TestSpeciesSet:
    def test_algebra_matches_set_algebra(self):
        table = SpeciesTable(["a", "b", "c", "d"])
        x = table.set_of(["a", "b"])
        y = table.set_of(["b", "c"])
        assert names_of(x | y) == {"a", "b", "c"}
        assert names_of(x & y) == {"b"}
        assert names_of(x - y) == {"a"}
        assert x <= x and not x <= y
        assert x.isdisjoint(table.set_of(["c", "d"]))

    def test_members_in_table_order(self):
        table = SpeciesTable(["z", "a", "m"])
        assert table.set_of(["m", "z"]).members == ("z", "m")
        wide = SpeciesTable([f"s{k}" for k in range(130)][::-1])
        picked = ["s129", "s64", "s63", "s1", "s0"]
        assert wide.set_of(reversed(picked)).members == tuple(picked)
        assert wide.full_set.members == wide.names

    def test_repr_and_pretty(self):
        table = SpeciesTable(["Pro", "iPro"])
        both = table.set_of(["Pro", "iPro"])
        assert repr(both) == "{Pro, iPro}"
        assert both.pretty() == "{Pro, ι_Pro}"

    def test_sort_key_orders_by_cardinality_then_encoding(self):
        table = SpeciesTable(["a", "b"])
        sets = [
            table.set_of(["a", "b"]),
            table.set_of(["b"]),
            table.set_of(["a"]),
            table.empty_set,
        ]
        ordered = sorted(sets, key=lambda s: s.sort_key())
        assert [names_of(s) for s in ordered] == [
            set(),
            {"a"},
            {"b"},
            {"a", "b"},
        ]

    def test_cross_table_mixing_rejected(self):
        a = SpeciesTable(["a"]).set_of(["a"])
        b = SpeciesTable(["b"]).set_of(["b"])
        with pytest.raises(SpeciesMismatchError):
            a | b

    def test_equal_named_tables_interoperate(self):
        t1 = SpeciesTable(["a", "b"])
        t2 = SpeciesTable(["a", "b"])
        assert t1.set_of(["a"]) | t2.set_of(["b"]) == t1.set_of(["a", "b"])


class TestReaction:
    def test_overlapping_reactants_inhibitors_rejected(self):
        table = SpeciesTable(["a", "b"])
        with pytest.raises(ReactionError, match="overlap: a"):
            Reaction(table.set_of(["a"]), table.set_of(["a"]), table.set_of(["b"]))

    def test_empty_products_rejected(self):
        table = SpeciesTable(["a"])
        with pytest.raises(ReactionError, match="empty product set"):
            Reaction(table.set_of(["a"]), table.empty_set, table.empty_set)

    def test_empty_reactants_and_inhibitors_allowed(self):
        table = SpeciesTable(["a"])
        r = Reaction(table.empty_set, table.empty_set, table.set_of(["a"]))
        assert enabled(r, table.empty_set)

    def test_reaction_keeps_masks_not_sets(self):
        # One object per reaction for the garbage collector to trace; the
        # parts are built when read and compare as before.
        table = SpeciesTable(["a", "b", "c"])
        parts = (["a"], ["b"], ["b", "c"])
        r = Reaction(*(table.set_of(p) for p in parts), "r1")
        assert not any(isinstance(x, SpeciesSet) for x in gc.get_referents(r))
        assert (r.rmask, r.imask, r.pmask) == (0b001, 0b010, 0b110)
        assert (r.reactants, r.inhibitors, r.products) == tuple(
            table.set_of(p) for p in parts
        )
        assert r.table is table and r.products.table is table
        twin = Reaction(*(SpeciesTable(["a", "b", "c"]).set_of(p) for p in parts), "r1")
        assert twin == r and hash(twin) == hash(r)
        assert twin != Reaction(*(table.set_of(p) for p in parts), "r2")

    def test_unchecked_skips_invariants(self):
        table = SpeciesTable(["a"])
        r = Reaction.unchecked(
            table.set_of(["a"]), table.set_of(["a"]), table.empty_set
        )
        assert r.products.mask == 0

    def test_bad_label_rejected(self):
        table = SpeciesTable(["a"])
        with pytest.raises(ReactionError, match="label"):
            Reaction(
                table.empty_set, table.empty_set, table.set_of(["a"]), "1bad"
            )


class TestResultMap:
    def test_enabled_needs_reactants_and_no_inhibitors(self, toy):
        table = toy.species
        r1 = toy.reactions[0]
        assert enabled(r1, table.set_of(["a"]))
        assert not enabled(r1, table.empty_set)
        r = Reaction(
            table.set_of(["a"]), table.set_of(["b"]), table.set_of(["c"])
        )
        assert not enabled(r, table.set_of(["a", "b"]))

    def test_result_reaction_is_products_or_empty(self, toy):
        table = toy.species
        r1 = toy.reactions[0]
        assert names_of(result_reaction(r1, table.set_of(["a"]))) == {"b"}
        assert len(result_reaction(r1, table.empty_set)) == 0

    def test_result_all_unions_enabled_products(self, toy):
        table = toy.species
        out = result_all(toy, table.set_of(["a", "b"]))
        assert names_of(out) == {"b", "c"}

    def test_no_permanency(self, toy):
        # Species with no producing reaction vanish.
        out = result_all(toy, toy.species.set_of(["c"]))
        assert len(out) == 0

    def test_matches_plain_set_oracle(self, toy):
        plain = plain_reactions(toy)
        table = toy.species
        for mask in range(8):
            state = table.from_mask(mask)
            assert names_of(result_all(toy, state)) == res_oracle(
                plain, names_of(state)
            )

    def test_step_joins_context_with_result(self, toy):
        table = toy.species
        w = step(toy, table.set_of(["a"]), table.set_of(["a"]))
        assert names_of(w) == {"a", "b"}


class TestRunProcess:
    def test_context_mode_starts_empty(self, toy):
        table = toy.species
        ctx = [table.set_of(["a"]), table.empty_set, table.empty_set]
        trace = run_process(toy, ctx)
        assert [names_of(d) for d in trace.results] == [set(), {"b"}, {"c"}]
        assert trace.initial_mode == "context"

    def test_result_count_equals_context_count(self, toy):
        table = toy.species
        for k in range(1, 5):
            trace = run_process(toy, [table.empty_set] * k)
            assert len(trace.results) == k == len(trace.contexts)

    def test_final_context_pads_final_state_only(self, toy):
        table = toy.species
        ctx = [table.empty_set, table.set_of(["c"])]
        trace = run_process(toy, ctx)
        assert names_of(trace.results[-1]) == set()
        assert names_of(trace.states[-1]) == {"c"}

    def test_given_mode_installs_initial_result(self, toy):
        table = toy.species
        trace = run_process(
            toy, [table.empty_set] * 3, initial_result=table.set_of(["a"])
        )
        assert [names_of(d) for d in trace.results] == [{"a"}, {"b"}, {"c"}]
        assert trace.initial_mode == "given"

    def test_states_are_context_join_result(self, toy):
        table = toy.species
        ctx = [table.set_of(["a"]), table.set_of(["a"]), table.empty_set]
        trace = run_process(toy, ctx)
        for c, d, w in zip(trace.contexts, trace.results, trace.states):
            assert w == c | d

    def test_matches_oracle_on_random_walk(self, toy):
        import random

        rng = random.Random(5)
        table = toy.species
        ctx_masks = [rng.randrange(8) for _ in range(12)]
        ctxs = [table.from_mask(m) for m in ctx_masks]
        trace = run_process(toy, ctxs)
        expected = run_oracle(
            plain_reactions(toy), [names_of(c) for c in ctxs]
        )
        assert [names_of(d) for d in trace.results] == expected

    def test_empty_context_sequence_rejected(self, toy):
        with pytest.raises(RsysError, match="empty context sequence"):
            run_process(toy, [])

    def test_context_sequence_object_accepted(self, toy):
        table = toy.species
        seq = ContextSequence(table, [table.set_of(["a"])] * 2)
        trace = run_process(toy, seq)
        assert len(trace) == 2

    # 3 and 100 steps (4 and 101 contexts) lie on both sides of
    # REPLAY_TABLE_STEPS, where run_process switches to its lookup tables.
    @pytest.mark.parametrize("steps", [3, 100])
    def test_products_outside_the_table_fail_the_range_check(self, steps):
        table = SpeciesTable(["a", "b"])
        wider = SpeciesTable(["a", "b", "c"])
        stray = Reaction.unchecked(
            table.set_of(["a"]), table.empty_set, wider.set_of(["c"])
        )
        system = ReactionSystem(table, [stray])
        contexts = [table.empty_set] * (steps - 1) + [table.set_of(["a"])] * 2
        with pytest.raises(SpeciesMismatchError, match="mask 0x4 out of range"):
            run_process(system, contexts)


class TestReplayTables:
    def test_short_replays_build_no_tables(self, table_builds):
        corpus = load_builtin()
        for name in corpus.traces:
            assert golden_replay(corpus, name).ok
        system = corpus.model.system
        table = system.species
        s1 = corpus.named_states["S1"]
        steps = [table.set_of(["GF"])] * 3
        target = run_process(system, [table.empty_set] + steps, s1).states[-1]
        witness = find_witness(system, ControlQuery(s1, target, MaxCardinality(1)))
        assert witness is not None and witness.hit_index <= 3
        assert table_builds == []

    def test_the_switch_is_the_sequence_length(self, table_builds):
        system = load_builtin().model.system
        gf = system.species.set_of(["GF"])
        for length in (REPLAY_TABLE_STEPS, REPLAY_TABLE_STEPS + 1):
            trace = run_process(system, [gf] * length)
            expected = run_oracle(plain_reactions(system), [frozenset({"GF"})] * length)
            assert [names_of(d) for d in trace.results] == expected
        # Only the longer sequence takes the tables.
        assert table_builds == [len(system.species)]

    def test_a_long_replay_builds_them_once(self, table_builds):
        corpus = load_builtin()
        system = corpus.model.system
        table = system.species
        rng = random.Random(3)
        contexts = [table.from_mask(rng.getrandbits(len(table))) for _ in range(1500)]
        trace = run_process(system, contexts)
        assert table_builds == [len(table)]
        expected = run_oracle(
            plain_reactions(system), [names_of(c) for c in contexts]
        )
        assert [names_of(d) for d in trace.results] == expected
        # Equal results after the first are one shared object.
        later = trace.results[1:]
        assert len({id(d) for d in later}) == len({d.mask for d in later})


def least_sources_reference(system):
    """(least, second, d) per result d: res over all 2^n states, taken in
    canonical order, keeping each result's first two states."""
    masks = (system.rmasks, system.imasks, system.pmasks)
    states = sorted(range(1 << len(system.species)), key=lambda m: (m.bit_count(), m))
    heads: dict[int, list[int]] = {}
    for w in states:
        seen = heads.setdefault(res_mask(w, *masks), [])
        if len(seen) < 2:
            seen.append(w)
    return [(ws[0], ws[1] if len(ws) > 1 else None, d) for d, ws in heads.items()]


class TestLeastSources:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_systems_match_the_reference(self, seed):
        rng = random.Random(seed)
        n = 1 + seed % 10
        names, reactions = random_system(rng, n, rng.randint(1, 2 * n))
        system = make_system(names, reactions)
        assert system.least_sources() == least_sources_reference(system)

    @pytest.mark.parametrize("n", range(4))
    def test_no_reactions(self, n):
        system = make_system([f"s{i}" for i in range(n)], [])
        assert system.least_sources() == [(0, 1 if n else None, 0)]
        assert system.least_sources() == least_sources_reference(system)

    @pytest.mark.parametrize("seed", range(10))
    def test_unsensed_species(self, seed):
        # u0 is only produced and u1 is never named, so neither is sensed,
        # yet both are free in every source of every result
        rng = random.Random(seed)
        names, reactions = random_system(rng, 4, rng.randint(1, 6))
        reactions.append(({names[0]}, set(), {"u0"}))
        system = make_system(names + ["u0", "u1"], reactions)
        assert system.resource_mask < 1 << 4
        assert system.least_sources() == least_sources_reference(system)

    def test_built_once_and_kept(self, toy):
        assert toy._least_sources is None
        kept = toy.least_sources()
        assert toy.least_sources() is kept
        assert [d for _, _, d in kept] == [0, 0b010, 0b100, 0b110]


class TestValidateSystem:
    def test_clean_system_has_no_problems(self, toy):
        assert validate_system(toy) == []

    def test_unchecked_defects_reported(self):
        table = SpeciesTable(["a", "b"])
        bad = Reaction.unchecked(
            table.set_of(["a"]), table.set_of(["a"]), table.empty_set
        )
        system = ReactionSystem(table, [bad])
        problems = validate_system(system)
        assert any("overlap: a" in p for p in problems)
        assert any("empty product set" in p for p in problems)

    def test_duplicate_labels_rejected_at_construction(self):
        table = SpeciesTable(["a"])
        r = Reaction(table.empty_set, table.empty_set, table.set_of(["a"]), "r1")
        with pytest.raises(ReactionError, match="duplicate reaction label"):
            ReactionSystem(table, [r, r])

    def test_system_equality_is_structural(self, toy):
        other = make_system(
            ["a", "b", "c"], [({"a"}, set(), {"b"}), ({"b"}, set(), {"c"})]
        )
        assert toy == other
