"""Randomized invariants: semantics, search, decisions, translations."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from rsys._engine import Engine
from rsys._pairscan import ResultGraph
from rsys.control import (
    AllowedSet,
    ControlQuery,
    MaxCardinality,
    Sampled,
    allowed_contexts,
    decide_controllable,
    decide_target_controllable,
    find_witness,
    verify_witness,
)
from rsys.core import (
    REPLAY_TABLE_STEPS,
    RES_CHUNK_BITS,
    Reaction,
    ReactionSystem,
    SpeciesTable,
    res_split,
    res_values,
    result_all,
    run_process,
)
from rsys.errors import BudgetError
from rsys.dynamics import (
    context_graph,
    image_membership,
    nonce_extension,
    superset_image_membership,
)
from rsys.formats import (
    BooleanNetwork,
    ModelDocument,
    bn_to_reactions,
    parse_boolean_network,
    parse_model,
    serialize_model,
)
from util import canonical_subsets, make_system, names_of, plain_reactions

NAMES = ("a", "b", "c", "d", "e")

relaxed = settings(
    deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
fewer = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def systems(draw, min_species=2, max_species=5, max_reactions=5):
    n = draw(st.integers(min_species, max_species))
    names = NAMES[:n]
    triples = []
    for _ in range(draw(st.integers(1, max_reactions))):
        r = draw(st.sets(st.sampled_from(names), max_size=2))
        rest = [x for x in names if x not in r]
        i = draw(st.sets(st.sampled_from(rest), max_size=2)) if rest else set()
        p = draw(st.sets(st.sampled_from(names), min_size=1, max_size=2))
        triples.append((r, i, p))
    return make_system(names, triples)


@st.composite
def subsets(draw, names):
    return draw(st.sets(st.sampled_from(names)).map(frozenset))


def subset_of(draw, system):
    names = list(system.species.names)
    return frozenset(draw(st.sets(st.sampled_from(names))))


class TestProcessSemantics:
    @given(data=st.data(), system=systems())
    @relaxed
    def test_results_match_the_oracle(self, data, system):
        names = list(system.species.names)
        table = system.species
        n_steps = data.draw(st.integers(1, 5))
        ctx_names = [
            frozenset(data.draw(st.sets(st.sampled_from(names))))
            for _ in range(n_steps)
        ]
        use_initial = data.draw(st.booleans())
        initial = (
            frozenset(data.draw(st.sets(st.sampled_from(names))))
            if use_initial
            else None
        )
        trace = run_process(
            system,
            [table.set_of(c) for c in ctx_names],
            initial_result=table.set_of(initial) if initial is not None else None,
        )
        expected = oracles.run_oracle(
            plain_reactions(system), ctx_names, initial
        )
        assert [names_of(d) for d in trace.results] == expected
        assert len(trace) == n_steps
        assert trace.initial_mode == ("given" if use_initial else "context")

    @given(data=st.data())
    @relaxed
    def test_long_replays_match_the_oracle(self, data):
        # Up to REPLAY_TABLE_STEPS contexts replay per reaction, longer ones
        # through the byte tables. Tables of 65-130 species exceed the
        # compiled kernel's 64 bits. 7-9 and 15-17 species or reactions
        # leave the last byte short, full or one bit over, and W-1, W and
        # W+1 (W = RES_CHUNK_BITS) add small sizes inside one byte.
        w = RES_CHUNK_BITS
        edges = [w - 1, w, w + 1, 7, 8, 9, 15, 16, 17]
        n = data.draw(
            st.one_of(st.sampled_from(edges), st.integers(1, 130)), label="species"
        )
        m = data.draw(
            st.one_of(st.sampled_from([0] + edges), st.integers(0, 130)),
            label="reactions",
        )
        switch = REPLAY_TABLE_STEPS
        steps = data.draw(
            st.one_of(
                st.sampled_from([switch - 1, switch, switch + 1]),
                st.integers(1, 2 * switch),
            ),
            label="steps",
        )
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        names = [f"s{k}" for k in range(n)]
        triples = []
        for _ in range(m):
            r = set(rng.sample(names, rng.randint(0, min(3, n))))
            rest = [x for x in names if x not in r]
            i = set(rng.sample(rest, rng.randint(0, min(2, len(rest)))))
            p = set(rng.sample(names, rng.randint(1, min(3, n))))
            triples.append((r, i, p))
        system = make_system(names, triples)
        table = system.species
        contexts = []
        for _ in range(steps):
            mask = rng.getrandbits(n)
            if rng.random() < 0.5:  # sparser, so fewer inhibitors block
                mask &= rng.getrandbits(n)
            contexts.append(table.from_mask(mask))
        initial = table.from_mask(rng.getrandbits(n)) if rng.random() < 0.5 else None
        trace = run_process(system, contexts, initial_result=initial)
        expected = oracles.run_oracle(
            plain_reactions(system),
            [names_of(c) for c in contexts],
            None if initial is None else names_of(initial),
        )
        assert [names_of(d) for d in trace.results] == expected

    @given(data=st.data())
    @relaxed
    def test_network_replays_match_the_oracle(self, data):
        # Laid out as bn_to_reactions lays out species: variables, inputs,
        # then one blocker per variable. Results hold variables only and
        # contexts add a blocker now and then, so a state's top set byte
        # mostly lies below the blockers' bytes and sometimes among them.
        n_vars = data.draw(st.integers(1, 40), label="variables")
        n_inputs = data.draw(st.integers(0, 4), label="inputs")
        steps = data.draw(
            st.sampled_from([REPLAY_TABLE_STEPS + 1, 3 * REPLAY_TABLE_STEPS]),
            label="steps",
        )
        rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        # A trailing letter keeps labels such as rv1x2 and rv12x apart.
        variables = [f"v{k}x" for k in range(n_vars)]
        inputs = [f"u{k}" for k in range(n_inputs)]
        updates = {}
        for v in variables:
            terms = []
            for _ in range(rng.randint(1, 3)):
                chosen = rng.sample(variables + inputs, rng.randint(1, min(3, n_vars)))
                neg = frozenset(x for x in chosen if rng.random() < 0.4)
                terms.append((frozenset(chosen) - neg, neg))
            updates[v] = terms
        system = bn_to_reactions(BooleanNetwork(variables, updates, inputs))
        table = system.species
        blockers = [f"i{v}" for v in variables]
        contexts = []
        for _ in range(steps):
            c = [x for x in inputs if rng.random() < 0.5]
            if rng.random() < 0.1:
                c.append(rng.choice(blockers))
            contexts.append(table.set_of(c))
        initial = table.set_of(rng.sample(variables, n_vars // 3))
        trace = run_process(system, contexts, initial_result=initial)
        expected = oracles.run_oracle(
            plain_reactions(system), [names_of(c) for c in contexts], names_of(initial)
        )
        assert [names_of(d) for d in trace.results] == expected

    @given(data=st.data(), system=systems())
    @relaxed
    def test_states_are_context_union_result(self, data, system):
        table = system.species
        names = list(table.names)
        contexts = [
            table.set_of(data.draw(st.sets(st.sampled_from(names))))
            for _ in range(data.draw(st.integers(1, 4)))
        ]
        trace = run_process(system, contexts)
        for c, d, w in zip(trace.contexts, trace.results, trace.states):
            assert w == c | d

    @given(data=st.data(), system=systems())
    @relaxed
    def test_result_is_union_of_enabled_products(self, data, system):
        names = list(system.species.names)
        table = system.species
        state = frozenset(data.draw(st.sets(st.sampled_from(names))))
        reactions = plain_reactions(system)
        expected = oracles.res_oracle(reactions, state)
        assert names_of(result_all(system, table.set_of(state))) == expected
        res = Engine(system, backend="pure").res(table.set_of(state).mask)
        assert names_of(table.from_mask(res)) == expected
        sensed = frozenset().union(*(r | i for r, i, _ in reactions))
        assert names_of(system.resources) == sensed
        assert oracles.res_oracle(reactions, state & sensed) == expected


    @given(data=st.data(), system=systems(max_reactions=7))
    @relaxed
    def test_split_result_is_the_result_of_context_and_split_set(
        self, data, system
    ):
        table = system.species
        names = list(table.names)
        d = table.set_of(data.draw(subsets(names)))
        contexts = [
            table.set_of(c)
            for c in data.draw(st.lists(subsets(names), min_size=1, max_size=6))
        ]
        union = 0
        for c in contexts:
            union |= c.mask
        base, rest = res_split(
            d.mask, union, system.rmasks, system.imasks, system.pmasks
        )
        reactions = plain_reactions(system)
        for c in contexts:
            got = base
            for r, i, p in rest:
                if c.mask & r == r and not c.mask & i:
                    got |= p
            expected = oracles.res_oracle(reactions, names_of(c | d))
            assert names_of(table.from_mask(got)) == expected


@st.composite
def raw_systems(draw, max_species=7, max_reactions=6):
    """Systems the Reaction checks would refuse as well: 1-7 species, no
    reactions at all, empty reactant sets, reactants that overlap
    inhibitors."""
    names = [f"s{k}" for k in range(draw(st.integers(1, max_species)))]
    table = SpeciesTable(names)
    part = st.sets(st.sampled_from(names), max_size=3).map(table.set_of)
    products = st.sets(st.sampled_from(names), min_size=1, max_size=2)
    reactions = [
        Reaction.unchecked(draw(part), draw(part), table.set_of(draw(products)))
        for _ in range(draw(st.integers(0, max_reactions)))
    ]
    return ReactionSystem(table, reactions)


class TestCofactoring:
    @given(system=raw_systems())
    @relaxed
    def test_image_matches_the_exponential_scan(self, system):
        names = frozenset(system.species.names)
        expected = oracles.image_oracle(plain_reactions(system), names)
        got = Engine(system).image()
        assert {names_of(system.species.from_mask(m)) for m in got} == expected

    @given(data=st.data(), system=systems(max_reactions=7))
    @relaxed
    def test_successors_are_the_results_of_every_admitted_context(
        self, data, system
    ):
        table = system.species
        names = list(table.names)
        d = table.set_of(data.draw(subsets(names)))
        if data.draw(st.booleans()):
            constraint = MaxCardinality(data.draw(st.integers(0, len(names) - 1)))
        else:
            constraint = AllowedSet(table.set_of(data.draw(subsets(names))))
        union, limit = constraint.span(table)
        base, rest = res_split(
            d.mask, union, system.rmasks, system.imasks, system.pmasks
        )
        values = res_values(base, rest, union, limit)
        got = {names_of(table.from_mask(m)) for m in values}
        reactions = plain_reactions(system)
        expected = {
            oracles.res_oracle(reactions, names_of(c | d))
            for c in allowed_contexts(system, constraint)
        }
        assert got == expected

    def test_the_limit_counts_the_species_of_every_branch(self):
        # {a} -> {b} and {c} -> {a}: one species fires one reaction, two
        # species can fire both.
        system = make_system(["a", "b", "c"], [(["a"], [], ["b"]), (["c"], [], ["a"])])
        base, rest = res_split(
            0, 0b111, system.rmasks, system.imasks, system.pmasks
        )
        assert res_values(base, rest, 0b111, 0) == {0}
        assert res_values(base, rest, 0b111, 1) == {0, 0b001, 0b010}
        assert res_values(base, rest, 0b111, 2) == {0, 0b001, 0b010, 0b011}

    def test_an_inhibitor_outside_the_union_blocks_nothing(self):
        # {a} | {b} -> {c} and {a} -> {d} under contexts ⊆ {a, e}: b is
        # never present, so a alone fires both reactions.
        system = make_system(
            ["a", "b", "c", "d", "e"], [(["a"], ["b"], ["c"]), (["a"], [], ["d"])]
        )
        union = 0b10001
        base, rest = res_split(
            0, union, system.rmasks, system.imasks, system.pmasks
        )
        assert res_values(base, rest, union, 2) == {0, 0b01100}


def test_image_of_a_reaction_with_1500_reactants():
    names = [f"x{k}" for k in range(1500)] + ["p"]
    system = make_system(names, [(names[:-1], (), ["p"])])
    assert Engine(system).image() == {0, 1 << 1500}


class TestSerialization:
    @given(system=systems())
    @relaxed
    def test_round_trip_is_canonical(self, system):
        text = serialize_model(ModelDocument(system, {"name": "prop"}))
        doc = parse_model(text)
        assert serialize_model(doc) == text
        assert plain_reactions(doc.system) == plain_reactions(system)
        assert list(doc.system.species.names) == list(system.species.names)

    @given(data=st.data(), system=systems())
    @relaxed
    def test_round_trip_with_positional_labels(self, data, system):
        # Some reactions hold the positional labels "r<k>" that unlabeled
        # reactions are written with.
        positional = [f"r{k}" for k in range(1, len(system.reactions) + 1)]
        held = data.draw(st.permutations(positional))
        labels = [
            held[k] if data.draw(st.booleans()) else None
            for k in range(len(positional))
        ]
        labelled = make_system(
            list(system.species.names), plain_reactions(system), labels
        )
        text = serialize_model(ModelDocument(labelled, {}))
        doc = parse_model(text)
        assert serialize_model(doc) == text
        assert plain_reactions(doc.system) == plain_reactions(system)
        for r, label in zip(doc.system.reactions, labels):
            if label is not None:
                assert r.label == label


class TestConstraintEnumeration:
    @given(data=st.data(), system=systems())
    @relaxed
    def test_cardinality_enumeration_is_canonical(self, data, system):
        table = system.species
        names = list(table.names)
        n = data.draw(st.integers(0, len(names) - 1))
        constraint = MaxCardinality(n)
        got = [
            names_of(table.from_mask(m)) for m in constraint.context_masks(table)
        ]
        assert got == [s for s in canonical_subsets(names) if len(s) <= n]

    @given(data=st.data(), system=systems())
    @relaxed
    def test_allowed_set_enumeration_is_canonical(self, data, system):
        table = system.species
        names = list(table.names)
        allowed = sorted(data.draw(st.sets(st.sampled_from(names))))
        constraint = AllowedSet(table.set_of(allowed))
        got = [
            names_of(table.from_mask(m)) for m in constraint.context_masks(table)
        ]
        assert got == canonical_subsets(allowed)


    @given(data=st.data(), system=systems())
    @relaxed
    def test_count_and_membership_agree_with_the_enumeration(self, data, system):
        table = system.species
        names = list(table.names)
        if data.draw(st.booleans()):
            constraint = MaxCardinality(data.draw(st.integers(0, len(names) - 1)))
        else:
            constraint = AllowedSet(table.set_of(data.draw(subsets(names))))
        masks = constraint.context_masks(table)
        assert constraint.count(table) == len(masks)
        admitted = set(masks)
        for mask in range(1 << len(names)):
            context = table.from_mask(mask)
            assert constraint.satisfied_by(context) == (mask in admitted)


class TestWitnessSearch:
    @given(data=st.data(), system=systems(max_species=4, max_reactions=4))
    @fewer
    def test_found_witnesses_verify_and_are_shortest(self, data, system):
        table = system.species
        names = list(table.names)
        x = frozenset(data.draw(st.sets(st.sampled_from(names))))
        y = frozenset(data.draw(st.sets(st.sampled_from(names))))
        n = data.draw(st.integers(0, min(2, len(names) - 1)))
        query = ControlQuery(
            table.set_of(x), table.set_of(y), MaxCardinality(n)
        )
        witness = find_witness(system, query)
        allowed = [s for s in canonical_subsets(names) if len(s) <= n]
        oracle_len = oracles.shortest_witness_len(
            plain_reactions(system), allowed, x, y
        )
        if witness is None:
            assert oracle_len is None
        else:
            assert witness.hit_index == oracle_len
            check = verify_witness(system, query, witness)
            assert check.ok, check.reason
            assert check.hit_index == witness.hit_index

    @given(data=st.data(), system=systems(max_species=4, max_reactions=4))
    @fewer
    def test_projected_witnesses_verify(self, data, system):
        table = system.species
        names = list(table.names)
        t = frozenset(data.draw(st.sets(st.sampled_from(names), min_size=1)))
        x = frozenset(data.draw(st.sets(st.sampled_from(sorted(t)))))
        y = frozenset(data.draw(st.sets(st.sampled_from(sorted(t)))))
        query = ControlQuery(
            table.set_of(x),
            table.set_of(y),
            MaxCardinality(data.draw(st.integers(0, min(2, len(names) - 1)))),
            targets=table.set_of(t),
        )
        witness = find_witness(system, query)
        if witness is not None:
            check = verify_witness(system, query, witness)
            assert check.ok, check.reason


class TestDecisions:
    @given(data=st.data(), system=systems(max_species=4, max_reactions=4))
    @fewer
    def test_decision_matches_the_oracle(self, data, system):
        table = system.species
        names = list(table.names)
        if data.draw(st.booleans()):
            n = data.draw(st.integers(0, len(names) - 1))
            constraint = MaxCardinality(n)
            allowed = [s for s in canonical_subsets(names) if len(s) <= n]
        else:
            chosen = sorted(data.draw(st.sets(st.sampled_from(names))))
            constraint = AllowedSet(table.set_of(chosen))
            allowed = canonical_subsets(chosen)
        verdict = decide_controllable(system, constraint)
        expected, _ = oracles.controllable_oracle(
            plain_reactions(system), frozenset(names), allowed
        )
        assert verdict.decision == expected
        if verdict.decision:
            assert verdict.counterexample is None
        else:
            x, y = verdict.counterexample
            assert oracles.shortest_witness_len(
                plain_reactions(system), allowed, names_of(x), names_of(y)
            ) is None

    @given(data=st.data(), system=systems(max_species=4, max_reactions=3))
    @fewer
    def test_monotone_in_the_cardinality_bound(self, data, system):
        n = data.draw(st.integers(0, len(system.species) - 2))
        small = decide_controllable(system, MaxCardinality(n))
        large = decide_controllable(system, MaxCardinality(n + 1))
        if small.decision:
            assert large.decision

    @given(data=st.data(), system=systems(max_species=4, max_reactions=3))
    @fewer
    def test_monotone_in_the_allowed_set(self, data, system):
        table = system.species
        names = list(table.names)
        chosen = data.draw(st.sets(st.sampled_from(names), max_size=len(names) - 1))
        extra = data.draw(st.sampled_from([x for x in names if x not in chosen]))
        small = decide_controllable(system, AllowedSet(table.set_of(chosen)))
        large = decide_controllable(
            system, AllowedSet(table.set_of(set(chosen) | {extra}))
        )
        if small.decision:
            assert large.decision

    @given(data=st.data(), system=systems(max_species=4, max_reactions=4))
    @fewer
    def test_full_target_set_equals_the_plain_decision(self, data, system):
        table = system.species
        n = data.draw(st.integers(0, min(2, len(table) - 1)))
        constraint = MaxCardinality(n)
        plain = decide_controllable(system, constraint)
        projected = decide_target_controllable(
            system, table.full_set, constraint
        )
        assert plain.decision == projected.decision
        assert plain.counterexample == projected.counterexample
        assert plain.pairs_checked == projected.pairs_checked

    @given(
        data=st.data(),
        system=systems(max_species=4, max_reactions=4),
        proviso=st.sampled_from(["projection", "superset"]),
    )
    @fewer
    def test_budget_counts_the_result_values_expanded(
        self, data, system, proviso
    ):
        table = system.species
        names = list(table.names)
        if data.draw(st.booleans()):
            targets = frozenset(names)
        else:
            targets = frozenset(
                data.draw(st.sets(st.sampled_from(names), min_size=1))
            )
        if data.draw(st.booleans()):
            n = data.draw(st.integers(0, len(names) - 1))
            constraint = MaxCardinality(n)
            allowed = [s for s in canonical_subsets(names) if len(s) <= n]
        else:
            chosen = sorted(data.draw(st.sets(st.sampled_from(names))))
            constraint = AllowedSet(table.set_of(chosen))
            allowed = canonical_subsets(chosen)
        decision, cex, checked, expanded = oracles.pair_scan_oracle(
            plain_reactions(system), names, targets, allowed, proviso
        )

        def decide(budget):
            if targets == frozenset(names) and proviso == "projection":
                return decide_controllable(system, constraint, node_budget=budget)
            return decide_target_controllable(
                system,
                table.set_of(targets),
                constraint,
                proviso=proviso,
                node_budget=budget,
            )

        # The budget caps the result values expanded through the decision
        # point: one short of them stops the decision, and the exact count
        # or more answers as if there were no budget.
        with pytest.raises(BudgetError) as err:
            decide(expanded - 1)
        assert err.value.visited == expanded - 1
        for budget in (None, expanded, expanded + 1):
            verdict = decide(budget)
            got = verdict.counterexample
            if got is not None:
                got = (names_of(got[0]), names_of(got[1]))
            assert (verdict.decision, got, verdict.pairs_checked) == (
                decision,
                cex,
                checked,
            )


    @given(
        data=st.data(),
        system=systems(min_species=1, max_species=5, max_reactions=5),
        call=st.sampled_from(["plain", "projection", "superset"]),
    )
    @fewer
    def test_full_mode_matches_the_pair_scan_oracle(self, data, system, call):
        # T = S: the scan over the image's results answers as the oracle's
        # scan over every source, budget stops included.
        table = system.species
        names = list(table.names)
        if len(names) > 1 and data.draw(st.booleans()):
            n = data.draw(st.integers(0, len(names) - 1))
            constraint = MaxCardinality(n)
            allowed = [s for s in canonical_subsets(names) if len(s) <= n]
        else:
            chosen = sorted(data.draw(st.sets(st.sampled_from(names))))
            constraint = AllowedSet(table.set_of(chosen))
            allowed = canonical_subsets(chosen)
        proviso = "superset" if call == "superset" else "projection"
        decision, cex, checked, expanded = oracles.pair_scan_oracle(
            plain_reactions(system), names, frozenset(names), allowed, proviso
        )

        def decide(budget):
            if call == "plain":
                return decide_controllable(system, constraint, node_budget=budget)
            return decide_target_controllable(
                system, table.full_set, constraint, proviso=proviso,
                node_budget=budget,
            )

        with pytest.raises(BudgetError) as err:
            decide(expanded - 1)
        assert err.value.visited == expanded - 1
        for budget in (expanded, None):
            verdict = decide(budget)
            got = verdict.counterexample
            if got is not None:
                got = (names_of(got[0]), names_of(got[1]))
            assert (verdict.decision, got, verdict.pairs_checked) == (
                decision,
                cex,
                checked,
            )

    @given(
        data=st.data(),
        system=systems(min_species=1, max_species=5, max_reactions=5),
        call=st.sampled_from(["plain", "full", "projection", "superset"]),
        k=st.integers(1, 30),
        seed=st.integers(0, 2**32),
    )
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow, HealthCheck.function_scoped_fixture
        ],
    )
    def test_sampled_decision_matches_the_sampled_oracle(
        self, monkeypatch, backend, data, system, call, k, seed
    ):
        # Full mode skips the pairs that earlier searches already answer;
        # verdicts, pairs checked and budget stops stay those of one
        # search per pair, on either kernel.
        monkeypatch.setenv("RSYS_KERNEL", backend)
        table = system.species
        names = list(table.names)
        if len(names) > 1 and data.draw(st.booleans()):
            constraint = MaxCardinality(data.draw(st.integers(0, len(names) - 1)))
        else:
            chosen = data.draw(st.sets(st.sampled_from(names)))
            constraint = AllowedSet(table.set_of(chosen))
        if call in ("plain", "full"):
            targets = table.full_set
        else:
            targets = table.set_of(data.draw(st.sets(st.sampled_from(names))))
        proviso = "superset" if call == "superset" else "projection"
        budget = data.draw(st.sampled_from([None, 1, 2, 5, 20]))
        decision, cex, checked, visited = oracles.sampled_scan_oracle(
            system.rmasks, system.imasks, system.pmasks, len(names),
            targets.mask, constraint.context_masks(table), k, seed, proviso,
            budget,
        )
        scope = Sampled(k, seed)
        try:
            if call == "plain":
                verdict = decide_controllable(
                    system, constraint, scope, node_budget=budget
                )
            else:
                verdict = decide_target_controllable(
                    system, targets, constraint, scope, proviso=proviso,
                    node_budget=budget,
                )
        except BudgetError as err:
            assert (decision, err.visited) == (None, visited)
            assert str(err).endswith(f"after visiting {visited} states")
            return
        got = verdict.counterexample
        if got is not None:
            got = (got[0].mask, got[1].mask)
        assert (verdict.decision, got, verdict.pairs_checked) == (
            decision, cex, checked
        )


class TestResultGraphCover:
    @given(data=st.data(), n=st.integers(1, 8))
    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cover_matches_the_string_form_on_both_sides(self, data, n):
        # End sets in any order, so bit j must stand for y_masks[j], and
        # not always within T; most hold d ∩ T, as a covered one must.
        # Each side is forced as well as chosen.
        full = (1 << n) - 1
        masks = st.integers(0, full)
        d, t_mask, union = data.draw(masks), data.draw(masks), data.draw(masks)
        dt = d & t_mask
        limit = data.draw(st.integers(0, n))
        y_masks = data.draw(
            st.lists(
                st.one_of(
                    masks.map(lambda y: (y | dt) & t_mask),
                    masks.map(lambda y: y | dt),
                    masks,
                ),
                unique=True,
                max_size=2 ** min(n, 6),
            )
        )
        system = make_system([f"s{k}" for k in range(n)], [])
        graph = ResultGraph(system, union, limit, y_masks, t_mask, 0)
        expected = oracles.cover_oracle(d, y_masks, t_mask, union, limit)
        free = graph.end_bits & ~dt & (union | d)
        assert graph._cover(d) == expected
        assert graph._cover_from_free(d, dt, free) == expected
        assert graph._cover_from_ends(d, dt) == expected


class TestContextGraph:
    @given(
        data=st.data(),
        system=systems(),
        budget=st.sampled_from([0, 1, 3, 10, 1 << 20]),
    )
    @relaxed
    def test_edges_are_canonical_and_nodes_are_the_reachable_states(
        self, data, system, budget
    ):
        table = system.species
        names = list(table.names)
        inputs = [n for n in names if n in data.draw(subsets(names))]
        seeds = data.draw(st.lists(subsets(names), min_size=1, max_size=3))
        g = context_graph(
            system,
            table.set_of(inputs),
            [table.set_of(s) for s in seeds],
            node_budget=budget,
        )
        keys = [(src, len(ctx), ctx.mask) for src, ctx, _ in g.edges]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        reactions = plain_reactions(system)
        for src, ctx, dst in g.edges:
            d = oracles.res_oracle(reactions, names_of(g.nodes[src]))
            assert names_of(ctx) <= set(inputs) and not names_of(ctx) & d
            assert names_of(g.nodes[dst]) == names_of(ctx) | d
        if not g.truncated:
            contexts = canonical_subsets(inputs)
            reachable = set()
            for s in seeds:
                reachable |= oracles.reachable_states(reactions, contexts, s)
            assert {names_of(node) for node in g.nodes} == reachable


    @given(data=st.data(), system=systems(max_reactions=7))
    @relaxed
    def test_matches_the_reference_loop_at_every_budget(self, data, system):
        table = system.species
        names = list(table.names)
        input_set = table.set_of(data.draw(subsets(names)))
        seeds = [
            table.set_of(s)
            for s in data.draw(st.lists(subsets(names), min_size=1, max_size=3))
        ]

        def reference(budget):
            return oracles.context_graph_oracle(
                system.rmasks, system.imasks, system.pmasks,
                input_set.mask, [s.mask for s in seeds], budget,
            )

        k = len(reference(1 << 20)[0])
        for budget in sorted({b for b in (0, 1, 3, k - 1, k) if b >= 0}):
            g = context_graph(system, input_set, seeds, node_budget=budget)
            nodes, edges, truncated = reference(budget)
            assert [w.mask for w in g.nodes] == nodes
            assert [(src, ctx.mask, dst) for src, ctx, dst in g.edges] == edges
            assert g.truncated == truncated
            for _, ctx, _ in g.edges:
                label = table.from_mask(ctx.mask)
                assert ctx == label and repr(ctx) == repr(label)


class TestImageMembership:
    @given(data=st.data(), system=systems(max_species=5, max_reactions=5))
    @relaxed
    def test_matches_the_exponential_scan(self, data, system):
        table = system.species
        names = list(table.names)
        target = frozenset(data.draw(st.sets(st.sampled_from(names))))
        image = oracles.image_oracle(plain_reactions(system), frozenset(names))
        cert = image_membership(system, table.set_of(target))
        assert (cert is not None) == (target in image)
        if cert is not None:
            assert names_of(result_all(system, cert.preimage)) == target

    @given(data=st.data(), system=systems(max_species=5, max_reactions=5))
    @relaxed
    def test_superset_membership(self, data, system):
        table = system.species
        names = list(table.names)
        target = frozenset(data.draw(st.sets(st.sampled_from(names))))
        image = oracles.image_oracle(plain_reactions(system), frozenset(names))
        cert = superset_image_membership(system, table.set_of(target))
        assert (cert is not None) == any(target <= v for v in image)
        if cert is not None:
            assert target <= names_of(result_all(system, cert.preimage))

    @given(data=st.data(), system=systems(max_species=5, max_reactions=8))
    @relaxed
    def test_pruning_keeps_the_first_solution(self, data, system):
        table = system.species
        target = table.set_of(data.draw(st.sets(st.sampled_from(table.names))))
        for fn, exact in ((image_membership, True), (superset_image_membership, False)):
            cert = fn(system, target)
            want = oracles.cover_search_oracle(
                system.rmasks, system.imasks, system.pmasks, target.mask, exact
            )
            assert (None if cert is None else cert.preimage.mask) == want

    def test_pruning_keeps_the_first_solution_on_networks(self):
        # Imported networks are where the plain search backtracks most:
        # every reaction has one product and reaction terms share species.
        rng = random.Random(2207)
        for _ in range(40):
            net = oracles.random_dnf_network(rng, rng.randint(10, 18))
            # Names end in a letter: the reaction labels of v1's second
            # term and v12's only term would both read rv12.
            text = "\n".join(
                f"{var}x = "
                + " | ".join(
                    " & ".join(
                        sorted(v + "x" for v in p) + ["!" + v + "x" for v in sorted(q)]
                    )
                    for p, q in terms
                )
                for var, terms in net.items()
            )
            system = bn_to_reactions(parse_boolean_network(text), blocking=True)
            table = system.species
            state = frozenset(rng.sample(sorted(net), len(net) // 2))
            produced = oracles.bn_step_oracle(net, state)
            for target in (
                produced,
                frozenset(sorted(produced)[::2]),
                frozenset(rng.sample(sorted(net), len(net) // 3)),
            ):
                for fn, exact in (
                    (image_membership, True),
                    (superset_image_membership, False),
                ):
                    target_set = table.set_of(v + "x" for v in target)
                    cert = fn(system, target_set)
                    want = oracles.cover_search_oracle(
                        system.rmasks, system.imasks, system.pmasks,
                        target_set.mask, exact,
                    )
                    got = None if cert is None else cert.preimage.mask
                    assert got == want, (text, sorted(target), exact)
                    if exact and target == produced:
                        assert got is not None


class TestNonceExtension:
    @given(data=st.data(), system=systems(max_species=4, max_reactions=3))
    @fewer
    def test_extension_is_conservative(self, data, system):
        extra = [f"x{i}" for i in range(data.draw(st.integers(1, 2)))]
        extended = nonce_extension(system, extra)
        base_names = set(system.species.names)
        all_names = list(extended.species.names)
        for mask in range(1 << len(all_names)):
            z = frozenset(n for k, n in enumerate(all_names) if mask >> k & 1)
            wide = names_of(result_all(extended, extended.species.set_of(z)))
            narrow = names_of(
                result_all(system, system.species.set_of(z & base_names))
            )
            assert wide == narrow


class TestNetworkTranslation:
    @given(seed=st.integers(0, 10_000), blocking=st.booleans())
    @relaxed
    def test_one_step_matches_the_oracle(self, seed, blocking):
        rng = random.Random(seed)
        net = oracles.random_dnf_network(rng, rng.randint(1, 5))
        lines = []
        for name, terms in net.items():
            rendered = [
                " & ".join(sorted(p) + ["!" + x for x in sorted(q)])
                for p, q in terms
            ]
            lines.append(f"{name} = " + " | ".join(rendered))
        bn = parse_boolean_network("\n".join(lines) + "\n")
        system = bn_to_reactions(bn, blocking=blocking)
        names = sorted(net)
        for mask in range(1 << len(names)):
            state = frozenset(n for k, n in enumerate(names) if mask >> k & 1)
            got = names_of(result_all(system, system.species.set_of(state)))
            want = oracles.bn_step_oracle(net, state)
            assert got & set(names) == want
            if blocking:
                assert got == want
