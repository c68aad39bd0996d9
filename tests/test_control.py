"""Constraints, witness search and verification, controllability decisions."""

import random
from functools import partial
from math import comb

import pytest

import rsys._pairscan
from rsys._engine import Engine
from rsys._pairscan import ResultGraph
from rsys.control import (
    AllowedSet,
    ControllabilityVerdict,
    ControlQuery,
    Exhaustive,
    MaxCardinality,
    Sampled,
    allowed_contexts,
    constraint_from_json,
    decide_controllable,
    decide_target_controllable,
    find_witness,
    minimal_I,
    minimal_n,
    query_from_json,
    trivial_witness,
    verify_witness,
)
from rsys.core import SpeciesTable, canonical_sorted
from rsys.dynamics import (
    context_graph,
    image_membership,
    orbit,
    superset_image_membership,
)
from rsys.errors import BudgetError, RefusalError, RsysError, SpeciesMismatchError

from oracles import (
    random_system,
    res_oracle,
    result_closure,
    shortest_witness_len,
    source_scan_oracle,
)
from util import canonical_subsets, make_system, names_of, plain_reactions

# S = {a, b, c}, reactions ({a}, {b}, {c}) and ({b}, {}, {b}): species b
# persists forever once present, so full controllability fails for every
# constraint (pair X={b}, Y={}).
T1 = [({"a"}, {"b"}, {"c"}), ({"b"}, set(), {"b"})]

# A plain decay chain a -> b -> c; fully controllable once singleton
# contexts are allowed.
CHAIN = [({"a"}, set(), {"b"}), ({"b"}, set(), {"c"})]


@pytest.fixture
def t1():
    return make_system(["a", "b", "c"], T1)


@pytest.fixture
def chain():
    return make_system(["a", "b", "c"], CHAIN)


@pytest.fixture
def engine_builds(monkeypatch):
    """Records one entry per Engine built while the test runs."""
    builds = []
    build = Engine.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        build(self, *args, **kwargs)

    monkeypatch.setattr(Engine, "__init__", counting)
    return builds


def sets(system, *name_groups):
    return [system.species.set_of(g) for g in name_groups]


class TestConstraints:
    def test_max_cardinality_zero_admits_only_empty(self, t1):
        out = allowed_contexts(t1, MaxCardinality(0))
        assert [names_of(c) for c in out] == [set()]

    def test_allowed_set_empty_admits_only_empty(self, t1):
        out = allowed_contexts(t1, AllowedSet(t1.species.empty_set))
        assert [names_of(c) for c in out] == [set()]

    def test_allowed_set_enumerates_subsets_canonically(self, t1):
        allowed = t1.species.set_of(["a", "c"])
        out = allowed_contexts(t1, AllowedSet(allowed))
        assert [names_of(c) for c in out] == [set(), {"a"}, {"c"}, {"a", "c"}]

    def test_max_cardinality_canonical_order(self, t1):
        out = allowed_contexts(t1, MaxCardinality(1))
        assert [names_of(c) for c in out] == [set(), {"a"}, {"b"}, {"c"}]

    def test_max_cardinality_counts(self, t1):
        assert len(allowed_contexts(t1, MaxCardinality(2))) == 1 + 3 + 3

    def test_negative_cardinality_rejected(self):
        with pytest.raises(RsysError):
            MaxCardinality(-1)

    def test_cardinality_must_be_below_universe_size(self, t1):
        with pytest.raises(RsysError, match="below the species count"):
            allowed_contexts(t1, MaxCardinality(3))

    def test_oversized_universe_refused_with_exact_count(self):
        names = [f"s{k}" for k in range(21)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        with pytest.raises(RefusalError, match="2097152 contexts") as err:
            allowed_contexts(system, AllowedSet(system.species.full_set))
        assert "pass a larger limit" in str(err.value)
        assert len(allowed_contexts(system, MaxCardinality(1), limit=22)) == 22

    @pytest.mark.parametrize(
        "scope", [None, Sampled(3)], ids=["find_witness", "sampled"]
    )
    def test_listing_calls_refuse_without_suggesting_a_limit(self, scope):
        # These calls list the contexts but take no limit, so the refusal
        # must not offer to raise one.
        names = [f"s{k}" for k in range(21)]
        system = make_system(names, [])
        table = system.species
        constraint = AllowedSet(table.full_set)
        with pytest.raises(RefusalError, match="2097152 contexts") as err:
            if scope is None:
                empty = table.empty_set
                find_witness(system, ControlQuery(empty, empty, constraint))
            else:
                decide_target_controllable(
                    system,
                    table.set_of(names[:16]),
                    constraint,
                    scope=scope,
                )
        assert "limit 1048576" in str(err.value)
        assert "larger limit" not in str(err.value)

    def test_satisfied_by_and_violation(self, t1):
        table = t1.species
        limit = MaxCardinality(1)
        assert limit.satisfied_by(table.set_of(["a"]))
        assert not limit.satisfied_by(table.set_of(["a", "b"]))
        assert "more than 1" in limit.violation()
        allowed = AllowedSet(table.set_of(["a"]))
        assert not allowed.satisfied_by(table.set_of(["b"]))
        assert "not ⊆ I" in allowed.violation()

    def test_allowed_set_refuses_a_context_over_another_table(self, t1):
        allowed = AllowedSet(t1.species.set_of(["a"]))
        other = SpeciesTable(["x", "y", "z"])
        with pytest.raises(SpeciesMismatchError):
            allowed.satisfied_by(other.set_of(["x"]))

    def test_json_round_trip(self, t1):
        table = t1.species
        for constraint in (MaxCardinality(2), AllowedSet(table.set_of(["a"]))):
            again = constraint_from_json(constraint.to_json(), table)
            assert again.to_json() == constraint.to_json()

    def test_json_kind_slug_forgiving(self, t1):
        table = t1.species
        c = constraint_from_json({"kind": "Max_Cardinality", "n": 1}, table)
        assert isinstance(c, MaxCardinality)


class TestControlQuery:
    def test_defaults(self, t1):
        x, y = sets(t1, ["a"], ["c"])
        q = ControlQuery(source=x, target=y, constraint=MaxCardinality(0))
        assert q.initial_mode == "given" and q.depth_limit is None

    def test_target_outside_targets_rejected(self, t1):
        x, y, t = sets(t1, ["a"], ["c"], ["b"])
        with pytest.raises(RsysError, match="target"):
            ControlQuery(source=x, target=y, constraint=MaxCardinality(0), targets=t)

    def test_source_may_exceed_targets(self, t1):
        # The source is the literal full start state, not a projection.
        x, y, t = sets(t1, ["a", "b"], ["b"], ["b"])
        q = ControlQuery(source=x, target=y, constraint=MaxCardinality(0), targets=t)
        assert q.source == x

    def test_bad_mode_and_depth(self, t1):
        x, y = sets(t1, ["a"], ["c"])
        with pytest.raises(RsysError):
            ControlQuery(x, y, MaxCardinality(0), initial_mode="middle")
        with pytest.raises(RsysError):
            ControlQuery(x, y, MaxCardinality(0), depth_limit=0)

    def test_json_round_trip(self, t1):
        table = t1.species
        x, y, t = sets(t1, ["a"], ["c"], ["b", "c"])
        q = ControlQuery(
            source=x,
            target=y,
            constraint=AllowedSet(table.set_of(["a"])),
            targets=t,
            initial_mode="context",
            depth_limit=5,
        )
        again = query_from_json(q.to_json(), table)
        assert again.to_json() == q.to_json()

    def test_json_missing_field(self, t1):
        with pytest.raises(RsysError, match="source"):
            query_from_json({"target": []}, t1.species)


class TestFindWitness:
    def test_single_step_with_empty_context(self, t1):
        # W_0 = {a}, res({a}) = {c}: one empty steering context suffices.
        x, y = sets(t1, ["a"], ["c"])
        w = find_witness(t1, ControlQuery(x, y, MaxCardinality(0)))
        assert w is not None
        assert [names_of(c) for c in w.contexts] == [set()]
        assert w.hit_index == 1

    def test_source_equal_target_gives_zero_length(self, t1):
        x, _ = sets(t1, ["a"], ["c"])
        w = find_witness(t1, ControlQuery(x, x, MaxCardinality(0)))
        assert w is not None and w.contexts == () and w.hit_index == 0

    def test_absence_is_definitive_without_depth_limit(self, t1):
        # Results of T1 are only {}, {b}, {c}; with one context species the
        # full set {a, b, c} can never assemble.
        x, y = sets(t1, ["c"], ["a", "b", "c"])
        assert find_witness(t1, ControlQuery(x, y, MaxCardinality(1))) is None

    def test_depth_limit_cuts_search(self, chain):
        x, y = sets(chain, ["a"], ["c"])
        q_short = ControlQuery(x, y, MaxCardinality(0), depth_limit=1)
        assert find_witness(chain, q_short) is None
        q_long = ControlQuery(x, y, MaxCardinality(0), depth_limit=2)
        w = find_witness(chain, q_long)
        assert w is not None and w.hit_index == 2

    def test_shortest_length_matches_oracle(self, chain):
        table = chain.species
        x, y = sets(chain, ["a"], ["c"])
        w = find_witness(chain, ControlQuery(x, y, MaxCardinality(1)))
        contexts = [frozenset()] + [frozenset({n}) for n in table]
        expected = shortest_witness_len(
            plain_reactions(chain), contexts, frozenset({"a"}), frozenset({"c"})
        )
        assert w is not None and w.hit_index == expected == 2

    def test_canonical_tie_break_prefers_smaller_context(self):
        system = make_system(
            ["a", "b"], [({"a"}, set(), {"b"}), ({"b"}, set(), {"b"})]
        )
        x, y = sets(system, ["a"], ["b"])
        w = find_witness(
            system, ControlQuery(x, y, AllowedSet(system.species.full_set))
        )
        # {} and {b} both step {a} to {b}; the canonical witness takes {}.
        assert w is not None
        assert [names_of(c) for c in w.contexts] == [set()]

    def test_context_mode_includes_source_as_first_context(self, t1):
        x, y = sets(t1, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(1), initial_mode="context")
        w = find_witness(t1, q)
        assert w is not None
        assert w.contexts[0] == x
        assert w.trace.initial_mode == "context"

    def test_context_mode_source_violating_constraint(self, t1):
        x, y = sets(t1, ["a", "b"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(1), initial_mode="context")
        assert find_witness(t1, q) is None

    def test_node_budget_stops_search(self):
        names = [f"s{k}" for k in range(10)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        table = system.species
        # The only product is s1, so a 10-species end state is out of
        # reach of five-species contexts; the search can only be stopped.
        q = ControlQuery(table.empty_set, table.full_set, MaxCardinality(5))
        with pytest.raises(BudgetError, match="node budget") as err:
            find_witness(system, q, node_budget=10)
        assert err.value.visited <= 10

    def test_huge_node_budget_acts_as_no_budget(self, chain):
        x, y = sets(chain, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(1))
        huge = find_witness(chain, q, node_budget=10**30)
        plain = find_witness(chain, q)
        assert huge.contexts == plain.contexts
        assert (huge.hit_index, huge.visited) == (plain.hit_index, plain.visited)

    def test_target_mode_projected_goal(self, t1):
        # T = {c}: end condition W ∩ {c} = {c}.
        table = t1.species
        q = ControlQuery(
            source=table.empty_set,
            target=table.set_of(["c"]),
            constraint=AllowedSet(table.set_of(["a"])),
            targets=table.set_of(["c"]),
        )
        w = find_witness(t1, q)
        assert w is not None and w.hit_index == 2
        assert [names_of(c) for c in w.contexts] == [{"a"}, set()]

    def test_witness_replay_verifies(self, chain):
        x, y = sets(chain, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(1))
        w = find_witness(chain, q)
        check = verify_witness(chain, q, w)
        assert check.ok and check.hit_index == w.hit_index


class TestVerifyWitness:
    def test_constraint_violation_reports_step(self, t1):
        x, y = sets(t1, ["a"], ["c"])
        q = ControlQuery(x, y, AllowedSet(t1.species.set_of(["a"])))
        bad = [t1.species.set_of(["b"])]
        check = verify_witness(t1, q, bad)
        assert not check.ok
        assert check.reason == "context not ⊆ I at step 1"

    def test_never_reaching_end_condition(self, t1):
        x, y = sets(t1, ["c"], ["a"])
        q = ControlQuery(x, y, MaxCardinality(0))
        check = verify_witness(t1, q, [t1.species.empty_set])
        assert not check.ok
        assert "never holds" in check.reason

    def test_context_mode_first_context_must_match_source(self, t1):
        x, y = sets(t1, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(1), initial_mode="context")
        check = verify_witness(t1, q, [t1.species.set_of(["b"])])
        assert not check.ok
        assert "first context differs from the source" in check.reason

    def test_context_mode_empty_sequence(self, t1):
        x, y = sets(t1, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(1), initial_mode="context")
        check = verify_witness(t1, q, [])
        assert not check.ok and "no contexts" in check.reason

    def test_early_hit_within_longer_replay(self, chain):
        x, y = sets(chain, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(0))
        empty = chain.species.empty_set
        check = verify_witness(chain, q, [empty] * 6)
        assert check.ok and check.hit_index == 2

    def test_depth_limit_applies_to_first_hit(self, chain):
        x, y = sets(chain, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(0), depth_limit=1)
        empty = chain.species.empty_set
        check = verify_witness(chain, q, [empty] * 3)
        assert not check.ok
        assert "first holds at step 2, beyond the depth limit" in check.reason

    def test_replays_context_sequences_and_witness_objects(self, chain):
        x, y = sets(chain, ["a"], ["c"])
        q = ControlQuery(x, y, MaxCardinality(0))
        w = find_witness(chain, q)
        assert verify_witness(chain, q, w).ok
        assert verify_witness(chain, q, list(w.contexts)).ok

    @pytest.mark.parametrize("replay", [[], [[]], [["a"], ["b"]]])
    def test_refuses_the_unconstrained_cardinality_bound(self, t1, replay):
        table = t1.species
        q = ControlQuery(table.set_of(["a"]), table.full_set, MaxCardinality(3))
        with pytest.raises(RsysError, match="must stay below the species count"):
            find_witness(t1, q)
        with pytest.raises(RsysError, match="must stay below the species count"):
            verify_witness(t1, q, [table.set_of(c) for c in replay])

    @pytest.mark.parametrize(
        "query",
        [
            lambda own, other: ControlQuery(
                other.set_of(["x"]), other.set_of(["z"]), MaxCardinality(1)
            ),
            lambda own, other: ControlQuery(
                other.set_of(["x"]), own.set_of(["c"]), MaxCardinality(1)
            ),
            lambda own, other: ControlQuery(
                own.set_of(["a"]),
                other.set_of(["z"]),
                MaxCardinality(1),
                targets=other.set_of(["z"]),
            ),
        ],
        ids=["source_and_target", "source", "target_and_target_set"],
    )
    def test_refuses_sets_from_another_table(self, t1, query):
        q = query(t1.species, SpeciesTable(["x", "y", "z"]))
        with pytest.raises(SpeciesMismatchError):
            find_witness(t1, q)
        with pytest.raises(SpeciesMismatchError):
            verify_witness(t1, q, [t1.species.empty_set])


class TestTrivialWitness:
    def test_accepts_when_full_set_result_fits_target(self):
        # res(S) = {} because b inhibits the only reaction.
        system = make_system(["a", "b", "c"], [({"a"}, {"b"}, {"c"})])
        table = system.species
        w = trivial_witness(system, table.empty_set, table.empty_set)
        assert [names_of(c) for c in w.contexts] == [set(), {"a", "b", "c"}, set()]
        assert w.hit_index == 2

    def test_refusal_names_the_extra_species(self):
        system = make_system(["p"], [(set(), set(), {"p"})])
        table = system.species
        with pytest.raises(RefusalError, match="deviates at step 2") as err:
            trivial_witness(system, table.empty_set, table.empty_set)
        assert "contributes {p}" in str(err.value)

    def test_accepts_target_containing_full_result(self, t1):
        # res(S) = {b} for T1, so Y must contain exactly {b} ∪ C_2 ∩ ...
        table = t1.species
        w = trivial_witness(t1, table.set_of(["a"]), table.set_of(["b"]))
        assert verify_witness(
            t1,
            ControlQuery(
                table.set_of(["a"]),
                table.set_of(["b"]),
                AllowedSet(table.full_set),
                initial_mode="context",
            ),
            w,
        ).ok


class TestDecideControllable:
    def test_first_counterexample_in_canonical_order(self, t1):
        verdict = decide_controllable(t1, AllowedSet(t1.species.empty_set))
        assert not verdict.decision
        x, y = verdict.counterexample
        assert (names_of(x), names_of(y)) == (set(), {"b"})

    def test_chain_controllable_with_singletons(self, chain):
        verdict = decide_controllable(chain, MaxCardinality(1))
        assert verdict.decision and verdict.counterexample is None
        assert verdict.pairs_checked > 0

    def test_image_only_targets_are_scanned(self, chain):
        # Image of the chain is {{}, {b}, {c}, {b, c}}: 8 sources × 4 image
        # points minus the X = Y coincidences.
        verdict = decide_controllable(chain, MaxCardinality(1))
        assert verdict.pairs_checked == 8 * 4 - 4

    def test_species_limit_refusal_mentions_pair_count(self):
        names = [f"s{k}" for k in range(17)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        with pytest.raises(RefusalError, match="4\\^17"):
            decide_controllable(system, MaxCardinality(0))

    def test_species_limit_override(self, t1):
        verdict = decide_controllable(
            t1, AllowedSet(t1.species.empty_set), species_limit=3
        )
        assert not verdict.decision

    def test_sampled_scope_is_deterministic(self, chain):
        a = decide_controllable(chain, MaxCardinality(1), scope=Sampled(20, seed=1))
        b = decide_controllable(chain, MaxCardinality(1), scope=Sampled(20, seed=1))
        assert a == b
        assert a.decision and a.pairs_checked == 20

    def test_sampled_scope_can_find_counterexamples(self, t1):
        verdict = decide_controllable(
            t1, AllowedSet(t1.species.empty_set), scope=Sampled(64, seed=0)
        )
        # (X, Y) pairs with unreachable Y dominate; the sampler must hit one.
        assert not verdict.decision
        assert verdict.counterexample is not None


class TestDecideTargetControllable:
    def test_full_target_equals_plain_decision(self, t1, chain):
        for system in (t1, chain):
            for constraint in (MaxCardinality(1), AllowedSet(system.species.set_of(["a"]))):
                plain = decide_controllable(system, constraint)
                projected = decide_target_controllable(
                    system, system.species.full_set, constraint
                )
                assert plain == projected

    def test_projected_pair_scan(self, t1):
        table = t1.species
        verdict = decide_target_controllable(
            t1, table.set_of(["c"]), AllowedSet(table.set_of(["a"]))
        )
        assert verdict.decision

    def test_counterexample_is_projected(self, t1):
        table = t1.species
        verdict = decide_target_controllable(
            t1, table.set_of(["b"]), AllowedSet(table.empty_set)
        )
        assert not verdict.decision
        x, y = verdict.counterexample
        assert names_of(x) <= {"b"} and names_of(y) <= {"b"}

    def test_provisos_differ_on_strict_subsets_of_the_image(self):
        system = make_system(["p"], [(set(), set(), {"p"})])
        table = system.species
        t = table.set_of(["p"])
        constraint = MaxCardinality(0)
        exact = decide_target_controllable(system, t, constraint)
        assert exact.decision
        superset = decide_target_controllable(
            system, t, constraint, proviso="superset"
        )
        # Y = {} is admissible under the superset proviso but unreachable:
        # every successor contains p.
        assert not superset.decision
        assert names_of(superset.counterexample[1]) == set()

    def test_frontier_refusal_suggests_pinning_the_start(self):
        names = [f"s{k}" for k in range(8)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        with pytest.raises(RefusalError, match="pin the full start state"):
            decide_target_controllable(
                system,
                system.species.set_of(["s0"]),
                MaxCardinality(0),
                frontier_limit=3,
            )

    @pytest.mark.parametrize("scope", [Exhaustive(), Sampled(4)])
    @pytest.mark.parametrize("limit", ["species_limit", "frontier_limit"])
    def test_negative_limits_are_invalid(self, t1, scope, limit):
        with pytest.raises(RsysError, match="must be at least 0, got -1"):
            decide_target_controllable(
                t1,
                t1.species.set_of(["c"]),
                MaxCardinality(1),
                scope=scope,
                **{limit: -1},
            )

    def test_start_frontier_is_existential(self):
        # res({a}) = {t}, res({}) = {}: X = {} succeeds because SOME
        # completion ({a}) reaches Y = {t} even though the bare start
        # cannot.
        system = make_system(["a", "t"], [({"a"}, set(), {"t"})])
        table = system.species
        verdict = decide_target_controllable(
            system, table.set_of(["t"]), MaxCardinality(0)
        )
        assert verdict.decision


@pytest.fixture
def closure_calls(monkeypatch):
    """Count the kernel closures the decisions compute."""
    calls = []
    kernel_closure = Engine.bfs_closure

    def counting(self, *args):
        calls.append(args[0])
        return kernel_closure(self, *args)

    monkeypatch.setattr(Engine, "bfs_closure", counting)
    return calls


@pytest.fixture
def expanded(monkeypatch):
    """Record the result values the decisions' result graphs expand."""
    calls = []
    split = rsys._pairscan.res_split

    def counting(d, *args):
        calls.append(d)
        return split(d, *args)

    monkeypatch.setattr(rsys._pairscan, "res_split", counting)
    return calls


def assert_budget_edges(decide, k):
    """A decision that expands k result values: budget k−1 stops it after
    k−1, and budgets k and k+1 answer as if there were no budget."""
    expected = decide(None)
    with pytest.raises(
        BudgetError, match=f"after expanding {k - 1} result values"
    ) as err:
        decide(k - 1)
    assert err.value.visited == k - 1
    for budget in (k, k + 1):
        assert decide(budget) == expected


# Budgeted scans: the budget counts the result values the decision's
# result graph expands, never full states, so no kernel closure runs.
class TestDecisionBudget:
    def test_one_value_when_every_result_is_empty(self, closure_calls):
        # No reactions: every source has the result {}, so the whole scan of
        # 2^17 sources expands one value.
        names = [f"s{k}" for k in range(17)]
        system = make_system(names, [])
        verdict = decide_controllable(
            system, MaxCardinality(1), species_limit=17, node_budget=1
        )
        assert verdict.decision and verdict.pairs_checked == (1 << 17) - 1
        with pytest.raises(BudgetError):
            decide_controllable(
                system, MaxCardinality(1), species_limit=17, node_budget=0
            )
        assert closure_calls == []

    def test_budget_counts_result_values_not_states(self, closure_calls):
        # Source {a} holds two states, {a} and {}, but both have the result
        # {}, so a budget of one value answers.
        system = make_system(["a", "b"], [])
        with pytest.raises(BudgetError):
            decide_controllable(system, MaxCardinality(0), node_budget=0)
        verdict = decide_controllable(system, MaxCardinality(0), node_budget=1)
        assert verdict.decision and verdict.pairs_checked == 3
        assert closure_calls == []

    @pytest.mark.parametrize("seed", [1, 2, 4, 10])
    @pytest.mark.parametrize(
        "allowed", [None, ("s0", "s2", "s3")], ids=["max1", "allowed"]
    )
    def test_budget_edges_in_full_mode(self, closure_calls, seed, allowed):
        names, reactions = random_system(random.Random(seed), 5, 6)
        system = make_system(names, reactions)
        constraint, contexts = constraint_and_contexts(system, allowed)

        def decide(budget):
            return decide_controllable(system, constraint, node_budget=budget)

        k = len(expanded_through(decide(None), reactions, names, names, contexts))
        assert_budget_edges(decide, k)
        assert closure_calls == []

    @pytest.mark.parametrize("seed", [1, 2, 4, 10])
    @pytest.mark.parametrize("n_targets", [2, 5])
    def test_budget_edges_in_target_mode(self, closure_calls, seed, n_targets):
        names, reactions = random_system(random.Random(seed), 5, 6)
        system = make_system(names, reactions)
        targets = names[:n_targets]
        constraint, contexts = constraint_and_contexts(system, None)
        for proviso in ("projection", "superset"):
            decide = partial(
                decide_target_controllable,
                system,
                system.species.set_of(targets),
                constraint,
                proviso=proviso,
            )
            verdict = decide()
            k = len(expanded_through(verdict, reactions, names, targets, contexts))
            assert_budget_edges(lambda b: decide(node_budget=b), k)
        assert closure_calls == []

    @pytest.mark.parametrize("seed", [1, 4])
    def test_budget_applies_per_minimal_scan_probe(self, closure_calls, seed):
        # Each probe builds its own result graph, so the scan needs only
        # the largest probe's count, not the sum.
        names, reactions = random_system(random.Random(seed), 5, 6)
        system = make_system(names, reactions)
        report = minimal_n(system)
        counts = [
            len(
                expanded_through(
                    verdict,
                    reactions,
                    names,
                    names,
                    constraint_and_contexts(system, n)[1],
                )
            )
            for n, verdict in report.verdicts
        ]
        assert len(counts) > 1
        with pytest.raises(BudgetError):
            minimal_n(system, node_budget=max(counts) - 1)
        assert minimal_n(system, node_budget=max(counts)) == report
        assert closure_calls == []


def constraint_and_contexts(system, allowed):
    """A constraint and its admitted contexts as plain sets: at most one
    species for None, at most n species for an int n, else AllowedSet."""
    names = list(system.species.names)
    if allowed is None or isinstance(allowed, int):
        n = 1 if allowed is None else allowed
        contexts = [s for s in canonical_subsets(names) if len(s) <= n]
        return MaxCardinality(n), contexts
    return AllowedSet(system.species.set_of(allowed)), canonical_subsets(allowed)


def expanded_through(verdict, reactions, names, targets, contexts):
    """The result values a decision expands through its decision point:
    the closure of the start results of every source it scanned."""
    starts = set().union(
        *scanned_start_results(verdict, names, reactions, targets)
    )
    return result_closure(reactions, contexts, starts)


def scanned_start_results(verdict, names, reactions, targets):
    """Per source scanned, in canonical order up to the decision point, the
    results of its starts X ∪ Z, Z ⊆ S ∖ T."""
    sources = canonical_subsets(targets)
    if verdict.counterexample is not None:
        last = names_of(verdict.counterexample[0])
        sources = sources[: sources.index(last) + 1]
    completions = canonical_subsets([n for n in names if n not in targets])
    return [{res_oracle(reactions, x | z) for z in completions} for x in sources]


class TestResultGraph:
    def test_wide_system_expands_one_node_and_no_closure(
        self, closure_calls, expanded
    ):
        # No reactions: every result is {}, so 2^17 sources share one node.
        names = [f"s{k}" for k in range(17)]
        system = make_system(names, [])
        verdict = decide_controllable(system, MaxCardinality(1), species_limit=17)
        assert verdict.decision and verdict.pairs_checked == (1 << 17) - 1
        assert closure_calls == []
        assert expanded == [0]

    def test_context_count_does_not_limit_the_result_graph(
        self, closure_calls, expanded
    ):
        # 2^21 admitted contexts, none of them listed: the graph reads the
        # constraint's span, so the enumeration ceiling does not apply.
        names = [f"s{k}" for k in range(21)]
        system = make_system(names, [])
        table = system.species
        verdict = decide_target_controllable(
            system, table.set_of(names[:16]), AllowedSet(table.full_set)
        )
        assert verdict.decision and verdict.pairs_checked == (1 << 16) - 1
        assert closure_calls == []
        assert expanded == [0]

    def test_budgeted_decision_lists_no_contexts(self, closure_calls, expanded):
        # The same 2^21 admitted contexts under a budget: the budget counts
        # result values, so a budgeted decision lists no contexts either.
        names = [f"s{k}" for k in range(21)]
        system = make_system(names, [])
        table = system.species
        verdict = decide_target_controllable(
            system,
            table.set_of(names[:16]),
            AllowedSet(table.full_set),
            node_budget=1,
        )
        assert verdict.decision and verdict.pairs_checked == (1 << 16) - 1
        assert closure_calls == []
        assert expanded == [0]

    @pytest.mark.parametrize("seed", [1, 2, 4, 10])
    @pytest.mark.parametrize("n_targets", [2, 5])
    @pytest.mark.parametrize("allowed", [None, ("s0", "s2", "s3")])
    def test_each_reachable_result_expanded_once(
        self, closure_calls, expanded, seed, n_targets, allowed
    ):
        names, reactions = random_system(random.Random(seed), 5, 6)
        system = make_system(names, reactions)
        table = system.species
        targets = names[:n_targets]
        constraint, contexts = constraint_and_contexts(system, allowed)
        verdict = decide_target_controllable(
            system, table.set_of(targets), constraint
        )
        reachable = expanded_through(verdict, reactions, names, targets, contexts)
        assert closure_calls == []
        assert len(expanded) == len(set(expanded)) == len(reachable)
        assert {names_of(table.from_mask(d)) for d in expanded} == reachable


class TestResultScan:
    """Full mode (T = S) scans the image's results, not every source."""

    def test_source_missing_only_itself_fails_at_its_next_source(self):
        # res(W) = {a} while b ∉ W: the cube of sources with b absent and
        # a, c free. Under empty contexts {a} reaches only itself, so the
        # cube misses the end set {} alone, which is its least source: {}
        # passes and the next source, {} plus the lowest free species a,
        # fails first.
        system = make_system(["a", "b", "c"], [((), ("b",), ("a",))])
        table = system.species
        verdict = decide_controllable(system, MaxCardinality(0))
        assert verdict == ControllabilityVerdict(
            False, (table.set_of(["a"]), table.set_of([])), 2
        )

    def test_next_source_may_lie_in_the_next_cube(self):
        # res(W) = {a} unless W = {a, b}: the cubes a absent (b free) and
        # a present, b absent. The least source {} misses only itself, so
        # the first failure is the second source, {a}, the least member of
        # the second cube, before {b} in the first.
        system = make_system(
            ["a", "b"], [((), ("a",), ("a",)), ((), ("b",), ("a",))]
        )
        table = system.species
        verdict = decide_controllable(system, MaxCardinality(0))
        assert verdict == ControllabilityVerdict(
            False, (table.set_of(["a"]), table.set_of([])), 2
        )

    def test_single_source_missing_only_itself_passes(self):
        # res({}) = {b}, and the only source with that result is {}; its
        # reach lacks only the end set {}, so it passes and the first
        # failure is the later source {b}.
        system = make_system(
            ["a", "b"], [((), ("a",), ("b",)), (("b",), (), ("a", "b"))]
        )
        table = system.species
        verdict = decide_controllable(system, MaxCardinality(0))
        assert verdict == ControllabilityVerdict(
            False, (table.set_of(["b"]), table.set_of([])), 6
        )

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("trap", [False, True])
    def test_matches_the_per_source_scan(self, seed, trap):
        system, constraint = scan_case(seed, trap)
        table = system.species
        union, limit = constraint.span(table)

        def per_source(budget):
            eng = Engine(system)
            y_masks = canonical_sorted(eng.image())
            graph = ResultGraph(
                eng, union, limit, y_masks, eng.species_mask, budget
            )
            checked, cex = source_scan_oracle(
                graph.reached, len(table), y_masks,
                system.rmasks, system.imasks, system.pmasks,
            )
            verdict = ControllabilityVerdict(
                cex is None,
                None if cex is None else tuple(map(table.from_mask, cex)),
                checked,
            )
            return verdict, graph.expanded

        expected, expanded = per_source(1 << 62)
        assert decide_controllable(system, constraint, species_limit=12) == expected
        for budget in (expanded - 1, expanded // 2):
            with pytest.raises(BudgetError) as want:
                per_source(budget)
            with pytest.raises(BudgetError) as got:
                decide_controllable(
                    system, constraint, species_limit=12, node_budget=budget
                )
            assert str(got.value) == str(want.value)
            assert got.value.visited == want.value.visited == budget

    def test_trap_cases_fail_late_in_canonical_order(self):
        # The cases above include false verdicts whose first failing
        # source comes after most sources: the scan must then stop late.
        late = 0
        for seed in range(12):
            system, constraint = scan_case(seed, trap=True)
            verdict = decide_controllable(system, constraint, species_limit=12)
            n = len(system.species)
            if not verdict.decision:
                size = len(verdict.counterexample[0])
                late += sum(comb(n, k) for k in range(size)) > 1 << n - 1
        assert late >= 10


def scan_case(seed: int, trap: bool):
    """A seeded random system of 8-12 species and a constraint. With a
    trap, n−2 species sustain each other once all present, so every source
    holding them fails, and under a loose constraint the first failing
    source ranks high in canonical order."""
    rng = random.Random(seed)
    n = 8 + seed % 5
    names, reactions = random_system(rng, n, rng.randint(2, n))
    if trap:
        held = frozenset(rng.sample(names, n - 2))
        reactions.append((held, frozenset(), held))
    system = make_system(names, reactions)
    table = system.species
    if trap:
        constraint = [MaxCardinality(n - 1), AllowedSet(table.full_set)][seed % 2]
    elif seed % 2:
        constraint = MaxCardinality(rng.choice([1, 2, n - 1]))
    else:
        constraint = AllowedSet(table.set_of(rng.sample(names, n - 1)))
    return system, constraint


@pytest.mark.parametrize(
    "scan",
    [
        lambda system: minimal_n(system),
        lambda system: minimal_I(system, system.species.full_set),
    ],
    ids=["minimal_n", "minimal_I"],
)
def test_minimal_scan_probes_share_one_engine(engine_builds, chain, scan):
    scan(chain)
    assert len(engine_builds) == 1


def _witness_query(system):
    table = system.species
    return ControlQuery(table.set_of(["a"]), table.set_of(["c"]), MaxCardinality(1))


@pytest.mark.parametrize(
    "call, builds",
    [
        (lambda s: orbit(s, s.species.set_of(["a"]), s.species.empty_set), 0),
        (lambda s: image_membership(s, s.species.set_of(["c"])), 0),
        (lambda s: superset_image_membership(s, s.species.set_of(["c"])), 0),
        (lambda s: verify_witness(s, _witness_query(s), [s.species.empty_set]), 0),
        (lambda s: context_graph(s, s.species.full_set, [s.species.empty_set]), 0),
        (lambda s: find_witness(s, _witness_query(s)), 1),
        (lambda s: decide_controllable(s, MaxCardinality(1)), 1),
        (lambda s: minimal_n(s), 1),
    ],
    ids=[
        "orbit",
        "image_membership",
        "superset_image_membership",
        "verify_witness",
        "context_graph",
        "find_witness",
        "decide_controllable",
        "minimal_n",
    ],
)
def test_engine_is_built_only_for_kernel_searches(engine_builds, chain, call, builds):
    call(chain)
    assert len(engine_builds) == builds


class TestMinimalN:
    def test_chain_needs_one(self, chain):
        report = minimal_n(chain)
        assert report.minimal == 1
        assert [n for n, _ in report.verdicts] == [0, 1]
        n0 = report.verdicts[0][1]
        assert not n0.decision and n0.counterexample is not None
        assert report.verdicts[1][1].decision

    def test_uncontrollable_system_reports_none(self, t1):
        report = minimal_n(t1)
        assert report.minimal is None
        assert len(report.verdicts) == 3
        assert all(not v.decision for _, v in report.verdicts)

    def test_verdicts_monotone(self, chain):
        report = minimal_n(chain)
        flags = [v.decision for _, v in report.verdicts]
        assert flags == sorted(flags)


class TestMinimalI:
    def test_greedy_inclusion_minimal(self, chain):
        table = chain.species
        report = minimal_I(chain, table.full_set)
        assert names_of(report.minimal) == {"b"}
        assert report.start_verdict.decision
        dropped = [name for name, dropped, _ in report.steps if dropped]
        assert dropped == ["a", "c"]

    def test_minimal_set_still_works_and_is_minimal(self, chain):
        table = chain.species
        report = minimal_I(chain, table.full_set)
        minimal = report.minimal
        assert decide_controllable(chain, AllowedSet(minimal)).decision
        for name in minimal.members:
            shrunk = minimal - table.set_of([name])
            assert not decide_controllable(chain, AllowedSet(shrunk)).decision

    def test_failing_start_reported_immediately(self, t1):
        report = minimal_I(t1, t1.species.full_set)
        assert report.minimal is None
        assert not report.start_verdict.decision
        assert report.steps == ()
