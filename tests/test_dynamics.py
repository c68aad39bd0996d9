"""Orbits, context graphs, image membership, nonce extensions."""

import random
import sys

import pytest

from rsys.core import result_all
from rsys.dynamics import (
    attractor_report,
    context_graph,
    image_membership,
    nonce_extension,
    orbit,
    superset_image_membership,
)
from rsys.errors import BudgetError, RefusalError, RsysError

from oracles import image_oracle, random_system, reachable_states, res_oracle
from util import make_system, names_of, plain_reactions


@pytest.fixture
def toy():
    return make_system(
        ["a", "b", "c"], [({"a"}, set(), {"b"}), ({"b"}, set(), {"c"})]
    )


class TestOrbit:
    def test_fixed_point_has_period_one(self, toy):
        table = toy.species
        orb = orbit(toy, table.empty_set, table.empty_set)
        assert orb.period == 1 and len(orb.transient) == 0

    def test_transient_then_cycle_partition(self, toy):
        table = toy.species
        orb = orbit(toy, table.set_of(["a"]), table.empty_set)
        # {a} → {b} → {c} → {} → {} …
        assert [names_of(w) for w in orb.transient] == [{"a"}, {"b"}, {"c"}]
        assert [names_of(w) for w in orb.cycle] == [set()]

    def test_constant_context_cycle(self, toy):
        table = toy.species
        ctx = table.set_of(["a"])
        orb = orbit(toy, table.empty_set, ctx)
        # {} → {a} → {a, b} → {a, b, c} (fixed).
        assert orb.period == 1
        assert names_of(orb.cycle[0]) == {"a", "b", "c"}
        assert orb.context == ctx

    def test_successor_of_cycle_end_is_cycle_start(self, toy):
        table = toy.species
        orb = orbit(toy, table.set_of(["a"]), table.set_of(["b"]))
        w = orb.cycle[-1]
        succ = orb.context | result_all(toy, w)
        assert succ == orb.cycle[0]

    def test_budget_exhaustion_raises(self, toy):
        table = toy.species
        with pytest.raises(BudgetError, match="no recurrence within 1 steps"):
            orbit(toy, table.set_of(["a"]), table.empty_set, max_steps=1)

    def test_marker_counts_cover_cycle_only(self, toy):
        table = toy.species
        orb = orbit(toy, table.set_of(["a"]), table.empty_set)
        counts = attractor_report(orb, ["a", "b", "c"])
        # Markers in the transient must not count.
        assert counts == {"a": 0, "b": 0, "c": 0}


class TestContextGraph:
    def test_nodes_match_reachability_oracle(self, toy):
        table = toy.species
        contexts = [frozenset(), frozenset({"a"})]
        expected = reachable_states(
            plain_reactions(toy), contexts, frozenset()
        )
        g = context_graph(toy, table.set_of(["a"]), [table.empty_set])
        assert {names_of(w) for w in g.nodes} == expected
        assert not g.truncated

    def test_edges_follow_step_semantics(self, toy):
        table = toy.species
        g = context_graph(toy, table.set_of(["a"]), [table.empty_set])
        plain = plain_reactions(toy)
        for src, ctx, dst in g.edges:
            w = names_of(g.nodes[src])
            assert names_of(g.nodes[dst]) == names_of(ctx) | res_oracle(plain, w)

    def test_edge_labels_are_minimal_contexts(self, toy):
        table = toy.species
        g = context_graph(toy, table.set_of(["a"]), [table.empty_set])
        plain = plain_reactions(toy)
        for src, ctx, dst in g.edges:
            # The label never re-supplies species the result already has.
            assert names_of(ctx).isdisjoint(
                res_oracle(plain, names_of(g.nodes[src]))
            )

    def test_distinct_successors_once_each(self, toy):
        table = toy.species
        g = context_graph(toy, table.full_set, [table.empty_set])
        assert len({(s, d) for s, _, d in g.edges}) == len(g.edges)

    def test_budget_truncation_flagged(self, toy):
        table = toy.species
        g = context_graph(toy, table.full_set, [table.empty_set], node_budget=2)
        assert g.truncated and len(g.nodes) == 2

    def test_input_limit_refusal(self):
        names = [f"s{k}" for k in range(25)]
        system = make_system(names, [({"s0"}, set(), {"s1"})])
        with pytest.raises(RefusalError, match="input set"):
            context_graph(
                system, system.species.full_set, [system.species.empty_set]
            )

    def test_dot_output_shape(self, toy):
        table = toy.species
        g = context_graph(toy, table.set_of(["a"]), [table.empty_set])
        dot = g.to_dot()
        assert dot.startswith("digraph context_graph {")
        assert 'n0 [label="{}"]' in dot
        assert "truncated" not in dot
        truncated = context_graph(
            toy, table.full_set, [table.empty_set], node_budget=1
        ).to_dot()
        assert "truncated=true;" in truncated


class TestImageMembership:
    def test_matches_oracle_on_toy(self, toy):
        table = toy.species
        plain = plain_reactions(toy)
        image = image_oracle(plain, frozenset(table))
        for mask in range(8):
            v = table.from_mask(mask)
            cert = image_membership(toy, v)
            if names_of(v) in image:
                assert cert is not None
                assert names_of(result_all(toy, cert.preimage)) == names_of(v)
            else:
                assert cert is None

    def test_certificate_lists_enabled_reactions(self, toy):
        table = toy.species
        cert = image_membership(toy, table.set_of(["b", "c"]))
        assert cert is not None
        fired = {r.products.members[0] for r in cert.fired}
        assert fired == {"b", "c"}

    def test_random_systems_match_oracle(self):
        rng = random.Random(42)
        for _ in range(25):
            names, triples = random_system(rng, rng.randint(1, 6), 5)
            system = make_system(names, triples)
            table = system.species
            plain = plain_reactions(system)
            image = image_oracle(plain, frozenset(names))
            for mask in range(1 << len(names)):
                v = table.from_mask(mask)
                cert = image_membership(system, v)
                assert (cert is not None) == (names_of(v) in image)
                if cert is not None:
                    got = res_oracle(plain, names_of(cert.preimage))
                    assert got == names_of(v)

    def test_superset_membership(self, toy):
        table = toy.species
        # {b} alone: preimage {a} gives exactly {b} ⊇ {b}.
        cert = superset_image_membership(toy, table.set_of(["b"]))
        assert cert is not None
        assert names_of(result_all(toy, cert.preimage)) >= {"b"}
        # Nothing produces a, so no result ever contains it.
        assert superset_image_membership(toy, table.set_of(["a"])) is None

    def test_superset_vs_exact_difference(self):
        # res({p}) = {p, q} and res({}) = {}: {p} is a strict subset of an
        # image point but not an image point itself.
        system = make_system(["p", "q"], [({"p"}, set(), {"p", "q"})])
        table = system.species
        assert image_membership(system, table.set_of(["p"])) is None
        assert superset_image_membership(system, table.set_of(["p"])) is not None

    def test_empty_set_always_in_image_without_spontaneous_reactions(self, toy):
        assert image_membership(toy, toy.species.empty_set) is not None

    @pytest.mark.parametrize("fn", [image_membership, superset_image_membership])
    def test_search_stops_a_branch_with_an_unproducible_species(self, fn):
        # Both candidates of each x_i pin `a` OUT, and y needs `a` IN, so
        # no target containing y is producible. y comes last in bit order:
        # a search that noticed this only on reaching y would try all 2^k
        # choices for the x_i; one that checks the open species gives up
        # at the first node it visits after its first dead end.
        k = 14
        xs = [f"x{i}" for i in range(k)]
        bs = [f"b{i}" for i in range(k)]
        triples = [({"a"}, set(), {"y"})]
        for x, b in zip(xs, bs):
            triples += [(set(), {"a"}, {x}), (set(), {"a", b}, {x})]
        system = make_system(xs + ["y", "a"] + bs, triples)
        target = system.species.set_of(xs + ["y"])
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" and frame.f_code.co_name == "cover":
                calls += 1

        sys.setprofile(count)
        try:
            cert = fn(system, target)
        finally:
            sys.setprofile(None)
        assert cert is None
        assert calls <= 4 * k


class TestNonceExtension:
    def test_full_mode_crosses_all_disjoint_pairs(self, toy):
        extended = nonce_extension(toy, ["n1", "n2"])
        # Each reaction splits into 3^2 variants.
        assert len(extended.reactions) == len(toy.reactions) * 9
        assert list(extended.species) == ["a", "b", "c", "n1", "n2"]

    def test_identity_variant_keeps_label(self):
        system = make_system(["a", "b"], [({"a"}, set(), {"b"})], labels=["r1"])
        extended = nonce_extension(system, ["n"])
        labels = sorted(r.label for r in extended.reactions)
        assert labels == ["r1", "r1__x1", "r1__x2"]

    def test_variants_only_touch_new_species(self, toy):
        extended = nonce_extension(toy, ["n1", "n2"])
        base = toy.species
        for r in extended.reactions:
            assert set(r.products.members) <= set(base)
            assert set(r.reactants.members) - set(base) <= {"n1", "n2"}

    def test_conservative_over_base_alphabet(self, toy):
        extended = nonce_extension(toy, ["n1", "n2"])
        plain_base = plain_reactions(toy)
        plain_ext = plain_reactions(extended)
        base_names = frozenset(toy.species)
        for mask in range(1 << len(extended.species)):
            z = frozenset(
                n for k, n in enumerate(extended.species) if mask >> k & 1
            )
            assert res_oracle(plain_ext, z) == res_oracle(
                plain_base, z & base_names
            )

    def test_empty_extension_is_identity(self, toy):
        assert nonce_extension(toy, []) is toy

    def test_sample_mode_counts_and_determinism(self):
        system = make_system(
            ["a", "b", "c"],
            [({"a"}, set(), {"b"}), ({"b"}, set(), {"c"})],
            labels=["r1", "r2"],
        )
        a = nonce_extension(system, ["n1", "n2"], mode="sample", k=4, seed=3)
        b = nonce_extension(system, ["n1", "n2"], mode="sample", k=4, seed=3)
        assert [r.label for r in a.reactions] == [r.label for r in b.reactions]
        assert len(a.reactions) <= len(system.reactions) * 4
        # The identity combination is always kept, unsuffixed.
        bare = sorted(r.label for r in a.reactions if "__x" not in r.label)
        assert bare == ["r1", "r2"]

    def test_sample_needs_k(self, toy):
        with pytest.raises(RsysError, match="k"):
            nonce_extension(toy, ["n"], mode="sample")

    def test_full_mode_size_guard(self, toy):
        with pytest.raises(RefusalError, match="3\\^11"):
            nonce_extension(toy, [f"n{k}" for k in range(11)])

    def test_duplicate_extra_name_rejected(self, toy):
        with pytest.raises(RsysError):
            nonce_extension(toy, ["a"])
