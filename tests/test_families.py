"""Known-answer families: formulas in k, checked against the oracles at
small k and against the package far beyond them."""

import pytest

from rsys.control import (
    AllowedSet,
    ControlQuery,
    decide_target_controllable,
    find_witness,
    verify_witness,
)

from families import counter
from oracles import pair_scan_oracle, shortest_witness_len
from util import plain_reactions


def counter_case(k):
    system, bits = counter(k)
    table = system.species
    return system, table.set_of(bits), AllowedSet(table.set_of(["inc"]))


class TestCounter:
    @pytest.mark.parametrize("k", range(1, 8))
    def test_reaction_count(self, k):
        system, _ = counter(k)
        assert len(system.reactions) == k * (k + 3) // 2

    @pytest.mark.parametrize("k", range(2, 5))
    def test_formulas_match_the_oracles(self, k):
        # Every source counts up to every end set, so all 2^k sources are
        # paired with the 2^k − 1 end sets other than themselves; from {}
        # it takes 2^k − 1 increments plus one step that drops inc.
        system, bits = counter(k)
        reactions = plain_reactions(system)
        contexts = [frozenset(), frozenset({"inc"})]
        decision, cex, checked, _ = pair_scan_oracle(
            reactions, list(system.species.names), frozenset(bits), contexts
        )
        assert (decision, cex, checked) == (True, None, 4**k - 2**k)
        length = shortest_witness_len(
            reactions, contexts, frozenset(), frozenset(bits), depth_limit=2**k
        )
        assert length == 2**k

    @pytest.mark.parametrize("k", range(2, 13))
    def test_target_decision_over_the_bits(self, k):
        system, targets, constraint = counter_case(k)
        verdict = decide_target_controllable(system, targets, constraint)
        assert verdict.decision and verdict.counterexample is None
        assert verdict.pairs_checked == 4**k - 2**k

    @pytest.mark.parametrize("k", range(2, 13))
    def test_witness_counts_up_from_empty(self, monkeypatch, backend, k):
        monkeypatch.setenv("RSYS_KERNEL", backend)
        system, targets, constraint = counter_case(k)
        table = system.species
        query = ControlQuery(table.empty_set, targets, constraint)
        witness = find_witness(system, query)
        inc = table.set_of(["inc"])
        assert witness.contexts == (inc,) * (2**k - 1) + (table.empty_set,)
        assert witness.hit_index == 2**k
        assert verify_witness(system, query, witness).ok
