"""Model files, Boolean-network files, context files, trace export."""

import json

import pytest

from rsys.core import run_process
from rsys.errors import FormatError, ReactionError
from rsys.formats import (
    CONTEXT_SEQUENCE_LIMIT,
    BooleanNetwork,
    ModelDocument,
    blocking_name,
    bn_to_reactions,
    export_trace,
    parse_boolean_network,
    parse_context_sequence,
    parse_model,
    serialize_model,
)

from oracles import bn_step_oracle, res_oracle
from util import names_of, plain_reactions

TOY = """\
@name toy
@species a, b, c

r1: {a} | {} -> {b}
r2: {b} | {c} -> {c}
"""


class TestParseModel:
    def test_round_trip_is_identity(self):
        doc = parse_model(TOY)
        assert serialize_model(doc) == TOY
        assert doc.name == "toy"

    def test_species_interned_in_declaration_order(self):
        doc = parse_model(TOY)
        assert list(doc.system.species) == ["a", "b", "c"]

    def test_undeclared_species_without_directive_interned_in_order(self):
        doc = parse_model("rx: {z} | {} -> {a}\n")
        assert list(doc.system.species) == ["z", "a"]

    def test_comments_and_blank_lines_ignored(self):
        doc = parse_model("# heading\n\nr1: {a} | {} -> {b}  # tail\n")
        assert len(doc.system.reactions) == 1

    def test_labels_optional_and_unique(self):
        doc = parse_model("{a} | {} -> {b}\n{b} | {} -> {a}\n")
        assert [r.label for r in doc.system.reactions] == [None, None]
        with pytest.raises(FormatError, match="duplicate reaction label"):
            parse_model("r: {a} | {} -> {b}\nr: {b} | {} -> {a}\n")

    def test_unknown_species_with_declaration(self):
        with pytest.raises(FormatError, match="unknown species") as err:
            parse_model("@species a\nr1: {a} | {} -> {q}\n")
        assert err.value.line == 2

    def test_overlap_error_carries_line(self):
        with pytest.raises(FormatError, match="overlap") as err:
            parse_model("r1: {a} | {a} -> {b}\n")
        assert err.value.line == 1

    def test_empty_products_rejected(self):
        with pytest.raises(FormatError, match="empty product set"):
            parse_model("r1: {a} | {} -> {}\n")

    def test_malformed_line_message(self):
        with pytest.raises(FormatError, match="expected"):
            parse_model("r1: {a} -> {b}\n")

    def test_duplicate_directive_rejected(self):
        with pytest.raises(FormatError, match="duplicate @name"):
            parse_model("@name x\n@name y\n")

    def test_species_directive_after_reaction_rejected(self):
        with pytest.raises(FormatError, match="@species"):
            parse_model("r1: {a} | {} -> {b}\n@species c\n")

    def test_unknown_directive_rejected(self):
        with pytest.raises(FormatError, match="unknown directive"):
            parse_model("@frobnicate yes\n")

    def test_serialize_autolabels_unlabelled_reactions(self):
        doc = parse_model("{a} | {} -> {b}\n")
        assert "r1: {a} | {} -> {b}" in serialize_model(doc)

    def test_serialize_leaves_a_taken_positional_label_off(self):
        # The unlabeled first reaction would be "r1", which the labelled
        # second one holds; writing it twice made a model parse_model rejects.
        text = "@species a, b\n{a} | {} -> {b}\nr1: {b} | {} -> {a}\n"
        out = serialize_model(parse_model(text))
        assert out == "@species a, b\n\n{a} | {} -> {b}\nr1: {b} | {} -> {a}\n"
        assert serialize_model(parse_model(out)) == out

    def test_empty_model_allowed(self):
        # A model with no species and no reactions still simulates: every
        # result set is empty.
        doc = parse_model("@name empty\n")
        assert len(doc.system.species) == 0
        assert len(doc.system.reactions) == 0
        trace = run_process(doc.system, [doc.system.species.empty_set])
        assert len(trace.results[0]) == 0


BN = """\
@name net
@inputs u

x = u & !y
y = x | y & !u
"""


class TestParseBooleanNetwork:
    def test_updates_and_inputs(self):
        bn = parse_boolean_network(BN)
        assert bn.inputs == ("u",)
        assert bn.updates["x"] == ((frozenset({"u"}), frozenset({"y"})),)
        assert bn.updates["y"] == (
            (frozenset({"x"}), frozenset()),
            (frozenset({"y"}), frozenset({"u"})),
        )

    def test_parentheses_rejected_as_non_dnf(self):
        with pytest.raises(FormatError, match="disjunctive normal form") as err:
            parse_boolean_network("x = (a | b)\na = x\nb = x\n")
        assert err.value.line == 1

    def test_contradictory_literal_rejected(self):
        with pytest.raises(FormatError, match="both plain and negated"):
            parse_boolean_network("y = x & !x\nx = y\n")

    def test_undeclared_reference_rejected(self):
        with pytest.raises(FormatError, match="undeclared variable 'q'"):
            parse_boolean_network("x = q\n")

    def test_input_with_update_rejected(self):
        with pytest.raises(FormatError, match="input"):
            parse_boolean_network("@inputs x\nx = x\n")

    def test_empty_network_rejected(self):
        with pytest.raises(FormatError, match="no update formulas"):
            parse_boolean_network("@inputs u\n")

    @pytest.mark.parametrize("head", ["@name", "@description"])
    def test_repeated_metadata_directive_rejected(self, head):
        with pytest.raises(FormatError, match=f"duplicate {head} directive") as err:
            parse_boolean_network(f"{head} a\n{head} b\nx = x\n")
        assert err.value.line == 2


class TestBnToReactions:
    def test_blocking_translation_shape(self):
        bn = parse_boolean_network(BN)
        system = bn_to_reactions(bn)
        assert list(system.species) == ["x", "y", "u", "ix", "iy"]
        by_label = {r.label: r for r in system.reactions}
        assert set(by_label) == {"rx", "ry1", "ry2"}
        assert names_of(by_label["rx"].reactants) == {"u"}
        assert names_of(by_label["rx"].inhibitors) == {"y", "ix"}
        assert names_of(by_label["rx"].products) == {"x"}

    def test_inputs_get_no_reactions_and_no_blocker(self):
        bn = parse_boolean_network(BN)
        system = bn_to_reactions(bn)
        assert "iu" not in system.species
        assert all("u" not in r.products.members for r in system.reactions)

    def test_no_blocking_variant(self):
        bn = parse_boolean_network(BN)
        system = bn_to_reactions(bn, blocking=False)
        assert list(system.species) == ["x", "y", "u"]
        by_label = {r.label: r for r in system.reactions}
        assert names_of(by_label["rx"].inhibitors) == {"y"}

    def test_blocker_lets_context_suppress_production(self):
        bn = parse_boolean_network(BN)
        system = bn_to_reactions(bn)
        table = system.species
        on = table.set_of(["u"])
        assert "x" in run_process(system, [on, on]).results[1].members
        blocked = table.set_of(["u", "ix"])
        assert "x" not in run_process(system, [blocked, blocked]).results[1].members

    def test_blocking_name_collision_rejected(self):
        bn = BooleanNetwork(
            variables=("x", "ix"),
            updates={
                "x": ((frozenset({"x"}), frozenset()),),
                "ix": ((frozenset({"ix"}), frozenset()),),
            },
            inputs=(),
        )
        with pytest.raises(ReactionError, match="collide"):
            bn_to_reactions(bn)

    def test_one_step_equals_synchronous_update(self):
        bn = parse_boolean_network(BN)
        system = bn_to_reactions(bn)
        table = system.species
        plain = plain_reactions(system)
        net = {v: list(bn.updates[v]) for v in bn.variables}
        for mask in range(8):
            state = frozenset(
                n for k, n in enumerate(["x", "y", "u"]) if mask >> k & 1
            )
            assert res_oracle(plain, state) == bn_step_oracle(net, state)
            got = run_process(system, [table.set_of(state)] * 2).results[1]
            assert names_of(got) == bn_step_oracle(net, state)

    def test_blocking_name_helper(self):
        assert blocking_name("AKT") == "iAKT"


class TestContextSequences:
    def test_repetition_and_order(self):
        doc = parse_model(TOY)
        seq = parse_context_sequence("{a} x3\n{b, c}\n", doc.system.species)
        assert len(seq) == 4
        assert names_of(seq[0]) == {"a"} and names_of(seq[3]) == {"b", "c"}

    def test_empty_set_and_comments(self):
        doc = parse_model(TOY)
        seq = parse_context_sequence("# warmup\n{} x2\n", doc.system.species)
        assert len(seq) == 2 and len(seq[0]) == 0

    def test_unknown_species_reported_with_line(self):
        doc = parse_model(TOY)
        with pytest.raises(FormatError, match="unknown species") as err:
            parse_context_sequence("{a}\n{zz}\n", doc.system.species)
        assert err.value.line == 2

    def test_zero_repetition_rejected(self):
        doc = parse_model(TOY)
        with pytest.raises(FormatError, match="repetition"):
            parse_context_sequence("{a} x0\n", doc.system.species)

    @pytest.mark.parametrize("count", ["1" + "0" * 20, "1" + "0" * 15, "9" * 5000])
    def test_huge_repetition_rejected_with_line(self, count):
        # Past the sequence limit, the count is refused before any list is
        # built: 10^20 overflows a list size, 10^15 exhausts memory, and
        # int() refuses 5,000 digits.
        doc = parse_model(TOY)
        with pytest.raises(FormatError, match="longer than 1000000 contexts") as err:
            parse_context_sequence(f"{{a}}\n{{b}} x{count}\n", doc.system.species)
        assert err.value.line == 2

    def test_repetitions_add_up_to_the_limit(self):
        doc = parse_model(TOY)
        table = doc.system.species
        half = CONTEXT_SEQUENCE_LIMIT // 2
        text = f"{{a}} x{half}\n{{b}} x{CONTEXT_SEQUENCE_LIMIT - half}\n"
        assert len(parse_context_sequence(text, table)) == CONTEXT_SEQUENCE_LIMIT
        with pytest.raises(FormatError, match="longer than") as err:
            parse_context_sequence(text + "{c}\n", table)
        assert err.value.line == 3

    def test_no_contexts_rejected(self):
        doc = parse_model(TOY)
        with pytest.raises(FormatError, match="no contexts"):
            parse_context_sequence("# nothing\n", doc.system.species)


class TestExportTrace:
    @pytest.fixture
    def trace(self):
        doc = parse_model(TOY)
        table = doc.system.species
        return run_process(doc.system, [table.set_of(["a"])] * 4)

    def test_table_layout_rows(self, trace):
        text = export_trace(trace, "table")
        lines = text.splitlines()
        assert lines[0].startswith("step")
        assert lines[1].startswith("context")
        assert lines[2].startswith("state")
        assert text.endswith("\n")

    def test_table_cycle_footnote(self, trace):
        # (C, D) pairs: ({a}, {}), ({a}, {b}), ({a}, {b, c}), ({a}, {b}).
        assert "step 3 = step 1 (cycle)" in export_trace(trace, "table")

    def test_status_row_only_with_markers(self, trace):
        table = trace.table
        plainer = export_trace(trace, "table")
        assert "status" not in plainer
        marked = export_trace(
            trace, "table", markers=(table.set_of(["b"]), table.set_of(["c"]))
        )
        assert "status" in marked

    def test_csv_columns(self, trace):
        text = export_trace(trace, "csv")
        lines = text.splitlines()
        assert lines[0] == "step,context,result,state,status"
        assert lines[1].startswith('0,{a},{},"{a}"') or lines[1].startswith(
            "0,{a},{},{a}"
        )

    def test_json_fields_and_status(self, trace):
        table = trace.table
        payload = json.loads(
            export_trace(
                trace, "json", markers=(table.set_of(["b"]), table.empty_set)
            )
        )
        assert set(payload) == {"contexts", "results", "states", "status"}
        assert payload["results"][1] == ["b"]
        assert payload["status"][1] == "Proliferation"

    def test_statuses_classify_results_not_states(self):
        # Marker arriving via the context only must not flip the status.
        doc = parse_model(TOY)
        table = doc.system.species
        trace = run_process(doc.system, [table.set_of(["b"])] * 2)
        marked = json.loads(
            export_trace(
                trace, "json", markers=(table.set_of(["b"]), table.empty_set)
            )
        )
        assert marked["status"][0] == "No proliferation"

    def test_unknown_format_rejected(self, trace):
        with pytest.raises(Exception, match="unknown trace format"):
            export_trace(trace, "yaml")


class TestModelDocument:
    def test_metadata_survives_round_trip(self):
        doc = parse_model(TOY)
        again = parse_model(serialize_model(doc))
        assert again == doc
        assert again.metadata["name"] == "toy"

    def test_description_line(self):
        text = "@name t\n@description says something\n\nr1: {a} | {} -> {b}\n"
        doc = parse_model(text)
        assert doc.metadata["description"] == "says something"
        canonical = (
            "@name t\n@description says something\n@species a, b\n\n"
            "r1: {a} | {} -> {b}\n"
        )
        assert serialize_model(doc) == canonical
