"""Command-line behaviour: exit codes, output shapes, determinism."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

import golden_data
import rsys
from oracles import run_oracle
from rsys.cli import main
from rsys.formats import CONTEXT_SEQUENCE_LIMIT
from rsys.models import load_builtin
from util import plain_reactions


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    return [line for line in out.splitlines() if line and line[0].isdigit()]


def csv_statuses(out):
    return [row.rsplit(",", 1)[1] for row in csv_rows(out)]


def inline(names):
    return "{" + ", ".join(sorted(names)) + "}"


CHAIN = """\
@name chain
@species a, b, c
r1: {a} | {} -> {b}
r2: {b} | {} -> {c}
"""

T1 = """\
@name t1
@species a, b, c
r1: {a} | {b} -> {c}
r2: {b} | {} -> {b}
"""

TOY_BN = """\
@name toybn
@inputs u
x = u & !y
y = x
"""

S19 = inline(golden_data.NAMED["S19"])
GF_S19 = inline(golden_data.NAMED["S19"] | {"GF"})


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.rs.txt"
    path.write_text(CHAIN)
    return str(path)


@pytest.fixture
def t1_file(tmp_path):
    path = tmp_path / "t1.rs.txt"
    path.write_text(T1)
    return str(path)


@pytest.fixture
def bn_file(tmp_path):
    path = tmp_path / "toy.bn.txt"
    path.write_text(TOY_BN)
    return str(path)


def write_query(tmp_path, **fields):
    path = tmp_path / "query.json"
    path.write_text(json.dumps(fields))
    return str(path)


class TestValidate:
    def test_builtin(self, capsys):
        code, out, _ = run(capsys, "validate", "oncogenic")
        assert code == 0
        assert "model: oncogenic" in out
        assert "species: 35" in out
        assert "reactions: 25" in out
        assert "valid" in out

    def test_model_file(self, capsys, chain_file):
        code, out, _ = run(capsys, "validate", chain_file)
        assert code == 0
        assert "valid" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "no-such-model.rs.txt")
        assert code == 64
        assert "error:" in err

    def test_defective_file(self, capsys, tmp_path):
        path = tmp_path / "bad.rs.txt"
        path.write_text("@species a\nr1: {a} | {a} -> {a}\n")
        code, _, err = run(capsys, "validate", str(path))
        assert code == 2
        assert "error:" in err


class TestNonUtf8Input:
    @pytest.mark.parametrize("command", ["validate", "simulate", "reach", "@file"])
    def test_is_invalid_input(self, capsys, tmp_path, chain_file, command):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\xff\xfe\x00junk")
        argv = {
            "validate": ["validate", str(junk)],
            "simulate": ["simulate", chain_file, str(junk)],
            "reach": ["reach", chain_file, str(junk)],
            "@file": ["orbit", chain_file, "--context", "{a}", "--start", f"@{junk}"],
        }[command]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"{junk} is not UTF-8 text" in err


class TestSimulate:
    def test_reference_statuses(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", "{GF} x19",
            "--initial", "S1", "--format", "csv",
        )
        assert code == 0
        assert csv_statuses(out) == golden_data.TABLE3_STATUS

    def test_cycle_footnote(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "oncogenic", "{GF} x19", "--initial", "S1"
        )
        assert code == 0
        assert "step 18 = step 7 (cycle)" in out

    def test_semicolon_contexts_and_named_initial(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", "{GF}; {GF, iPI3K} x7",
            "--initial", "S19", "--format", "csv",
        )
        assert code == 0
        assert csv_statuses(out) == golden_data.TABLE4_STATUS

    def test_third_reference_trace(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", "{GF, iPI3K, icycE} x8",
            "--initial", "@S19", "--format", "csv",
        )
        assert code == 0
        assert csv_statuses(out) == golden_data.TABLE5_STATUS

    def test_context_file(self, capsys, tmp_path):
        ctx = tmp_path / "ctx.txt"
        ctx.write_text("{GF} x3\n")
        code, out, _ = run(
            capsys, "simulate", "oncogenic", str(ctx), "--format", "csv"
        )
        assert code == 0
        assert len(csv_rows(out)) == 3

    def test_long_context_file_matches_the_oracle(self, capsys, tmp_path):
        # 380 contexts: longer than 2^RES_CHUNK_BITS, so the replay runs
        # through the lookup tables.
        ctx = tmp_path / "ctx.txt"
        ctx.write_text(
            "{GF} x300\n{GF, iPI3K} x40\n{}\n{GF, PRAS40} x31\n"
            "{GF, iPI3K, icycE} x8\n"
        )
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", str(ctx),
            "--initial", "S19", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        corpus = load_builtin()
        expected = run_oracle(
            plain_reactions(corpus.model.system),
            [frozenset(c) for c in payload["contexts"]],
            frozenset(corpus.named_states["S19"].members),
        )
        assert len(expected) == 380
        assert [frozenset(d) for d in payload["results"]] == expected

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", "{GF} x19",
            "--initial", "S1", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["results"]) == 19
        assert payload["status"] == golden_data.TABLE3_STATUS
        assert set(payload) == {"contexts", "results", "states", "status"}

    def test_disabled_markers(self, capsys):
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", "{GF} x2",
            "--markers", "", "--format", "csv",
        )
        assert code == 0
        assert all(status == "" for status in csv_statuses(out))

    def test_initial_mode_option_is_gone(self, capsys):
        code, _, err = run(
            capsys,
            "simulate", "oncogenic", "{GF} x2",
            "--initial", "S1", "--initial-mode", "given",
        )
        assert code == 64
        assert "No such option" in err
        assert "Traceback" not in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "trace.csv"
        code, out, _ = run(
            capsys,
            "simulate", "oncogenic", "{GF} x2",
            "--format", "csv", "--output", str(target),
        )
        assert code == 0
        assert f"wrote {target}" in out
        assert target.read_text().startswith("step,context,result,state,status")

    def test_unknown_species_in_context(self, capsys):
        code, _, err = run(capsys, "simulate", "oncogenic", "{Gf} x2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("count", [10**20, 10**15])
    @pytest.mark.parametrize("where", ["inline", "context-file", "state-file"])
    def test_huge_repetition_is_invalid_input(self, capsys, tmp_path, where, count):
        text = f"{{GF}} x{count}"
        argv = ["simulate", "oncogenic", text]
        if where == "context-file":
            argv[2] = str(tmp_path / "seq.ctx.txt")
            (tmp_path / "seq.ctx.txt").write_text(text + "\n")
        elif where == "state-file":
            (tmp_path / "state.txt").write_text(text + "\n")
            argv = ["simulate", "oncogenic", "{GF}", "--initial", f"@{tmp_path}/state.txt"]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "longer than 1000000 contexts (line 1)" in err
        assert "Traceback" not in err


class TestOrbit:
    def test_fixed_point_attractor(self, capsys):
        code, out, _ = run(
            capsys,
            "orbit", "oncogenic",
            "--context", "{GF, iPI3K, icycE}", "--start", GF_S19,
        )
        assert code == 0
        assert "transient length: 6" in out
        assert "period: 1" in out
        assert "cycle states with Pro: 0" in out
        assert "cycle states with uPro: 0" in out
        assert "cycle states with no marker: 1" in out

    def test_long_attractor(self, capsys):
        code, out, _ = run(
            capsys,
            "orbit", "oncogenic",
            "--context", "{GF, PRAS40}", "--start", GF_S19,
        )
        assert code == 0
        assert "transient length: 4" in out
        assert "period: 10" in out
        assert "cycle states with Pro: 10" in out
        assert "cycle states with no marker: 0" in out
        assert out.count("cycle[") == 10

    def test_disabled_markers(self, capsys):
        code, out, _ = run(
            capsys,
            "orbit", "oncogenic",
            "--context", "{GF}", "--start", "S1", "--markers", "",
        )
        assert code == 0
        assert "cycle states" not in out

    def test_step_budget(self, capsys):
        code, _, err = run(
            capsys,
            "orbit", "oncogenic",
            "--context", "{GF}", "--start", "{}", "--max-steps", "1",
        )
        assert code == 1
        assert "error:" in err


class TestReach:
    def witness_query(self, tmp_path):
        return write_query(
            tmp_path,
            source=sorted(golden_data.NAMED["S19"] | {"GF"}),
            target=["Pro"],
            targets=["Pro", "uPro"],
            constraint={"kind": "allowed-set", "I": ["GF", "iPI3K"]},
        )

    def test_witness_found(self, capsys, tmp_path):
        code, out, _ = run(capsys, "reach", "oncogenic", self.witness_query(tmp_path))
        assert code == 0
        assert "witness: 6 steps, 46 states visited" in out
        assert out.splitlines()[1].startswith("C_1: ")

    def test_witness_json(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "reach", "oncogenic", self.witness_query(tmp_path),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hit_index"] == 6
        assert payload["visited"] == 46
        assert len(payload["contexts"]) == 6
        assert len(payload["trace"]["results"]) == 7

    def test_no_witness(self, capsys, tmp_path, t1_file):
        query = write_query(
            tmp_path,
            source=["c"],
            target=["a", "b", "c"],
            constraint={"kind": "max-cardinality", "n": 1},
        )
        code, out, _ = run(capsys, "reach", t1_file, query)
        assert code == 1
        assert "no witness" in out
        assert "within depth" not in out

    def test_no_witness_within_depth(self, capsys, tmp_path, t1_file):
        query = write_query(
            tmp_path,
            source=["c"],
            target=["a", "b", "c"],
            constraint={"kind": "max-cardinality", "n": 1},
            depth_limit=3,
        )
        code, out, _ = run(capsys, "reach", t1_file, query)
        assert code == 1
        assert "no witness within depth 3" in out

    def test_trivial_witness_warns(self, capsys, tmp_path, t1_file):
        query = write_query(
            tmp_path,
            source=["a"],
            target=["a"],
            constraint={"kind": "max-cardinality", "n": 0},
        )
        code, out, err = run(capsys, "reach", t1_file, query)
        assert code == 0
        assert "witness: 0 steps" in out
        assert "already satisfies" in err

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "reach", "oncogenic", str(path))
        assert code == 2
        assert "invalid JSON" in err

    def test_deeply_nested_json(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code, out, err = run(capsys, "reach", "oncogenic", str(path))
        assert (code, out) == (2, "")
        assert "invalid JSON" in err and "nests too deeply" in err
        assert "Traceback" not in err

    def test_missing_field(self, capsys, tmp_path):
        query = write_query(tmp_path, target=["Pro"],
                            constraint={"kind": "max-cardinality", "n": 1})
        code, _, err = run(capsys, "reach", "oncogenic", query)
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize(
        "fields, message",
        [
            pytest.param({"constraint": {"kind": "max-cardinality", "n": "x"}},
                         "'n' must be an integer", id="n-string"),
            pytest.param({"constraint": {"kind": "max-cardinality", "n": True}},
                         "'n' must be an integer", id="n-bool"),
            pytest.param({"depth_limit": "z"},
                         "'depth_limit' must be an integer", id="depth-string"),
            pytest.param({"constraint": {"kind": "allowed-set", "I": 5}},
                         "'I' must be a list of species names", id="I-int"),
            pytest.param({"constraint": [1]},
                         "'constraint' must be a JSON object", id="constraint-list"),
            pytest.param({"source": "ab"},
                         "'source' must be a list of species names", id="source-string"),
            pytest.param({"target": ["a", 1]},
                         "'target' must be a list of species names", id="target-int-member"),
            pytest.param({"targets": "abc"},
                         "'targets' must be a list of species names", id="targets-string"),
            pytest.param(None, "query must be a JSON object", id="top-level-array"),
        ],
    )
    def test_malformed_query_is_invalid_input(
        self, capsys, tmp_path, t1_file, fields, message
    ):
        query = {
            "source": ["a"],
            "target": ["c"],
            "constraint": {"kind": "max-cardinality", "n": 1},
        }
        path = tmp_path / "query.json"
        path.write_text(json.dumps([query] if fields is None else {**query, **fields}))
        code, out, err = run(capsys, "reach", t1_file, str(path))
        assert (code, out) == (2, "")
        assert message in err


class TestDecide:
    def test_controllable_chain(self, capsys, chain_file):
        code, out, _ = run(
            capsys, "decide", chain_file, "--constraint", "max-cardinality=1"
        )
        assert code == 0
        assert "controllable: true" in out
        assert "pairs checked: 28" in out

    def test_uncontrollable_with_counterexample(self, capsys, t1_file):
        code, out, _ = run(
            capsys, "decide", t1_file, "--constraint", "allowed-set={}"
        )
        assert code == 1
        assert "controllable: false" in out
        assert "counterexample: X={} Y={b}" in out

    def test_minimal_n(self, capsys, chain_file):
        code, out, _ = run(capsys, "decide", chain_file, "--minimal-n")
        assert code == 0
        assert "n=0: false" in out
        assert "counterexample" in out
        assert "minimal n: 1" in out

    def test_minimal_n_none(self, capsys, t1_file):
        code, out, _ = run(capsys, "decide", t1_file, "--minimal-n")
        assert code == 1
        assert "minimal n: none" in out

    def test_minimal_allowed_set(self, capsys, chain_file):
        code, out, _ = run(
            capsys, "decide", chain_file, "--minimal-I", "{a, b, c}"
        )
        assert code == 0
        assert "drop a: dropped" in out
        assert "minimal I: {b}" in out

    def test_minimal_allowed_set_unreachable(self, capsys, t1_file):
        code, out, _ = run(capsys, "decide", t1_file, "--minimal-I", "{}")
        assert code == 1
        assert "not controllable under the start set" in out

    def test_sampled_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            "decide", "oncogenic",
            "--constraint", "allowed-set={GF, iPI3K}",
            "--sample", "5", "--seed", "1",
        )
        assert code == 1
        assert "controllable: false" in out
        assert "pairs checked: 2" in out
        assert "counterexample:" in out

    def test_sampled_pass(self, capsys, chain_file):
        code, out, _ = run(
            capsys,
            "decide", chain_file, "--constraint", "max-cardinality=1",
            "--sample", "4",
        )
        assert code == 0
        assert "no counterexample found among" in out

    def test_refuses_the_large_model(self, capsys):
        code, _, err = run(
            capsys, "decide", "oncogenic", "--constraint", "max-cardinality=1"
        )
        assert code == 2
        assert "4^35" in err

    def test_force_runs_a_wide_model(self, capsys, tmp_path):
        names = ", ".join(f"s{i}" for i in range(17))
        path = tmp_path / "wide.rs.txt"
        path.write_text(f"@name wide\n@species {names}\n")
        code, _, err = run(
            capsys, "decide", str(path), "--constraint", "max-cardinality=1"
        )
        assert code == 2
        assert "4^17" in err
        code, out, _ = run(
            capsys,
            "decide", str(path), "--constraint", "max-cardinality=1", "--force",
        )
        assert code == 0
        assert "controllable: true" in out
        assert "pairs checked: 131071" in out

    def test_workers_option_is_gone(self, capsys, chain_file):
        code, _, err = run(
            capsys,
            "decide", chain_file, "--constraint", "max-cardinality=1",
            "--workers", "2",
        )
        assert code == 64
        assert "--workers" in err
        assert "Traceback" not in err

    def test_target_projection(self, capsys, chain_file):
        code, out, _ = run(
            capsys,
            "decide", chain_file, "--constraint", "max-cardinality=1",
            "--targets", "{c}",
        )
        assert code == 0
        assert "controllable: true" in out

    def test_ts_equivalence(self, capsys, chain_file, t1_file):
        code, out, _ = run(
            capsys,
            "decide", chain_file, "--constraint", "max-cardinality=1",
            "--check-ts-equivalence",
        )
        assert code == 0
        assert "plain: true" in out
        assert "target T=S: true" in out
        assert "identical verdicts" in out
        code, out, _ = run(
            capsys,
            "decide", t1_file, "--constraint", "allowed-set={}",
            "--check-ts-equivalence",
        )
        assert code == 0
        assert "plain: false" in out
        assert "identical verdicts" in out

    def test_minimal_scans_conflict(self, capsys, chain_file):
        code, _, err = run(
            capsys,
            "decide", chain_file, "--minimal-n", "--minimal-I", "{a}",
        )
        assert code == 64
        assert "error:" in err

    @pytest.mark.parametrize(
        "args",
        [
            ["--minimal-n", "--constraint", "max-cardinality=1"],
            ["--minimal-I", "{a}", "--constraint", "max-cardinality=1"],
            ["--minimal-n", "--check-ts-equivalence"],
            ["--minimal-I", "{a}", "--check-ts-equivalence"],
            ["--constraint", "max-cardinality=1", "--check-ts-equivalence",
             "--targets", "{c}"],
            ["--minimal-n", "--proviso", "superset"],
            ["--minimal-I", "{a}", "--proviso", "superset"],
            ["--constraint", "max-cardinality=1", "--proviso", "superset"],
            ["--constraint", "max-cardinality=1", "--seed", "5"],
        ],
    )
    def test_ignored_option_combinations_are_usage_errors(
        self, capsys, chain_file, args
    ):
        code, out, err = run(capsys, "decide", chain_file, *args)
        assert code == 64
        assert out == ""
        assert "error:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "extra, expected",
        [
            (["--targets", "{c}"], "pairs checked:"),
            (["--check-ts-equivalence"], "target T=S:"),
        ],
    )
    def test_superset_proviso_runs_with_a_target_set(
        self, capsys, chain_file, extra, expected
    ):
        code, out, err = run(
            capsys,
            "decide", chain_file, "--constraint", "max-cardinality=1",
            "--proviso", "superset", *extra,
        )
        assert code in (0, 1)
        assert expected in out
        assert err == ""

    def test_sampled_superset_draws_strict_subsets(self, capsys, tmp_path):
        # res is always {p}, so the end Y = {} is admissible under the
        # superset proviso but never reached; the draw must be able to pick it.
        path = tmp_path / "p.rs.txt"
        path.write_text("@name p\n@species p\nr1: {} | {} -> {p}\n")
        code, out, err = run(
            capsys,
            "decide", str(path), "--constraint", "max-cardinality=0",
            "--targets", "{p}", "--proviso", "superset",
            "--sample", "20", "--seed", "0",
        )
        assert code == 1
        assert out == (
            "controllable: false\n"
            "pairs checked: 1\n"
            "counterexample: X={p} Y={}\n"
        )
        assert err == ""

    def test_constraint_required(self, capsys, chain_file):
        code, _, err = run(capsys, "decide", chain_file)
        assert code == 64
        assert "error:" in err

    def test_unknown_constraint_kind(self, capsys, chain_file):
        code, _, err = run(
            capsys, "decide", chain_file, "--constraint", "weird=3"
        )
        assert code == 2
        assert "unknown constraint kind" in err


class TestImportBn:
    def test_blocking_translation(self, capsys, bn_file):
        code, out, _ = run(capsys, "import-bn", bn_file)
        assert code == 0
        assert "@species x, y, u, ix, iy" in out
        assert "rx: {u} | {y, ix} -> {x}" in out
        assert "ry: {x} | {iy} -> {y}" in out

    def test_without_blocking(self, capsys, bn_file):
        code, out, _ = run(capsys, "import-bn", bn_file, "--no-blocking")
        assert code == 0
        assert "ix" not in out
        assert "rx: {u} | {y} -> {x}" in out

    def test_output_validates(self, capsys, bn_file, tmp_path):
        target = str(tmp_path / "imported.rs.txt")
        code, out, _ = run(capsys, "import-bn", bn_file, "--output", target)
        assert code == 0
        assert f"wrote {target}" in out
        code, out, _ = run(capsys, "validate", target)
        assert code == 0
        assert "valid" in out

    def test_rejects_non_normal_form(self, capsys, tmp_path):
        path = tmp_path / "bad.bn.txt"
        path.write_text("@inputs u\nx = !(u | x)\n")
        code, _, err = run(capsys, "import-bn", str(path))
        assert code == 2
        assert "error:" in err

    def test_imported_network_replays_the_reference_trace(
        self, capsys, tmp_path
    ):
        dump_dir = tmp_path / "dump"
        code, _, _ = run(capsys, "corpus", "--dump", str(dump_dir))
        assert code == 0
        imported = str(tmp_path / "imported.rs.txt")
        code, _, _ = run(
            capsys,
            "import-bn", str(dump_dir / "oncogenic.bn.txt"),
            "--output", imported,
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "simulate", imported, "{GF}; {GF, iPI3K} x7",
            "--initial", S19, "--markers", "Pro,uPro", "--format", "csv",
        )
        assert code == 0
        assert csv_statuses(out) == golden_data.TABLE4_STATUS


class TestGraph:
    def test_dot_on_stdout(self, capsys, chain_file):
        code, out, _ = run(
            capsys,
            "graph", chain_file, "--input-set", "{a}", "--seeds", "{}",
        )
        assert code == 0
        assert out.startswith("digraph")

    def test_dot_file_and_counts(self, capsys, chain_file, tmp_path):
        target = str(tmp_path / "graph.dot")
        code, out, _ = run(
            capsys,
            "graph", chain_file, "--input-set", "{a}", "--seeds", "{}",
            "--dot", target,
        )
        assert code == 0
        assert f"wrote {target}" in out
        assert "nodes:" in out
        assert "edges:" in out
        assert "truncated" not in out
        assert open(target).read().startswith("digraph")

    def test_truncation_is_reported(self, capsys, chain_file, tmp_path):
        target = str(tmp_path / "graph.dot")
        code, out, _ = run(
            capsys,
            "graph", chain_file, "--input-set", "{a, b}", "--seeds", "{}",
            "--dot", target, "--node-budget", "2",
        )
        assert code == 0
        assert "truncated: true" in out

    def test_input_limit_refusal(self, capsys, chain_file):
        code, _, err = run(
            capsys,
            "graph", chain_file, "--input-set", "{a, b, c}", "--seeds", "{}",
            "--input-limit", "2",
        )
        assert code == 2
        assert "error:" in err


class TestCorpusCommand:
    def test_summary_and_replays(self, capsys):
        code, out, _ = run(capsys, "corpus")
        assert code == 0
        assert "model: oncogenic" in out
        assert "table3: pass (19 steps)" in out
        assert "table4: pass (8 steps)" in out
        assert "table5: pass (8 steps)" in out

    def test_dump_writes_the_bundled_files(self, capsys, tmp_path):
        from rsys.models import DATA_FILES, data_text

        dump_dir = tmp_path / "dump"
        code, out, _ = run(capsys, "corpus", "--dump", str(dump_dir))
        assert code == 0
        assert out.count("wrote ") == len(DATA_FILES)
        for filename in DATA_FILES:
            assert (dump_dir / filename).read_text() == data_text(filename)


class TestTopLevel:
    def test_help(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_version(self, capsys):
        code, out, _ = run(capsys, "--version")
        assert code == 0
        assert "rsys" in out

    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 64

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "simulate", "oncogenic")
        assert code == 64

    @pytest.mark.parametrize(
        "command, option",
        [
            ("reach", "--node-budget"),
            ("decide", "--node-budget"),
            ("decide", "--species-limit"),
            ("decide-sampled", "--species-limit"),
            ("orbit", "--max-steps"),
            ("graph", "--node-budget"),
            ("graph", "--input-limit"),
        ],
    )
    def test_negative_numbers_are_invalid_input(
        self, capsys, tmp_path, chain_file, command, option
    ):
        query = write_query(
            tmp_path,
            source=["a"],
            target=["c"],
            constraint={"kind": "max-cardinality", "n": 1},
        )
        decide = ["decide", chain_file, "--constraint", "max-cardinality=1"]
        argv = {
            "reach": ["reach", chain_file, query],
            "decide": decide,
            "decide-sampled": decide + ["--sample", "4"],
            "orbit": ["orbit", chain_file, "--context", "{a}", "--start", "{}"],
            "graph": ["graph", chain_file, "--input-set", "{a}", "--seeds", "{}"],
        }[command]
        code, _, err = run(capsys, *argv, option, "-1")
        assert code == 2
        assert "must be at least 0, got -1" in err

    def test_import_starts_no_thread_pool_machinery(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(rsys.__file__)))
        probe = "import sys, rsys.cli; print('concurrent.futures' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"

    def test_import_leaves_the_pair_scan_unloaded(self):
        # Only a decision loads (and, without bytecode caching, compiles) it.
        src = os.path.dirname(os.path.dirname(os.path.abspath(rsys.__file__)))
        probe = "import sys, rsys.cli; print('rsys._pairscan' in sys.modules)"
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == "False"


FUZZ_SPECIES = ("a", "b", "c", "d", "e", "f")
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.text("abfxyz{},", max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "I", "source"]), inner, max_size=3),
    max_leaves=6,
)


def mostly(valid, other=json_values):
    """Valid values three times in four, `other` values otherwise."""
    return st.one_of(valid, valid, valid, other)


def set_text(members):
    return "{" + ", ".join(members) + "}"


def draw_model(draw):
    """(species names, strategy for up to 3 of them, model bytes) for a
    model on up to 6 species, mostly valid."""
    species = draw(st.lists(st.sampled_from(FUZZ_SPECIES), min_size=1, unique=True))
    names = st.lists(st.sampled_from(species), max_size=3, unique=True)
    lines = ["@name fuzz", "@species " + ", ".join(species)]
    for k in range(draw(st.integers(0, 4))):
        r = draw(names)
        i = [x for x in draw(names) if x not in r]
        p = draw(st.lists(st.sampled_from(species), min_size=1, max_size=2, unique=True))
        lines.append(f"r{k}: {set_text(r)} | {set_text(i)} -> {set_text(p)}")
    model = draw(mostly(st.just("\n".join(lines).encode()), st.binary(max_size=24)))
    return species, names, model


@st.composite
def cli_runs(draw):
    """(argv, model bytes, data bytes) for one run of validate, simulate,
    reach or orbit on up to 6 species, from a directory holding the model
    as `model.rs.txt` and the query, contexts or state as `data`."""
    species, names, model = draw_model(draw)
    constraint = st.one_of(
        st.fixed_dictionaries(
            {"kind": st.just("max-cardinality"), "n": mostly(st.integers(0, 2))}
        ),
        st.fixed_dictionaries({"kind": st.just("allowed-set"), "I": mostly(names)}),
    )
    query = st.fixed_dictionaries(
        {"source": mostly(names), "target": mostly(names), "constraint": mostly(constraint)},
        optional={"targets": mostly(names), "depth_limit": mostly(st.integers(1, 4))},
    )
    # Repetition counts are small or past the sequence limit: up to 10^20
    # overflows a list size, and 10^15 would exhaust memory.
    rep = st.integers(0, 3) | st.integers(CONTEXT_SEQUENCE_LIMIT + 1, 10**20)
    context = st.tuples(names.map(set_text), st.none() | rep).map(
        lambda pair: pair[0] if pair[1] is None else f"{pair[0]} x{pair[1]}"
    )
    contexts = st.lists(context, min_size=1, max_size=3).map("\n".join)
    state = names.map(set_text) | st.sampled_from(["@data", "S19", "x"])
    command = draw(st.sampled_from(["validate", "simulate", "reach", "orbit"]))
    text = query.map(json.dumps) if command == "reach" else contexts
    data = draw(
        text.map(str.encode)
        | st.binary(max_size=24)
        | json_values.map(json.dumps).map(str.encode)
        | st.integers(1, 200_000).map(lambda k: ("[" * k + "]" * k).encode())
    )
    budget = st.none() | st.integers(-1, 40)
    model_file = "model.rs.txt"
    argv = {
        "validate": ["validate", model_file],
        "simulate": ["simulate", model_file, "data", "--initial", draw(state)],
        "reach": ["reach", model_file, "data", "--node-budget", draw(budget)],
        "orbit": ["orbit", model_file, "--context", draw(state), "--start", draw(state),
                  "--max-steps", draw(budget)],
    }[command]
    if None in argv:
        argv = argv[:-2]
    return [str(arg) for arg in argv], model, data


@st.composite
def decide_runs(draw):
    """(argv, model bytes) for one `decide` run on up to 6 species: a
    constraint or a minimal scan, then any of target sets, provisos,
    sampling and node budgets, so some runs combine options that
    conflict."""
    _, names, model = draw_model(draw)
    state = mostly(names.map(set_text), st.text("abfxyz{}, ", max_size=6))
    constraint = mostly(
        st.integers(-1, 3).map("max-cardinality={}".format)
        | names.map(set_text).map("allowed-set={}".format),
        st.text("abfxyz=-{},", max_size=8),
    )
    mode = draw(st.sampled_from(["--constraint", "--constraint", "--minimal-n", "--minimal-I"]))
    argv = ["decide", "model.rs.txt", mode]
    if mode != "--minimal-n":
        argv.append(draw(constraint if mode == "--constraint" else state))
    count = st.integers(-1, 12)
    for option, value in (
        ("--targets", state),
        ("--proviso", st.sampled_from(["projection", "superset"])),
        ("--sample", count),
        ("--seed", count),
        ("--node-budget", st.integers(-1, 40)),
    ):
        if draw(st.booleans()):
            argv += [option, draw(value)]
    return [str(arg) for arg in argv], model


class TestFuzz:
    """Random argv and input files through the in-process entry point:
    every run ends in a documented exit code, never in a traceback.

    Failures are reported unshrunk: shrinking replays many CLI runs and
    would stall the suite for minutes before reporting."""

    fuzz = settings(
        max_examples=150,
        deadline=None,
        phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
        suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
    )

    @fuzz
    @given(case=cli_runs())
    def test_exit_codes_are_documented(self, capsys, monkeypatch, tmp_path, case):
        argv, model, data = case
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.rs.txt").write_bytes(model)
        (tmp_path / "data").write_bytes(data)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 64)
        assert "Traceback" not in err

    @fuzz
    @given(case=decide_runs())
    def test_decide_exit_codes_are_documented(
        self, capsys, monkeypatch, tmp_path, case
    ):
        argv, model = case
        monkeypatch.chdir(tmp_path)
        (tmp_path / "model.rs.txt").write_bytes(model)
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2, 64)
        assert "Traceback" not in err
