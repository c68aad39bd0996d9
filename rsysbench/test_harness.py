"""Self-tests for the benchmark harness.

    python3 -m pytest -q rsysbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[0:0] = [HERE, os.path.join(ROOT, "src")]

import gen  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOAD_CLASSES  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def small(workload: str, seed: int, keep: int, tmp_path):
    wl = WORKLOAD_CLASSES[workload](gen.generate(workload, seed), ROOT, str(tmp_path))
    wl.queries = wl.queries[:keep]
    return wl


def tamper(wl, key: str, change) -> None:
    """Make the query `key` return a changed answer."""
    wl.queries = [
        (kind, k, (lambda fn=fn: change(fn())) if k == key else fn)
        for kind, k, fn in wl.queries
    ]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first = gen.inputs_bytes(gen.generate(workload, 3))
    assert first == gen.inputs_bytes(gen.generate(workload, 3))
    assert first != gen.inputs_bytes(gen.generate(workload, 4))


def test_changed_witness_context_is_counted_wrong(tmp_path):
    wl = small("oncogenic-steer", 1, 60, tmp_path)
    clean = worker.mode_run(wl, 0, seed=1)
    assert clean["problems"] == [] and clean["wrong"] == 0
    key = next(
        k for kind, k, fn in wl.queries if kind == "witness" and fn() is not None and fn().contexts
    )

    def change(w):
        # A context outside I: the witness no longer satisfies the constraint.
        table = w.contexts[0].table
        first = table.from_mask(w.contexts[0].mask | table.set_of(["RTK"]).mask)
        return replace(w, contexts=(first,) + w.contexts[1:])

    tamper(wl, key, change)
    result = worker.mode_run(wl, 0, seed=1)
    assert any(p.startswith(key + ":") for p in result["problems"])
    assert result["wrong"] >= 1


def test_flipped_verdict_is_counted_wrong(tmp_path):
    wl = small("decide-synthetic", 2, 50, tmp_path)
    key = next(k for kind, k, _ in wl.queries if kind == "decide")

    tamper(wl, key, lambda v: replace(v, decision=not v.decision))
    result = worker.mode_run(wl, 0, seed=2)
    assert any(p.startswith(key + ":") for p in result["problems"])
    assert result["wrong"] >= 1


def test_self_times_add_up_to_span_totals(tmp_path):
    import rsys.control

    original = rsys.control.find_witness
    wl = small("oncogenic-steer", 5, 40, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        worker.one_pass(wl, worker.PassLog(), tracer=tracer)
    finally:
        tracer.uninstall()
    assert rsys.control.find_witness is original
    s = summarize(tracer.spans)
    assert s["total"]["control.find_witness"] > 0 and s["layer_self"]["kernel"] > 0
    assert sum(s["layer_self"].values()) == pytest.approx(s["roots"], rel=1e-9)


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "rsysbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


def test_printed_metric_names_match_benchmark_json():
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _run(["--workload", "bn-replay", "--seed", "1", "--seconds", "0.1", "--trace", trace])
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        printed = {k: m["unit"] for k, m in result["metrics"].items()}
        assert printed == declared


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "rsysbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "bn-replay", "--seed", "0", "--seconds", "1", "--trace", "0"], cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
