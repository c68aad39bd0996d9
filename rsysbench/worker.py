"""One workload process: set up, run the closed loop, check the answers.

    python3 rsysbench/worker.py --workload W --seed N --seconds S --mode M

Modes: `setup` only loads the inputs and reports the set-up time; `run`
is the untraced closed loop (one client, the next query starts when the
previous one returns) for at least S seconds in whole passes over the
workload's queries; `trace` runs the kernel micro-benchmarks, then one
untraced and one traced pass, and derives the per-layer metrics. The
result is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from calib import Calibrator, calibrate  # noqa: E402

REFERENCE_FILE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
OUT_DIR = os.path.join(ROOT, ".rsysbench")
CALIBRATE_EVERY_S = 0.3
SETUP_CALIBRATIONS = 3
CLI_SUBCOMMANDS = ("validate", "simulate", "orbit", "reach", "decide", "import_bn", "graph", "corpus")


def view_digest(view) -> str:
    return hashlib.sha1(json.dumps(view, sort_keys=True).encode()).hexdigest()[:16]


def load(workload: str, seed: int):
    """Generate the inputs, calibrate, then time `import rsys` through
    loading them. Returns the workload, the set-up time and the median
    calibration time taken just before it."""
    inputs = gen.generate(workload, seed)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    calibration = sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))[SETUP_CALIBRATIONS // 2]
    t0 = perf_counter()
    import rsys  # noqa: F401

    from workloads import WORKLOAD_CLASSES

    outdir = os.path.join(OUT_DIR, f"{workload}-{seed}-{os.getpid()}")
    wl = WORKLOAD_CLASSES[workload](inputs, ROOT, outdir)
    return wl, perf_counter() - t0, calibration


class PassLog:
    """What the passes over a workload saw: per-key answer digests, the
    first answer per key (if kept), the keys whose answer changed between
    passes, errors and counts."""

    def __init__(self) -> None:
        self.digests: dict = {}
        self.answers: dict = {}
        self.unstable: set = set()
        self.errors: dict = {}
        self.stats: Counter = Counter()


def one_pass(wl, log: PassLog, latencies=None, tracer=None, keep=False, between=None) -> None:
    """Run every query once, closed loop. With `keep`, the first answer per
    key is held for the checks, except the workload's bulky kinds: holding
    those would slow the rest of the timed passes, so the checks
    recompute them."""
    stats = log.stats
    for kind, key, fn in wl.queries:
        if between is not None:
            between()
        if tracer is not None:
            tracer.qid += 1
            sid = tracer.open("bench.query")
        t0 = perf_counter()
        ok, answer = wl.run(fn)
        t1 = perf_counter()
        if tracer is not None:
            tracer.close(sid)
        if latencies is not None:
            latencies.append((t0, t1 - t0))
        stats["attempted"] += 1
        stats["runs/" + key] += 1
        if not ok:
            stats["failed"] += 1
            log.errors[key] = answer
            continue
        digest = wl.digest(kind, answer)
        if log.digests.setdefault(key, digest) != digest:
            log.unstable.add(key)
        if keep and kind not in wl.bulky and key not in log.answers:
            log.answers[key] = (kind, answer)


def answers_of(wl, log: PassLog) -> dict:
    """The kept answers plus the bulky ones, run again outside the timing."""
    answers = dict(log.answers)
    for kind, key, fn in wl.queries:
        if kind in wl.bulky and key in log.digests:
            ok, answer = wl.run(fn)
            if not ok or wl.digest(kind, answer) != log.digests[key]:
                log.unstable.add(key)
            if ok:
                answers[key] = (kind, answer)
    return answers


def check(wl, log: PassLog, seed: int) -> list:
    """Problems with the answers; wrong answers are counted once per time
    the query ran."""
    answers = answers_of(wl, log)
    problems = wl.check(
        {key: answer for key, (_, answer) in answers.items()},
        random.Random(f"check/{wl.name}/{seed}"),
    )
    problems += [f"{key}: answer changed between passes" for key in sorted(log.unstable)]
    if seed == REFERENCE_SEED and os.path.exists(REFERENCE_FILE):
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh).get(wl.name, {})
        for key, (kind, answer) in answers.items():
            want = reference.get(key)
            if want is not None and view_digest(wl.view(kind, answer)) != want:
                problems.append(f"{key}: differs from the answer recorded for seed {seed}")
    wrong = {p.split(":", 1)[0] for p in problems}
    log.stats["wrong"] = sum(max(1, log.stats["runs/" + key]) for key in wrong)
    return problems


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def mode_run(wl, seconds: float, seed: int) -> dict:
    log = PassLog()
    latencies: list = []
    passes = 0
    cal = Calibrator(CALIBRATE_EVERY_S)
    t_start = perf_counter()
    while True:
        one_pass(wl, log, latencies, keep=True, between=cal)
        passes += 1
        if perf_counter() - t_start - cal.spent >= seconds:
            break
    elapsed = perf_counter() - t_start - cal.spent
    cal.sample()
    rss = peak_rss_mb(children=wl.name == "cli-batch")
    problems = check(wl, log, seed)
    return {
        "elapsed_s": elapsed,
        "passes": passes,
        "latencies": latencies,
        "calibration_s": cal.samples,
        "calibration_at": cal.times,
        "attempted": log.stats["attempted"],
        "failed": log.stats["failed"],
        "wrong": log.stats["wrong"],
        "expected_failures": wl.expected_failures * passes,
        "errors": sorted(set(log.errors.values()))[:5],
        "peak_rss_mb": rss,
        "problems": problems,
    }


def layer_metrics(tracer, extra: dict) -> dict:
    from tracing import LAYERS, summarize

    s = summarize(tracer.spans)
    total, c = s["total"], tracer.counts

    def ms(*names):
        return 1e3 * sum(total.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "kernel.bfs_witness_ms": ms("kernel.bfs_witness"),
        "kernel.bfs_witness_calls": c["kernel.bfs_witness.calls"],
        "kernel.witness_states": c["kernel.witness_states"],
        "kernel.states_per_s": ratio(c["kernel.witness_states"], total.get("kernel.bfs_witness", 0.0)),
        "kernel.bfs_closure_ms": ms("kernel.bfs_closure"),
        "kernel.bfs_closure_calls": c["kernel.bfs_closure.calls"],
        "kernel.closure_states": c["kernel.closure_states"],
        "control.pairs_checked": c["control.pairs_checked"],
        "control.pairs_per_closure": ratio(c["control.pairs_checked"], c["kernel.bfs_closure.calls"]),
        "engine.image_ms": ms("engine.image"),
        "engine.image_size": c["engine.image_size"],
        "kernel.res_evals": c["kernel.res_evals"],
        "engine.res_calls": c["engine.res_calls"],
        "engine.res_hit_ratio": 1.0 - ratio(c["engine.res_misses"], c["engine.res_calls"]) if c["engine.res_calls"] else 0.0,
        "engine.builds": c["engine.build.calls"],
        "engine.build_ms": ms("engine.build"),
        "core.run_process_ms": ms("core.run_process"),
        "core.run_process_calls": c["core.run_process.calls"],
        "core.steps": c["core.steps"],
        "formats.parse_bn_ms": ms("formats.parse_bn"),
        "formats.bn_to_reactions_ms": ms("formats.bn_to_reactions"),
        "formats.parse_model_ms": ms("formats.parse_model"),
        "formats.serialize_model_ms": ms("formats.serialize_model"),
        "formats.export_trace_ms": ms("formats.export_trace"),
        "formats.errors": c["formats.errors"],
        "dynamics.orbit_ms": ms("dynamics.orbit"),
        "dynamics.orbit_steps": c["dynamics.orbit_steps"],
        "dynamics.image_query_ms": ms("dynamics.image_membership", "dynamics.superset_image_membership"),
        "dynamics.context_graph_ms": ms("dynamics.context_graph"),
        "dynamics.graph_nodes": c["dynamics.graph_nodes"],
        "dynamics.graph_edges": c["dynamics.graph_edges"],
        "dynamics.to_dot_ms": ms("dynamics.to_dot"),
        "control.find_witness_ms": ms("control.find_witness"),
        "control.verify_witness_ms": ms("control.verify_witness"),
        "control.decide_ms": ms("control.decide_controllable", "control.decide_target_controllable"),
        "control.minimal_probes": c["control.minimal_probes"],
        "control.refusals": c["control.refusals"],
        "models.load_builtin_ms": ms("models.load_builtin"),
        "models.golden_replay_ms": ms("models.golden_replay"),
        "cli.interpreter_ms": ms("cli.interpreter"),
        "cli.import_ms": ms("cli.import"),
        "cli.invocations": c["cli.invocations"],
        "cli.stdout_bytes": c["cli.stdout_bytes"],
    }
    for sub in CLI_SUBCOMMANDS:
        m[f"cli.{sub}_ms"] = ms(f"cli.{sub}")
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_ms"] = 1e3 * s["layer_self"].get(layer, 0.0)
    m["trace.span_total_ms"] = 1e3 * s["roots"]
    m["trace.spans"] = len(tracer.spans)
    m.update(extra)
    return m


def mode_trace(wl, seed: int) -> dict:
    import micro
    from tracing import Tracer

    samples = [calibrate()]
    micro_all = {}
    problems = []
    for backend in micro.backends():
        micro_all[backend], found = micro.run(backend)
        problems += found

    samples.append(calibrate())
    log = PassLog()
    t0 = perf_counter()
    one_pass(wl, log)
    plain_s = perf_counter() - t0
    samples.append(calibrate())

    tracer = Tracer()
    wl.start_trace(tracer)
    tracer.install()
    try:
        t0 = perf_counter()
        one_pass(wl, log, tracer=tracer, keep=True)
        traced_s = perf_counter() - t0
    finally:
        tracer.uninstall()
        wl.stop_trace()
    samples.append(calibrate())
    problems += check(wl, log, seed)

    pure = micro_all["pure"]
    # Each pass is set against the calibrations taken around it, so that
    # the machine's drift between the two passes does not read as overhead.
    plain_cal = (samples[1] + samples[2]) / 2
    traced_cal = (samples[2] + samples[3]) / 2
    extra = {
        "trace.overhead_pct": 100.0 * (traced_s / traced_cal - plain_s / plain_cal) / (plain_s / plain_cal),
        "trace.untraced_pass_ms": 1e3 * plain_s,
        "trace.traced_pass_ms": 1e3 * traced_s,
        **pure,
    }
    metrics = layer_metrics(tracer, extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(OUT_DIR, f"trace-{wl.name}-{seed}.json")
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump(
            {"spans": tracer.spans, "counts": tracer.counts, "metrics": metrics, "micro": micro_all},
            fh,
        )
    return {
        "metrics": metrics,
        "micro": micro_all,
        "trace_file": os.path.relpath(trace_file, ROOT),
        "calibration_s": samples,
        "attempted": log.stats["attempted"],
        "failed": log.stats["failed"],
        "wrong": log.stats["wrong"],
        "problems": problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace", "views"), default="run")
    args = parser.parse_args(argv)
    wl, setup_s, setup_calibration = load(args.workload, args.seed)
    try:
        if args.mode == "setup":
            out = {}
        elif args.mode == "run":
            out = mode_run(wl, args.seconds, args.seed)
        elif args.mode == "trace":
            out = mode_trace(wl, args.seed)
        else:
            log = PassLog()
            one_pass(wl, log, keep=True)
            out = {
                "views": {
                    key: view_digest(wl.view(kind, answer))
                    for key, (kind, answer) in answers_of(wl, log).items()
                }
            }
    finally:
        shutil.rmtree(wl.outdir, ignore_errors=True)
    out["setup_s"] = setup_s
    out["setup_calibration_s"] = setup_calibration
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
