"""rsys benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 rsysbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 rsysbench/run.py --workload all          # every workload, both runs
    python3 rsysbench/run.py --record-reference      # rewrite reference.json

Run from the root of a checkout: the package is imported from ./src. With
--trace 0 the run prints the end-to-end metrics of BENCHMARK.json, with
--trace 1 the per-layer ones (and writes the spans under .rsysbench/).
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give units, sample counts and the
environment. The exit code is 1 when an answer is wrong, 2 when the
benchmark cannot run; failed or refused queries only lower ok_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402
from calib import NOMINAL_S, local_scales, scale  # noqa: E402

SETUP_PROBES = 6
PER_MILLE = (999, 990, 950, 900, 750, 500)
TAIL_BEYOND = 10
# A measurement must end within 180 s; its workers share this budget.
BUDGET_S = 170
UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("_per_s", "1/s"), ("_mb", "MB")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_ratio", "_per_closure")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def worker(workload: str, seed: int, seconds: float, mode: str, deadline: float) -> dict:
    """Run one worker process and return its JSON result. The worker gets
    its own process group, so a timeout also stops the CLI child it may be
    waiting for."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("out of time before the next worker")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    probe = (
        "import sys; sys.path.insert(0, 'src'); import json, rsys._engine as e, rsys.models as m;"
        "print(json.dumps([e.compiled_available(), e.Engine(m.load_builtin().model.system).backend]))"
    )
    compiled, backend = json.loads(
        subprocess.run([sys.executable, "-c", probe], cwd=ROOT, capture_output=True,
                       text=True, timeout=60, check=True).stdout
    )
    try:
        # The ceiling keeps git from reading a repository above the checkout.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, env=env).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "compiled_kernel_importable": compiled,
        "engine_backend_oncogenic": backend,
        "note": "systems above 64 species always use the pure backend"
        + ("" if compiled else "; the compiled kernel is not built, so every number is pure"),
        "commit": commit,
        "seed": seed,
    }


def tail(latencies: list) -> tuple:
    """Highest listed percentile with at least TAIL_BEYOND samples beyond
    it, by nearest rank: (percentile, value)."""
    xs = sorted(latencies)
    n = len(xs)
    for per_mille in PER_MILLE:
        if n * (1000 - per_mille) >= TAIL_BEYOND * 1000:
            rank = max(1, -(-per_mille * n // 1000))
            return per_mille / 10, xs[rank - 1]
    return 50.0, statistics.median(xs)


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> tuple:
    probes = [worker(workload, seed, seconds, "setup", deadline) for _ in range(SETUP_PROBES)]
    run = worker(workload, seed, seconds, "run", deadline)
    probes.append(run)
    setups = [probe["setup_s"] * NOMINAL_S / probe["setup_calibration_s"] for probe in probes]
    k = scale(run["calibration_s"])
    raw_lat = [dt for _, dt in run["latencies"]]
    local = local_scales(
        [t0 + dt / 2 for t0, dt in run["latencies"]], run["calibration_s"], run["calibration_at"]
    )
    lat = [dt * f for dt, f in zip(raw_lat, local)]
    pct, tail_s = tail(lat)
    bad = run["failed"] + run["wrong"]
    # Time between queries (digests, loop) is scaled by the run's factor.
    between = run["elapsed_s"] - sum(raw_lat)
    raw = {
        "setup_s": statistics.median(probe["setup_s"] for probe in probes),
        "throughput_qps": run["attempted"] / run["elapsed_s"],
        "latency_p50_ms": 1e3 * statistics.median(raw_lat),
        "latency_tail_ms": 1e3 * tail(raw_lat)[1],
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": run["attempted"] / (sum(lat) + between * k),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * tail_s,
        "ok_frac": 1.0 - bad / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
    }
    notes = {
        "raw_wall_clock": raw,
        "speed_scale": k,
        "calibration_samples": len(run["calibration_s"]),
        "samples": len(lat),
        "passes": run["passes"],
        "elapsed_s": run["elapsed_s"],
        "tail_percentile": pct,
        "setup_samples": len(setups),
        "failed_frac": bad / run["attempted"],
        "failed": run["failed"],
        "expected_failures": run["expected_failures"],
        "wrong": run["wrong"],
        "errors": run["errors"],
    }
    return metrics, run, notes


def traced(workload: str, seed: int, deadline: float) -> tuple:
    run = worker(workload, seed, 0, "trace", deadline)
    k = scale(run["calibration_s"])
    metrics = {}
    for name, value in run["metrics"].items():
        unit = per_layer_unit(name)
        if unit in ("ms", "us"):
            value *= k
        elif unit == "1/s":
            value /= k
        metrics[name] = value
    notes = {
        "trace_file": run["trace_file"],
        "speed_scale": k,
        "raw_wall_clock": run["metrics"],
        "micro_by_backend": run["micro"],
    }
    return metrics, run, notes


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    deadline = time.monotonic() + BUDGET_S
    if trace:
        metrics, run, notes = traced(workload, seed, deadline)
    else:
        metrics, run, notes = end_to_end(workload, seed, seconds, deadline)
    unit = per_layer_unit if trace else UNITS.get
    result = {
        "correct": not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"] + run["wrong"],
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    return result, run["problems"], notes


def report(workload: str, seed: int, trace: bool, result: dict, problems: list, notes: dict, env: dict) -> None:
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {workload} seed={seed} {kind}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    print(
        f"  times are at nominal machine speed: wall-clock x {notes['speed_scale']:.4f}"
        " (see calib.py; raw values in the result file)"
    )
    if not trace:
        raw = ", ".join(f"{k} {v:.6g}" for k, v in notes["raw_wall_clock"].items())
        print(f"  raw wall-clock: {raw}")
        print(
            f"  samples={notes['samples']} passes={notes['passes']} "
            f"tail=p{notes['tail_percentile']:g} setup_samples={notes['setup_samples']} "
            f"failed_frac={notes['failed_frac']:.6f} (failed {notes['failed']}, of them "
            f"expected label-collision failures {notes['expected_failures']}; wrong {notes['wrong']})"
        )
    for line in problems[:20]:
        print(f"  WRONG {line}")
    os.makedirs(os.path.join(ROOT, ".rsysbench"), exist_ok=True)
    path = os.path.join(ROOT, ".rsysbench", f"result-{workload}-{seed}-{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"result": result, "environment": env, "notes": notes, "problems": problems}, fh, indent=1)


def record_reference() -> None:
    reference = {}
    for workload in gen.WORKLOADS:
        reference[workload] = worker(workload, 0, 0, "views", time.monotonic() + BUDGET_S)["views"]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=gen.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rsys", "__init__.py")):
        print(f"error: no rsys package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.record_reference:
            record_reference()
            return 0
        env = environment(args.seed)
        workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
        traces = (False, True) if args.trace is None else (bool(args.trace),)
        correct = True
        for workload in workloads:
            for trace in traces:
                result, problems, notes = measure(workload, args.seed, args.seconds, trace)
                report(workload, args.seed, trace, result, problems, notes, env)
                correct = correct and result["correct"]
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
