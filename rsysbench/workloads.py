"""The four workloads: loading inputs into rsys objects, the queries a
pass runs, and the answer checks.

A query is (kind, key, fn). `fn` looks the rsys function up on its module
at call time, so that a traced run sees the wrappers the tracer installs.
Checks run after the timed section; each returns a list of problems, one
per wrong answer, keyed by query.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import partial
from time import perf_counter

from gen import GOALS, MARKERS
from oracle import MaskSystem, Network, submasks

GRAPH_BUDGET = 1 << 22
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")
ABSENCE_GRAPH_CHECKS = 3
TRUE_VERDICT_SAMPLES = 4
IMPORT_STATE_SAMPLES = 8


def _call(module, name, *args, **kwargs):
    return getattr(module, name)(*args, **kwargs)


class Workload:
    name = ""
    expected_failures = 0
    bulky: tuple = ()

    def __init__(self, inputs: dict, root: str, outdir: str) -> None:
        self.outdir = outdir  # scratch files, removed when the worker ends
        self.queries: list = []

    def run(self, fn):
        """Run one query; returns (ok, answer)."""
        try:
            return True, fn()
        except Exception as exc:  # a failed query is counted, not fatal
            return False, f"{type(exc).__name__}: {exc}"

    def digest(self, kind: str, answer):
        """Cheap summary used to compare repeated passes."""
        return self.view(kind, answer)

    def view(self, kind: str, answer):
        """JSON form of an answer for the default-seed reference."""
        raise NotImplementedError

    def check(self, answers: dict, rng) -> list:
        raise NotImplementedError

    def start_trace(self, tracer) -> None:
        """Called before the traced pass; in-process workloads need nothing."""

    def stop_trace(self) -> None:
        pass


def _members(sset) -> list:
    return list(sset.members)


# ---------------------------------------------------------------- steer


class Steer(Workload):
    name = "oncogenic-steer"
    bulky = ("graph",)

    def __init__(self, inputs, root, outdir):
        super().__init__(inputs, root, outdir)
        import rsys.control as control
        import rsys.dynamics as dynamics
        import rsys.models as models

        self.control, self.dynamics = control, dynamics
        corpus = _call(models, "load_builtin")
        self.system = system = corpus.model.system
        table = system.species
        gf = table.set_of(["GF"])
        targets = table.set_of(MARKERS)
        self.cq = {}
        for k, q in enumerate(inputs["queries"]):
            cq = control.ControlQuery(
                source=corpus.named_states[q["source"]] | gf,
                target=table.set_of(GOALS[q["goal"]]),
                constraint=control.AllowedSet(table.set_of(q["I"])),
                targets=targets,
            )
            key = f"witness/{k}"
            self.cq[key] = cq
            self.queries.append(("witness", key, partial(_call, control, "find_witness", system, cq)))
        self.orbits = {}
        for k, o in enumerate(inputs["orbits"]):
            start = corpus.named_states[o["start"]]
            context = table.set_of(o["context"])
            key = f"orbit/{k}"
            self.orbits[key] = (start, context)
            self.queries.append(("orbit", key, partial(_call, dynamics, "orbit", system, start, context)))
        g = inputs["graph"]
        self.graph = (table.set_of(g["I"]), corpus.named_states[g["seed"]] | gf)
        self.queries.append(
            (
                "graph",
                "graph",
                partial(
                    _call, dynamics, "context_graph", system, self.graph[0],
                    [self.graph[1]], node_budget=GRAPH_BUDGET,
                ),
            )
        )

    def digest(self, kind, answer):
        if kind == "graph":
            return (len(answer.nodes), len(answer.edges), answer.truncated)
        if kind == "orbit":
            return (len(answer.transient), tuple(w.mask for w in answer.cycle))
        if answer is None:
            return None
        return tuple(c.mask for c in answer.contexts)

    def view(self, kind, answer):
        if kind == "graph":
            return [len(answer.nodes), len(answer.edges)]
        if kind == "orbit":
            return [len(answer.transient), answer.period]
        if answer is None:
            return "absent"
        return [_members(c) for c in answer.contexts]

    def check(self, answers, rng):
        control, dynamics = self.control, self.dynamics
        ms = MaskSystem.of(self.system)
        problems = []
        absent = []
        for key, cq in self.cq.items():
            if key not in answers:
                continue
            w = answers[key]
            t_mask, goal = cq.targets.mask, cq.target.mask
            hit = lambda s, t=t_mask, g=goal: s & t == g  # noqa: E731
            contexts = submasks(cq.constraint.allowed.mask)
            src = cq.source.mask
            if w is None:
                _, found = ms.reachable(src, contexts, stop=hit)
                if found is not None:
                    problems.append(f"{key}: reported absent, but state {found:#x} is reachable")
                absent.append(key)
                continue
            n = len(w.contexts)
            verdict = control.verify_witness(self.system, cq, w)
            if not verdict.ok or verdict.hit_index != n or w.hit_index != n:
                problems.append(f"{key}: witness does not verify ({verdict.reason})")
                continue
            state = src
            states = [state]
            for c in w.contexts:
                if c.mask & ~cq.constraint.allowed.mask:
                    problems.append(f"{key}: context outside I")
                state = c.mask | ms.res(state)
                states.append(state)
            if not hit(states[-1]) or any(hit(s) for s in states[:-1]):
                problems.append(f"{key}: replay does not first reach the goal at the end")
            table = self.system.species
            trace = control.run_process(
                self.system, (table.empty_set,) + tuple(w.contexts), initial_result=cq.source
            )
            if [s.mask for s in trace.states] != states:
                problems.append(f"{key}: run_process replay differs from the witness")
            if n >= 2 and control.find_witness(self.system, replace(cq, depth_limit=n - 1)) is not None:
                problems.append(f"{key}: a shorter witness exists")
        for key in rng.sample(absent, min(ABSENCE_GRAPH_CHECKS, len(absent))):
            cq = self.cq[key]
            g = dynamics.context_graph(
                self.system, cq.constraint.allowed, [cq.source], node_budget=GRAPH_BUDGET
            )
            t_mask, goal = cq.targets.mask, cq.target.mask
            if g.truncated or any(node.mask & t_mask == goal for node in g.nodes):
                problems.append(f"{key}: context_graph reaches the goal reported absent")
        for key, (start, context) in self.orbits.items():
            if key not in answers:
                continue
            orb = answers[key]
            seq = ms.orbit(start.mask, context.mask)
            got = [w.mask for w in orb.transient + orb.cycle]
            if got != seq[:-1] or len(orb.transient) != seq.index(seq[-1]):
                problems.append(f"{key}: orbit differs from direct iteration")
        if "graph" in answers:
            g = answers["graph"]
            input_set, seed = self.graph
            nodes, _ = ms.reachable(seed.mask, submasks(input_set.mask))
            edges = sum(
                1 << (input_set.mask & ~ms.res(w)).bit_count() for w in nodes
            )
            if g.truncated or {n.mask for n in g.nodes} != nodes or len(g.nodes) != len(nodes):
                problems.append("graph: node set differs from the reachable set")
            if len(g.edges) != edges:
                problems.append(f"graph: {len(g.edges)} edges, expected {edges}")
        return problems


# ---------------------------------------------------------------- decide


class Decide(Workload):
    name = "decide-synthetic"

    def __init__(self, inputs, root, outdir):
        super().__init__(inputs, root, outdir)
        import rsys.control as control
        import rsys.formats as formats

        self.control = control
        self.items = {}
        for q in inputs["queries"]:
            system = _call(formats, "parse_model", q["model"]).system
            table = system.species
            item = dict(q, system=system)
            if "constraint" in q:
                item["constraint"] = control.constraint_from_json(q["constraint"], table)
            for k in ("targets", "start"):
                if k in q:
                    item[k] = table.set_of(q[k])
            key = q["name"]
            self.items[key] = item
            self.queries.append((q["kind"], key, partial(self._ask, item)))

    def _ask(self, item):
        control, kind, system = self.control, item["kind"], item["system"]
        if kind == "decide":
            return _call(control, "decide_controllable", system, item["constraint"])
        if kind == "target":
            return _call(
                control, "decide_target_controllable", system, item["targets"], item["constraint"]
            )
        if kind == "minimal-n":
            return _call(control, "minimal_n", system)
        if kind == "minimal-I":
            return _call(control, "minimal_I", system, item["start"])
        scope = control.Sampled(item["pairs"], item["seed"])
        return _call(control, "decide_controllable", system, item["constraint"], scope=scope)

    @staticmethod
    def _verdict_view(v):
        cex = None if v.counterexample is None else [_members(s) for s in v.counterexample]
        return [v.decision, cex, v.pairs_checked]

    def view(self, kind, answer):
        if kind == "minimal-n":
            return [answer.minimal, [[n, self._verdict_view(v)] for n, v in answer.verdicts]]
        if kind == "minimal-I":
            minimal = None if answer.minimal is None else _members(answer.minimal)
            return [
                minimal,
                self._verdict_view(answer.start_verdict),
                [[name, dropped, self._verdict_view(v)] for name, dropped, v in answer.steps],
            ]
        return self._verdict_view(answer)

    def digest(self, kind, answer):
        return json.dumps(self.view(kind, answer))

    def check(self, answers, rng):
        problems = []
        for key, item in self.items.items():
            if key in answers:
                for p in self._check_item(item, answers[key], rng):
                    problems.append(f"{key}: {p}")
        return problems

    def _check_item(self, item, answer, rng):
        control, kind, system = self.control, item["kind"], item["system"]
        full = system.species.full_set
        if kind == "decide":
            return self._verdict(system, full, item["constraint"], answer, rng)
        if kind == "target":
            return self._verdict(system, item["targets"], item["constraint"], answer, rng)
        if kind == "sampled":
            if answer.decision:
                ok = 1 <= answer.pairs_checked <= item["pairs"]
                return [] if ok else ["sampled pairs_checked out of range"]
            return self._verdict(system, full, item["constraint"], answer, rng)
        problems = []
        if kind == "minimal-n":
            verdicts = answer.verdicts
            for pos, (n, v) in enumerate(verdicts):
                last = pos == len(verdicts) - 1
                if n != pos or v.decision != (last and answer.minimal is not None):
                    problems.append(f"probe n={n} out of order or wrong decision")
                problems += self._verdict(system, full, control.MaxCardinality(n), v, rng)
            if answer.minimal is None and len(verdicts) != len(system.species):
                problems.append("minimal n missing but the scan stopped early")
            if answer.minimal is not None and answer.minimal != len(verdicts) - 1:
                problems.append("minimal n is not the first true probe")
            return problems
        # minimal-I
        current = item["start"]
        problems += self._verdict(system, full, control.AllowedSet(current), answer.start_verdict, rng)
        if not answer.start_verdict.decision:
            return problems + ([] if answer.minimal is None else ["minimal set for a false start"])
        names = list(current.members)
        if [name for name, _, _ in answer.steps] != names:
            problems.append("drop probes do not follow the start set in order")
        for name, dropped, v in answer.steps:
            candidate = current - system.species.set_of([name])
            if dropped != v.decision:
                problems.append(f"drop {name}: flag disagrees with verdict")
            problems += self._verdict(system, full, control.AllowedSet(candidate), v, rng)
            if v.decision:
                current = candidate
        if answer.minimal != current:
            problems.append("minimal set differs from the drop trail")
        return problems

    def _verdict(self, system, targets, constraint, v, rng):
        """Check one exhaustive verdict over `targets` independently."""
        control = self.control
        table = system.species
        n = len(table)
        t_mask = targets.mask
        outside = table.full_set.mask & ~t_mask
        completions = submasks(outside)
        ms = MaskSystem.of(system)
        ends = sorted({y & t_mask for y in ms.image(n)})
        if v.decision:
            expected = (1 << t_mask.bit_count()) * len(ends) - len(ends)
            if v.pairs_checked != expected:
                return [f"true verdict checked {v.pairs_checked} pairs, expected {expected}"]
            xs = submasks(t_mask)
            for _ in range(TRUE_VERDICT_SAMPLES):
                x = rng.choice(xs)
                y = rng.choice([e for e in ends if e != x] or [None])
                if y is None:
                    continue
                if not self._steerable(system, ms, x, y, t_mask, completions, constraint, rng):
                    return [f"true verdict, but no witness from {x:#x} to {y:#x}"]
            return []
        if v.counterexample is None:
            return ["false verdict without a counterexample"]
        x, y = (s.mask for s in v.counterexample)
        if x == y or x & ~t_mask or y not in ends:
            return ["counterexample is not an admissible pair"]
        tq = None if t_mask == table.full_set.mask else targets
        for z in completions:
            q = control.ControlQuery(table.from_mask(x | z), table.from_mask(y), constraint, targets=tq)
            if control.find_witness(system, q) is not None:
                return [f"counterexample {x:#x}->{y:#x} has a witness from completion {z:#x}"]
        return []

    def _steerable(self, system, ms, x, y, t_mask, completions, constraint, rng):
        control = self.control
        table = system.species
        full = t_mask == table.full_set.mask
        order = list(completions)
        rng.shuffle(order)
        for z in order:
            q = control.ControlQuery(
                table.from_mask(x | z), table.from_mask(y), constraint,
                targets=None if full else table.from_mask(t_mask),
            )
            w = control.find_witness(system, q)
            if w is None:
                continue
            if not control.verify_witness(system, q, w).ok:
                return False
            state = x | z
            for c in w.contexts:
                state = c.mask | ms.res(state)
            return state & t_mask == y
        return False


# ---------------------------------------------------------------- networks


class BnReplay(Workload):
    name = "bn-replay"

    def __init__(self, inputs, root, outdir):
        super().__init__(inputs, root, outdir)
        import rsys.core as core
        import rsys.dynamics as dynamics
        import rsys.formats as formats

        self.formats, self.core, self.dynamics = formats, core, dynamics
        self.nets = {}
        for net in inputs["networks"]:
            name = net["name"]
            self.queries.append(("import", f"{name}/import", partial(self._import, net["text"])))
            try:
                bn = _call(formats, "parse_boolean_network", net["text"])
                system = _call(formats, "bn_to_reactions", bn)
            except Exception:  # its import query fails in every pass
                if net["colliding"]:
                    self.expected_failures += 1
                continue
            table = system.species
            oracle = Network(net["updates"], table.index)
            entry = {"net": net, "system": system, "oracle": oracle}
            self.nets[name] = entry
            replay = net["replay"]
            entry["initial"] = table.set_of(replay["initial"])
            entry["contexts"] = [table.set_of(c) for c in replay["contexts"]]
            self.queries.append(
                ("replay", f"{name}/replay",
                 partial(_call, core, "run_process", system, entry["contexts"], initial_result=entry["initial"]))
            )
            entry["orbits"] = []
            for j, o in enumerate(net["orbits"]):
                start, context = table.set_of(o["start"]), table.set_of(o["context"])
                entry["orbits"].append((start, context))
                self.queries.append(
                    ("orbit", f"{name}/orbit/{j}", partial(_call, dynamics, "orbit", system, start, context))
                )
            entry["images"] = []
            for j, im in enumerate(net["images"]):
                produced = table.from_mask(oracle.update(table.set_of(im["state"]).mask))
                if im["mode"] == "exact":
                    target, fn = produced, "image_membership"
                else:
                    target, fn = table.set_of(produced.members[::2]), "superset_image_membership"
                entry["images"].append((target, im["mode"]))
                self.queries.append(
                    ("image", f"{name}/image/{j}", partial(_call, dynamics, fn, system, target))
                )

    def _import(self, text):
        formats = self.formats
        bn = formats.parse_boolean_network(text)
        system = formats.bn_to_reactions(bn)
        out = formats.serialize_model(formats.ModelDocument(system, bn.metadata))
        return system, out, formats.parse_model(out)

    def view(self, kind, answer):
        if kind == "import":
            return answer[1]
        if kind == "replay":
            return [d.mask for d in answer.results]
        if kind == "orbit":
            return [len(answer.transient), [w.mask for w in answer.cycle]]
        return None if answer is None else answer.preimage.mask

    def digest(self, kind, answer):
        if kind == "replay":
            return hash(tuple(d.mask for d in answer.results))
        return json.dumps(self.view(kind, answer))

    def check(self, answers, rng):
        problems = []
        for name, entry in self.nets.items():
            oracle, system = entry["oracle"], entry["system"]
            key = f"{name}/import"
            if key in answers:
                got, text, doc = answers[key]
                ms = MaskSystem.of(got)
                n = len(got.species)
                terms = sum(len(t) for t in entry["net"]["updates"].values())
                if doc.system != got or self.formats.serialize_model(doc) != text:
                    problems.append(f"{key}: serialize/parse round trip is not exact")
                if got != system or len(got.reactions) != terms:
                    problems.append(f"{key}: translation differs from the loaded system")
                for _ in range(IMPORT_STATE_SAMPLES):
                    w = rng.getrandbits(n)
                    if ms.res(w) != oracle.update(w):
                        problems.append(f"{key}: result map differs from the network update")
                        break
            key = f"{name}/replay"
            if key in answers:
                trace = answers[key]
                d = entry["initial"].mask
                ok = trace.results[0].mask == d and len(trace) == len(entry["contexts"])
                for c, got in zip(entry["contexts"], trace.results[1:]):
                    d = oracle.update(c.mask | d)
                    ok = ok and got.mask == d
                if not ok:
                    problems.append(f"{key}: a step differs from the synchronous update")
            for j, (start, context) in enumerate(entry["orbits"]):
                key = f"{name}/orbit/{j}"
                if key in answers:
                    orb = answers[key]
                    seq = oracle.orbit(start.mask, context.mask)
                    got = [w.mask for w in orb.transient + orb.cycle]
                    if got != seq[:-1] or len(orb.transient) != seq.index(seq[-1]):
                        problems.append(f"{key}: orbit differs from the synchronous update")
            for j, (target, mode) in enumerate(entry["images"]):
                key = f"{name}/image/{j}"
                if key in answers:
                    cert = answers[key]
                    if cert is None:
                        problems.append(f"{key}: no preimage for a produced set")
                        continue
                    got = oracle.update(cert.preimage.mask)
                    ok = got == target.mask if mode == "exact" else got & target.mask == target.mask
                    if not ok or cert.target != target:
                        problems.append(f"{key}: res(preimage) does not give the target")
        return problems


# ---------------------------------------------------------------- cli

SET_RE = re.compile(r"\{[^{}]*\}")


def _names(text: str) -> list:
    inner = text.strip()[1:-1].strip()
    if not inner:
        return []
    return ["i" + n[2:] if n.startswith("ι_") else n for n in inner.split(", ")]


def _field(out: str, label: str) -> str:
    for line in out.splitlines():
        if line.startswith(label + ":"):
            return line[len(label) + 1 :].strip()
    raise ValueError(f"no {label!r} line")


class CliBatch(Workload):
    name = "cli-batch"
    OK_CODES = {"reach": (0, 1), "decide": (0, 1)}

    def __init__(self, inputs, root, outdir):
        super().__init__(inputs, root, outdir)
        import rsys.control as control
        import rsys.formats as formats
        import rsys.models as models

        self.control, self.formats = control, formats
        self.corpus = models.load_builtin()
        os.makedirs(outdir, exist_ok=True)
        self.models = {}
        for m in inputs["models"]:
            self._write(m["file"], m["text"])
            self.models[m["file"]] = formats.parse_model(m["text"]).system
        self.networks = {}
        for net in inputs["networks"]:
            self._write(net["file"], net["text"])
            self.networks[net["file"]] = net
        self.calls = {}
        for k, call in enumerate(inputs["calls"]):
            key = f"{k}/{call['cmd']}"
            argv = self._argv(call)
            self.calls[key] = (call, argv)
            if call["cmd"] == "import-bn" and self.networks[call["network"]]["colliding"]:
                self.expected_failures += 1
            self.queries.append((call["cmd"], key, partial(self._invoke, call["cmd"], argv)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tracer = None
        self.trace_dir = os.path.join(outdir, "trace")

    def start_trace(self, tracer) -> None:
        """Start children through launcher.py, which writes their spans."""
        self.tracer = tracer
        os.makedirs(self.trace_dir, exist_ok=True)

    def stop_trace(self) -> None:
        self.tracer = None

    def _write(self, name, text):
        with open(os.path.join(self.outdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def _argv(self, call):
        cmd = call["cmd"]
        if cmd == "validate":
            return ["validate", call["model"]]
        if cmd == "corpus":
            return ["corpus"]
        if cmd == "simulate":
            return ["simulate", "oncogenic", call["contexts"], "--initial", call["initial"],
                    "--format", call["format"]]
        if cmd == "orbit":
            return ["orbit", "oncogenic", "--context", "{" + ", ".join(call["context"]) + "}",
                    "--start", call["start"]]
        if cmd == "reach":
            q = call["query"]
            named = self.corpus.named_states
            doc = {
                "source": list((named[q["source"]] | named[q["source"]].table.set_of(["GF"])).members),
                "target": list(GOALS[q["goal"]]),
                "targets": list(MARKERS),
                "constraint": {"kind": "allowed-set", "I": q["I"]},
            }
            self._write(call["file"], json.dumps(doc))
            return ["reach", "oncogenic", call["file"]]
        if cmd == "decide":
            return ["decide", call["model"], *call["args"]]
        if cmd == "import-bn":
            return ["import-bn", call["network"], "--output", call["output"]]
        if cmd == "graph":
            return ["graph", "oncogenic", "--input-set", "{" + ", ".join(call["I"]) + "}",
                    "--seeds", call["seed"], "--dot", call["dot"], "--node-budget", str(GRAPH_BUDGET)]
        raise ValueError(cmd)

    def _invoke(self, cmd, argv):
        env = self.env
        if self.tracer is None:
            command = [sys.executable, "-m", "rsys.cli", *argv]
        else:
            command = [sys.executable, LAUNCHER, *argv]
            trace_file = os.path.join(self.trace_dir, f"{len(self.tracer.spans)}.json")
            env = dict(env, RSYSBENCH_TRACE_OUT=trace_file, RSYSBENCH_T_SPAWN=repr(perf_counter()))
        proc = subprocess.run(command, cwd=self.outdir, env=env, capture_output=True, timeout=120)
        if self.tracer is not None:
            self.tracer.counts["cli.invocations"] += 1
            self.tracer.counts["cli.stdout_bytes"] += len(proc.stdout)
            self._merge_child(trace_file)
        out = proc.stdout.decode("utf-8")
        if proc.returncode not in self.OK_CODES.get(cmd, (0,)):
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode('utf-8', 'replace').strip()}")
        return proc.returncode, out

    def _merge_child(self, trace_file):
        tracer = self.tracer
        parent = tracer.stack[-1] if tracer.stack else -1
        try:
            with open(trace_file, encoding="utf-8") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            return
        base = len(tracer.spans)
        for name, start, end, p, _ in child["spans"]:
            tracer.add(name, start, end, parent if p < 0 else base + p)
        tracer.counts.update(child["counts"])

    def view(self, kind, answer):
        rc, out = answer
        return [rc, self._parse(kind, out)]

    def digest(self, kind, answer):
        return answer[0], hash(answer[1])

    def _parse(self, cmd, out):
        """Answer fields from a subcommand's stdout."""
        if cmd == "validate":
            return [int(_field(out, "species")), int(_field(out, "reactions")), "valid" in out.splitlines()]
        if cmd == "corpus":
            return sorted(line for line in out.splitlines() if re.match(r"table\d: ", line))
        if cmd == "simulate":
            if out.lstrip().startswith("{"):
                return json.loads(out)["results"]
            if out.startswith("step,"):
                import csv
                import io

                rows = list(csv.reader(io.StringIO(out)))[1:]
                return [_names(r[2]) for r in rows]
            for line in out.splitlines():
                if line.startswith("state "):
                    return [_names(cell) for cell in re.split(r"\s{2,}", line.strip())[1:]]
            raise ValueError("no state row")
        if cmd == "orbit":
            cycle = [_names(SET_RE.search(line).group(0)) for line in out.splitlines() if line.startswith("cycle[")]
            return [int(_field(out, "transient length")), int(_field(out, "period")), cycle]
        if cmd == "reach":
            if out.startswith("no witness"):
                return None
            steps = int(_field(out, "witness").split()[0])
            contexts = [_names(SET_RE.search(line).group(0)) for line in out.splitlines() if re.match(r"C_\d+: ", line)]
            return [steps, contexts]
        if cmd == "decide":
            return [line for line in out.splitlines() if line]
        if cmd == "import-bn":
            return out.strip()
        if cmd == "graph":
            return [int(_field(out, "nodes")), int(_field(out, "edges"))]
        raise ValueError(cmd)

    def check(self, answers, rng):
        problems = []
        for key, (call, argv) in self.calls.items():
            if key not in answers:
                continue
            rc, out = answers[key]
            try:
                got = self._parse(call["cmd"], out)
                want_rc, want = self._expected(call)
            except Exception as exc:  # an unparsable answer is a wrong answer
                problems.append(f"{key}: {type(exc).__name__}: {exc}")
                continue
            if rc != want_rc or got != want:
                problems.append(f"{key}: exit {rc}, answer {got!r}; in-process: exit {want_rc}, {want!r}")
        return problems

    def _expected(self, call):
        """The in-process API's exit code and answer for one call."""
        import rsys.control as control
        import rsys.core as core
        import rsys.dynamics as dynamics
        import rsys.models as models

        cmd = call["cmd"]
        corpus = self.corpus
        system = corpus.model.system
        table = system.species
        if cmd == "validate":
            s = system if call["model"] == "oncogenic" else self.models[call["model"]]
            return 0, [len(s.species), len(s.reactions), not core.validate_system(s)]
        if cmd == "corpus":
            lines = []
            for name in sorted(corpus.traces):
                rep = models.golden_replay(corpus, name)
                lines.append(f"{name}: {'pass' if rep.ok else 'FAIL'} ({len(rep.trace)} steps)")
            return 0, lines
        if cmd == "simulate":
            seq = self.formats.parse_context_sequence(call["contexts"].replace(";", "\n"), table)
            trace = core.run_process(system, seq, initial_result=corpus.named_states[call["initial"]])
            return 0, [list(d.members) for d in trace.results]
        if cmd == "orbit":
            orb = dynamics.orbit(system, corpus.named_states[call["start"]], table.set_of(call["context"]))
            return 0, [len(orb.transient), orb.period, [list(w.members) for w in orb.cycle]]
        if cmd == "reach":
            with open(os.path.join(self.outdir, call["file"]), encoding="utf-8") as fh:
                q = control.query_from_json(json.load(fh), table)
            w = control.find_witness(system, q)
            if w is None:
                return 1, None
            return 0, [w.hit_index, [list(c.members) for c in w.contexts]]
        if cmd == "decide":
            return self._expected_decide(call)
        if cmd == "import-bn":
            net = self.networks[call["network"]]
            bn = self.formats.parse_boolean_network(net["text"])
            want = self.formats.bn_to_reactions(bn)
            with open(os.path.join(self.outdir, call["output"]), encoding="utf-8") as fh:
                written = self.formats.parse_model(fh.read()).system
            return 0, f"wrote {call['output']}" if written == want else "written model differs"
        if cmd == "graph":
            g = dynamics.context_graph(
                system, table.set_of(call["I"]), [corpus.named_states[call["seed"]]],
                node_budget=GRAPH_BUDGET,
            )
            with open(os.path.join(self.outdir, call["dot"]), encoding="utf-8") as fh:
                lines = fh.read().count("\n")
            if lines != len(g.nodes) + len(g.edges) + 2:
                return 0, "dot file line count differs"
            return 0, [len(g.nodes), len(g.edges)]
        raise ValueError(cmd)

    def _expected_decide(self, call):
        control = self.control
        system = self.models[call["model"]]
        fmt = lambda v: "true" if v.decision else "false"  # noqa: E731
        if call["args"] == ["--minimal-n"]:
            report = control.minimal_n(system)
            lines = []
            for n, v in report.verdicts:
                line = f"n={n}: {fmt(v)}"
                if v.counterexample is not None:
                    x, y = v.counterexample
                    line += f"  counterexample X={x!r} Y={y!r}"
                lines.append(line)
            lines.append(f"minimal n: {'none' if report.minimal is None else report.minimal}")
            return (0 if report.minimal is not None else 1), lines
        n = int(call["args"][1].split("=")[1])
        v = control.decide_controllable(system, control.MaxCardinality(n))
        lines = [f"controllable: {fmt(v)}", f"pairs checked: {v.pairs_checked}"]
        if v.counterexample is not None:
            x, y = v.counterexample
            lines.append(f"counterexample: X={x!r} Y={y!r}")
        return (0 if v.decision else 1), lines


WORKLOAD_CLASSES = {cls.name: cls for cls in (Steer, Decide, BnReplay, CliBatch)}
