"""In-memory spans and counters around the public entry points of rsys.

`Tracer.install` replaces each traced function with a wrapper in every
rsys module that holds a reference to it (modules import functions by
name, so patching only the defining module would miss calls made through
those names). A span is [name, start, end, parent, query id]; the layer of
a span is the part of its name before the first dot. Per-evaluation
functions (`Engine.res`, the kernel's `res_mask`) only bump counters: the
pure kernel's searches look `res_mask` up as a module global, so the one
patched attribute counts every evaluation.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "formats", "models", "core", "dynamics", "control", "engine", "kernel")

# (module, function, span name); functions missing from a module are skipped.
SPANNED = (
    ("rsys.core", "run_process", "core.run_process"),
    ("rsys.core", "validate_system", "core.validate_system"),
    ("rsys.formats", "parse_model", "formats.parse_model"),
    ("rsys.formats", "serialize_model", "formats.serialize_model"),
    ("rsys.formats", "parse_boolean_network", "formats.parse_bn"),
    ("rsys.formats", "bn_to_reactions", "formats.bn_to_reactions"),
    ("rsys.formats", "parse_context_sequence", "formats.parse_context_sequence"),
    ("rsys.formats", "export_trace", "formats.export_trace"),
    ("rsys.models", "load_builtin", "models.load_builtin"),
    ("rsys.models", "golden_replay", "models.golden_replay"),
    ("rsys.dynamics", "orbit", "dynamics.orbit"),
    ("rsys.dynamics", "attractor_report", "dynamics.attractor_report"),
    ("rsys.dynamics", "context_graph", "dynamics.context_graph"),
    ("rsys.dynamics", "image_membership", "dynamics.image_membership"),
    ("rsys.dynamics", "superset_image_membership", "dynamics.superset_image_membership"),
    ("rsys.control", "find_witness", "control.find_witness"),
    ("rsys.control", "verify_witness", "control.verify_witness"),
    ("rsys.control", "decide_controllable", "control.decide_controllable"),
    ("rsys.control", "decide_target_controllable", "control.decide_target_controllable"),
    ("rsys.control", "minimal_n", "control.minimal_n"),
    ("rsys.control", "minimal_I", "control.minimal_I"),
    ("rsys.control", "query_from_json", "control.query_from_json"),
    ("rsys.cli", "main", "cli.main"),
)

REFUSALS = ("RefusalError", "BudgetError")


def _after(name: str):
    """Counter updates taken from a traced call's result."""
    if name == "kernel.bfs_witness":
        return lambda c, out: c.update({"kernel.witness_states": out[4]})
    if name == "kernel.bfs_closure":
        return lambda c, out: c.update({"kernel.closure_states": len(out[0])})
    if name == "engine.image":
        return lambda c, out: c.update({"engine.image_size": len(out)})
    if name == "core.run_process":
        return lambda c, out: c.update({"core.steps": len(out)})
    if name == "dynamics.orbit":
        return lambda c, out: c.update(
            {"dynamics.orbit_steps": len(out.transient) + len(out.cycle)}
        )
    if name == "dynamics.context_graph":
        return lambda c, out: c.update(
            {"dynamics.graph_nodes": len(out.nodes), "dynamics.graph_edges": len(out.edges)}
        )
    if name in ("control.decide_controllable", "control.decide_target_controllable"):
        return lambda c, out: c.update({"control.pairs_checked": out.pairs_checked})
    if name == "control.minimal_n":
        return lambda c, out: c.update({"control.minimal_probes": len(out.verdicts)})
    if name == "control.minimal_I":
        return lambda c, out: c.update({"control.minimal_probes": 1 + len(out.steps)})
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list = []
        self.counts: Counter = Counter()
        self.qid = -1
        self._undo: list = []

    # -- recording -----------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.qid])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = perf_counter()
        self.stack.pop()

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        self.spans.append([name, start, end, parent, self.qid])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        layer = name.split(".", 1)[0]
        after = _after(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, tracer.qid])
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                _count_error(counts, layer, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                span = spans[sid]
                span[1] = t0
                span[2] = t1
            counts[name + ".calls"] += 1
            if after is not None:
                after(counts, out)
            return out

        return traced

    # -- installation --------------------------------------------------

    def _replace(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "rsys" or modname.startswith("rsys.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def _patch_attr(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import rsys._engine as engine
        import rsys.cli  # noqa: F401  (loads every module that holds references)
        import rsys.dynamics as dynamics

        for modname, fname, span in SPANNED:
            fn = getattr(sys.modules[modname], fname, None)
            if fn is not None:
                self._replace(fn, self.wrap(span, fn))
        self._patch_attr(
            dynamics.ContextGraph,
            "to_dot",
            self.wrap("dynamics.to_dot", dynamics.ContextGraph.to_dot),
        )
        self._patch_attr(
            engine.Engine, "__init__", self.wrap("engine.build", engine.Engine.__init__)
        )
        self._patch_attr(
            engine.Engine, "image", self.wrap("engine.image", engine.Engine.image)
        )
        self._patch_attr(engine.Engine, "res", self._count_engine_res(engine.Engine.res))
        kernels = [engine._kernel_py]
        if getattr(engine, "_kernel_c", None) is not None:
            kernels.append(engine._kernel_c)
        for kernel in kernels:
            for fname in ("bfs_witness", "bfs_closure"):
                fn = getattr(kernel, fname)
                self._patch_attr(kernel, fname, self.wrap("kernel." + fname, fn))
            self._patch_attr(kernel, "res_mask", self._count_res_mask(kernel.res_mask))
        for name, command in rsys.cli.cli.commands.items():
            span = "cli." + name.replace("-", "_")
            self._patch_attr(command, "callback", self.wrap(span, command.callback))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _count_res_mask(self, fn):
        counts = self.counts

        def res_mask(*args):
            counts["kernel.res_evals"] += 1
            return fn(*args)

        return res_mask

    def _count_engine_res(self, fn):
        counts = self.counts

        def res(engine, state):
            counts["engine.res_calls"] += 1
            before = counts["kernel.res_evals"]
            out = fn(engine, state)
            if counts["kernel.res_evals"] != before:
                counts["engine.res_misses"] += 1
            return out

        return res


def _count_error(counts: Counter, layer: str, exc: BaseException) -> None:
    """Count an exception once per layer it leaves."""
    seen = exc.__dict__.setdefault("_rsysbench_layers", set())
    if layer in seen:
        return
    seen.add(layer)
    counts[layer + ".errors"] += 1
    if type(exc).__name__ in REFUSALS:
        counts[layer + ".refusals"] += 1


# -- analysis ------------------------------------------------------------


def self_times(spans: list) -> list:
    """Per span: its duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list) -> dict:
    """Totals per span name and self time per layer, in seconds."""
    selfs = self_times(spans)
    total: Counter = Counter()
    layer_self: Counter = Counter()
    roots = 0.0
    for (name, start, end, parent, _), own in zip(spans, selfs):
        total[name] += end - start
        layer_self[name.split(".", 1)[0]] += own
        if parent < 0:
            roots += end - start
    return {"total": total, "layer_self": layer_self, "roots": roots}
