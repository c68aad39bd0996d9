"""Command-line front end over models, traces, orbits, and decisions.

Exit codes: 0 success (or decided true), 1 decided false / no witness /
search budget exhausted, 2 invalid input or refused problem size, 64
usage or I/O error. Output is byte-deterministic for fixed inputs,
flags, and seed.

States on the command line are inline sets (``"{GF, iPI3K}"``), file
references (``@path``), or named corpus states (``@S19`` or bare
``S19``) when the bundled model is loaded. Context sequences are inline
text (``"{GF} x19"``, ``;`` separates lines) or a file path.

A command executes only the modules it uses. This module imports
``core``, ``errors`` and ``formats``; ``models``, ``dynamics`` and
``control`` are registered in ``sys.modules`` at import but run on first
use, so ``import-bn`` and ``validate FILE`` never run the search code, and
only ``decide`` loads ``_pairscan``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import sys
from typing import Optional

import click

from . import __version__
from .core import (
    INPUT_SET_LIMIT,
    MAX_STEPS_DEFAULT,
    NODE_BUDGET_DEFAULT,
    SpeciesSet,
    SpeciesTable,
    run_process,
    validate_system,
)
from .errors import BudgetError, RsysError
from .formats import (
    ModelDocument,
    bn_to_reactions,
    export_trace,
    parse_boolean_network,
    parse_context_sequence,
    parse_model,
    serialize_model,
)


def _lazy_module(name: str):
    """Register `rsys.<name>` in sys.modules without executing it; it runs
    on its first attribute access. Unlike a function-local import, this
    leaves every module the CLI uses in sys.modules once this one is
    imported."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


control = _lazy_module("control")
dynamics = _lazy_module("dynamics")
models = _lazy_module("models")

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_USAGE = 64

BUILTIN_NAME = "oncogenic"


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise RsysError(f"{path} is not UTF-8 text") from None


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_model(token: str) -> tuple[ModelDocument, Optional[models.GoldenCorpus]]:
    """Resolve a model argument: the bundled corpus name or a file path."""
    if token == BUILTIN_NAME:
        corpus = models.load_builtin()
        return corpus.model, corpus
    return parse_model(_read_text(token)), None


def _parse_one_set(text: str, table: SpeciesTable, what: str) -> SpeciesSet:
    seq = parse_context_sequence(text, table)
    if len(seq) != 1:
        raise RsysError(f"{what} must be a single set, got {len(seq)}")
    return seq[0]


def _parse_state(
    token: str, table: SpeciesTable, corpus: Optional[models.GoldenCorpus], what: str
) -> SpeciesSet:
    """Resolve a state token: inline set, @file, or named corpus state."""
    token = token.strip()
    if token.startswith("{"):
        return _parse_one_set(token, table, what)
    name = token[1:] if token.startswith("@") else token
    if corpus is not None and name in corpus.named_states:
        return corpus.named_states[name]
    if token.startswith("@") and os.path.exists(name):
        return _parse_one_set(_read_text(name), table, what)
    raise RsysError(
        f"cannot resolve {what} {token!r}: expected an inline set "
        f"'{{A, B}}', an @file reference, or a named corpus state"
    )


def _parse_contexts(token: str, table: SpeciesTable):
    if os.path.exists(token):
        text = _read_text(token)
    else:
        text = token.replace(";", "\n")
    return parse_context_sequence(text, table)


def _marker_names(
    spec: Optional[str], table: SpeciesTable, corpus: Optional[models.GoldenCorpus]
) -> list[str]:
    if spec is None:
        if corpus is None:
            return []
        spec = f"{models.PROLIFERATION_MARKER},{models.UNCONTROLLED_MARKER}"
    names = [n.strip() for n in spec.split(",") if n.strip()]
    for n in names:
        table.index(n)
    return names


def _marker_sets(
    spec: Optional[str], table: SpeciesTable, corpus: Optional[models.GoldenCorpus]
) -> Optional[tuple[SpeciesSet, SpeciesSet]]:
    names = _marker_names(spec, table, corpus)
    if not names:
        return None
    pro = table.set_of(names[:1])
    unc = table.set_of(names[1:2])
    return (pro, unc)


def _parse_constraint(spec: str, table: SpeciesTable) -> control.ContextConstraint:
    """Parse ``max-cardinality=N`` or ``allowed-set={A, B}``."""
    kind, sep, value = spec.partition("=")
    kind = kind.strip().lower().replace("_", "-")
    if not sep:
        raise RsysError(
            f"bad constraint {spec!r}: expected 'max-cardinality=N' "
            f"or 'allowed-set={{A, B}}'"
        )
    if kind in ("max-cardinality", "max", "n"):
        try:
            n = int(value)
        except ValueError:
            raise RsysError(f"bad constraint cardinality {value!r}") from None
        constraint: control.ContextConstraint = control.MaxCardinality(n)
    elif kind in ("allowed-set", "allowed", "i"):
        constraint = control.AllowedSet(_parse_one_set(value, table, "allowed set"))
    else:
        raise RsysError(f"unknown constraint kind {kind!r}")
    constraint.bind_check(table)
    return constraint


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        click.echo(text, nl=not text.endswith("\n"))
    else:
        _write_text(output, text)
        click.echo(f"wrote {output}")


@click.group()
@click.version_option(__version__, prog_name="rsys")
def cli() -> None:
    """Reaction-system tools: simulate, analyse orbits, search for
    steering sequences, decide controllability, import Boolean networks."""


@cli.command()
@click.argument("model")
def validate(model: str) -> int:
    """Parse and check MODEL; exit 0 iff it is valid."""
    doc, _ = _load_model(model)
    click.echo(f"model: {doc.name or '(unnamed)'}")
    click.echo(f"species: {len(doc.system.species)}")
    click.echo(f"reactions: {len(doc.system.reactions)}")
    problems = validate_system(doc.system)
    if problems:
        for problem in problems:
            click.echo(f"problem: {problem}", err=True)
        return EXIT_INVALID
    click.echo("valid")
    return EXIT_OK


@cli.command()
@click.argument("model")
@click.argument("contexts")
@click.option("--initial", default=None,
              help="Initial result set D_0 (mode given); omit it for D_0 = {}.")
@click.option("--markers", default=None, help="Status markers 'Pro,uPro'; '' disables.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "csv", "json"]),
    default="table",
    show_default=True,
)
@click.option("--output", default=None, help="Write to a file instead of stdout.")
def simulate(
    model: str,
    contexts: str,
    initial: Optional[str],
    markers: Optional[str],
    fmt: str,
    output: Optional[str],
) -> int:
    """Replay CONTEXTS through MODEL and print the trace."""
    doc, corpus = _load_model(model)
    table = doc.system.species
    seq = _parse_contexts(contexts, table)
    initial_set = None
    if initial is not None:
        initial_set = _parse_state(initial, table, corpus, "initial state")
    trace = run_process(doc.system, seq, initial_result=initial_set)
    text = export_trace(trace, fmt, _marker_sets(markers, table, corpus))
    _emit(text, output)
    return EXIT_OK


@cli.command()
@click.argument("model")
@click.option("--context", "context_spec", required=True, help="Constant context set.")
@click.option("--start", "start_spec", required=True, help="Initial full state.")
@click.option("--max-steps", type=int, default=MAX_STEPS_DEFAULT, show_default=True)
@click.option("--markers", default=None, help="Marker species 'Pro,uPro'; '' disables.")
def orbit(
    model: str,
    context_spec: str,
    start_spec: str,
    max_steps: int,
    markers: Optional[str],
) -> int:
    """Iterate W -> context | res(W) until it cycles; report the cycle."""
    doc, corpus = _load_model(model)
    table = doc.system.species
    context = _parse_state(context_spec, table, corpus, "context")
    start = _parse_state(start_spec, table, corpus, "start state")
    orb = dynamics.orbit(doc.system, start, context, max_steps=max_steps)
    click.echo(f"start: {start!r}")
    click.echo(f"context: {context!r}")
    click.echo(f"transient length: {len(orb.transient)}")
    click.echo(f"period: {orb.period}")
    marker_names = _marker_names(markers, table, corpus)
    if marker_names:
        counts = dynamics.attractor_report(orb, marker_names)
        for name in marker_names:
            click.echo(f"cycle states with {name}: {counts[name]}")
        neither = sum(
            1 for w in orb.cycle if all(m not in w for m in marker_names)
        )
        click.echo(f"cycle states with no marker: {neither}")
    for k, state in enumerate(orb.cycle):
        click.echo(f"cycle[{k}]: {state!r}")
    return EXIT_OK


@cli.command()
@click.argument("model")
@click.argument("query_file", metavar="QUERY")
@click.option("--node-budget", type=int, default=None, help="Visited-state cap.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json"]),
    default="text",
    show_default=True,
)
def reach(model: str, query_file: str, node_budget: Optional[int], fmt: str) -> int:
    """Search for a steering sequence answering the QUERY file (JSON)."""
    doc, corpus = _load_model(model)
    table = doc.system.species
    try:
        data = json.loads(_read_text(query_file))
    except RecursionError:
        raise RsysError(f"invalid JSON: {query_file} nests too deeply") from None
    query = control.query_from_json(data, table)
    witness = control.find_witness(doc.system, query, node_budget=node_budget)
    if witness is None:
        if query.depth_limit is not None:
            click.echo(f"no witness within depth {query.depth_limit}")
        else:
            click.echo("no witness")
        return EXIT_FALSE
    if query.initial_mode == "given" and not witness.contexts:
        click.echo("warning: the source already satisfies the end condition", err=True)
    if fmt == "json":
        click.echo(json.dumps(witness.to_json(), indent=2))
        return EXIT_OK
    click.echo(
        f"witness: {witness.hit_index} steps, {witness.visited} states visited"
    )
    first = 1 if query.initial_mode == "given" else 0
    for k, context in enumerate(witness.contexts, start=first):
        click.echo(f"C_{k}: {context!r}")
    click.echo(export_trace(witness.trace, "table"), nl=False)
    return EXIT_OK


@cli.command()
@click.argument("model")
@click.option("--constraint", "constraint_spec", default=None,
              help="'max-cardinality=N' or 'allowed-set={A, B}'.")
@click.option("--targets", "targets_spec", default=None,
              help="Target set T for projected decisions.")
@click.option("--minimal-n", "minimal_n_flag", is_flag=True,
              help="Scan n = 0.. for the least sufficient cardinality bound.")
@click.option("--minimal-I", "minimal_i_spec", default=None,
              help="Greedily shrink this allowed set to an inclusion-minimal one.")
@click.option("--sample", type=int, default=None,
              help="Check only K sampled pairs instead of all of them.")
@click.option("--seed", type=int, default=None,
              help="Seed of the --sample draw (0 when omitted).")
@click.option("--species-limit", type=int, default=None,
              help="Exhaustive-scan ceiling on |S| (or |T|).")
@click.option("--node-budget", type=int, default=None, help="Per-search state cap.")
@click.option(
    "--proviso",
    type=click.Choice(["projection", "superset"]),
    default="projection",
    show_default=True,
    help="Which end sets count as admissible in target mode.",
)
@click.option("--force", is_flag=True, help="Bypass the size ceilings.")
@click.option("--check-ts-equivalence", is_flag=True,
              help="Compare the plain verdict with target mode at T = S.")
def decide(
    model: str,
    constraint_spec: Optional[str],
    targets_spec: Optional[str],
    minimal_n_flag: bool,
    minimal_i_spec: Optional[str],
    sample: Optional[int],
    seed: Optional[int],
    species_limit: Optional[int],
    node_budget: Optional[int],
    proviso: str,
    force: bool,
    check_ts_equivalence: bool,
) -> int:
    """Decide (target) controllability, or scan for minimal constraints."""
    scan = "--minimal-n" if minimal_n_flag else None
    if minimal_i_spec is not None:
        if scan is not None:
            raise click.UsageError("--minimal-n conflicts with --minimal-I")
        scan = "--minimal-I"
    if scan is not None:
        for flag, given in (
            ("--constraint", constraint_spec is not None),
            ("--check-ts-equivalence", check_ts_equivalence),
            ("--proviso superset", proviso == "superset"),
        ):
            if given:
                raise click.UsageError(f"{flag} conflicts with {scan}")
    elif constraint_spec is None:
        raise click.UsageError("--constraint is required without a minimal scan")
    if seed is not None and sample is None:
        raise click.UsageError("--seed needs --sample")
    if check_ts_equivalence and targets_spec is not None:
        raise click.UsageError("--check-ts-equivalence conflicts with --targets")
    if proviso == "superset" and targets_spec is None and not check_ts_equivalence:
        raise click.UsageError(
            "--proviso superset needs --targets or --check-ts-equivalence"
        )
    doc, corpus = _load_model(model)
    system = doc.system
    table = system.species
    scope = (
        control.Sampled(sample, 0 if seed is None else seed)
        if sample is not None
        else control.Exhaustive()
    )
    if species_limit is None:
        species_limit = len(table) if force else control.SPECIES_LIMIT_DEFAULT
    frontier_limit = len(table) if force else control.FRONTIER_LIMIT_DEFAULT
    targets = (
        _parse_state(targets_spec, table, corpus, "target set")
        if targets_spec is not None
        else None
    )
    common = dict(
        scope=scope,
        species_limit=species_limit,
        node_budget=node_budget,
    )

    def describe(verdict) -> None:
        click.echo(f"controllable: {'true' if verdict.decision else 'false'}")
        if verdict.decision and isinstance(scope, control.Sampled):
            click.echo(
                f"no counterexample found among {verdict.pairs_checked} pairs"
            )
        else:
            click.echo(f"pairs checked: {verdict.pairs_checked}")
        if verdict.counterexample is not None:
            x, y = verdict.counterexample
            click.echo(f"counterexample: X={x!r} Y={y!r}")

    if minimal_n_flag:
        report = control.minimal_n(
            system, targets=targets, frontier_limit=frontier_limit, **common
        )
        for n, verdict in report.verdicts:
            line = f"n={n}: {'true' if verdict.decision else 'false'}"
            if verdict.counterexample is not None:
                x, y = verdict.counterexample
                line += f"  counterexample X={x!r} Y={y!r}"
            click.echo(line)
        minimal = "none" if report.minimal is None else str(report.minimal)
        click.echo(f"minimal n: {minimal}")
        return EXIT_OK if report.minimal is not None else EXIT_FALSE
    if minimal_i_spec is not None:
        start = _parse_one_set(minimal_i_spec, table, "allowed set")
        report = control.minimal_I(
            system, start, targets=targets, frontier_limit=frontier_limit, **common
        )
        if report.minimal is None:
            click.echo(f"not controllable under the start set {start!r}")
            describe(report.start_verdict)
            return EXIT_FALSE
        for name, dropped, _verdict in report.steps:
            click.echo(f"drop {name}: {'dropped' if dropped else 'kept'}")
        click.echo(f"minimal I: {report.minimal!r}")
        return EXIT_OK
    constraint = _parse_constraint(constraint_spec, table)
    if check_ts_equivalence:
        plain = control.decide_controllable(system, constraint, **common)
        projected = control.decide_target_controllable(
            system,
            table.full_set,
            constraint,
            proviso=proviso,
            frontier_limit=frontier_limit,
            **common,
        )
        click.echo(f"plain: {'true' if plain.decision else 'false'}")
        click.echo(f"target T=S: {'true' if projected.decision else 'false'}")
        same = (
            plain.decision == projected.decision
            and plain.counterexample == projected.counterexample
        )
        click.echo("identical verdicts" if same else "VERDICTS DIFFER")
        return EXIT_OK if same else EXIT_FALSE
    if targets is None:
        verdict = control.decide_controllable(system, constraint, **common)
    else:
        verdict = control.decide_target_controllable(
            system,
            targets,
            constraint,
            proviso=proviso,
            frontier_limit=frontier_limit,
            **common,
        )
    describe(verdict)
    return EXIT_OK if verdict.decision else EXIT_FALSE


@cli.command("import-bn")
@click.argument("bn_file", metavar="BN_FILE")
@click.option("--no-blocking", is_flag=True,
              help="Translate without per-variable blocking species.")
@click.option("--output", default=None, help="Write the model file here.")
def import_bn(bn_file: str, no_blocking: bool, output: Optional[str]) -> int:
    """Translate a Boolean network file into a reaction-system model."""
    bn = parse_boolean_network(_read_text(bn_file))
    system = bn_to_reactions(bn, blocking=not no_blocking)
    _emit(serialize_model(ModelDocument(system, bn.metadata)), output)
    return EXIT_OK


@cli.command()
@click.argument("model")
@click.option("--input-set", "input_spec", required=True,
              help="Contexts range over subsets of this set.")
@click.option("--seeds", "seed_specs", multiple=True, required=True,
              help="Seed state (repeatable).")
@click.option("--dot", "dot_path", default=None, help="Write DOT here.")
@click.option("--node-budget", type=int, default=NODE_BUDGET_DEFAULT,
              show_default=True)
@click.option("--input-limit", type=int, default=INPUT_SET_LIMIT, show_default=True)
def graph(
    model: str,
    input_spec: str,
    seed_specs: tuple[str, ...],
    dot_path: Optional[str],
    node_budget: int,
    input_limit: int,
) -> int:
    """Explore the state graph under contexts drawn from an input set."""
    doc, corpus = _load_model(model)
    table = doc.system.species
    input_set = _parse_state(input_spec, table, corpus, "input set")
    seeds = [_parse_state(s, table, corpus, "seed state") for s in seed_specs]
    g = dynamics.context_graph(
        doc.system,
        input_set,
        seeds,
        node_budget=node_budget,
        input_limit=input_limit,
    )
    if dot_path is None:
        click.echo(g.to_dot(), nl=False)
    else:
        _write_text(dot_path, g.to_dot())
        click.echo(f"wrote {dot_path}")
        click.echo(f"nodes: {len(g.nodes)}")
        click.echo(f"edges: {len(g.edges)}")
        if g.truncated:
            click.echo("truncated: true")
    return EXIT_OK


@cli.command()
@click.option("--dump", "dump_dir", default=None,
              help="Write the bundled data files into this directory.")
def corpus(dump_dir: Optional[str]) -> int:
    """Show (or dump) the bundled model and its reference traces."""
    bundle = models.load_builtin()
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        for filename in models.DATA_FILES:
            path = os.path.join(dump_dir, filename)
            _write_text(path, models.data_text(filename))
            click.echo(f"wrote {path}")
        return EXIT_OK
    click.echo(f"model: {bundle.model.name}")
    click.echo(f"species: {len(bundle.model.system.species)}")
    click.echo(f"reactions: {len(bundle.model.system.reactions)}")
    click.echo(f"named states: {len(bundle.named_states)}")
    all_ok = True
    for name in sorted(bundle.traces):
        report = models.golden_replay(bundle, name)
        status = "pass" if report.ok else "FAIL"
        click.echo(f"{name}: {status} ({len(report.trace)} steps)")
        all_ok = all_ok and report.ok
    return EXIT_OK if all_ok else EXIT_FALSE


def main(argv: Optional[list] = None) -> int:
    """Entry point mapping library errors onto the documented exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show()
        return EXIT_USAGE
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_USAGE
    except BudgetError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_FALSE
    except RsysError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        click.echo(f"error: invalid JSON: {exc}", err=True)
        return EXIT_INVALID
    except OSError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    return int(rv) if rv is not None else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
