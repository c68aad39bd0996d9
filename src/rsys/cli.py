"""Command-line front end over models, traces, orbits, and decisions.

Exit codes: 0 success (or decided true), 1 decided false / no witness /
search budget exhausted, 2 invalid input or refused problem size, 64
usage or I/O error. Output is byte-deterministic for fixed inputs,
flags, and seed.

States on the command line are inline sets (``"{GF, iPI3K}"``), file
references (``@path``), or named corpus states (``@S19`` or bare
``S19``) when the bundled model is loaded. Context sequences are inline
text (``"{GF} x19"``, ``;`` separates lines) or a file path.

The command line needs nothing beyond the standard library. Each
subcommand declares one table of `Param` rows, its positionals and
options, and that table drives both parsing and ``--help``. The parser
keeps the rules the command has always had: an option that takes a value
consumes the next token even when it starts with ``-``, ``--opt=value``
works, ``--`` ends the options, options may stand between positionals,
option names are never abbreviated, and when a value-taking option is
given twice the last value wins.

A command executes only the modules it uses. This module imports
``core``, ``errors`` and ``formats``; ``models``, ``dynamics`` and
``control`` are registered in ``sys.modules`` at import but run on first
use, so ``import-bn`` and ``validate FILE`` never run the search code, and
only ``decide`` loads ``_pairscan``.
"""

from __future__ import annotations

import codecs
import importlib.util
import json
import os
import sys
from typing import Optional

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
        echo(text, nl=not text.endswith("\n"))
    else:
        _write_text(output, text)
        echo(f"wrote {output}")


# ---------------------------------------------------------------- parsing


class UsageError(Exception):
    """A command line that does not fit the command's parameter table."""


def echo(text: str, nl: bool = True, err: bool = False) -> None:
    """Write `text` and a newline to stdout (stderr with `err`) and flush,
    so that a closed pipe fails at the write that meets it."""
    stream = sys.stderr if err else sys.stdout
    if nl:
        text += "\n"
    if codecs.lookup(getattr(stream, "encoding", None) or "utf-8").name == "ascii":
        # A stream set up for ASCII (PYTHONIOENCODING=ascii, say) cannot
        # carry names such as `ιx`: write UTF-8 bytes instead.
        stream.buffer.write(text.encode("utf-8", "replace"))
    else:
        stream.write(text)
    stream.flush()


class Param:
    """One row of a subcommand's parameter table.

    A positional is named by its metavar (``MODEL``) and is always
    required. An option is named by its flag (``--max-steps``); its value
    is converted by `type` (``str`` or ``int``) and checked against
    `choices`. A `flag` takes no value and reads True when given. A
    `multiple` option collects every value given, in order."""

    def __init__(
        self,
        name: str,
        dest: Optional[str] = None,
        *,
        type=str,
        choices: Optional[tuple] = None,
        default=None,
        required: bool = False,
        multiple: bool = False,
        flag: bool = False,
        show_default: bool = False,
        help: str = "",
    ) -> None:
        self.name = name
        self.dest = dest or name.lstrip("-").lower().replace("-", "_")
        self.type = type
        self.choices = choices
        self.default = False if flag else default
        self.required = required or not self.is_option
        self.multiple = multiple
        self.flag = flag
        self.show_default = show_default
        self.help = help

    @property
    def is_option(self) -> bool:
        return self.name.startswith("-")

    def convert(self, value):
        if self.type is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(
                    f"Invalid value for '{self.name}': "
                    f"{value!r} is not a valid integer."
                ) from None
        if self.choices is not None and value not in self.choices:
            listed = ", ".join(map(repr, self.choices))
            raise UsageError(
                f"Invalid value for '{self.name}': {value!r} is not one of {listed}."
            )
        return value

    def help_row(self) -> tuple[str, str]:
        term = self.name
        if not self.flag:
            metavar = "INTEGER" if self.type is int else "TEXT"
            if self.choices is not None:
                metavar = "[" + "|".join(self.choices) + "]"
            term += " " + metavar
        tags = [f"default: {self.default}"] if self.show_default else []
        if self.required:
            tags.append("required")
        text = self.help
        if tags:
            text += ("  " if text else "") + "[" + "; ".join(tags) + "]"
        return term, text


HELP = Param("--help", flag=True, help="Show this message and exit.")
VERSION = Param("--version", flag=True, help="Show the version and exit.")
HELP_WIDTH = 78


def _help_page(usage: str, text: str, sections) -> str:
    """Usage line, wrapped description, then (title, rows) sections of
    two-column rows, laid out for an 80-column terminal."""
    import textwrap

    lines = [f"Usage: rsys {usage}", ""]
    lines += textwrap.wrap(
        text, HELP_WIDTH, initial_indent="  ", subsequent_indent="  "
    )
    for title, rows in sections:
        lines += ["", f"{title}:"]
        column = min(max(len(term) for term, _ in rows), 30) + 2
        indent = " " * (column + 2)
        for term, desc in rows:
            head = f"  {term:<{column}}"
            if len(term) > column - 2:
                lines.append(f"  {term}")
                head = indent
            for line in textwrap.wrap(desc, max(HELP_WIDTH - column - 2, 10)) or [""]:
                lines.append(head + line)
                head = indent
    return "\n".join(lines)


def _did_you_mean(message: str, name: str, names) -> str:
    from difflib import get_close_matches

    close = sorted(get_close_matches(name, names))
    if len(close) > 1:
        return f"{message} (Did you mean one of: {', '.join(map(repr, close))}?)"
    return f"{message} Did you mean {close[0]!r}?" if close else message


def _scan(args: list, options: dict, interspersed: bool):
    """({option given: its value, or its list of values when `multiple`},
    the positionals). Options keep the order they are first given in.
    ``--`` ends the options, and so does the first positional unless
    `interspersed`."""
    given: dict = {}
    positionals: list = []
    tokens = iter(args)
    for arg in tokens:
        if arg == "--":
            positionals.extend(tokens)
            break
        if arg[:1] != "-" or arg == "-":
            positionals.append(arg)
            if not interspersed:
                positionals.extend(tokens)
                break
            continue
        name, eq, value = arg.partition("=")
        param = options.get(name)
        if param is None:
            if arg[1] != "-":
                # '-abc' reads as the short option '-a', and there are none.
                raise UsageError(f"No such option {arg[:2]!r}.")
            raise UsageError(_did_you_mean(f"No such option {name!r}.", name, options))
        if param.flag:
            if eq:
                raise UsageError(f"Option {name!r} does not take a value.")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"Option {name!r} requires an argument.")
        if param.multiple:
            given.setdefault(param, []).append(value)
        else:
            given[param] = value
    return given, positionals


class Command:
    """A subcommand: its parameter table, its help (the callback's
    docstring) and the callback, read at each run so it can be replaced."""

    def __init__(self, name: str, callback, params) -> None:
        self.name = name
        self.callback = callback
        self.help = " ".join((callback.__doc__ or "").split())
        self.arguments = [p for p in params if not p.is_option]
        self.options = {p.name: p for p in params if p.is_option}
        self.options[HELP.name] = HELP

    def parse(self, args: list) -> Optional[dict]:
        """The callback's keyword arguments, or None when ``--help`` asks
        for help. Parameters are checked in command-line order: the
        options given, then the positionals, then the options not given."""
        given, positionals = _scan(args, self.options, interspersed=True)
        if HELP in given:
            return None
        given.update(zip(self.arguments, positionals))
        kwargs = {}
        for param in [*given, *self.arguments, *self.options.values()]:
            if param.dest in kwargs or param is HELP:
                continue
            if param in given:
                raw = given[param]
                kwargs[param.dest] = (
                    tuple(map(param.convert, raw))
                    if param.multiple
                    else param.convert(raw)
                )
            elif param.required:
                kind = "option" if param.is_option else "argument"
                raise UsageError(f"Missing {kind} '{param.name}'.")
            else:
                kwargs[param.dest] = param.default
        extra = positionals[len(self.arguments):]
        if extra:
            plural = "s" if len(extra) > 1 else ""
            raise UsageError(
                f"Got unexpected extra argument{plural} ({' '.join(extra)})"
            )
        return kwargs

    def help_page(self) -> str:
        usage = " ".join([self.name, "[OPTIONS]", *(p.name for p in self.arguments)])
        rows = [p.help_row() for p in self.options.values()]
        return _help_page(usage, self.help, [("Options", rows)])


class Group:
    """The ``rsys`` command: its subcommands by name in `commands`."""

    def __init__(self, help: str) -> None:
        self.help = help
        self.commands: dict[str, Command] = {}
        self.options = {VERSION.name: VERSION, HELP.name: HELP}

    def command(self, name: str, *params: Param):
        """Register the decorated function, which returns the exit code, as
        subcommand `name` taking `params`."""

        def register(callback):
            self.commands[name] = Command(name, callback, params)
            return callback

        return register

    def help_page(self) -> str:
        import textwrap

        width = HELP_WIDTH - 6 - max(map(len, self.commands))
        commands = [
            (name, textwrap.shorten(self.commands[name].help, width, placeholder="..."))
            for name in sorted(self.commands)
        ]
        options = [p.help_row() for p in self.options.values()]
        return _help_page(
            "[OPTIONS] COMMAND [ARGS]...",
            self.help,
            [("Options", options), ("Commands", commands)],
        )

    def run(self, args: list) -> int:
        if not args:
            echo(self.help_page(), err=True)
            return EXIT_USAGE
        given, rest = _scan(args, self.options, interspersed=False)
        if given:
            # Both top-level options answer at once; the first one given wins.
            first = next(iter(given))
            echo(self.help_page() if first is HELP else f"rsys, version {__version__}")
            return EXIT_OK
        if not rest:
            raise UsageError("Missing command.")
        name, *args = rest
        command = self.commands.get(name)
        if command is None:
            message = f"No such command {name!r}."
            raise UsageError(_did_you_mean(message, name, self.commands))
        kwargs = command.parse(args)
        if kwargs is None:
            echo(command.help_page())
            return EXIT_OK
        return command.callback(**kwargs)


cli = Group(
    "Reaction-system tools: simulate, analyse orbits, search for steering "
    "sequences, decide controllability, import Boolean networks."
)


# ---------------------------------------------------------------- commands


@cli.command("validate", Param("MODEL"))
def validate(model: str) -> int:
    """Parse and check MODEL; exit 0 iff it is valid."""
    doc, _ = _load_model(model)
    echo(f"model: {doc.name or '(unnamed)'}")
    echo(f"species: {len(doc.system.species)}")
    echo(f"reactions: {len(doc.system.reactions)}")
    problems = validate_system(doc.system)
    if problems:
        for problem in problems:
            echo(f"problem: {problem}", err=True)
        return EXIT_INVALID
    echo("valid")
    return EXIT_OK


@cli.command(
    "simulate",
    Param("MODEL"),
    Param("CONTEXTS"),
    Param("--initial",
          help="Initial result set D_0 (mode given); omit it for D_0 = {}."),
    Param("--markers", help="Status markers 'Pro,uPro'; '' disables."),
    Param("--format", "fmt", choices=("table", "csv", "json"), default="table",
          show_default=True),
    Param("--output", help="Write to a file instead of stdout."),
)
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


@cli.command(
    "orbit",
    Param("MODEL"),
    Param("--context", "context_spec", required=True, help="Constant context set."),
    Param("--start", "start_spec", required=True, help="Initial full state."),
    Param("--max-steps", type=int, default=MAX_STEPS_DEFAULT, show_default=True),
    Param("--markers", help="Marker species 'Pro,uPro'; '' disables."),
)
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
    echo(f"start: {start!r}")
    echo(f"context: {context!r}")
    echo(f"transient length: {len(orb.transient)}")
    echo(f"period: {orb.period}")
    marker_names = _marker_names(markers, table, corpus)
    if marker_names:
        counts = dynamics.attractor_report(orb, marker_names)
        for name in marker_names:
            echo(f"cycle states with {name}: {counts[name]}")
        neither = sum(
            1 for w in orb.cycle if all(m not in w for m in marker_names)
        )
        echo(f"cycle states with no marker: {neither}")
    for k, state in enumerate(orb.cycle):
        echo(f"cycle[{k}]: {state!r}")
    return EXIT_OK


@cli.command(
    "reach",
    Param("MODEL"),
    Param("QUERY", "query_file"),
    Param("--node-budget", type=int, help="Visited-state cap."),
    Param("--format", "fmt", choices=("text", "json"), default="text",
          show_default=True),
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
            echo(f"no witness within depth {query.depth_limit}")
        else:
            echo("no witness")
        return EXIT_FALSE
    if query.initial_mode == "given" and not witness.contexts:
        echo("warning: the source already satisfies the end condition", err=True)
    if fmt == "json":
        echo(json.dumps(witness.to_json(), indent=2))
        return EXIT_OK
    echo(
        f"witness: {witness.hit_index} steps, {witness.visited} states visited"
    )
    first = 1 if query.initial_mode == "given" else 0
    for k, context in enumerate(witness.contexts, start=first):
        echo(f"C_{k}: {context!r}")
    echo(export_trace(witness.trace, "table"), nl=False)
    return EXIT_OK


@cli.command(
    "decide",
    Param("MODEL"),
    Param("--constraint", "constraint_spec",
          help="'max-cardinality=N' or 'allowed-set={A, B}'."),
    Param("--targets", "targets_spec", help="Target set T for projected decisions."),
    Param("--minimal-n", "minimal_n_flag", flag=True,
          help="Scan n = 0.. for the least sufficient cardinality bound."),
    Param("--minimal-I", "minimal_i_spec",
          help="Greedily shrink this allowed set to an inclusion-minimal one."),
    Param("--sample", type=int,
          help="Check only K sampled pairs instead of all of them."),
    Param("--seed", type=int, help="Seed of the --sample draw (0 when omitted)."),
    Param("--species-limit", type=int, help="Exhaustive-scan ceiling on |S| (or |T|)."),
    Param("--node-budget", type=int,
          help="Cap on result values expanded per decision; with --sample, "
          "on states per sampled search."),
    Param("--proviso", choices=("projection", "superset"), default="projection",
          show_default=True, help="Which end sets count as admissible in target mode."),
    Param("--force", flag=True, help="Bypass the size ceilings."),
    Param("--check-ts-equivalence", flag=True,
          help="Compare the plain verdict with target mode at T = S."),
)
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
            raise UsageError("--minimal-n conflicts with --minimal-I")
        scan = "--minimal-I"
    if scan is not None:
        for flag, given in (
            ("--constraint", constraint_spec is not None),
            ("--check-ts-equivalence", check_ts_equivalence),
            ("--proviso superset", proviso == "superset"),
        ):
            if given:
                raise UsageError(f"{flag} conflicts with {scan}")
    elif constraint_spec is None:
        raise UsageError("--constraint is required without a minimal scan")
    if seed is not None and sample is None:
        raise UsageError("--seed needs --sample")
    if check_ts_equivalence and targets_spec is not None:
        raise UsageError("--check-ts-equivalence conflicts with --targets")
    if proviso == "superset" and targets_spec is None and not check_ts_equivalence:
        raise UsageError(
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
        echo(f"controllable: {'true' if verdict.decision else 'false'}")
        if verdict.decision and isinstance(scope, control.Sampled):
            echo(
                f"no counterexample found among {verdict.pairs_checked} pairs"
            )
        else:
            echo(f"pairs checked: {verdict.pairs_checked}")
        if verdict.counterexample is not None:
            x, y = verdict.counterexample
            echo(f"counterexample: X={x!r} Y={y!r}")

    if minimal_n_flag:
        report = control.minimal_n(
            system, targets=targets, frontier_limit=frontier_limit, **common
        )
        for n, verdict in report.verdicts:
            line = f"n={n}: {'true' if verdict.decision else 'false'}"
            if verdict.counterexample is not None:
                x, y = verdict.counterexample
                line += f"  counterexample X={x!r} Y={y!r}"
            echo(line)
        minimal = "none" if report.minimal is None else str(report.minimal)
        echo(f"minimal n: {minimal}")
        return EXIT_OK if report.minimal is not None else EXIT_FALSE
    if minimal_i_spec is not None:
        start = _parse_one_set(minimal_i_spec, table, "allowed set")
        report = control.minimal_I(
            system, start, targets=targets, frontier_limit=frontier_limit, **common
        )
        if report.minimal is None:
            echo(f"not controllable under the start set {start!r}")
            describe(report.start_verdict)
            return EXIT_FALSE
        for name, dropped, _verdict in report.steps:
            echo(f"drop {name}: {'dropped' if dropped else 'kept'}")
        echo(f"minimal I: {report.minimal!r}")
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
        echo(f"plain: {'true' if plain.decision else 'false'}")
        echo(f"target T=S: {'true' if projected.decision else 'false'}")
        same = (
            plain.decision == projected.decision
            and plain.counterexample == projected.counterexample
        )
        echo("identical verdicts" if same else "VERDICTS DIFFER")
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


@cli.command(
    "import-bn",
    Param("BN_FILE"),
    Param("--no-blocking", flag=True,
          help="Translate without per-variable blocking species."),
    Param("--output", help="Write the model file here."),
)
def import_bn(bn_file: str, no_blocking: bool, output: Optional[str]) -> int:
    """Translate a Boolean network file into a reaction-system model."""
    bn = parse_boolean_network(_read_text(bn_file))
    system = bn_to_reactions(bn, blocking=not no_blocking)
    _emit(serialize_model(ModelDocument(system, bn.metadata)), output)
    return EXIT_OK


@cli.command(
    "graph",
    Param("MODEL"),
    Param("--input-set", "input_spec", required=True,
          help="Contexts range over subsets of this set."),
    Param("--seeds", "seed_specs", multiple=True, required=True,
          help="Seed state (repeatable)."),
    Param("--dot", "dot_path", help="Write DOT here."),
    Param("--node-budget", type=int, default=NODE_BUDGET_DEFAULT, show_default=True),
    Param("--input-limit", type=int, default=INPUT_SET_LIMIT, show_default=True),
)
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
        echo(g.to_dot(), nl=False)
    else:
        _write_text(dot_path, g.to_dot())
        echo(f"wrote {dot_path}")
        echo(f"nodes: {len(g.nodes)}")
        echo(f"edges: {len(g.edges)}")
        if g.truncated:
            echo("truncated: true")
    return EXIT_OK


@cli.command(
    "corpus",
    Param("--dump", "dump_dir",
          help="Write the bundled data files into this directory."),
)
def corpus(dump_dir: Optional[str]) -> int:
    """Show (or dump) the bundled model and its reference traces."""
    bundle = models.load_builtin()
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
        for filename in models.DATA_FILES:
            path = os.path.join(dump_dir, filename)
            _write_text(path, models.data_text(filename))
            echo(f"wrote {path}")
        return EXIT_OK
    echo(f"model: {bundle.model.name}")
    echo(f"species: {len(bundle.model.system.species)}")
    echo(f"reactions: {len(bundle.model.system.reactions)}")
    echo(f"named states: {len(bundle.named_states)}")
    all_ok = True
    for name in sorted(bundle.traces):
        report = models.golden_replay(bundle, name)
        status = "pass" if report.ok else "FAIL"
        echo(f"{name}: {status} ({len(report.trace)} steps)")
        all_ok = all_ok and report.ok
    return EXIT_OK if all_ok else EXIT_FALSE


def main(argv: Optional[list] = None) -> int:
    """Entry point mapping library errors onto the documented exit codes."""
    try:
        return cli.run(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        echo(f"error: {exc}", err=True)
        return EXIT_USAGE
    except (KeyboardInterrupt, EOFError):
        echo("\naborted", err=True)
        return EXIT_USAGE
    except BudgetError as exc:
        echo(f"error: {exc}", err=True)
        return EXIT_FALSE
    except RsysError as exc:
        echo(f"error: {exc}", err=True)
        return EXIT_INVALID
    except json.JSONDecodeError as exc:
        echo(f"error: invalid JSON: {exc}", err=True)
        return EXIT_INVALID
    except BrokenPipeError:
        # The reader of stdout left early (`rsys corpus | head -1`): exit 1
        # quietly, with stdout on /dev/null so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FALSE
    except OSError as exc:
        echo(f"error: {exc}", err=True)
        return EXIT_USAGE

if __name__ == "__main__":
    sys.exit(main())
