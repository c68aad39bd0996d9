"""Textual formats: model files, Boolean-network import, contexts, traces.

Model grammar (.rs.txt): optional "@name", "@description", and "@species"
directives, then one reaction per line, "label: {R} | {I} -> {P}" with the
label optional. "#" starts a comment anywhere; names match
[A-Za-z][A-Za-z0-9_]*. Species indices follow the "@species" directive when
present, else first appearance.

Boolean networks (.bn.txt): "var = DNF" lines over "!", "&", "|" with no
parentheses (flat disjunctive normal form), plus an optional "@inputs"
directive naming variables that are read but never updated (they get no
update reaction and no blocking species).

Context files (.ctx.txt): one context per line, "{a, b}" or "{}", with an
optional "xN" repetition suffix; at most CONTEXT_SEQUENCE_LIMIT in all.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Iterable, Mapping, Optional

from .core import (
    NAME_PATTERN,
    ContextSequence,
    ProcessTrace,
    Reaction,
    ReactionSystem,
    SpeciesSet,
    SpeciesTable,
)
from .errors import FormatError, ReactionError, RsysError, SpeciesMismatchError

CONTEXT_SEQUENCE_LIMIT = 1_000_000

STATUS_NONE = "No proliferation"
STATUS_PROLIFERATION = "Proliferation"
STATUS_UNCONTROLLED = "Uncontr. prolif."

_REACTION_RE = re.compile(
    r"^(?:(?P<label>[A-Za-z][A-Za-z0-9_]*)\s*:\s*)?"
    r"\{(?P<r>[^{}|]*)\}\s*\|\s*\{(?P<i>[^{}|]*)\}\s*->\s*\{(?P<p>[^{}|]*)\}$"
)
_CONTEXT_RE = re.compile(r"^\{(?P<names>[^{}]*)\}(?:\s*x\s*(?P<rep>\d+))?$")


class ModelDocument:
    """A reaction system plus file-level metadata (name, description)."""

    __slots__ = ("system", "metadata")

    def __init__(self, system: ReactionSystem, metadata: Optional[Mapping] = None):
        self.system = system
        self.metadata = dict(metadata or {})

    @property
    def name(self) -> Optional[str]:
        return self.metadata.get("name")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ModelDocument)
            and self.system == other.system
            and self.metadata == other.metadata
        )

    def __repr__(self) -> str:
        return f"ModelDocument({self.name!r}, {self.system!r})"


class BooleanNetwork:
    """Synchronous Boolean network with flat-DNF update formulas.

    `variables` are the updated names in definition order; `inputs` are
    declared names that are read but never updated. Each update is a tuple
    of conjunctions (pos, neg) over frozensets of names.
    """

    __slots__ = ("variables", "inputs", "updates", "metadata")

    def __init__(
        self,
        variables: Iterable[str],
        updates: Mapping[str, tuple],
        inputs: Iterable[str] = (),
        metadata: Optional[Mapping] = None,
    ):
        self.variables = tuple(variables)
        self.inputs = tuple(inputs)
        self.updates = {v: tuple(updates[v]) for v in self.variables}
        self.metadata = dict(metadata or {})
        declared = set(self.variables) | set(self.inputs)
        for v, terms in self.updates.items():
            if not terms:
                raise FormatError(f"variable {v!r} has no conjunctions")
            for pos, neg in terms:
                if pos & neg:
                    raise FormatError(
                        f"variable {v!r}: a conjunction uses "
                        f"{sorted(pos & neg)} both plain and negated"
                    )
                undeclared = (pos | neg) - declared
                if undeclared:
                    raise FormatError(
                        f"undeclared variable {sorted(undeclared)[0]!r}"
                    )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BooleanNetwork)
            and self.variables == other.variables
            and self.inputs == other.inputs
            and self.updates == other.updates
        )

    def __repr__(self) -> str:
        return (
            f"BooleanNetwork({len(self.variables)} variables, "
            f"{len(self.inputs)} inputs)"
        )


def _uncomment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


def _split_names(field: str, line_no: int, raw_line: str) -> list[str]:
    field = field.strip()
    if not field:
        return []
    names = []
    for tok in field.split(","):
        name = tok.strip()
        if not NAME_PATTERN.match(name or ""):
            col = raw_line.find(tok.strip() or ",") + 1
            raise FormatError(f"invalid species name {name!r}", line_no, col or None)
        names.append(name)
    return names


def parse_model(text: str) -> ModelDocument:
    """Parse the model grammar into a document; errors carry line numbers."""
    metadata: dict[str, str] = {}
    declared: Optional[list[str]] = None
    order: list[str] = []
    order_seen: set[str] = set()
    rows: list[tuple[Optional[str], list[str], list[str], list[str], int]] = []
    labels: set[str] = set()

    def intern(names: list[str], line_no: int, raw: str) -> None:
        for name in names:
            if declared is not None:
                if name not in order_seen:
                    raise FormatError(
                        f"unknown species {name!r}", line_no, raw.find(name) + 1
                    )
            elif name not in order_seen:
                order_seen.add(name)
                order.append(name)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _uncomment(raw).strip()
        if not line:
            continue
        if line.startswith("@"):
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "@name" or head == "@description":
                key = head[1:]
                if not rest:
                    raise FormatError(f"{head} needs a value", line_no)
                if key in metadata:
                    raise FormatError(f"duplicate {head} directive", line_no)
                metadata[key] = rest
            elif head == "@species":
                if rows:
                    raise FormatError("@species must precede reactions", line_no)
                if declared is None:
                    declared = []
                for name in _split_names(rest, line_no, raw):
                    if name in order_seen:
                        raise FormatError(
                            f"duplicate species name {name!r}", line_no
                        )
                    order_seen.add(name)
                    order.append(name)
                    declared.append(name)
            else:
                raise FormatError(f"unknown directive {head!r}", line_no, 1)
            continue
        m = _REACTION_RE.match(line)
        if m is None:
            raise FormatError(
                "expected 'label: {reactants} | {inhibitors} -> {products}'",
                line_no,
                1,
            )
        label = m.group("label")
        if label is not None:
            if label in labels:
                raise FormatError(f"duplicate reaction label {label!r}", line_no, 1)
            labels.add(label)
        rn = _split_names(m.group("r"), line_no, raw)
        inn = _split_names(m.group("i"), line_no, raw)
        pn = _split_names(m.group("p"), line_no, raw)
        overlap = sorted(set(rn) & set(inn))
        if overlap:
            raise FormatError(
                "reactants and inhibitors overlap: " + ", ".join(overlap), line_no
            )
        if not pn:
            raise FormatError("empty product set", line_no)
        intern(rn, line_no, raw)
        intern(inn, line_no, raw)
        intern(pn, line_no, raw)
        rows.append((label, rn, inn, pn, line_no))

    table = SpeciesTable(order)
    reactions = [
        Reaction(table.set_of(rn), table.set_of(inn), table.set_of(pn), label)
        for label, rn, inn, pn, _ in rows
    ]
    return ModelDocument(ReactionSystem(table, reactions), metadata)


def _render_set(sset: SpeciesSet) -> str:
    return "{" + ", ".join(sset.members) + "}"


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text form; parsing it back yields an equal document.

    Unlabeled reactions are written with the positional label "r<k>".
    """
    out: list[str] = []
    if "name" in doc.metadata:
        out.append(f"@name {doc.metadata['name']}")
    if "description" in doc.metadata:
        out.append(f"@description {doc.metadata['description']}")
    names = doc.system.species.names
    out.append("@species " + ", ".join(names) if names else "@species")
    if doc.system.reactions:
        out.append("")
        for k, r in enumerate(doc.system.reactions):
            label = r.label or f"r{k + 1}"
            out.append(
                f"{label}: {_render_set(r.reactants)} | "
                f"{_render_set(r.inhibitors)} -> {_render_set(r.products)}"
            )
    return "\n".join(out) + "\n"


def parse_boolean_network(text: str) -> BooleanNetwork:
    """Parse "var = DNF" lines; rejects parentheses and non-flat formulas."""
    metadata: dict[str, str] = {}
    inputs: list[str] = []
    variables: list[str] = []
    updates: dict[str, list[tuple[frozenset, frozenset]]] = {}
    refs: list[tuple[str, int, int]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _uncomment(raw).strip()
        if not line:
            continue
        if line.startswith("@"):
            head, _, rest = line.partition(" ")
            rest = rest.strip()
            if head == "@inputs":
                for name in _split_names(rest, line_no, raw):
                    if name in inputs:
                        raise FormatError(f"duplicate input {name!r}", line_no)
                    inputs.append(name)
            elif head in ("@name", "@description"):
                if not rest:
                    raise FormatError(f"{head} needs a value", line_no)
                metadata[head[1:]] = rest
            else:
                raise FormatError(f"unknown directive {head!r}", line_no, 1)
            continue
        paren = re.search(r"[()]", line)
        if paren:
            raise FormatError(
                "formula is not in disjunctive normal form",
                line_no,
                raw.find(paren.group(0)) + 1,
            )
        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise FormatError("expected 'var = formula'", line_no, 1)
        var = lhs.strip()
        if not NAME_PATTERN.match(var):
            raise FormatError(f"invalid variable name {var!r}", line_no, 1)
        if var in updates:
            raise FormatError(f"duplicate update for {var!r}", line_no, 1)
        terms: list[tuple[frozenset, frozenset]] = []
        for conj_text in rhs.split("|"):
            pos: set[str] = set()
            neg: set[str] = set()
            if not conj_text.strip():
                raise FormatError(
                    "formula is not in disjunctive normal form", line_no
                )
            for lit_text in conj_text.split("&"):
                lit = lit_text.strip()
                negated = lit.startswith("!")
                name = lit[1:].strip() if negated else lit
                if not NAME_PATTERN.match(name or ""):
                    raise FormatError(
                        "formula is not in disjunctive normal form",
                        line_no,
                        raw.find(lit_text.strip() or "&") + 1,
                    )
                if name in (neg if negated else pos):
                    pass
                elif name in (pos if negated else neg):
                    raise FormatError(
                        f"variable {name!r} appears both plain and negated "
                        "in one conjunction",
                        line_no,
                    )
                (neg if negated else pos).add(name)
                refs.append((name, line_no, raw.find(name) + 1))
            terms.append((frozenset(pos), frozenset(neg)))
        variables.append(var)
        updates[var] = terms

    if not variables:
        raise FormatError("no update formulas")
    declared = set(variables) | set(inputs)
    for var in variables:
        if var in inputs:
            raise FormatError(f"input {var!r} also has an update formula")
    for name, line_no, col in refs:
        if name not in declared:
            raise FormatError(f"undeclared variable {name!r}", line_no, col)
    return BooleanNetwork(variables, updates, inputs, metadata)


def blocking_name(variable: str) -> str:
    """Name of the blocking species for a variable ("iX" for "X")."""
    return "i" + variable


def bn_to_reactions(bn: BooleanNetwork, blocking: bool = True) -> ReactionSystem:
    """Translate a Boolean network into reactions, one per conjunction.

    A conjunction C updating x becomes (pos(C), neg(C) ∪ {ι_x}, {x}); with
    `blocking` false the ι_x species are omitted. Species order: updated
    variables, then inputs, then the blocking species. Labels are "rX" for
    a single-conjunction variable and "rX1", "rX2", … otherwise.
    """
    names = list(bn.variables) + list(bn.inputs)
    if blocking:
        declared = set(names)
        for v in bn.variables:
            if blocking_name(v) in declared:
                raise ReactionError(
                    f"blocking species name {blocking_name(v)!r} collides "
                    "with a declared variable"
                )
        names += [blocking_name(v) for v in bn.variables]
    table = SpeciesTable(names)
    reactions = []
    for v in bn.variables:
        terms = bn.updates[v]
        for k, (pos, neg) in enumerate(terms):
            label = f"r{v}" if len(terms) == 1 else f"r{v}{k + 1}"
            inhibitors = set(neg)
            if blocking:
                inhibitors.add(blocking_name(v))
            reactions.append(
                Reaction(
                    table.set_of(sorted(pos, key=table.index)),
                    table.set_of(sorted(inhibitors, key=table.index)),
                    table.set_of([v]),
                    label,
                )
            )
    return ReactionSystem(table, reactions)


def parse_context_sequence(text: str, table: SpeciesTable) -> ContextSequence:
    """Parse one context per line with optional "xN" repetition."""
    contexts: list[SpeciesSet] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _uncomment(raw).strip()
        if not line:
            continue
        m = _CONTEXT_RE.match(line)
        if m is None:
            raise FormatError("expected '{a, b}' or '{} xN'", line_no, 1)
        names = _split_names(m.group("names"), line_no, raw)
        try:
            cset = table.set_of(names)
        except SpeciesMismatchError as exc:
            raise FormatError(str(exc), line_no) from None
        digits = (m.group("rep") or "1").lstrip("0")
        if not digits:
            raise FormatError("repetition must be at least 1", line_no)
        # The digits are counted first: int() refuses over 4,300 of them.
        if (
            len(digits) > len(str(CONTEXT_SEQUENCE_LIMIT))
            or len(contexts) + int(digits) > CONTEXT_SEQUENCE_LIMIT
        ):
            raise FormatError(
                f"sequence longer than {CONTEXT_SEQUENCE_LIMIT} contexts", line_no
            )
        contexts.extend([cset] * int(digits))
    if not contexts:
        raise FormatError("no contexts in input")
    return ContextSequence(table, contexts)


def _statuses(
    results: tuple[SpeciesSet, ...], markers: tuple[SpeciesSet, SpeciesSet]
) -> list[str]:
    pro, unc = markers
    out = []
    for d in results:
        if unc and unc <= d:
            out.append(STATUS_UNCONTROLLED)
        elif pro and pro <= d:
            out.append(STATUS_PROLIFERATION)
        else:
            out.append(STATUS_NONE)
    return out


def _first_recurrence(trace: ProcessTrace) -> Optional[tuple[int, int]]:
    seen: dict[tuple[int, int], int] = {}
    for k, (c, d) in enumerate(zip(trace.contexts, trace.results)):
        key = (c.mask, d.mask)
        if key in seen:
            return (k, seen[key])
        seen[key] = k
    return None


def export_trace(
    trace: ProcessTrace,
    format: str = "table",
    markers: Optional[tuple[SpeciesSet, SpeciesSet]] = None,
) -> str:
    """Render a trace as an aligned table, CSV, or JSON.

    The table mirrors the step/context/state/status row layout with the
    state row showing the result sets; blocking species print as ι_X there.
    CSV and JSON carry both result and full state per step, ASCII names
    only, and a status entry only when `markers` (proliferation set,
    uncontrolled set) is given.
    """
    statuses = _statuses(trace.results, markers) if markers else None
    if format == "table":
        cols = [["step", "context", "state"] + (["status"] if statuses else [])]
        for k in range(len(trace)):
            col = [
                str(k),
                trace.contexts[k].pretty(),
                trace.results[k].pretty(),
            ]
            if statuses:
                col.append(statuses[k])
            cols.append(col)
        widths = [max(len(cell) for cell in col) for col in cols]
        lines = []
        for row in range(len(cols[0])):
            lines.append(
                "  ".join(col[row].ljust(w) for col, w in zip(cols, widths)).rstrip()
            )
        rec = _first_recurrence(trace)
        if rec is not None:
            lines.append(f"step {rec[0]} = step {rec[1]} (cycle)")
        return "\n".join(lines) + "\n"
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["step", "context", "result", "state", "status"])
        states = trace.states
        for k in range(len(trace)):
            writer.writerow(
                [
                    k,
                    repr(trace.contexts[k]),
                    repr(trace.results[k]),
                    repr(states[k]),
                    statuses[k] if statuses else "",
                ]
            )
        return buf.getvalue()
    if format == "json":
        payload = {
            "contexts": [list(c.members) for c in trace.contexts],
            "results": [list(d.members) for d in trace.results],
            "states": [list(w.members) for w in trace.states],
        }
        if statuses:
            payload["status"] = statuses
        return json.dumps(payload, indent=2) + "\n"
    raise RsysError(f"unknown trace format {format!r} (table, csv, or json)")
