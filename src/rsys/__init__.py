"""Reaction-system semantics: exact set dynamics over a fixed species
universe, interactive-process replay, orbit and state-graph analysis,
controllability witness search and decision procedures, a Boolean-network
importer, and a bundled reference model.

States are subsets of a fixed species table, stored as bit masks. A
reaction (R, I, P) fires on a state T iff R ⊆ T and I ∩ T = ∅; the result
of a state is the union of the products of its enabled reactions, and
nothing persists on its own. Hot search loops run on a compiled kernel
when the extension is available (see :mod:`rsys._engine`); set
``RSYS_KERNEL=pure`` or ``RSYS_KERNEL=compiled`` to pin the backend.

``import rsys`` executes no submodule. Each name in ``__all__``, and each
public submodule (``rsys.core``, ``rsys.dynamics``, ...), is resolved on
first access (PEP 562), so a process pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Public submodule -> the names the package re-exports from it.
_EXPORTS = {
    "control": """
        AllowedSet ContextConstraint ControllabilityVerdict ControlQuery
        ControlWitness Exhaustive MaxCardinality MinimalNReport
        MinimalSetReport Sampled VerifyResult allowed_contexts
        constraint_from_json decide_controllable decide_target_controllable
        find_witness minimal_I minimal_n query_from_json trivial_witness
        verify_witness
    """,
    "core": """
        ContextSequence ProcessTrace Reaction ReactionSystem SpeciesSet
        SpeciesTable enabled result_all result_reaction run_process step
        validate_system
    """,
    "dynamics": """
        ContextGraph Orbit PreimageCertificate attractor_report context_graph
        image_membership nonce_extension orbit superset_image_membership
    """,
    "errors": """
        BudgetError FormatError ReactionError RefusalError RsysError
        SpeciesMismatchError
    """,
    "formats": """
        BooleanNetwork ModelDocument blocking_name bn_to_reactions
        export_trace parse_boolean_network parse_context_sequence parse_model
        serialize_model
    """,
    "models": """
        GoldenCorpus GoldenReplayReport GoldenTrace StatusLabel
        classify_status golden_replay load_builtin
    """,
}

_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names.split()
}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list:
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))
