"""Architecture analysis for the component model: eight coordinated passes.

1. **AST lint** (:mod:`.ast_lint`, rules ``A001``–``A005``) — inspects
   :class:`~repro.core.component.ComponentDefinition` subclasses without
   importing them, flagging handler code that breaks the model's contract
   (event mutation, blocking calls, cross-component state access,
   untypeable subscriptions, undeclared trigger types).
2. **Wiring verifier** (:mod:`.wiring`, rules ``W001``–``W004``) — walks an
   assembled (not started) component tree and reports disconnected required
   ports, subscriptions no trigger site can reach, duplicate subscriptions,
   and channel anomalies.
3. **Runtime sanitizer** (:mod:`.sanitizer`, rules ``S001``–``S002``) —
   opt-in dynamic checks that raise at the exact moment a delivered event
   is mutated or a component's handlers run re-entrantly.
4. **Concurrency analysis** (:mod:`.race`, rules ``R001``–``R003``) —
   happens-before race detection, determinism checking, and schedule
   exploration over the simulation runtime (loaded lazily: it pulls in
   the simulation stack).
5. **Event-flow analysis** (:mod:`.flow`, rules ``F001``–``F005``) —
   whole-program join of trigger sites with subscriptions per (port type,
   direction, event type), including request/response pairing.
6. **Distribution readiness** (:mod:`.dist`, rules ``D001``–``D006``) —
   proves every event and component can survive a process boundary:
   payload serializability, isolation escapes, closure captures, state
   transferability, identity leaks, and compact-codec coverage.
7. **Memory footprint** (:mod:`.mem`, rules ``M001``–``M006``) — makes
   peers cheap enough for the million-peer simulation: slot coverage
   over the event/component hierarchy, unbounded per-peer collections,
   retained events, Address-interning opportunities, dynamic attributes
   that defeat slots, and heavyweight event defaults.
8. **Shard safety** (:mod:`.par`, rules ``P001``–``P006``) — finds the
   single-address-space assumptions that break when components are pinned
   to worker processes: process-divergent state, reach-through, shard-cut
   codec gaps, identity affinity, handler-held locks, and unpinnable
   components.

The five static passes (lint, flow, dist, mem, par) are the entries of
one registry (:mod:`.passes`) and read one shared
:class:`~.program.Program` per run.  Command line:
``python -m repro.analysis [{lint,flow,dist,mem,par,all}] paths...`` —
bare paths lint, and ``all`` (:mod:`.aggregate`) runs every static pass
with one merged report and exit code.  ``python -m repro.analysis race
...`` reaches the concurrency analysis's own front-end.
Every command takes ``--sarif FILE`` (:mod:`.sarif`) for a SARIF 2.1.0
log.  See ``docs/analysis.md`` for the full rule catalogue and
suppression syntax (``# repro: noqa[A001]``, ``[tool.repro.analysis]``).
"""

from .ast_lint import lint_paths
from .config import AnalysisConfig, load_config
from .findings import RULES, Finding, Rule, to_json
from .sanitizer import activate_from_env, disable, enable, is_enabled, sanitized
from .sarif import to_sarif, write_sarif
from .wiring import verify_system, verify_tree

__all__ = [
    "AnalysisConfig",
    "Finding",
    "RULES",
    "Rule",
    "activate_from_env",
    "disable",
    "enable",
    "is_enabled",
    "lint_paths",
    "load_config",
    "race",
    "sanitized",
    "to_json",
    "to_sarif",
    "verify_system",
    "verify_tree",
    "write_sarif",
]


def __getattr__(name: str):
    # PEP 562: the race subpackage imports the simulation runtime, which
    # plain lint/sanitizer users should not pay for.
    if name == "race":
        import importlib

        return importlib.import_module(".race", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
