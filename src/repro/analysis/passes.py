"""The registry of static passes.

Each entry names a pass, says what it checks, and gives the function that
yields its raw hits from a :class:`~repro.analysis.program.Program`.  The
rule family is the ``pass_`` tag its rules carry in
:data:`~repro.analysis.findings.RULES`.  This table drives the command
line (``python -m repro.analysis [PASS] paths...``), ``all``, SARIF and
config: adding a static pass means one entry here plus its rules in
:mod:`repro.analysis.findings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from . import ast_lint
from .ast_lint import Raw
from .dist import checks as dist_checks
from .findings import RULES
from .flow import graph as flow_graph
from .mem import checks as mem_checks
from .par import checks as par_checks
from .program import Program


@dataclass(frozen=True)
class StaticPass:
    """One static analysis pass."""

    name: str
    family: str  # the ``Rule.pass_`` tag of the rules this pass reports
    description: str
    run: Callable[[Program], Iterable[Raw]]

    def rule_ids(self) -> list[str]:
        return sorted(r for r, rule in RULES.items() if rule.pass_ == self.family)


#: Every static pass, in report order (``all`` runs them in this order).
PASSES: dict[str, StaticPass] = {
    p.name: p
    for p in (
        StaticPass(
            "lint", "ast",
            "Kompics architecture linter: handler code that breaks the "
            "component contract (event mutation, blocking calls, foreign "
            "state access, untypeable subscriptions, undeclared triggers)",
            ast_lint.check,
        ),
        StaticPass(
            "flow", "flow",
            "Whole-program event flow: every trigger and subscription "
            "checked against the port-type contracts over a program-wide "
            "producer/consumer graph",
            flow_graph.check,
        ),
        StaticPass(
            "dist", "dist",
            "Distribution readiness: every event and component can survive "
            "a process boundary (payload serializability, isolation "
            "escapes, closure capture, non-transferable state, identity "
            "leaks, codec coverage)",
            dist_checks.check,
        ),
        StaticPass(
            "mem", "mem",
            "Memory footprint toward the million-peer simulation (missing "
            "__slots__, unbounded per-peer collections, retained events, "
            "Address interning, dynamic attributes, heavyweight defaults)",
            mem_checks.check,
        ),
        StaticPass(
            "par", "par",
            "Shard safety toward multi-process scale-out (process-divergent "
            "state, cross-component reach-through, shard-cut codec gaps, "
            "identity affinity, handler-held locks, unpinnable components)",
            par_checks.check,
        ),
    )
}
