"""The program model every static pass reads: one per analysis run.

A :class:`Program` scans the given paths once (through the shared parse
cache), indexes them together with the installed ``repro`` package, and
builds the whole-program views on first use — the event-flow graph and
the distribution model — so a run of several passes builds each of them
once.  Findings are only ever anchored in scanned files: the framework is
context, not the subject.

:meth:`Program.report` is the one place a pass's raw hits become
findings: rule selection, ``# repro: noqa[...]`` suppression, and the
stable sort.
"""

from __future__ import annotations

import ast
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from .ast_lint import (
    ClassInfo,
    ModuleInfo,
    ProjectIndex,
    Raw,
    _framework_registry_paths,
    class_info,
    iter_python_files,
    parse_module,
)
from .config import AnalysisConfig, is_suppressed
from .findings import Finding

if TYPE_CHECKING:
    from .dist.model import DistModel
    from .flow.graph import FlowGraph


class Program:
    """Scanned modules, framework modules, and the index over both."""

    def __init__(
        self, paths: Iterable[Path | str], config: Optional[AnalysisConfig] = None
    ) -> None:
        self.config = config or AnalysisConfig()
        #: file path (as reported in findings) -> module, in scan order
        self.scanned: dict[str, ModuleInfo] = {}
        for path in iter_python_files(paths):
            if self.config.path_excluded(path):
                continue
            module = parse_module(path)
            if module is not None:
                self.scanned.setdefault(str(module.path), module)
        seen = {module.path.resolve() for module in self.scanned.values()}
        self.framework: list[ModuleInfo] = [
            module
            for module in map(parse_module, iter_python_files(_framework_registry_paths()))
            if module is not None and module.path.resolve() not in seen
        ]
        self.index = ProjectIndex()
        for module in (*self.framework, *self.scanned.values()):
            self.index.add_module(module)

    def all_modules(self) -> list[ModuleInfo]:
        """Scanned modules first, then the framework context."""
        return [*self.scanned.values(), *self.framework]

    def class_defs(self) -> Iterator[tuple[ModuleInfo, ast.ClassDef, ClassInfo]]:
        """Every class definition in the scanned modules, with its record."""
        for module in self.scanned.values():
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    yield module, node, class_info(node, module, self.index)

    @cached_property
    def flow(self) -> FlowGraph:
        """The whole-program producer/consumer graph."""
        from .flow.graph import FlowGraph

        return FlowGraph.build(self)

    @cached_property
    def dist(self) -> DistModel:
        """The distribution model: event fields, components, codec registrations."""
        from .dist.model import build_dist_model

        return build_dist_model(self)

    @cached_property
    def handler_events(self) -> dict[tuple[str, str], set[str]]:
        """(component class, method) -> event types it receives.

        Every subscription site the flow graph grounds, plus ``@handles``
        declarations, so subscribe-based handlers count too.
        """
        out: dict[tuple[str, str], set[str]] = {}
        for consumer in self.flow.consumers:
            if consumer.component == "<module>":
                continue
            bucket = out.setdefault((consumer.component, consumer.handler), set())
            if consumer.event is not None:
                bucket.add(consumer.event)
        for name, info in self.index.classes.items():
            for handler in info.handlers.values():
                if handler.event_type is not None:
                    out.setdefault((name, handler.name), set()).add(handler.event_type)
        return out

    def handlers_of(self, component: str) -> set[str]:
        """Names of methods of ``component`` that run as event handlers."""
        return {method for (cls, method) in self.handler_events if cls == component}

    def report(self, run: Callable[[Program], Iterable[Raw]]) -> list[Finding]:
        """Run one pass; returns its selected, unsuppressed, sorted findings."""
        findings: list[Finding] = []
        for rule_id, message, module, line, col, extra in run(self):
            if not self.config.rule_enabled(rule_id):
                continue
            if line is not None and is_suppressed(rule_id, module.line(line)):
                continue
            findings.append(
                Finding(
                    rule=rule_id,
                    message=message,
                    file=str(module.path),
                    line=line,
                    col=col,
                    extra=extra,
                )
            )
        findings.sort(key=lambda f: (f.file or "", f.line or 0, f.rule))
        return findings
