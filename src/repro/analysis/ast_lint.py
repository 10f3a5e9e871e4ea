"""AST lint pass: source-level checks on ComponentDefinition subclasses.

The linter works purely on syntax trees — nothing is imported or executed —
in two phases:

1. **Index** every scanned file (plus the installed ``repro`` package, so
   linting ``examples/`` alone still knows the framework's types): class
   hierarchies by name, ``PortType`` subclasses with their declared
   positive/negative event types, and ``Event`` subclasses.  The index,
   the parse cache and the syntax helpers here are shared by every static
   pass through :class:`~repro.analysis.program.Program`.
2. **Lint** each ``ComponentDefinition`` subclass against the rules in
   :mod:`repro.analysis.rules` (A001–A005).

Name resolution is deliberately name-based (no import graph evaluation):
a class named ``Network`` is assumed to be *the* ``Network`` the index
knows.  That heuristic is exact for this repository's layout and degrades
to silence — never to false positives — when a name is unknown: every
rule skips checks it cannot ground in the index.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .config import AnalysisConfig
from .findings import Finding

if TYPE_CHECKING:
    from .program import Program

#: Root class names anchoring the three hierarchies the linter reasons about.
COMPONENT_ROOT = "ComponentDefinition"
PORT_ROOT = "PortType"
EVENT_ROOT = "Event"


def _base_name(node: ast.expr) -> Optional[str]:
    """Unqualified name of a base-class expression (``a.b.C`` -> ``C``)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _first_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    """Name of a method's receiver parameter (``self``), or None."""
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def _self_attr(expr: ast.expr, selfname: Optional[str]) -> Optional[str]:
    """``self.attr`` -> ``"attr"``; anything else -> None."""
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == selfname
    ):
        return expr.attr
    return None


def _is_classvar(ann: ast.expr) -> bool:
    return any(
        _base_name(node) == "ClassVar"
        for node in ast.walk(ann)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


@dataclass
class HandlerInfo:
    """One handler method of a component class."""

    name: str
    node: ast.FunctionDef
    event_type: Optional[str]  # from @handles(...), None if undeclared
    event_param: Optional[str]  # name of the event parameter


@dataclass
class ClassInfo:
    """Index record for one class definition."""

    name: str
    module: "ModuleInfo"
    node: ast.ClassDef
    bases: tuple[str, ...]
    methods: dict[str, ast.FunctionDef] = field(default_factory=dict)
    handlers: dict[str, HandlerInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: Path
    tree: ast.Module
    lines: list[str]
    imports: dict[str, str] = field(default_factory=dict)  # alias -> dotted name

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


#: One finding before rule selection and suppression:
#: ``(rule, message, module, line, col, extra)``.
Raw = tuple[str, str, ModuleInfo, Optional[int], Optional[int], dict]


class ProjectIndex:
    """Name-level view of every class in the scanned file set."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}
        self.bases: dict[str, set[str]] = {}
        self.port_events: dict[str, dict[str, tuple[str, ...]]] = {}
        #: port type name -> {request event name: (indication names, ...)}
        #: from ``responds_to = {...}`` class attributes.
        self.port_responds_to: dict[str, dict[str, tuple[str, ...]]] = {}

    # ------------------------------------------------------------- building

    def add_module(self, module: ModuleInfo) -> None:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                self._add_class(module, node)

    def _add_class(self, module: ModuleInfo, node: ast.ClassDef) -> None:
        info = _class_record(module, node)
        self.classes[node.name] = info
        self.bases.setdefault(node.name, set()).update(info.bases)
        self._extract_port_decl(node)

    def _extract_port_decl(self, node: ast.ClassDef) -> None:
        decl: dict[str, tuple[str, ...]] = {}
        for item in node.body:
            if not isinstance(item, ast.Assign):
                continue
            for target in item.targets:
                if isinstance(target, ast.Name) and target.id in ("positive", "negative"):
                    if isinstance(item.value, (ast.Tuple, ast.List)):
                        names = tuple(
                            n for n in map(_base_name, item.value.elts) if n
                        )
                        decl[target.id] = names
                elif isinstance(target, ast.Name) and target.id == "responds_to":
                    mapping = _extract_responds_to(item.value)
                    if mapping:
                        self.port_responds_to.setdefault(node.name, {}).update(mapping)
        if decl:
            existing = self.port_events.setdefault(node.name, {})
            existing.update(decl)

    # ------------------------------------------------------------- hierarchy

    def descends_from(self, name: str, root: str) -> bool:
        """Name-level transitive subclass check (``name`` may equal ``root``)."""
        seen: set[str] = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            if current == root:
                return True
            if current in seen:
                continue
            seen.add(current)
            frontier.extend(self.bases.get(current, ()))
        return False

    def is_component(self, name: str) -> bool:
        return self.descends_from(name, COMPONENT_ROOT)

    def is_event(self, name: str) -> bool:
        return self.descends_from(name, EVENT_ROOT)

    def is_port_type(self, name: str) -> bool:
        return self.descends_from(name, PORT_ROOT)

    def events_related(self, a: str, b: str) -> bool:
        """True when one event type is a (reflexive) subtype of the other."""
        return self.descends_from(a, b) or self.descends_from(b, a)

    def port_direction_events(self, port: str, direction: str) -> Optional[tuple[str, ...]]:
        """Declared event names for ``direction`` of ``port``, searching bases.

        Returns None when the port type (or the direction's declaration)
        is unknown to the index.
        """
        seen: set[str] = set()
        frontier = [port]
        collected: list[str] = []
        known = False
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            decl = self.port_events.get(current)
            if decl is not None and direction in decl:
                known = True
                collected.extend(decl[direction])
            frontier.extend(self.bases.get(current, ()))
        return tuple(collected) if known else None

    def lookup_method(self, cls: str, method: str) -> Optional[HandlerInfo]:
        """Resolve ``method`` through ``cls`` and its indexed bases."""
        seen: set[str] = set()
        frontier = [cls]
        while frontier:
            current = frontier.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is not None:
                if method in info.handlers:
                    return info.handlers[method]
                frontier.extend(info.bases)
            else:
                frontier.extend(self.bases.get(current, ()))
        return None


def _class_record(module: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    bases = tuple(b for b in map(_base_name, node.bases) if b)
    info = ClassInfo(node.name, module, node, bases)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[item.name] = item
            info.handlers[item.name] = HandlerInfo(
                item.name, item, _handles_decorator(item), _event_param(item)
            )
    return info


def class_info(node: ast.ClassDef, module: ModuleInfo, index: ProjectIndex) -> ClassInfo:
    """The index record for ``node``, re-bound if the name was reused.

    The index keeps the last definition of a class name; a pass checking
    an earlier definition of the same name gets a record of its own.
    """
    info = index.classes.get(node.name)
    if info is not None and info.node is node:
        return info
    return _class_record(module, node)


def _extract_responds_to(value: ast.expr) -> dict[str, tuple[str, ...]]:
    """Parse a ``responds_to = {Request: (Indication, ...)}`` literal."""
    mapping: dict[str, tuple[str, ...]] = {}
    if not isinstance(value, ast.Dict):
        return mapping
    for key, val in zip(value.keys, value.values):
        request = _base_name(key) if key is not None else None
        if request is None:
            continue
        if isinstance(val, (ast.Tuple, ast.List)):
            indications = tuple(n for n in map(_base_name, val.elts) if n)
        else:
            name = _base_name(val)
            indications = (name,) if name else ()
        if indications:
            mapping[request] = indications
    return mapping


def _handles_decorator(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Call):
            name = _base_name(decorator.func)
            if name == "handles" and decorator.args:
                return _base_name(decorator.args[0])
    return None


def _event_param(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> Optional[str]:
    args = fn.args.posonlyargs + fn.args.args
    if len(args) >= 2:  # (self, event, ...)
        return args[1].arg
    return None


@dataclass
class ComponentClassContext:
    """Everything the rules need to know about one component class."""

    info: ClassInfo
    index: ProjectIndex
    #: self attribute -> (port type name, provided?) from self.provides/requires
    ports: dict[str, tuple[str, bool]] = field(default_factory=dict)
    #: methods referenced by self.subscribe(self.m, ...) -> had event_type kwarg
    subscribe_calls: list[ast.Call] = field(default_factory=list)
    trigger_calls: list[tuple[ast.Call, ast.FunctionDef]] = field(default_factory=list)

    @property
    def module(self) -> ModuleInfo:
        return self.info.module

    def handler_methods(self) -> list[HandlerInfo]:
        """Methods that run as event handlers: @handles-decorated or subscribed."""
        subscribed = set()
        for call in self.subscribe_calls:
            method = _self_method_ref(call)
            if method is not None:
                subscribed.add(method)
        out = []
        for name, handler in self.info.handlers.items():
            if handler.event_type is not None or name in subscribed:
                out.append(handler)
        return out


def _self_method_ref(subscribe_call: ast.Call) -> Optional[str]:
    if not subscribe_call.args:
        return None
    return _self_attr(subscribe_call.args[0], "self")


def _extract_context(info: ClassInfo, index: ProjectIndex) -> ComponentClassContext:
    ctx = ComponentClassContext(info, index)
    for method in info.methods.values():
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                call = node.value
                fn = call.func
                if _self_attr(fn, "self") in ("provides", "requires") and call.args:
                    port_name = _base_name(call.args[0])
                    if port_name is None:
                        continue
                    for target in node.targets:
                        attr = _self_attr(target, "self")
                        if attr is not None:
                            ctx.ports[attr] = (port_name, fn.attr == "provides")
            elif isinstance(node, ast.Call):
                verb = _self_attr(node.func, "self")
                if verb == "subscribe":
                    ctx.subscribe_calls.append(node)
                elif verb == "trigger":
                    ctx.trigger_calls.append((node, method))
    return ctx


# ---------------------------------------------------------------------- scan


def iter_python_files(paths: Iterable[Path | str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


#: Parse cache shared by every analysis pass (AST lint, flow extractor):
#: resolved path -> ((mtime_ns, size), ModuleInfo).  One source file is
#: parsed once per run even when several passes walk the same tree.
_parse_cache: dict[Path, tuple[tuple[int, int], ModuleInfo]] = {}


def clear_parse_cache() -> None:
    _parse_cache.clear()


def parse_module(path: Path) -> Optional[ModuleInfo]:
    try:
        resolved = path.resolve()
        stat = resolved.stat()
    except OSError:
        return None
    stamp = (stat.st_mtime_ns, stat.st_size)
    cached = _parse_cache.get(resolved)
    if cached is not None and cached[0] == stamp:
        return cached[1]
    try:
        source = resolved.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError):
        return None
    module = ModuleInfo(path, tree, source.splitlines())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                module.imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    _parse_cache[resolved] = (stamp, module)
    return module


def _framework_registry_paths() -> list[Path]:
    """The installed ``repro`` package, indexed (not linted) for type info."""
    try:
        import repro
    except ImportError:  # pragma: no cover - repro is always importable here
        return []
    return [Path(repro.__file__).parent]


def check(program: Program) -> Iterator[Raw]:
    """The A001–A005 lint over every scanned component class."""
    from . import rules

    for module, node, info in program.class_defs():
        if not program.index.is_component(node.name) or node.name == COMPONENT_ROOT:
            continue
        ctx = _extract_context(info, program.index)
        for rule_check in rules.AST_CHECKS:
            for rule_id, message, where in rule_check(ctx):
                yield (
                    rule_id,
                    message,
                    module,
                    getattr(where, "lineno", None),
                    getattr(where, "col_offset", None),
                    {},
                )


def lint_paths(
    paths: Iterable[Path | str],
    config: Optional[AnalysisConfig] = None,
) -> list[Finding]:
    """Run the AST lint over files/directories; returns sorted findings."""
    from .program import Program  # program.py builds on this module

    return Program(paths, config).report(check)
