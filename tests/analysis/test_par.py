"""Shard-safety analysis (P001-P006): per-rule fixtures with exact
file/line assertions, noqa suppression, config loading,
determinism, and the whole-tree cleanliness gate.  The command line is covered for every
pass in ``test_cli.py``."""

from __future__ import annotations

import textwrap
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis import AnalysisConfig
from repro.analysis.par import analyze_paths

ROOT = Path(__file__).resolve().parents[2]


def analyze_source(tmp_path, source, name="mod.py", config=None):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path, analyze_paths([path], config=config)


def at(findings, rule):
    return [(f.rule, f.line) for f in findings if f.rule == rule]


def line_of(source, needle):
    return textwrap.dedent(source).splitlines().index(needle) + 1


# ---------------------------------------------------------------- P001


P001_FIXTURE = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType

SEEN = {}
TABLE = {"a": 1}


@dataclass(frozen=True)
class Tick(Event):
    n: int = 0


class Ticks(PortType):
    positive = (Tick,)
    negative = (Tick,)


class Counter(ComponentDefinition):
    registry = {}

    def __init__(self):
        super().__init__()
        self.port = self.requires(Ticks)
        self.total = 0
        self.subscribe(self.on_tick, self.port)

    def on_tick(self, event):
        global TOTAL
        SEEN[event.n] = event
        self.registry[event.n] = event
        self.total += 1

    def lookup(self, key):
        return TABLE[key]
"""


def test_p001_flags_global_module_and_class_state(tmp_path):
    _, findings = analyze_source(tmp_path, P001_FIXTURE)
    assert at(findings, "P001") == [
        ("P001", line_of(P001_FIXTURE, "        global TOTAL")),
        ("P001", line_of(P001_FIXTURE, "        SEEN[event.n] = event")),
        ("P001", line_of(P001_FIXTURE, "        self.registry[event.n] = event")),
    ]
    kinds = {f.extra.get("global") or f.extra.get("name") or f.extra.get("attr")
             for f in findings if f.rule == "P001"}
    assert kinds == {"TOTAL", "SEEN", "registry"}
    # TABLE is never mutated anywhere in the module: a constant lookup
    # table is identical in every process, and lookup() is not a handler.


def test_p001_instance_shadowing_silences_class_attr(tmp_path):
    source = P001_FIXTURE.replace(
        "        self.total = 0",
        "        self.total = 0\n        self.registry = {}",
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings = analyze_paths([path])
    assert all(f.extra.get("attr") != "registry" for f in findings)


def test_p001_noqa_suppresses(tmp_path):
    source = P001_FIXTURE.replace(
        "        SEEN[event.n] = event",
        "        SEEN[event.n] = event  # repro: noqa[P001]",
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings = analyze_paths([path])
    assert all(f.extra.get("name") != "SEEN" for f in findings)


# ---------------------------------------------------------------- P002


P002_FIXTURE = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True)
class Job(Event):
    n: int = 0


class Jobs(PortType):
    positive = (Job,)
    negative = (Job,)


class Store(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.provides(Jobs)
        self.records = []


class Front(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Jobs)
        self.store = Store()
        self.child = self.create(Store)
        self.subscribe(self.on_job, self.port)

    def on_job(self, event):
        self.store.records.append(event.n)
        self.child.records
        self.child.provided(Jobs)
"""


def test_p002_flags_reach_through(tmp_path):
    _, findings = analyze_source(tmp_path, P002_FIXTURE)
    assert at(findings, "P002") == [
        ("P002", line_of(P002_FIXTURE, "        self.store.records.append(event.n)")),
        ("P002", line_of(P002_FIXTURE, "        self.child.records")),
    ]
    direct, handle = (f for f in findings if f.rule == "P002")
    assert direct.extra["attr"] == "store"
    assert handle.extra["attr"] == "child"
    # .provided(Jobs) is the port-access API and stays silent


# ---------------------------------------------------------------- P003


P003_FIXTURE = """\
import threading
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType, handles


@dataclass(frozen=True)
class Guarded(Event):
    guard: threading.Lock = None


@dataclass(frozen=True)
class Plain(Event):
    n: int = 0


class Wire(PortType):
    positive = (Guarded, Plain)
    negative = (Guarded, Plain)


class Producer(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Wire)

    def fire(self):
        self.trigger(Guarded(), self.port)
        self.trigger(Plain(), self.port)


class Consumer(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.provides(Wire)
        self.subscribe(self.on_guarded, self.port, event_type=Guarded)
        self.subscribe(self.on_plain, self.port, event_type=Plain)

    @handles(Guarded)
    def on_guarded(self, event):
        pass

    @handles(Plain)
    def on_plain(self, event):
        pass
"""


def test_p003_flags_non_wire_safe_event_on_crossing_edge(tmp_path):
    _, findings = analyze_source(tmp_path, P003_FIXTURE)
    rows = at(findings, "P003")
    assert rows == [
        ("P003", line_of(P003_FIXTURE, "        self.trigger(Guarded(), self.port)")),
    ]
    finding = next(f for f in findings if f.rule == "P003")
    assert finding.extra["event"] == "Guarded"
    assert finding.extra["producer"] == "Producer"
    assert finding.extra["consumer"] == "Consumer"
    # Plain is wire-safe and flows over the same cut without a finding.


def test_p003_common_composite_silences(tmp_path):
    source = P003_FIXTURE + textwrap.dedent(
        """

        class Assembly(ComponentDefinition):
            def __init__(self):
                super().__init__()
                self.producer = self.create(Producer)
                self.consumer = self.create(Consumer)
        """
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    findings = analyze_paths([path])
    # Both endpoints now live under one composite: the edge can no longer
    # land across a shard cut (roots move whole), so P003 stays silent.
    assert at(findings, "P003") == []


# ---------------------------------------------------------------- P004


P004_FIXTURE = """\
from dataclasses import dataclass
from enum import Enum

from repro import ComponentDefinition, Event, PortType


class Color(Enum):
    RED = 1


@dataclass(frozen=True)
class Token(Event):
    token: object = None
    kind: object = None


class Tokens(PortType):
    positive = (Token,)
    negative = (Token,)


class Gate(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Tokens)
        self.expected = object()
        self.seen = set()
        self.subscribe(self.on_token, self.port)

    def on_token(self, event):
        self.seen.add(id(event))
        if event.token is self.expected:
            return
        if event.kind is Color.RED:
            return
        if event.token is None:
            return

    def dump_state(self):
        return set(self.seen)

    def load_state(self, state):
        self.seen = set(state)
"""


def test_p004_flags_id_and_identity_compares(tmp_path):
    _, findings = analyze_source(tmp_path, P004_FIXTURE)
    assert at(findings, "P004") == [
        ("P004", line_of(P004_FIXTURE, "        self.seen.add(id(event))")),
        ("P004", line_of(P004_FIXTURE, "        if event.token is self.expected:")),
    ]
    forms = [f.extra["form"] for f in findings if f.rule == "P004"]
    assert forms == ["id", "is"]
    # enum-member and None comparisons survive pickling and stay silent


# ---------------------------------------------------------------- P005


P005_FIXTURE = """\
import queue
import threading
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True)
class Work(Event):
    n: int = 0


class Works(PortType):
    positive = (Work,)
    negative = (Work,)


class Pool(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Works)
        self._lock = threading.Lock()
        self._jobs = queue.Queue()
        self.subscribe(self.on_work, self.port)

    def on_work(self, event):
        with self._lock:
            pass
        self._jobs.get()
        self._jobs.get(block=False)
"""


def test_p005_flags_blocking_sync_in_handlers(tmp_path):
    _, findings = analyze_source(tmp_path, P005_FIXTURE)
    assert at(findings, "P005") == [
        ("P005", line_of(P005_FIXTURE, "        with self._lock:")),
        ("P005", line_of(P005_FIXTURE, "        self._jobs.get()")),
    ]
    ctors = [f.extra["ctor"] for f in findings if f.rule == "P005"]
    assert ctors == ["threading.Lock", "queue.Queue"]
    # get(block=False) explicitly opts out of blocking and stays silent


# ---------------------------------------------------------------- P006


P006_FIXTURE = """\
from dataclasses import dataclass

from repro import ComponentDefinition, Event, PortType


@dataclass(frozen=True)
class Note(Event):
    n: int = 0


class Notes(PortType):
    positive = (Note,)
    negative = (Note,)


class Pinned(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Notes)
        self.notes = {}
        self.subscribe(self.on_note, self.port)

    def on_note(self, event):
        self.notes[event.n] = event


class Movable(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Notes)
        self.notes = {}
        self.subscribe(self.on_note, self.port)

    def on_note(self, event):
        self.notes[event.n] = event

    def dump_state(self):
        return dict(self.notes)

    def load_state(self, state):
        self.notes = dict(state)


class Stateless(ComponentDefinition):
    def __init__(self):
        super().__init__()
        self.port = self.requires(Notes)
"""


def test_p006_flags_mutable_state_without_hooks(tmp_path):
    _, findings = analyze_source(tmp_path, P006_FIXTURE)
    assert at(findings, "P006") == [
        ("P006", line_of(P006_FIXTURE, "class Pinned(ComponentDefinition):")),
    ]
    finding = next(f for f in findings if f.rule == "P006")
    assert finding.extra["class"] == "Pinned"
    assert "notes" in finding.extra["attrs"]
    # Movable has both hooks, Stateless has nothing to migrate


def test_p006_noqa_on_class_line_suppresses(tmp_path):
    source = P006_FIXTURE.replace(
        "class Pinned(ComponentDefinition):",
        "class Pinned(ComponentDefinition):  # repro: noqa[P006]",
    )
    path = tmp_path / "mod.py"
    path.write_text(source)
    assert analyze_paths([path]) == []


# ------------------------------------------------------------ whole tree


@lru_cache(maxsize=1)
def tree_findings():
    return analyze_paths([ROOT / "src", ROOT / "examples"])


def test_whole_tree_is_par_clean():
    findings = tree_findings()
    assert findings == [], "\n".join(f.format() for f in findings)


@pytest.mark.parametrize(
    "subtree",
    ["src/repro/protocols", "src/repro/cats", "src/repro/runtime", "examples"],
)
def test_subtree_is_par_clean(subtree):
    findings = analyze_paths([ROOT / subtree])
    assert findings == [], "\n".join(f.format() for f in findings)


# ------------------------------------------------------------ determinism


def test_output_is_deterministic(tmp_path):
    for fixture in (
        P001_FIXTURE, P002_FIXTURE, P003_FIXTURE,
        P004_FIXTURE, P005_FIXTURE, P006_FIXTURE,
    ):
        path = tmp_path / "mod.py"
        path.write_text(textwrap.dedent(fixture))
        first = analyze_paths([path])
        second = analyze_paths([path])
        assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
        assert [f.to_dict() for f in first] == sorted(
            (f.to_dict() for f in first),
            key=lambda d: (d["file"], d["line"], d["rule"]),
        )


def test_config_exclude_applies(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(P001_FIXTURE))
    config = AnalysisConfig(exclude=("mod.py",))
    assert analyze_paths([path], config=config) == []
