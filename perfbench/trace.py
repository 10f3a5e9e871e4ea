"""The traced run: spans at the program's layer boundaries, from outside.

``Tracer.install()`` wraps the public entry points of each layer in place
(class attributes, and every module-level binding of a wrapped function,
because names bound at import keep the original otherwise).  Each wrapped
call records a span -- layer name, start, end, parent span -- into the
calling thread's buffer, and adds its duration and its *self* time (the
duration minus the time its child spans cover) to per-name accumulators.
Spans stay in memory; ``export()`` hands them over when the run ends.  A
span whose call carries an event with an ``op_id`` (a put or get) takes it
as its request id, and child spans inherit it, so the spans of one request
share an id.

Nothing in ``src/`` changes.  Two consequences follow from wrapping from
outside:

- a handler bound at subscription time (``AioTcpNetwork.on_send``) is only
  wrapped for components built after ``install()``;
- ``Simulation.run`` looks ``scheduler.drain`` up on every call, so
  patching the class between runs takes effect at the next call.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

#: Span records kept per thread (aggregates always cover every span).
MAX_SPANS = 200_000

TRIGGER = "core.dispatch.trigger"
COMPILE = "core.routing.compile_plan"
EXECUTE = "core.component.execute"
DRAIN = "runtime.scheduler.drain"
SCHEDULE = "simulation.queue.schedule"
POP = "simulation.queue.pop_batch"
CANCEL = "simulation.queue.cancel"
RUN = "simulation.run"
ROUTE = "simulation.emulator.route"
ENCODE = "network.codec.encode"
DECODE = "network.codec.decode"
SEND = "network.aio.send"
WINDOW = "trace.window"

#: Handler self time per protocol: definition module prefix -> metric.
HANDLER_LAYERS = (
    ("repro.cats.abd", "cats.abd.handler_s"),
    ("repro.cats.ring", "cats.ring.handler_s"),
    ("repro.protocols.router", "protocols.router.handler_s"),
    ("repro.protocols.failure_detector", "protocols.fd.handler_s"),
    ("repro.protocols.overlay", "protocols.cyclon.handler_s"),
)


class _ThreadState:
    __slots__ = ("name", "stack", "acc", "counts", "types", "spans", "total", "hops")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Open spans: ``[child seconds, span index]`` per level.
        self.stack: list[list] = []
        #: name id -> [self seconds, calls, total seconds]
        self.acc: dict[int, list] = {}
        self.counts: dict[str, int] = {}
        #: event class -> triggers
        self.types: dict[type, int] = {}
        #: (span index, name id, start, end, parent index, request id)
        self.spans: list[tuple] = []
        self.total = 0
        self.hops = [0, 0]


class Tracer:
    def __init__(self, max_spans: int = MAX_SPANS) -> None:
        self.max_spans = max_spans
        self.origin = perf_counter()
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._ready_since: dict[int, float] = {}
        self._ready_wait = [0.0, 0]

    # ------------------------------------------------------------ recording

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self._names)
                self._names.append(name)
            return nid

    def _span(self, fn, name: str, request=None, on_exit=None):
        """Wrap ``fn`` so that each call records one span named ``name``.

        ``request(args, result)`` returns the call's request id (0: none);
        ``on_exit(state, args, result)`` counts what the call did.
        """
        nid = self._id(name)
        state_of = self._state
        perf = perf_counter
        max_spans = self.max_spans

        def wrapper(*args, **kwargs):
            state = state_of()
            stack = state.stack
            index = state.total
            state.total = index + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, index]
            stack.append(frame)
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                acc = state.acc.get(nid)
                if acc is None:
                    acc = state.acc[nid] = [0.0, 0, 0.0]
                acc[0] += duration - frame[0]
                acc[1] += 1
                acc[2] += duration
                if stack:
                    stack[-1][0] += duration
                if on_exit is not None:
                    on_exit(state, args, result)
                if len(state.spans) < max_spans:
                    req = request(args, result) if request is not None else 0
                    state.spans.append((index, nid, start, end, parent, req))

        wrapper.__wrapped__ = fn
        wrapper.__dict__.update(getattr(fn, "__dict__", {}))
        return wrapper

    def _counter(self, fn, name: str):
        state_of = self._state

        def wrapper(*args, **kwargs):
            counts = state_of().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def window(self) -> "_Window":
        """Context manager: the root span of a traced window."""
        return _Window(self)

    # -------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, original, wrapper) -> None:
        """Replace every module-level binding of ``original``."""
        for name, module in list(sys.modules.items()):
            if not (name.startswith("repro") or name.startswith("perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point (idempotent per tracer)."""
        if self._patches:
            return
        from repro.cats.events import RingLookupResponse
        from repro.core import component, dispatch, routing
        from repro.network.aio import AioTcpNetwork
        from repro.network.serialization import FLAG_COMPRESSED, FrameCodec
        from repro.runtime.scheduler import ManualScheduler
        from repro.runtime.system import ComponentSystem
        from repro.runtime.work_stealing import WorkStealingScheduler
        from repro.simulation.core import Simulation
        from repro.simulation.emulator import EmulatorCore
        from repro.simulation.event_queue import EventQueue, ScheduledEntry

        # core.dispatch: every trigger, with the event class counted.
        def on_trigger(state, args, _result):
            cls = args[0].__class__
            state.types[cls] = state.types.get(cls, 0) + 1
            if cls is RingLookupResponse:
                state.hops[0] += args[0].hops
                state.hops[1] += 1

        trigger = self._span(dispatch.trigger, TRIGGER, _request_arg(0), on_trigger)
        self._patch_function(dispatch.trigger, trigger)
        self._patch(component.ComponentDefinition, "trigger", staticmethod(trigger))
        self._patch_function(
            routing.compile_plan, self._span(routing.compile_plan, COMPILE)
        )

        # core.component: execution, attributed per definition class.
        core_cls = component.ComponentCore
        self._patch(core_cls, "execute", self._execute(core_cls.execute))
        self._patch(core_cls, "execute_slot", self._execute(core_cls.execute_slot))

        # runtime: lifecycle and topology counts, scheduling.
        for attr, name in (
            ("register_component", "core.component.created"),
            ("unregister_component", "core.component.destroyed"),
            ("bump_generation", "runtime.system.generation_bumps"),
        ):
            self._patch(ComponentSystem, attr, self._counter(getattr(ComponentSystem, attr), name))

        def count_slots(state, _args, slots):
            state.counts["runtime.scheduler.slots"] = (
                state.counts.get("runtime.scheduler.slots", 0) + (slots or 0)
            )

        self._patch(ManualScheduler, "drain", self._span(ManualScheduler.drain, DRAIN, on_exit=count_slots))
        ready_since = self._ready_since
        original_schedule = WorkStealingScheduler.schedule

        def schedule(scheduler, core):
            ready_since.setdefault(id(core), perf_counter())
            return original_schedule(scheduler, core)

        self._patch(WorkStealingScheduler, "schedule", schedule)

        # simulation: queue, wheel, driver, emulator.
        def count_pop(state, args, popped):
            queue = args[0]
            if popped is not None and popped[1] is not None:
                state.counts["simulation.queue.batches"] = state.counts.get("simulation.queue.batches", 0) + 1
            live = len(queue)
            if live > state.counts.get("simulation.queue.live_peak", 0):
                state.counts["simulation.queue.live_peak"] = live

        self._patch(EventQueue, "schedule", self._span(EventQueue.schedule, SCHEDULE))
        self._patch(EventQueue, "reschedule", self._span(EventQueue.reschedule, SCHEDULE))
        self._patch(EventQueue, "pop_batch", self._span(EventQueue.pop_batch, POP, on_exit=count_pop))
        self._patch(ScheduledEntry, "cancel", self._span(ScheduledEntry.cancel, CANCEL))
        self._patch(Simulation, "run", self._span(Simulation.run, RUN))
        self._patch(EmulatorCore, "route", self._span(EmulatorCore.route, ROUTE))

        # network: codec and the aio send path.
        def count_encode(state, _args, part):
            if part is not None:
                flags, payload = part
                state.counts["network.codec.bytes"] = state.counts.get("network.codec.bytes", 0) + len(payload)
                if flags & FLAG_COMPRESSED:
                    state.counts["network.codec.compressed"] = state.counts.get("network.codec.compressed", 0) + 1

        self._patch(FrameCodec, "encode_payload", self._span(FrameCodec.encode_payload, ENCODE, _request_arg(1), count_encode))
        self._patch(FrameCodec, "decode_payload", self._span(FrameCodec.decode_payload, DECODE, _request_result))
        self._patch(AioTcpNetwork, "on_send", self._span(AioTcpNetwork.on_send, SEND, _request_arg(1)))

    def _execute(self, method):
        """Span per execution, named after the component's definition."""
        tracer = self
        wrappers: dict[type, object] = {}
        ready_since = self._ready_since
        ready_wait = self._ready_wait

        def execute(core, *args, **kwargs):
            since = ready_since.pop(id(core), None)
            if since is not None:
                ready_wait[0] += perf_counter() - since
                ready_wait[1] += 1
            cls = type(core.definition)
            wrapped = wrappers.get(cls)
            if wrapped is None:
                name = f"{EXECUTE}:{cls.__module__}.{cls.__qualname__}"
                wrapped = wrappers[cls] = tracer._span(method, name)
            return wrapped(core, *args, **kwargs)

        return execute

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. during set-up)."""
        with self._lock:
            for state in self._states:
                state.acc.clear()
                state.counts.clear()
                state.types.clear()
                state.spans.clear()
                state.hops[:] = [0, 0]
            self._ready_wait[:] = [0.0, 0]
            self.origin = perf_counter()

    # ------------------------------------------------------------- reporting

    def export(self, with_spans: bool = False) -> dict:
        """Aggregates (and optionally the span records) as plain data."""
        states = list(self._states)
        out = merge([self._aggregates(state) for state in states])
        out["ready_wait"] = list(self._ready_wait)
        if with_spans:
            out["names"] = list(self._names)
            out["spans"] = [{"thread": state.name, **self._columns(state)} for state in states]
        return out

    def _aggregates(self, state: _ThreadState) -> dict:
        acc = {self._names[nid]: list(cell) for nid, cell in state.acc.items()}
        return {
            "acc": acc,
            "counts": dict(state.counts),
            "types": {f"{cls.__module__}.{cls.__qualname__}": n for cls, n in state.types.items()},
            "hops": list(state.hops),
            "ready_wait": [0.0, 0],
            "spans_total": sum(cell[1] for cell in acc.values()),
        }

    def _columns(self, state: _ThreadState) -> dict:
        """A thread's kept spans as columns, in start order.

        Request ids are resolved by inheritance: a span without its own
        takes its parent's.
        """
        records = sorted(state.spans)
        reqs: dict[int, int] = {}
        for index, _nid, _start, _end, parent, req in records:
            reqs[index] = req or reqs.get(parent, 0)
        return {
            "index": [r[0] for r in records],
            "name": [r[1] for r in records],
            "start_us": [round((r[2] - self.origin) * 1e6, 1) for r in records],
            "end_us": [round((r[3] - self.origin) * 1e6, 1) for r in records],
            "parent": [r[4] for r in records],
            "request": [reqs[r[0]] for r in records],
        }


class _Window:
    """The root span of a traced window, opened by hand on this thread."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.duration = 0.0

    def __enter__(self) -> "_Window":
        state = self.state = self.tracer._state()
        self.frame = [0.0, state.total]
        state.total += 1
        state.stack.append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        state = self.state
        state.stack.remove(self.frame)
        self.duration = end - self.start
        nid = self.tracer._id(WINDOW)
        acc = state.acc.setdefault(nid, [0.0, 0, 0.0])
        acc[0] += self.duration - self.frame[0]
        acc[1] += 1
        acc[2] += self.duration
        state.spans.append((self.frame[1], nid, self.start, end, -1, 0))


def _request_arg(position: int):
    def request(args, _result):
        return getattr(args[position], "op_id", 0) if len(args) > position else 0

    return request


def _request_result(_args, message):
    return getattr(message, "op_id", 0) if message is not None else 0


# ------------------------------------------------------------ layer metrics


def merge(exports: list[dict]) -> dict:
    """Sum the aggregates of several processes (peaks take the maximum)."""
    merged = {"acc": {}, "counts": {}, "types": {}, "hops": [0, 0], "ready_wait": [0.0, 0], "spans_total": 0}
    for export in exports:
        for name, cell in export["acc"].items():
            into = merged["acc"].setdefault(name, [0.0, 0, 0.0])
            for index in range(3):
                into[index] += cell[index]
        for name, value in export["counts"].items():
            if name.endswith("_peak"):
                merged["counts"][name] = max(merged["counts"].get(name, 0), value)
            else:
                merged["counts"][name] = merged["counts"].get(name, 0) + value
        for name, value in export["types"].items():
            merged["types"][name] = merged["types"].get(name, 0) + value
        for key in ("hops", "ready_wait"):
            merged[key] = [a + b for a, b in zip(merged[key], export[key])]
        merged["spans_total"] += export["spans_total"]
    return merged


def span_layers(merged: dict) -> dict:
    """The per-layer metrics that come from spans and boundary counts."""
    acc = merged["acc"]
    counts = merged["counts"]
    types = merged["types"]

    def self_s(name):
        return acc.get(name, [0.0, 0, 0.0])[0]

    def calls(name):
        return acc.get(name, [0.0, 0, 0.0])[1]

    def typed(*names):
        return sum(
            value for key, value in types.items() if key.rsplit(".", 1)[-1] in names
        )

    executions = {name: cell for name, cell in acc.items() if name.startswith(EXECUTE + ":")}
    handler_self = sum(cell[0] for cell in executions.values())
    triggers = calls(TRIGGER)
    compiled = calls(COMPILE)
    encodes, decodes = calls(ENCODE), calls(DECODE)
    scheduled = typed("ScheduleTimeout", "SchedulePeriodicTimeout")
    cancelled = typed("CancelTimeout", "CancelPeriodicTimeout")
    metrics = {
        "core.dispatch.triggers": triggers,
        "core.dispatch.self_s": self_s(TRIGGER),
        "core.routing.plans_compiled": compiled,
        "core.routing.compile_s": self_s(COMPILE),
        "core.routing.plan_miss_ratio": compiled / triggers if triggers else 0.0,
        "core.component.executions": sum(cell[1] for cell in executions.values()),
        "core.component.handler_self_s": handler_self,
        "core.component.created": counts.get("core.component.created", 0),
        "core.component.destroyed": counts.get("core.component.destroyed", 0),
        "runtime.system.generation_bumps": counts.get("runtime.system.generation_bumps", 0),
        "runtime.scheduler.self_s": self_s(DRAIN),
        "runtime.scheduler.ready_wait_s": merged["ready_wait"][0],
        "simulation.queue.scheduled": calls(SCHEDULE),
        "simulation.queue.cancelled": calls(CANCEL),
        "simulation.queue.batches": counts.get("simulation.queue.batches", 0),
        "simulation.queue.self_s": self_s(SCHEDULE) + self_s(POP) + self_s(CANCEL),
        "simulation.queue.live_peak": counts.get("simulation.queue.live_peak", 0),
        "simulation.driver_residual_s": self_s(RUN),
        "simulation.emulator.self_s": self_s(ROUTE),
        "network.codec.encodes": encodes,
        "network.codec.decodes": decodes,
        "network.codec.encode_s": self_s(ENCODE),
        "network.codec.decode_s": self_s(DECODE),
        "network.codec.bytes_per_msg": counts.get("network.codec.bytes", 0) / encodes if encodes else 0.0,
        "network.codec.compress_win_ratio": counts.get("network.codec.compressed", 0) / encodes if encodes else 0.0,
        "network.aio.send_s": self_s(SEND),
        "timer.scheduled": scheduled,
        "timer.cancelled": cancelled,
        "timer.cancel_ratio": cancelled / scheduled if scheduled else 0.0,
        "cats.lookup.hops_mean": merged["hops"][0] / merged["hops"][1] if merged["hops"][1] else 0.0,
        "trace.spans": merged["spans_total"],
    }
    for prefix, metric in HANDLER_LAYERS:
        metrics[metric] = sum(
            cell[0] for name, cell in executions.items()
            if name[len(EXECUTE) + 1:].startswith(prefix)
        )
    metrics["trace.unattributed_s"] = self_s(WINDOW)
    return metrics


def attributed_layers(metrics: dict) -> dict:
    """Self time per layer; with the unattributed residual it sums to the window."""
    return {
        "core.dispatch": metrics["core.dispatch.self_s"],
        "core.routing": metrics["core.routing.compile_s"],
        "core.component": metrics["core.component.handler_self_s"],
        "runtime.scheduler": metrics["runtime.scheduler.self_s"],
        "simulation.queue": metrics["simulation.queue.self_s"],
        "simulation.core": metrics["simulation.driver_residual_s"],
        "simulation.emulator": metrics["simulation.emulator.self_s"],
        "network.codec": metrics["network.codec.encode_s"] + metrics["network.codec.decode_s"],
        "network.aio": metrics["network.aio.send_s"],
        "unattributed": metrics["trace.unattributed_s"],
    }
