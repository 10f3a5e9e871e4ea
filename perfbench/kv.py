"""kv-tcp: CATS over real localhost TCP, driven from one client endpoint.

The system under test (``kv_server.py``) runs in a child process.  This
process hosts the load generator: one ``CatsClient`` on its own
``AioTcpNetwork`` endpoint, fed from one generator thread (the main
thread).  Keys and get/put choices come from
``repro.cats.workload.WorkloadGenerator``; every put value is unique.

Two phases, each half of ``--seconds``:

- ``light``: open loop at ``LIGHT_RATE`` ops/s (about a quarter of the
  closed-loop capacity on a 2-CPU host), 90% gets, uniform keys, 1 KB
  values.  Latency is timed from each request's due time, so a stalled
  generator or server shows up in the latency of every request behind it;
  how late the generator itself sent is reported as ``gen_lag``.  Both go
  into the record only (``finish`` says why).
- ``saturate``: closed loop holding ``SATURATE_OUTSTANDING`` requests in
  flight, 50% puts, Zipf-skewed keys.  Its completed ops/s and its get and
  put latencies are the end-to-end metrics.  With the outstanding count
  fixed, its median latency is about that count over the throughput, so
  the latencies add little beyond ``ops_per_s``; their tails do not.

At each phase boundary the endpoint, scheduler and ABD counters of both
processes are read, so the record splits them by phase (batching, for
one, does nothing in ``light`` and its work in ``saturate``).
"""

from __future__ import annotations

import gc
import json
import os
import queue
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from statistics import median

from repro import ComponentDefinition, ComponentSystem, WorkStealingScheduler, handles
from repro.cats import (
    CatsClient,
    GetRequest,
    GetResponse,
    PutGet,
    PutRequest,
    PutResponse,
    WorkloadGenerator,
    WorkloadSpec,
    new_op_id,
)
from repro.consistency import NOT_FOUND, History
from repro.network import Address, AioTcpNetwork, Network

from perfbench.common import (
    ROOT,
    Gates,
    history_gates,
    latency_block,
    log,
    parted_block,
    unique_value,
)
from perfbench.kv_server import QueueSampler
from perfbench.run import HASH_SEED

SERVER_SCRIPT = os.path.join(ROOT, "perfbench", "kv_server.py")
#: On a host with two or more CPUs the server process runs on one CPU and
#: this process (client endpoint and generator) on another.  Unpinned, the
#: two processes' seven threads migrate between both CPUs: on a 2-CPU host
#: that cost 20-25% of the saturate throughput and doubled the light
#: phase's p99 (measured back to back over 5 seeds).
def place_client() -> int | None:
    """Pin this process to one CPU; returns the CPU for the server, if any."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[1]


#: Open-loop rate of the light phase, ops/s.  Closed-loop capacity on a
#: 2-CPU host is 1.5-2.4k ops/s; p99 degrades sharply near 1.5k.
LIGHT_RATE = 500.0
LIGHT_SPEC = WorkloadSpec(key_count=1024, read_ratio=0.9, value_size=1024, zipf_s=0.0)
#: Parts of the light phase over which its get and put latencies take
#: their medians; each part keeps 10 samples beyond the tail percentile
#: from 20 s of ``--seconds`` on.
LIGHT_GET_PARTS = 4
LIGHT_PUT_PARTS = 2
SATURATE_OUTSTANDING = 16
SATURATE_SPEC = WorkloadSpec(key_count=1024, read_ratio=0.5, value_size=1024, zipf_s=0.99)
KEY_BITS = 16
SETUPS = 3
#: Unmeasured open-loop load between readiness and the light phase.  For
#: about half a second after every node reports a view, successor lists
#: are still settling and views are re-installed; requests issued then
#: wait for ABD retries (50-400 ms).  Those requests still go into the
#: history and the correctness gates, and their latency is reported as
#: ``warmup`` beside the measured phases.
WARMUP_S = 1.0
#: How long to wait for answers to requests still in flight after a phase.
GRACE_S = 10.0
READY_TIMEOUT_S = 90.0
#: The generator fell behind when its p99 send lag exceeds one open-loop
#: inter-arrival period: it could no longer keep the schedule.
MAX_GEN_LAG_S = 1.0 / LIGHT_RATE


class ServerProcess:
    """One ``kv_server.py`` child; the constructor returns once it is ready."""

    def __init__(self, trace: bool = False, cpu: int | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(ROOT, "src"), ROOT, env.get("PYTHONPATH", "")]
        )
        env["PYTHONHASHSEED"] = HASH_SEED
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, SERVER_SCRIPT, "--trace", str(int(trace))]
            + ([] if cpu is None else ["--cpu", str(cpu)]),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )
        self._lines: "queue.Queue[str | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            ready = self._expect("ready", READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        #: Start to ready as the parent sees it: process start, imports,
        #: bootstrap, ring join and ABD view installation.
        self.setup_s = time.perf_counter() - started
        host, port, node_id = ready["api"]
        self.api = Address(host, port, node_id)

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _expect(self, event: str, timeout: float) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"kv server: no {event!r} within {timeout:.0f}s")
            try:
                line = self._lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line is None:
                raise RuntimeError(f"kv server exited before {event!r}")
            payload = json.loads(line)
            if payload.get("event") == event:
                return payload
            if payload.get("event") == "error":
                raise RuntimeError(f"kv server failed: {payload.get('error')}")

    def _send(self, command: str) -> None:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()

    def status(self) -> dict:
        """The server's endpoint, scheduler and ABD counters now."""
        self._send("status")
        return self._expect("status", 30.0)

    def stop(self) -> dict:
        """Ask for the final counters, then wait for the process to end."""
        try:
            self._send("stop")
            final = self._expect("final", 60.0)
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=5)


class Collector:
    """Records every request: due time, answer time, result, history."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.history = History()
        self.pending: dict[int, dict] = {}
        self.done: list[dict] = []
        self.slots: threading.Semaphore | None = None
        self.issued = 0
        #: Responses that matched no pending request: unknown or repeated.
        self.stray = 0

    def complete(self, response) -> None:
        answered = time.perf_counter()
        with self.lock:
            op = self.pending.pop(response.op_id, None)
            if op is None:
                self.stray += 1
                return
            op["answered"] = answered
            op["ok"] = response.ok
            if response.ok:
                if isinstance(response, GetResponse):
                    result = response.value if response.found else NOT_FOUND
                else:
                    result = True
                self.history.respond(response.op_id, answered, result=result)
            self.done.append(op)
        if self.slots is not None:
            self.slots.release()


class Recorder(ComponentDefinition):
    """Requires PutGet; hands every response to the collector."""

    def __init__(self, collector: Collector) -> None:
        super().__init__()
        self.putget = self.requires(PutGet)
        self.collector = collector
        self.subscribe(self.on_put, self.putget)
        self.subscribe(self.on_get, self.putget)

    @handles(PutResponse)
    def on_put(self, response: PutResponse) -> None:
        self.collector.complete(response)

    @handles(GetResponse)
    def on_get(self, response: GetResponse) -> None:
        self.collector.complete(response)


# The load generator's root: never migrated, holds no state of its own.
class ClientHost(ComponentDefinition):  # repro: noqa[P006]
    def __init__(self, server: Address, collector: Collector) -> None:
        super().__init__()
        self.net = self.create(AioTcpNetwork, Address("127.0.0.1", 0, node_id=999))
        address = self.net.definition.address
        client = self.create(CatsClient, address, server)
        self.connect(self.net.provided(Network), client.required(Network))
        self.recorder = self.create(Recorder, collector)
        self.connect(client.provided(PutGet), self.recorder.required(PutGet))


class Client:
    """The client endpoint and the generator thread's issue path."""

    def __init__(self, server: Address) -> None:
        self.collector = Collector()
        self.system = ComponentSystem(scheduler=WorkStealingScheduler(workers=1))
        self.host = self.system.bootstrap(ClientHost, server, self.collector).definition
        self.recorder = self.host.recorder.definition

    def issue(self, op, value, due: float, phase: str) -> None:
        collector = self.collector
        op_id = new_op_id()
        invoked = time.perf_counter()
        record = {"kind": op.kind, "due": due, "invoked": invoked, "phase": phase}
        with collector.lock:
            collector.pending[op_id] = record
            collector.history.invoke(
                op_id, "client", op.kind, op.key, value=value, time=invoked
            )
            collector.issued += 1
        if op.kind == "get":
            request = GetRequest(op.key, op_id=op_id)
        else:
            request = PutRequest(op.key, value, op_id=op_id)
        self.recorder.trigger(request, self.recorder.putget)

    def wait_idle(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.collector.lock:
                if not self.collector.pending:
                    return
            time.sleep(0.005)

    def endpoint_status(self) -> dict:
        return self.host.net.definition.status_snapshot()

    def close(self) -> None:
        self.system.shutdown()


class ValueSource:
    """Unique put values for one run."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.count = 0

    def next(self, op) -> object:
        if op.kind != "put":
            return None
        self.count += 1
        return unique_value(self.seed, self.count, LIGHT_SPEC.value_size)


def run_light(client, generator, values, seconds: float, phase: str = "light"):
    """Open loop; returns the generator's send lag per request (s) and the
    phase's ``(start, end)`` on the wall clock."""
    interval = 1.0 / LIGHT_RATE
    count = int(seconds * LIGHT_RATE)
    lags = []
    start = time.perf_counter() + 0.01
    for index in range(count):
        due = start + index * interval
        now = time.perf_counter()
        if due > now:
            time.sleep(due - now)
        op = generator.next_op()
        lags.append(max(0.0, time.perf_counter() - due))
        client.issue(op, values.next(op), due, phase)
    client.wait_idle(GRACE_S)
    return lags, (start, start + count * interval)


def run_saturate(client: Client, generator, values: ValueSource, seconds: float) -> tuple[float, float]:
    """Closed loop; returns the phase's ``(start, end)`` on the wall clock."""
    slots = threading.Semaphore(SATURATE_OUTSTANDING)
    client.collector.slots = slots
    start = time.perf_counter()
    end = start + seconds
    try:
        while True:
            now = time.perf_counter()
            if now >= end:
                break
            if not slots.acquire(timeout=end - now):
                break
            op = generator.next_op()
            client.issue(op, values.next(op), time.perf_counter(), "saturate")
        client.wait_idle(GRACE_S)
    finally:
        client.collector.slots = None
    return start, end


def measure(seed: int, seconds: float, smoke: bool = False) -> dict:
    """The untraced run: set up SETUPS times, measure both phases."""
    server_cpu = place_client()
    setups = []
    for _ in range(0 if smoke else SETUPS - 1):
        server = ServerProcess(cpu=server_cpu)
        setups.append(server.setup_s)
        server.stop()
    server = ServerProcess(cpu=server_cpu)
    setups.append(server.setup_s)
    try:
        result = drive(server, seed, phase_seconds(seconds))
    finally:
        final = server.stop()
    finish(result, final)
    result["setup_s"] = result["metrics"]["setup_s"] = median(setups)
    result["setup_runs_s"] = setups
    log(f"kv-tcp: setup {result['setup_s']:.2f}s metrics {json.dumps(result['metrics'])}")
    return result


def phase_seconds(seconds: float) -> dict:
    return {"light": seconds / 2, "saturate": seconds / 2}


def drive(server: ServerProcess, seed: int, phases: dict, tracer=None) -> dict:
    """Run ``phases`` (name -> seconds, in order) against ``server``.

    The counters of both processes are read before each phase and after
    the last.  With a ``tracer``, the phases run inside its window and the
    client endpoint's outbox is sampled for its peak.
    """
    client = Client(server.api)
    values = ValueSource(seed)
    light = WorkloadGenerator(LIGHT_SPEC, KEY_BITS, seed=2 * seed)
    heavy = WorkloadGenerator(SATURATE_SPEC, KEY_BITS, seed=2 * seed + 1)
    result: dict = {"phases": list(phases), "snapshots": {}}
    sampler = None

    def snapshot(label: str) -> None:
        result["snapshots"][label] = {
            "server": server.status(),
            "client_aio": client.endpoint_status(),
            "client_scheduler": client.system.scheduler.stats(),
        }

    # This process's own records grow by thousands of objects a second;
    # full passes of the cyclic collector over them stalled the client
    # endpoint for 10-25 ms every few seconds and set the light phase's
    # p99.  The collector pauses here while load runs (the server process,
    # the system under test, keeps its own).
    gc.collect()
    gc.disable()
    try:
        run_light(client, light, values, WARMUP_S, "warmup")
        with tracer.window() if tracer is not None else nullcontext() as window:
            if tracer is not None:
                sampler = QueueSampler([client.host.net.definition])
            for phase, seconds in phases.items():
                snapshot(phase)
                if phase == "light":
                    result["gen_lags"], result["light_window"] = run_light(
                        client, light, values, seconds
                    )
                else:
                    result["saturate_window"] = run_saturate(client, heavy, values, seconds)
            snapshot("end")
    finally:
        if sampler is not None:
            sampler.stop()
            result["client_queued_peak"] = sampler.peak
            result["window_s"] = window.duration
        result["client_aio"] = client.endpoint_status()
        client.close()
        gc.enable()
    with client.collector.lock:
        result["done"] = list(client.collector.done)
        result["unanswered"] = len(client.collector.pending)
        result["issued"] = client.collector.issued
        result["stray"] = client.collector.stray
    result["history"] = client.collector.history
    return result


AIO_COUNTERS = ("sent", "received", "batches", "batched_messages", "bytes_sent", "dropped_frames", "reconnects")
SCHEDULER_COUNTERS = ("executed_slots", "steals", "components_stolen")
ABD_COUNTERS = ("ops_completed", "ops_failed", "retries", "view_rejections", "views_installed")


def counter_totals(snapshot: dict) -> dict:
    """The counters of one snapshot, summed over both processes."""
    server = snapshot["server"]
    endpoints = server["aio"] + [snapshot["client_aio"]]
    schedulers = [server["scheduler"], snapshot["client_scheduler"]]
    totals = {f"aio.{key}": sum(e[key] for e in endpoints) for key in AIO_COUNTERS}
    totals.update({f"scheduler.{key}": sum(s[key] for s in schedulers) for key in SCHEDULER_COUNTERS})
    totals.update({f"abd.{key}": sum(n[key] for n in server["abd"]) for key in ABD_COUNTERS})
    return totals


def counters_between(first: dict, last: dict) -> dict:
    """What the counters grew by from snapshot ``first`` to ``last``."""
    before, after = counter_totals(first), counter_totals(last)
    grown = {key: after[key] - before[key] for key in before}
    batches = grown["aio.batches"]
    grown["aio.avg_batch"] = grown["aio.batched_messages"] / batches if batches else 0.0
    return grown


def finish(result: dict, final: dict) -> None:
    """Derive metrics and gates from a driven run and the server's counters."""
    done = result["done"]
    ok = [op for op in done if op["ok"]]
    failed = len(done) - len(ok) + result["unanswered"]
    result["attempted"] = result["issued"]
    result["failed"] = failed
    result["server"] = final
    snapshots = result.pop("snapshots")
    labels = [*result["phases"], "end"]
    if all(label in snapshots for label in labels):
        result["counters"] = {
            phase: counters_between(snapshots[phase], snapshots[after])
            for phase, after in zip(labels, labels[1:])
        }
        result["counters"]["window"] = counters_between(snapshots[labels[0]], snapshots["end"])
    metrics: dict = {}
    warmup = [op["answered"] - op["due"] for op in ok if op["phase"] == "warmup"]
    result["warmup"] = latency_block(warmup, 99)
    if "gen_lags" in result:
        light = [op for op in ok if op["phase"] == "light"]
        gets = [(op["due"], op["answered"] - op["due"]) for op in light if op["kind"] == "get"]
        puts = [(op["due"], op["answered"] - op["due"]) for op in light if op["kind"] == "put"]
        start, end = result.pop("light_window")
        result["light"] = {
            "rate_ops_per_s": LIGHT_RATE,
            "get": parted_block(gets, start, end, 99, LIGHT_GET_PARTS),
            "put": parted_block(puts, start, end, 95, LIGHT_PUT_PARTS),
            "gen_lag": latency_block(result["gen_lags"], 99),
        }
    if "saturate_window" in result:
        start, end = result["saturate_window"]
        saturate = [op for op in ok if op["phase"] == "saturate" and op["answered"] <= end]
        gets = [(op["due"], op["answered"] - op["due"]) for op in saturate if op["kind"] == "get"]
        puts = [(op["due"], op["answered"] - op["due"]) for op in saturate if op["kind"] == "put"]
        result["saturate"] = {
            "outstanding": SATURATE_OUTSTANDING,
            "completed": len(saturate),
            "seconds": end - start,
            "get": parted_block(gets, start, end, 99),
            "put": parted_block(puts, start, end, 99),
        }
        metrics["ops_per_s"] = len(saturate) / (end - start)
        # The latencies come from this phase, not from the light one.  A
        # lone light-phase request is a chain of thread wake-ups across two
        # processes, and on a shared VM (2 vCPUs that halt when idle) a
        # wake-up costs what the host allows at that moment: over 5 seeds
        # back to back its median spread (IQR/median) 0.10-0.17 in one set
        # and 0.45 in the next, as the host's load changed within minutes
        # (0.62 to 1.13 ms), beyond any bound a gate could hold.  Keeping
        # the vCPUs out of halt with idle-priority spinners steadied the
        # median but doubled the p99.  So kv-tcp shows per-request cost at
        # light load through the record and the traced split
        # (``network.aio.light.*``, dispatch and codec self time) only.
        for kind in ("get", "put"):
            metrics[f"{kind}_p50_ms"] = result["saturate"][kind]["p50_ms"]
            metrics[f"{kind}_p99_ms"] = result["saturate"][kind]["p99_ms"]
    metrics["peak_rss_mb"] = final["peak_rss_mb"]
    result["metrics"] = metrics
    result["fail_ratio"] = failed / max(1, result["attempted"])

    gates = Gates()
    gates.check("ring_formed", all(final["joined"]), final["joined"])
    history_gates(gates, result.pop("history"))
    endpoints = final["aio"] + [result["client_aio"]]
    dropped = sum(endpoint["dropped_frames"] for endpoint in endpoints)
    gates.check("no_dropped_frames", dropped == 0, {"dropped_frames": dropped})
    # The client endpoint counts what went onto the wire and what came
    # back independently of the generator's own books: every issued
    # request was sent, every response received matched one pending
    # request, and the rest are counted as failed.
    client = result["client_aio"]
    gates.check(
        "every_op_accounted",
        client["sent"] == result["issued"]
        and client["received"] == len(done) + result["stray"]
        and result["stray"] == 0
        and len(done) + result["unanswered"] == result["issued"],
        {
            "issued": result["issued"],
            "endpoint_sent": client["sent"],
            "endpoint_received": client["received"],
            "answered": len(done),
            "stray_responses": result["stray"],
            "unanswered": result["unanswered"],
        },
    )
    blocks = [result[phase][kind] for phase in ("light", "saturate") if phase in result for kind in ("get", "put")]
    gates.check(
        "tail_samples",
        all(block["tail_supported"] for block in blocks),
        {"counts": [block["count"] for block in blocks]},
    )
    if "light" in result:
        light = result["light"]
        lag = light["gen_lag"]["p99_ms"] / 1e3
        gates.check(
            "generator_kept_up",
            lag <= MAX_GEN_LAG_S,
            {"gen_lag_p99_ms": lag * 1e3, "limit_ms": MAX_GEN_LAG_S * 1e3},
        )
    else:
        gates.not_applicable("generator_kept_up", "no open-loop phase in this run")
    result["gates"] = gates
    del result["done"]
    result.pop("gen_lags", None)


def trace(seed: int, seconds: float, smoke: bool = False) -> dict:
    """The traced run, with an untraced saturate phase as its reference.

    The reference runs on its own server first; then the tracer is
    installed in this process and in a fresh server (both before their
    components exist, so handlers bound at subscription are wrapped) and
    both phases run traced.  ``trace.overhead_x`` is the untraced over the
    traced saturate throughput.  Server-side spans are summed per layer:
    stitching one request across the process boundary needs tracing inside
    the program.  Counters cover the traced phases only (not the warm-up),
    and the aio ones are also split by phase.
    """
    from perfbench.trace import Tracer, merge, span_layers

    server_cpu = place_client()
    reference = ServerProcess(cpu=server_cpu)
    try:
        ref = drive(reference, seed, {"saturate": phase_seconds(seconds)["saturate"]})
    finally:
        ref_final = reference.stop()
    finish(ref, ref_final)
    tracer = Tracer()
    tracer.install()
    try:
        server = ServerProcess(trace=True, cpu=server_cpu)
        try:
            result = drive(server, seed + 1, phase_seconds(seconds), tracer=tracer)
        finally:
            final = server.stop()
    finally:
        tracer.uninstall()
    finish(result, final)
    for name, gate in ref["gates"].results.items():
        if gate["status"] == "fail":
            result["gates"].results[name] = gate
    client_export = tracer.export(with_spans=True)
    layers = span_layers(merge([client_export, final["trace"]]))
    counters = result["counters"]
    window = counters["window"]
    layers.update({
        f"network.aio.{key}": window[f"aio.{key}"]
        for key in ("sent", "received", "batches", "avg_batch", "dropped_frames", "reconnects")
    })
    for phase in ("light", "saturate"):
        for key in ("sent", "avg_batch"):
            layers[f"network.aio.{phase}.{key}"] = counters[phase][f"aio.{key}"]
    layers.update({
        "network.aio.queued_peak": max(final["queued_peak"], result["client_queued_peak"]),
        "runtime.scheduler.slots": window["scheduler.executed_slots"],
        "runtime.work_stealing.steals": window["scheduler.steals"],
        "runtime.work_stealing.moved": window["scheduler.components_stolen"],
        "trace.window_s": result["window_s"],
        "trace.overhead_x": ref["metrics"]["ops_per_s"] / result["metrics"]["ops_per_s"],
    })
    for key in ABD_COUNTERS:
        layers[f"cats.abd.{key}"] = window[f"abd.{key}"]
    result["layers"] = layers
    result["reference"] = {"ops_per_s": ref["metrics"]["ops_per_s"], "gates": ref["gates"].results}
    result["spans"] = {"client": client_export}
    return result
